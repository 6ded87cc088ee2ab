"""Hierarchical tracing spans: a nested wall + CPU timing tree.

``span("groth16.prove")`` is a context manager (and, via :func:`traced`, a
decorator) that records wall and CPU time into the process-global
:data:`TRACER`.  Spans nest: a span entered while another is open becomes
its child, so one enabled proof run yields the full
``prove -> evaluate / h-coefficients / msm.*`` tree.

Tracing is OFF by default and the disabled path is a near-no-op: ``span()``
checks one flag and returns a shared inert singleton, so instrumented hot
paths cost a function call and a ``with`` block (< 1 us) per span site.
The CI overhead gate holds the enabled-vs-disabled delta on the smoke
prover below 5%.

Time flows through :mod:`repro.telemetry.clocks`, so installing a
``repro.clock.FakeClock`` makes every span duration deterministic.

An optional cProfile capture hook (``enable(profile=True)`` plus
``span(name, profile=True)``) attaches a profiler to chosen spans and
stores the top of the cumulative-time table in the span's attributes.
"""

import functools
import threading

from . import clocks


class Span:
    """One timed region: name, attributes, timings, children."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "perf_start",
        "perf_end",
        "cpu_start",
        "cpu_end",
        "error",
        "_tracer",
        "_profiler",
    )

    def __init__(self, tracer, name, attrs, profile=False):
        self.name = name
        self.attrs = dict(attrs)
        self.children = []
        self.perf_start = None
        self.perf_end = None
        self.cpu_start = None
        self.cpu_end = None
        self.error = None
        self._tracer = tracer
        self._profiler = None
        if profile and tracer.profile:
            import cProfile

            self._profiler = cProfile.Profile()

    @property
    def wall(self):
        """Wall-clock duration in seconds (None while open)."""
        if self.perf_end is None:
            return None
        return self.perf_end - self.perf_start

    @property
    def cpu(self):
        """CPU duration in seconds (None while open)."""
        if self.cpu_end is None:
            return None
        return self.cpu_end - self.cpu_start

    def annotate(self, **attrs):
        """Attach attributes to the span; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        self._tracer._push(self)
        self.perf_start = clocks.perf()
        self.cpu_start = clocks.cpu()
        if self._profiler is not None:
            self._profiler.enable()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._profiler is not None:
            self._profiler.disable()
            self.attrs["profile"] = _profile_summary(self._profiler)
            self._profiler = None
        self.perf_end = clocks.perf()
        self.cpu_end = clocks.cpu()
        if exc_type is not None:
            self.error = exc_type.__name__
        self._tracer._pop(self)
        return False

    def __repr__(self):
        wall = self.wall
        return "Span(%s%s)" % (
            self.name,
            "" if wall is None else ", wall=%.6fs" % wall,
        )


def _profile_summary(profiler, limit=25):
    """The top of a cProfile run as text (cumulative-time order)."""
    import io
    import pstats

    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats("cumulative").print_stats(limit)
    return out.getvalue()


class _NoopSpan:
    """The shared inert span returned while tracing is disabled."""

    __slots__ = ()

    wall = None
    cpu = None
    error = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def annotate(self, **attrs):
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans into per-thread trees; roots accumulate until reset."""

    def __init__(self):
        self.enabled = False
        #: whether ``span(..., profile=True)`` actually attaches cProfile
        self.profile = False
        self.roots = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, profile=False, **attrs):
        """A new child of the current span (root if none), or the no-op."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs, profile=profile)

    def current(self):
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span):
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span):
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def enable(self, profile=False):
        self.enabled = True
        self.profile = profile

    def disable(self):
        self.enabled = False
        self.profile = False

    def reset(self):
        """Drop recorded roots (open spans on other threads are orphaned)."""
        with self._lock:
            self.roots = []
        self._local = threading.local()


#: the process-global tracer all instrumented modules record into
TRACER = Tracer()


def span(name, profile=False, **attrs):
    """Open a span on the global tracer (no-op singleton when disabled)."""
    if not TRACER.enabled:
        return NOOP_SPAN
    return Span(TRACER, name, attrs, profile=profile)


def traced(name=None, **attrs):
    """Decorator form: the whole call body becomes one span."""

    def decorate(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not TRACER.enabled:
                return fn(*args, **kwargs)
            with Span(TRACER, span_name, attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def enable(profile=False):
    """Turn span recording on (optionally with the cProfile hook)."""
    TRACER.enable(profile=profile)


def disable():
    TRACER.disable()


def is_enabled():
    return TRACER.enabled
