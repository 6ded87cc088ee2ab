"""Engine configuration.

``EngineConfig(workers=N)`` selects the degree of process-level parallelism
for the hot kernels (window-sliced MSM, per-polynomial coset FFT).  The
default is serial (``workers=1``): results are identical either way (group
arithmetic is exact and the parallel join is just a re-association), but
serial keeps the test suite free of pool startup cost and of any dependence
on the host's multiprocessing support.

Dispatch is **adaptive**: a ``workers=N`` engine only farms a kernel out
when the work is large enough for the pool to win, so a parallel engine
never regresses below the serial one.  The size thresholds are calibrated
from recorded telemetry histograms rather than guessed — the
``bench_groth16.py --smoke`` run they were set from showed ``msm.points``
topping out at 224 and ``fft.size`` at 128, sizes where process-pool
dispatch measured a *slowdown* (speedup 0.75) — and the worker count is
capped at the host's CPU count, since oversubscribed forks can only lose.
Setting ``adaptive=False`` restores unconditional dispatch above the
thresholds (useful for measuring the dispatch overhead itself).
"""


class EngineConfig:
    """Tuning knobs for an :class:`repro.engine.Engine`."""

    __slots__ = (
        "workers",
        "fb_window",
        "min_parallel_msm",
        "min_parallel_rows",
        "min_parallel_fft",
        "adaptive",
    )

    def __init__(self, workers=1, fb_window=8, min_parallel_msm=2048,
                 min_parallel_rows=1024, min_parallel_fft=4096,
                 adaptive=True):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: window width for cached fixed-base tables
        self.fb_window = fb_window
        #: below this many nonzero pairs an MSM is not worth farming out
        #: (calibrated: 224-point MSMs lose to pickling + dispatch)
        self.min_parallel_msm = min_parallel_msm
        #: below this many constraints a compiled evaluation stays serial
        self.min_parallel_rows = min_parallel_rows
        #: below this many evaluations a coset-extend vector stays serial
        #: (calibrated: size-128 FFTs lose to process dispatch)
        self.min_parallel_fft = min_parallel_fft
        #: cap effective workers at the host CPU count and keep small
        #: kernels serial, guaranteeing workers=N never loses to serial
        self.adaptive = adaptive

    def __repr__(self):
        return "EngineConfig(workers=%d)" % self.workers
