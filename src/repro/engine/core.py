"""The Engine: one front-end over the shared compute kernels.

An :class:`Engine` bundles an :class:`~repro.engine.config.EngineConfig`
with the memoized caches (twiddle/root tables, fixed-base tables, prepared
proving keys) and, when ``workers > 1``, a lazily-created *persistent warm*
process pool used by the window-sliced MSM and the per-polynomial coset
FFTs: the pool outlives individual kernel calls, and its workers are warmed
(forked and imported) at creation rather than on the first hot MSM.  Serial
and parallel engines produce identical group elements — parallelism only
re-associates exact arithmetic — so proofs are byte-identical across
configurations.

Dispatch is adaptive (see :class:`~repro.engine.config.EngineConfig`):
kernels below the calibrated size thresholds run serially even on a
``workers=N`` engine, and the effective worker count is capped at the host
CPU count, so a parallel engine never regresses below serial.

``DEFAULT_ENGINE`` is the module-wide serial engine; every API that accepts
an ``engine=`` argument treats ``None`` as "use the default".  If the host
cannot create a process pool (restricted sandboxes, missing semaphores),
the engine degrades to serial silently rather than failing the proof.
"""

import os

from ..telemetry import metrics as _metrics
from ..telemetry.trace import span as _span
from .config import EngineConfig
from .fft import (
    cached_coset_fft,
    cached_coset_ifft,
    cached_fft,
    cached_ifft,
    coset_extend,
)
from .group import JacobianGroup, OperatorGroup
from .msm import msm_generic
from .prepared import (
    compile_system,
    eval_cache_get,
    eval_cache_put,
    prepare_proving_key,
)
from .tables import cached_table

_jacobian_groups = {}

#: compute metrics (always on; see repro.telemetry.metrics) — observed once
#: per kernel call, never inside an inner loop
_MSM_POINTS = _metrics.histogram("msm.points")
_MSM_CALLS = _metrics.counter("msm.calls")
_POOL_TASKS = _metrics.counter("pool.tasks")
_POOL_FALLBACKS = _metrics.counter("pool.fallbacks")
_POOL_WARMUPS = _metrics.counter("pool.warmups")
_POOL_SERIAL_KEEPS = _metrics.counter("pool.serial_keeps")
_EVAL_ROWS_FULL = _metrics.counter("r1cs.rows.full")
_R1CS_CONSTRAINTS = _metrics.gauge("r1cs.constraints")


def _jacobian_group(curve):
    group = _jacobian_groups.get(curve)
    if group is None:
        group = JacobianGroup(curve)
        _jacobian_groups[curve] = group
    return group


def _noop():
    """Warm-up task: forces a worker fork + module import, returns nothing."""
    return None


class Engine:
    """Cached, optionally parallel compute for MSM, FFT, and setup tables."""

    def __init__(self, config=None):
        self.config = config or EngineConfig()
        self._pool = None
        self._pool_broken = False

    def __repr__(self):
        return "Engine(workers=%d)" % self.config.workers

    @property
    def workers(self):
        return self.config.workers

    # -- pool management ------------------------------------------------------

    @property
    def effective_workers(self):
        """Worker count after the adaptive CPU cap.

        Forking more workers than the host has cores cannot make exact
        arithmetic faster — the processes time-slice one another plus pay
        dispatch and pickling.  An adaptive engine therefore clamps to
        ``os.cpu_count()``; a 1-core host runs serial regardless of the
        requested ``workers`` (this is the never-regress dispatch rule's
        degenerate case).
        """
        if not self.config.adaptive:
            return self.config.workers
        return min(self.config.workers, os.cpu_count() or 1)

    def _get_pool(self):
        if self.effective_workers <= 1 or self._pool_broken:
            if self.config.workers > 1 and not self._pool_broken:
                _POOL_SERIAL_KEEPS.inc()
            return None
        if self._pool is None:
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:
                    ctx = multiprocessing.get_context()
                pool = ProcessPoolExecutor(
                    max_workers=self.effective_workers, mp_context=ctx
                )
                # warm the pool: pay fork + import once at creation, in a
                # span, instead of inside the first timed MSM
                with _span("engine.pool_warmup", workers=self.effective_workers):
                    for fut in [
                        pool.submit(_noop) for _ in range(self.effective_workers)
                    ]:
                        fut.result()
                _POOL_WARMUPS.inc()
                self._pool = pool
            except Exception:
                self._pool_broken = True
                return None
        return self._pool

    def _mark_pool_broken(self):
        self._pool_broken = True
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False)
            except Exception:
                pass
            self._pool = None

    def close(self):
        """Shut down the worker pool (a closed engine falls back to serial)."""
        self._mark_pool_broken()

    # -- MSM -------------------------------------------------------------------

    def _msm(self, group, bases, scalars):
        _MSM_CALLS.inc()
        _MSM_POINTS.observe(len(bases))
        pool = None
        if len(bases) >= self.config.min_parallel_msm:
            pool = self._get_pool()
        with _span("engine.msm", points=len(bases)):
            if pool is not None:
                try:
                    return msm_generic(
                        group, bases, scalars, pool=pool,
                        workers=self.effective_workers,
                    )
                except Exception:
                    # a dead/forbidden pool must not kill the proof
                    _POOL_FALLBACKS.inc()
                    self._mark_pool_broken()
            return msm_generic(group, bases, scalars)

    def msm_jacobian(self, curve, affine_bases, scalars):
        """Pippenger MSM over affine ``(x, y)`` tuples; Jacobian result."""
        return self._msm(_jacobian_group(curve), affine_bases, scalars)

    def msm_affine_point(self, curve, affine_bases, scalars):
        """Like :meth:`msm_jacobian` but returns an affine ``Point``."""
        from ..ec.curve import Point

        if not affine_bases:
            return curve.infinity
        return Point.from_jacobian(
            curve, self.msm_jacobian(curve, affine_bases, scalars)
        )

    def msm_points(self, points, scalars):
        """MSM over affine ``Point`` wrappers (infinity entries skipped)."""
        if len(points) != len(scalars):
            raise ValueError("msm: points and scalars differ in length")
        if not points:
            raise ValueError("msm: empty input")
        curve = points[0].curve
        bases, sc = [], []
        for pt, k in zip(points, scalars):
            if not pt.is_infinity:
                bases.append((pt.x, pt.y))
                sc.append(k)
        return self.msm_affine_point(curve, bases, sc)

    def msm_g2(self, points, scalars):
        """MSM over pairing ``G2Point``s (infinity entries skipped)."""
        from ..pairing.bn254 import BN254_R, G2Point

        bases, sc = [], []
        for pt, k in zip(points, scalars):
            if not pt.is_infinity:
                bases.append(pt)
                sc.append(k)
        group = OperatorGroup(G2Point.infinity(), order=BN254_R)
        return self._msm(group, bases, sc)

    # -- FFT -------------------------------------------------------------------

    def fft(self, values, omega):
        return cached_fft(values, omega)

    def ifft(self, values, omega):
        return cached_ifft(values, omega)

    def coset_fft(self, coeffs, omega):
        return cached_coset_fft(coeffs, omega)

    def coset_ifft(self, values, omega):
        return cached_coset_ifft(values, omega)

    def coset_extend_many(self, eval_vectors, omega):
        """IFFT + coset-FFT each vector; parallel across the pool if enabled.

        This is the prover's A/B/C transform: three independent
        ``m log m`` passes that parallelize perfectly — but only once the
        vectors are large enough that shipping them to a worker beats
        transforming them in place (``min_parallel_fft``; the smoke-size
        128-point vectors measured a 25% slowdown through the pool).
        """
        pool = None
        if len(eval_vectors) > 1 and (
            not eval_vectors
            or len(eval_vectors[0]) >= self.config.min_parallel_fft
        ):
            pool = self._get_pool()
        with _span("engine.coset_extend", vectors=len(eval_vectors)):
            if pool is not None:
                try:
                    futures = [
                        pool.submit(_metrics.run_with_delta, coset_extend, vec, omega)
                        for vec in eval_vectors
                    ]
                    _POOL_TASKS.inc(len(futures))
                    outs = [fut.result() for fut in futures]
                except Exception:
                    _POOL_FALLBACKS.inc()
                    self._mark_pool_broken()
                else:
                    results = []
                    for result, delta in outs:
                        _metrics.merge_delta(delta)
                        results.append(result)
                    return results
            return [coset_extend(vec, omega) for vec in eval_vectors]

    # -- generic fan-out -------------------------------------------------------

    def map_chunks(self, fn, chunks):
        """Apply a picklable ``fn`` to each chunk; pool-parallel if enabled.

        Results come back in chunk order, so any caller fold is identical
        to the serial one (the verifier's batched Miller loops rely on
        this: GT multiplication is exact, so slicing only re-associates).
        """
        pool = self._get_pool() if len(chunks) > 1 else None
        if pool is not None:
            try:
                futures = [
                    pool.submit(_metrics.run_with_delta, fn, chunk)
                    for chunk in chunks
                ]
                _POOL_TASKS.inc(len(futures))
                outs = [fut.result() for fut in futures]
            except Exception:
                _POOL_FALLBACKS.inc()
                self._mark_pool_broken()
            else:
                results = []
                for result, delta in outs:
                    _metrics.merge_delta(delta)
                    results.append(result)
                return results
        return [fn(chunk) for chunk in chunks]

    # -- compiled circuits -------------------------------------------------------

    def compile(self, system):
        """The memoized :class:`~repro.r1cs.compiled.CompiledCircuit` for a
        synthesized system (keyed by ``structure_hash()``)."""
        with _span("engine.compile", constraints=system.num_constraints):
            return compile_system(system)

    def evaluate_r1cs(self, system):
        """Single-pass A/B/C evaluation + satisfaction check via the
        compiled circuit.

        Returns ``(compiled, (a_evals, b_evals, c_evals))``; raises
        :class:`~repro.errors.UnsatisfiedError` naming the first failing
        row, exactly like ``ConstraintSystem.check_satisfied``.

        When the system has value tracking enabled (the synthesize-once /
        bind-per-proof statement flow), the previous proof's checked evals
        are cached and only rows reading a re-bound wire are recomputed.
        Full evaluations slice rows across the worker pool when the system
        is large enough; chunked results concatenate in row order, so
        parallel evals are identical to serial ones.
        """
        from ..r1cs.compiled import eval_rows

        compiled = self.compile(system)
        _R1CS_CONSTRAINTS.set(compiled.num_constraints)
        values = system.values
        dirty = system._dirty_wires  # None = tracking off
        if dirty is not None:
            cached = eval_cache_get(system, compiled)
            if cached is not None:
                with _span(
                    "engine.evaluate_r1cs",
                    constraints=compiled.num_constraints,
                    mode="incremental",
                    dirty_wires=len(dirty),
                ):
                    if not dirty:
                        return compiled, cached
                    evals = compiled.update_evals(cached, values, dirty)
                    system._dirty_wires = set()
                    eval_cache_put(system, compiled, evals)
                    return compiled, evals
        chunks = 1
        if (
            self.config.workers > 1
            and compiled.num_constraints >= self.config.min_parallel_rows
        ):
            chunks = self.config.workers
        with _span(
            "engine.evaluate_r1cs",
            constraints=compiled.num_constraints,
            mode="full",
        ):
            _EVAL_ROWS_FULL.inc(compiled.num_constraints)
            parts = self.map_chunks(
                eval_rows, compiled.chunk_payloads(values, chunks)
            )
            evals = compiled.merge_chunks(parts)
        if dirty is not None:
            system._dirty_wires = set()
            eval_cache_put(system, compiled, evals)
        return compiled, evals

    # -- setup tables and prepared keys -----------------------------------------

    def fixed_base_table(self, base, identity, max_bits, window=None):
        """A cached :class:`~repro.engine.tables.FixedBaseTable`."""
        return cached_table(
            base, identity, max_bits, window or self.config.fb_window
        )

    def prepare(self, pk):
        """The memoized :class:`~repro.engine.prepared.PreparedProvingKey`."""
        return prepare_proving_key(pk)


#: Process-wide serial engine; ``engine=None`` everywhere resolves to this.
DEFAULT_ENGINE = Engine()


def get_engine(engine=None):
    """Resolve an optional ``engine=`` argument to a concrete Engine."""
    return DEFAULT_ENGINE if engine is None else engine
