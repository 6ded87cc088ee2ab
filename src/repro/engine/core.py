"""The Engine: one front-end over the shared compute kernels.

An :class:`Engine` routes MSM, FFT, R1CS evaluation and setup-table work
through the memoized caches (twiddle/root tables, fixed-base tables,
compiled circuits, prepared proving keys) and opens the ``engine.*``
spans and metrics around each kernel call.  It runs in-process and
serially.

The engine holds no state of its own (the caches live in the kernel
modules), so there is exactly one: :func:`get_engine` returns it.
"""

from ..telemetry import metrics as _metrics
from ..telemetry.trace import span as _span
from .fft import cached_coset_ifft, coset_extend
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
_EVAL_ROWS_FULL = _metrics.counter("r1cs.rows.full")
_R1CS_CONSTRAINTS = _metrics.gauge("r1cs.constraints")

#: window width of the cached fixed-base setup tables
FIXED_BASE_WINDOW = 8


def _jacobian_group(curve):
    group = _jacobian_groups.get(curve)
    if group is None:
        group = JacobianGroup(curve)
        _jacobian_groups[curve] = group
    return group


class Engine:
    """Cached compute for MSM, FFT, R1CS evaluation, and setup tables."""

    #: the engine is serial; the e2e bench records this as ``engine_workers``
    workers = 1

    # -- MSM -------------------------------------------------------------------

    def _msm(self, group, bases, scalars):
        with _span("engine.msm", points=len(bases)):
            return msm_generic(group, bases, scalars)

    def msm_affine_point(self, curve, affine_bases, scalars):
        """Pippenger MSM over affine ``(x, y)`` tuples; affine ``Point``."""
        from ..ec.curve import Point

        if not affine_bases:
            return curve.infinity
        return Point.from_jacobian(
            curve, self._msm(_jacobian_group(curve), affine_bases, scalars)
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

    def coset_ifft(self, values, omega):
        return cached_coset_ifft(values, omega)

    def coset_extend_many(self, eval_vectors, omega):
        """IFFT + coset-FFT each vector: the prover's A/B/C transform."""
        with _span("engine.coset_extend", vectors=len(eval_vectors)):
            return [coset_extend(vec, omega) for vec in eval_vectors]

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
        """
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
        with _span(
            "engine.evaluate_r1cs",
            constraints=compiled.num_constraints,
            mode="full",
        ):
            _EVAL_ROWS_FULL.inc(compiled.num_constraints)
            evals = compiled.evaluate(values)
        if dirty is not None:
            system._dirty_wires = set()
            eval_cache_put(system, compiled, evals)
        return compiled, evals

    # -- setup tables and prepared keys -----------------------------------------

    def fixed_base_table(self, base, identity, max_bits):
        """A cached :class:`~repro.engine.tables.FixedBaseTable`."""
        return cached_table(base, identity, max_bits, FIXED_BASE_WINDOW)

    def prepare(self, pk):
        """The memoized :class:`~repro.engine.prepared.PreparedProvingKey`."""
        return prepare_proving_key(pk)


_ENGINE = Engine()


def get_engine():
    """The process-wide :class:`Engine`."""
    return _ENGINE
