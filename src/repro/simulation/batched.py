"""Batched dense state-vector simulator for mixed-radix registers.

A :class:`BatchedMixedRadixState` carries one amplitude vector *per shot* as
a ``(batch, dimension)`` matrix and evolves all of them in single NumPy
calls.  It is the state backend of the vectorised state-tracking trajectory
path: replaying a compiled circuit applies each op's embedded unitary to the
whole batch at once, and the stochastic noise injections (Pauli strings,
damping jumps) touch only the lanes whose error fired.

The batched GEMM pipeline lives here alone: :func:`build_plan` (the only
plan cache and the only wide-or-stacked decision) and ``_LazyState`` (plans
executed in a lazily-tracked layout) serve both :meth:`apply` and the
fused kernel programs of :mod:`repro.noise.kernel`.

Bit-exactness contract: every lane evolves **bit-identically** to a
:class:`~repro.simulation.statevector.MixedRadixState` fed the same
operators.  Two implementation choices make that hold:

* Every GEMM operand is the scalar class's transpose → reshape-copy,
  batched.  NumPy's stacked ``matmul`` dispatches the same BLAS GEMM per
  ``(sub_dim, rest)`` slice as the scalar 2-D product, and the wide panel
  is used only where the BLAS build keeps columns panel-width
  independent, so each lane sees the identical kernel on identical memory
  (the golden-equivalence tests pin this).
* Inner products (Kraus branch weights, fidelities) are computed with the
  scalar path's own ``np.vdot`` per lane — BLAS matrix-vector products sum
  in a different order and differ in the last ulp, which would break the
  trajectory engine's bit-identical-to-reference guarantee.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.simulation.statevector import DEAD_BRANCH_WEIGHT

#: Lazily probed: True when this build's BLAS produces bit-identical
#: columns whatever the GEMM panel width (see :func:`_wide_panels_bitstable`).
_WIDE_PANEL_OK: bool | None = None


def _wide_panels_bitstable() -> bool:
    """Probe whether widening a GEMM's column panel preserves each column's bits.

    The wide batched layout is only bit-identical to the scalar per-lane
    product if the BLAS kernel computes every column independently of the
    panel width.  That holds for the power-of-two panel shapes mixed-radix
    registers produce on the BLAS builds we test, but it is a kernel
    property, not a guarantee — so it is probed once per process on
    deterministic data, and the wide path is disabled wholesale if any
    representative shape diverges.  Cached in :data:`_WIDE_PANEL_OK`.
    """
    global _WIDE_PANEL_OK
    if _WIDE_PANEL_OK is None:
        ok = True
        for sub, rest, batch in ((2, 4, 5), (2, 8, 3), (4, 4, 7), (4, 16, 2), (8, 8, 3)):
            cells = sub * sub
            operator = (
                np.sin(np.arange(cells, dtype=np.float64) + 1.0)
                + 1j * np.cos(np.arange(cells) * 0.7)
            ).reshape(sub, sub)
            lanes = (
                np.sin(np.arange(batch * sub * rest) * 0.3 + 0.1)
                + 1j * np.cos(np.arange(batch * sub * rest) * 1.3)
            ).reshape(batch, sub, rest)
            wide = (operator @ np.ascontiguousarray(
                lanes.transpose(1, 0, 2)).reshape(sub, -1)
            ).reshape(sub, batch, rest).transpose(1, 0, 2)
            for lane in range(batch):
                scalar = operator @ np.ascontiguousarray(lanes[lane])
                if not (wide[lane] == scalar).all():
                    ok = False
        _WIDE_PANEL_OK = ok
    return _WIDE_PANEL_OK


# ----------------------------------------------------------------------
# plans: the per-op permutation/reshape recipe, computed once
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApplyPlan:
    """Precomputed data-movement recipe for one target unit tuple.

    The target axis order over the canonical ``(batch,) + dims`` tensor,
    the GEMM operand shape family (wide panel vs stacked batch) and the
    post-GEMM tensor shape.  Plans depend only on ``dims`` and ``units``,
    so one plan serves every block size and lane subset.
    """

    units: tuple[int, ...]
    sub_dim: int
    rest: int
    #: True when the GEMM uses the wide-panel layout (batch axis folded
    #: into the columns).
    wide: bool
    #: Axis order over the canonical ``(batch,) + dims`` tensor the GEMM
    #: operand is gathered in (axis 0 of the canonical tensor = lanes).
    axes: tuple[int, ...]
    #: Tensor shape in ``axes`` order with 0 at the batch slot (filled
    #: with the live lane count at execution time).
    shape_template: tuple[int, ...]

    def shape(self, count: int) -> tuple[int, ...]:
        """The post-GEMM tensor shape for a ``count``-lane batch."""
        return tuple(count if entry == 0 else entry for entry in self.shape_template)


@functools.lru_cache(maxsize=4096)
def build_plan(dims: tuple[int, ...], units: tuple[int, ...]) -> ApplyPlan:
    """The :class:`ApplyPlan` for ``units`` on a ``dims`` register (cached).

    Two layouts, both bit-identical per lane to the scalar 2-D product
    ``operator @ matrix`` with ``matrix`` of shape ``(sub_dim, rest)``:

    * wide panel: the batch moves into the GEMM's *columns* — one
      ``(sub_dim, count * rest)`` product instead of ``count`` BLAS
      dispatches.  A lane's bits survive the widening only while every
      lane's column span stays aligned to the BLAS kernel's register
      blocking, so this layout is used only where that holds:
      power-of-two ``sub_dim`` *and* ``rest`` (every mixed-radix register
      of 2-/4-level units qualifies) with ``rest > 2`` (NumPy
      special-cases skinnier products), and only after
      :func:`_wide_panels_bitstable` has confirmed once per process that
      this BLAS build keeps columns panel-width independent.  The batch
      axis sits between the target and spectator axes so the gather and
      scatter copies walk the source near-contiguously.
    * otherwise: the batch stays on axis 0 and the stacked ``matmul``
      issues the scalar path's exact per-lane call — trivially
      bit-identical at per-lane dispatch cost.
    """
    dims = tuple(int(d) for d in dims)
    units = tuple(int(u) for u in units)
    dimension = int(np.prod(dims))
    sub_dim = int(np.prod([dims[u] for u in units]))
    rest = dimension // sub_dim
    aligned = (sub_dim & (sub_dim - 1)) == 0 and (rest & (rest - 1)) == 0
    wide = rest > 2 and aligned and _wide_panels_bitstable()
    targets = [unit + 1 for unit in units]
    spectators = [axis + 1 for axis in range(len(dims)) if axis not in units]
    axes = targets + [0] + spectators if wide else [0] + targets + spectators
    shape_template = tuple(0 if axis == 0 else dims[axis - 1] for axis in axes)
    return ApplyPlan(
        units=units, sub_dim=sub_dim, rest=rest, wide=wide,
        axes=tuple(axes), shape_template=shape_template,
    )


# ----------------------------------------------------------------------
# the lazily-permuted batch tensor
# ----------------------------------------------------------------------
class _LazyState:
    """Cursor over one block's amplitudes in a lazily-tracked layout.

    ``layout`` records the current axis order over the canonical
    ``(batch,) + dims`` tensor; transitions compose transposes (views)
    and materialise exactly one C-contiguous copy per layout change — the
    copy the scalar pipeline's pre-GEMM reshape makes — while the scalar
    pipeline's post-GEMM scatter back to canonical is deferred to
    :meth:`restore`.
    """

    __slots__ = ("count", "tensor", "layout")

    def __init__(self, dims: tuple[int, ...], amps: np.ndarray) -> None:
        self.count = amps.shape[0]
        self.tensor = amps.reshape((self.count,) + dims)
        self.layout = tuple(range(len(dims) + 1))

    def _to_layout(self, tensor: np.ndarray, target: tuple[int, ...]) -> np.ndarray:
        """View of ``tensor`` (held in ``self.layout``) in ``target`` order."""
        if self.layout == target:
            return tensor
        layout = self.layout
        return tensor.transpose(tuple(layout.index(axis) for axis in target))

    def _product(self, matrix: np.ndarray, plan: ApplyPlan,
                 tensor: np.ndarray, count: int) -> np.ndarray:
        """``matrix`` applied to ``count`` lanes of ``tensor``, in ``plan``'s layout."""
        view = self._to_layout(tensor, plan.axes)
        # the reshape materialises the permuted view C-contiguous — the
        # same values in the same layout the scalar pre-GEMM copy produces
        if plan.wide:
            operand = view.reshape(plan.sub_dim, -1)
        else:
            operand = view.reshape(count, plan.sub_dim, -1)
        return (matrix @ operand).reshape(plan.shape(count))

    def apply_all(self, matrix: np.ndarray, plan: ApplyPlan) -> None:
        """Apply ``matrix`` to every lane, leaving the state in ``plan``'s layout."""
        self.tensor = self._product(matrix, plan, self.tensor, self.count)
        self.layout = plan.axes

    def apply_lanes(self, matrix: np.ndarray, plan: ApplyPlan, lanes: np.ndarray) -> None:
        """Apply ``matrix`` to a lane subset, preserving the current layout.

        Gather, transform, scatter — with the gather and scatter
        addressing the current lazy layout: the GEMM operand is
        bit-identical because gathering lanes and permuting axes commute
        exactly.
        """
        batch_axis = self.layout.index(0)
        selected = np.take(self.tensor, lanes, axis=batch_axis)
        permuted = self._product(matrix, plan, selected, int(lanes.size))
        back = tuple(plan.axes.index(axis) for axis in self.layout)
        index = (slice(None),) * batch_axis + (lanes,)
        self.tensor[index] = permuted.transpose(back)

    def restore(self) -> np.ndarray:
        """The canonical ``(count, dimension)`` amplitude matrix."""
        view = self._to_layout(self.tensor, tuple(range(self.tensor.ndim)))
        return view.reshape(self.count, -1)


class BatchedMixedRadixState:
    """A batch of state vectors over one register of qudits.

    Parameters
    ----------
    dims:
        Dimension of each physical unit, in register order.
    batch:
        Number of independent state vectors (shots), all initialised to
        the all-zeros basis state.
    """

    def __init__(self, dims: tuple[int, ...] | list[int], batch: int) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("a register needs at least one unit")
        if any(d < 2 for d in dims):
            raise ValueError("every unit must have dimension at least 2")
        if batch < 0:
            raise ValueError("batch must be non-negative")
        self.dims = dims
        self.num_units = len(dims)
        self.dimension = int(np.prod(dims))
        self.batch = int(batch)
        self._amps = np.zeros((self.batch, self.dimension), dtype=complex)
        self._amps[:, 0] = 1.0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def vectors(self) -> np.ndarray:
        """A ``(batch, dimension)`` copy of every lane's amplitude vector."""
        return self._amps.copy()

    @property
    def amplitudes(self) -> np.ndarray:
        """The live ``(batch, dimension)`` amplitude matrix — no copy.

        Kernel-executor plumbing (:mod:`repro.noise.kernel`): fused runs
        evolve this array outside the class and hand the result back via
        :meth:`replace_amplitudes`.  Mutating it bypasses every invariant
        this class maintains; ordinary callers want :meth:`vectors`.
        """
        return self._amps

    def replace_amplitudes(self, amps: np.ndarray) -> None:
        """Adopt ``amps`` as the batch's amplitudes, exactly as given.

        Unlike :meth:`set_vectors` this neither renormalises nor checks
        norms — the kernel executor's output is bit-exact by construction
        and must not be perturbed.  Shape and dtype are still enforced.
        """
        if amps.shape != (self.batch, self.dimension):
            raise ValueError(
                f"amplitude matrix must have shape ({self.batch}, {self.dimension})"
            )
        if amps.dtype != self._amps.dtype:
            raise ValueError(f"amplitude matrix must have dtype {self._amps.dtype}")
        self._amps = amps

    def set_vectors(self, matrix: np.ndarray, atol: float = 1e-3) -> None:
        """Replace every lane's amplitudes (renormalising small drift).

        Lanes whose norm deviates from 1 by more than ``atol`` raise — a
        wrong-sized or grossly unnormalised matrix is a caller bug — but
        accumulated float drift (long Kraus chains) is silently
        renormalised rather than rejected.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (self.batch, self.dimension):
            raise ValueError(
                f"amplitude matrix must have shape ({self.batch}, {self.dimension})"
            )
        norms = np.linalg.norm(matrix, axis=1)
        if not np.allclose(norms, 1.0, atol=atol):
            raise ValueError("every lane must carry a normalised state vector")
        self._amps = matrix / norms[:, None]

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def _plan(self, operator: np.ndarray, units: tuple[int, ...] | list[int]) -> ApplyPlan:
        units = tuple(int(u) for u in units)
        if len(set(units)) != len(units):
            raise ValueError("target units must be distinct")
        for unit in units:
            if not 0 <= unit < self.num_units:
                raise ValueError(f"unit index {unit} out of range")
        plan = build_plan(self.dims, units)
        if operator.shape != (plan.sub_dim, plan.sub_dim):
            raise ValueError(
                f"operator of shape {operator.shape} does not match target dimensions {plan.sub_dim}"
            )
        return plan

    def apply(self, unitary: np.ndarray, units: tuple[int, ...] | list[int],
              lanes: np.ndarray | None = None) -> None:
        """Apply ``unitary`` to the listed units on every lane (or a subset).

        ``lanes`` is an optional integer index array restricting the
        operation — the trajectory engine uses it to inject a sampled Pauli
        only on the shots whose error fired.
        """
        plan = self._plan(unitary, units)
        state = _LazyState(self.dims, self._amps)
        if lanes is None:
            state.apply_all(unitary, plan)
        elif lanes.size:
            state.apply_lanes(unitary, plan, lanes)
        self._amps = state.restore()

    def apply_kraus(self, operator: np.ndarray, units: tuple[int, ...] | list[int],
                    lanes: np.ndarray | None = None) -> np.ndarray:
        """Apply a (possibly non-unitary) Kraus operator and renormalise.

        Returns each affected lane's pre-normalisation squared norm — the
        probability weight of the branch.  Lanes with (near-)zero weight
        are left unchanged and report 0.0, so an impossible jump is a
        no-op, exactly like the scalar class.
        """
        plan = self._plan(operator, units)
        selected = self._amps if lanes is None else self._amps[lanes]
        if selected.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        state = _LazyState(self.dims, selected)
        state.apply_all(operator, plan)
        transformed = state.restore()
        del state  # free the GEMM product before the renormalisation temporaries
        # per-lane np.vdot: the scalar path's own reduction, for bit-equality
        weights = np.array(
            [float(np.vdot(row, row).real) for row in transformed], dtype=np.float64
        )
        dead = weights < DEAD_BRANCH_WEIGHT
        if dead.any():
            transformed[dead] = selected[dead]
        live = ~dead
        if live.any():
            transformed[live] = transformed[live] / np.sqrt(weights[live])[:, None]
        if lanes is None:
            self._amps = transformed
        else:
            self._amps[lanes] = transformed
        weights[dead] = 0.0
        return weights

    # ------------------------------------------------------------------
    # measurement-style queries (non-destructive)
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """``(batch, dimension)`` probability of each joint basis state."""
        return np.abs(self._amps) ** 2

    def unit_populations(self, unit: int) -> np.ndarray:
        """``(batch, dims[unit])`` marginal level populations of one unit."""
        if not 0 <= unit < self.num_units:
            raise ValueError(f"unit index {unit} out of range")
        tensor = np.abs(self._amps.reshape((self.batch,) + self.dims)) ** 2
        axes = tuple(axis + 1 for axis in range(self.num_units) if axis != unit)
        return tensor.sum(axis=axes)

    def fidelities_with(self, vector: np.ndarray) -> np.ndarray:
        """Per-lane squared overlap ``|<vector | lane>|**2``.

        Computed with one ``np.vdot`` per lane so every value is bit-equal
        to the scalar path's fidelity.
        """
        vector = np.asarray(vector)
        if vector.shape != (self.dimension,):
            raise ValueError(f"vector must have shape ({self.dimension},)")
        return np.array(
            [float(abs(np.vdot(vector, row)) ** 2) for row in self._amps],
            dtype=np.float64,
        )

    def fidelities_with_batch(self, other: "BatchedMixedRadixState") -> np.ndarray:
        """Per-lane squared overlap ``|<other_lane | lane>|**2``.

        Pairs lane ``i`` of this batch with lane ``i`` of ``other`` — the
        dynamic trajectory path's per-shot ideal-vs-noisy fidelity, where
        each lane followed its own branch decisions.  One ``np.vdot`` per
        lane, bit-equal to the scalar path.
        """
        if other.dims != self.dims:
            raise ValueError("batches live on different registers")
        if other.batch != self.batch:
            raise ValueError("batches must have the same number of lanes")
        return np.array(
            [
                float(abs(np.vdot(other._amps[lane], self._amps[lane])) ** 2)
                for lane in range(self.batch)
            ],
            dtype=np.float64,
        )

    def sample_outcomes(self, draws: np.ndarray) -> np.ndarray:
        """Sample one joint computational-basis outcome per lane.

        ``draws`` supplies one uniform [0, 1) variate per lane; the outcome
        is the basis index picked by inverse-CDF sampling over the lane's
        probability vector (mixed-radix units decode via
        :meth:`~repro.simulation.statevector.MixedRadixState.basis_labels`).
        """
        draws = np.asarray(draws, dtype=np.float64)
        if draws.shape != (self.batch,):
            raise ValueError(f"draws must have shape ({self.batch},)")
        cumulative = np.cumsum(self.probabilities(), axis=1)
        # guard against float undershoot: the final CDF entry covers 1.0
        cumulative[:, -1] = np.maximum(cumulative[:, -1], 1.0)
        indices = (cumulative <= draws[:, None]).sum(axis=1)
        return np.minimum(indices.astype(np.int64), self.dimension - 1)
