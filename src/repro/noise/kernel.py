"""Fused shot-evolution kernel programs for the trajectory hot path.

This module compiles each :class:`~repro.compiler.result.CompiledCircuit`
**once** into a flat kernel program that the engine's block walker
executes without per-op Python dispatch:

* :func:`build_plan` precomputes every op's permutation/reshape plan —
  target axis order, GEMM operand shape, wide-panel eligibility — so the
  hot loop does pure data movement plus GEMMs, no recomputation.
* :class:`FusedRun` is a maximal stretch of non-dynamic ops compiled into
  a flat schedule of :class:`UnitaryStep` and :class:`NoiseSite` items.
  Executing a run keeps the block's amplitudes in a **lazily-permuted
  layout**: each unitary's GEMM leaves the tensor in that op's permuted
  layout, and the next op gathers directly from there — the per-op
  scatter pass back to the canonical ``(batch, dimension)`` layout is
  skipped entirely (one restore at the end of the run).  Adjacent ops on
  the same unit tuple share a layout, so their GEMMs run back to back
  with **zero** copies between them — the layout-level folding of
  adjacent same-unit unitaries.  This halves the memory traffic of the
  tracked path, which is memory-bound at register dimension >= 512.
* :class:`EmbeddingTable` embeds the single-slot operators (Paulis,
  measurement projectors, damping Kraus operators) once per register, for
  the scalar reference, the engine's canonical-layout op step and the
  schedule's noise sites alike.
* :class:`EventKernel` is the event-only engine's program: one fused
  threshold vector compared against the whole draw matrix in a single
  vectorised pass.

Bit-equality invariant: the fused program performs the **same arithmetic
on the same values in the same order** as the canonical-layout per-op
step.  Layout transitions compose transposes — exact index bookkeeping —
and every GEMM operand is materialised C-contiguous exactly where the
eager pipeline's reshape copy would have materialised it, so each GEMM
consumes bit-identical memory and produces bit-identical output.  The
golden tests assert fused chunks ``==`` the retained scalar
``run_reference`` across presets x strategies x seeds x block splits.

Kernel schedules are cached on the compiled artifact
(:meth:`~repro.compiler.result.CompiledCircuit.cached_schedule`), keyed
by register dims — every engine over one artifact (one per noise model)
shares one compiled program.  Kernel programs never enter point content
keys: they change how results are computed, not what they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pulses.unitaries import qubit_gate
from repro.simulation.batched import _wide_panels_bitstable
from repro.simulation.verify import embed_on_slots


# ----------------------------------------------------------------------
# plans: the per-op permutation/reshape recipe, computed once
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApplyPlan:
    """Precomputed data-movement recipe for one target unit tuple.

    Captures everything :meth:`BatchedMixedRadixState._transform` derives
    per call: the target axis order over the canonical ``(batch,) + dims``
    tensor, the GEMM operand shape family (wide panel vs stacked batch)
    and the post-GEMM tensor shape.  Plans depend only on ``dims`` and
    ``units``, so one plan serves every block size and lane subset.
    """

    units: tuple[int, ...]
    sub_dim: int
    rest: int
    #: True when the GEMM uses the wide-panel layout (batch axis folded
    #: into the columns); mirrors the eager path's per-call decision.
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


def build_plan(dims: tuple[int, ...], units: tuple[int, ...]) -> ApplyPlan:
    """Compute the :class:`ApplyPlan` for ``units`` on a ``dims`` register.

    The wide/stacked decision reproduces the eager path exactly: wide
    panels need power-of-two ``sub_dim`` and ``rest``, ``rest > 2``, and
    the once-per-process BLAS bit-stability probe to pass.
    """
    dims = tuple(int(d) for d in dims)
    units = tuple(int(u) for u in units)
    dimension = int(np.prod(dims))
    sub_dim = int(np.prod([dims[u] for u in units]))
    others = [axis for axis in range(len(dims)) if axis not in units]
    rest = dimension // sub_dim
    aligned = (sub_dim & (sub_dim - 1)) == 0 and (rest & (rest - 1)) == 0
    wide = rest > 2 and aligned and _wide_panels_bitstable()
    if wide:
        axes = [unit + 1 for unit in units] + [0] + [axis + 1 for axis in others]
    else:
        axes = [0] + [unit + 1 for unit in units] + [axis + 1 for axis in others]
    shape_template = tuple(0 if axis == 0 else dims[axis - 1] for axis in axes)
    return ApplyPlan(
        units=units, sub_dim=sub_dim, rest=rest, wide=wide,
        axes=tuple(axes), shape_template=shape_template,
    )


# ----------------------------------------------------------------------
# the embedding table: single-slot operators, embedded once per register
# ----------------------------------------------------------------------
#: Pauli codes used when a depolarizing event fires (0 = identity).
PAULI_NAMES = ("i", "x", "y", "z")

#: An embedded operator and the physical units it acts on.
Embedded = tuple[np.ndarray, tuple[int, ...]]


class EmbeddingTable:
    """Single-slot operators embedded on one register, each built once.

    Every tracked path over a register draws its Paulis, measurement
    projectors and damping Kraus operators from a table like this one, so
    the scalar reference, the batched canonical-layout op step and the
    schedule's :class:`NoiseSite` items apply identical arrays.  Entries
    are the ``(matrix, units)`` pairs ``apply``/``apply_kraus`` take;
    :meth:`plan` adds the cached :class:`ApplyPlan` of a unit tuple.
    """

    def __init__(self, dims: tuple[int, ...]) -> None:
        self.dims = tuple(int(d) for d in dims)
        self._operators: dict[tuple, Embedded] = {}
        self._plans: dict[tuple[int, ...], ApplyPlan] = {}

    def plan(self, units: tuple[int, ...]) -> ApplyPlan:
        """The :class:`ApplyPlan` for ``units``, built once."""
        plan = self._plans.get(units)
        if plan is None:
            plan = self._plans[units] = build_plan(self.dims, units)
        return plan

    def _embedded(self, key: tuple, unit: int, slot: int, matrix) -> Embedded:
        entry = self._operators.get((key, unit, slot))
        if entry is None:
            entry = embed_on_slots(self.dims, matrix(), ((unit, slot),))
            self._operators[(key, unit, slot)] = entry
        return entry

    def pauli(self, unit: int, slot: int, code: int) -> Embedded:
        """Pauli ``code`` (1=X, 2=Y, 3=Z) on the encoded qubit at ``(unit, slot)``."""
        return self._embedded(("pauli", code), unit, slot,
                              lambda: qubit_gate(PAULI_NAMES[code]))

    def projector(self, unit: int, slot: int, outcome: int) -> Embedded:
        """Measurement projector ``|outcome><outcome|`` at ``(unit, slot)``."""
        return self._embedded(("projector", outcome), unit, slot,
                              lambda: np.diag(np.arange(2) == outcome).astype(complex))

    def damping_jump(self, unit: int, slot: int) -> Embedded:
        """The jump operator K1 ∝ |0><1| at ``(unit, slot)``."""
        return self._embedded(("jump",), unit, slot,
                              lambda: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def damping_survival(self, unit: int, slot: int, gamma: float) -> Embedded:
        """The no-jump operator K0 = diag(1, sqrt(1-gamma)) at ``(unit, slot)``."""
        return self._embedded(("survival", gamma), unit, slot, lambda: np.array(
            [[1.0, 0.0], [0.0, np.sqrt(max(0.0, 1.0 - gamma))]], dtype=complex
        ))


# ----------------------------------------------------------------------
# program items
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitaryStep:
    """One embedded op unitary with its precomputed plan."""

    op_index: int
    matrix: np.ndarray
    plan: ApplyPlan


@dataclass(frozen=True)
class NoiseSite:
    """One op's depolarizing error site, Pauli operators pre-embedded.

    ``paulis[position][code - 1]`` is the embedded ``(matrix, plan)`` for
    Pauli ``code`` (1=X, 2=Y, 3=Z) on slot ``position`` — the per-op dict
    lookups and re-embeddings of the eager path, done once at compile.
    """

    op_index: int
    slots: tuple[tuple[int, int], ...]
    #: Exclusive upper bound of the Pauli-string draw (``4 ** len(slots)``).
    bound: int
    paulis: tuple[tuple[tuple[np.ndarray, ApplyPlan], ...], ...]


@dataclass(frozen=True)
class FusedRun:
    """A maximal stretch of non-dynamic ops, executed in lazy layout."""

    items: tuple[UnitaryStep | NoiseSite, ...]
    #: The unitary steps alone — the noise-free pass a dynamic program's
    #: parallel ideal batch takes through the same stretch.
    unitaries: tuple[UnitaryStep, ...]


# ----------------------------------------------------------------------
# the lazily-permuted batch tensor
# ----------------------------------------------------------------------
class _LazyState:
    """Cursor over one block's amplitudes in a lazily-tracked layout.

    ``layout`` records the current axis order over the canonical
    ``(batch,) + dims`` tensor; transitions compose transposes (views)
    and materialise exactly one C-contiguous copy per layout change — the
    copy the eager pipeline's pre-GEMM reshape would have made — while
    the eager path's post-GEMM scatter back to canonical is skipped.
    """

    __slots__ = ("dims", "count", "tensor", "layout", "_identity")

    def __init__(self, dims: tuple[int, ...], amps: np.ndarray) -> None:
        self.dims = dims
        self.count = amps.shape[0]
        self.tensor = amps.reshape((self.count,) + dims)
        self._identity = tuple(range(len(dims) + 1))
        self.layout = self._identity

    def _to_layout(self, tensor: np.ndarray, target: tuple[int, ...]) -> np.ndarray:
        """View of ``tensor`` (held in ``self.layout``) in ``target`` order."""
        if self.layout == target:
            return tensor
        layout = self.layout
        return tensor.transpose(tuple(layout.index(axis) for axis in target))

    def apply_all(self, matrix: np.ndarray, plan: ApplyPlan) -> None:
        """Apply ``matrix`` to every lane, leaving the state in ``plan``'s layout."""
        view = self._to_layout(self.tensor, plan.axes)
        # the reshape materialises the permuted view C-contiguous — the
        # same values in the same layout the eager pre-GEMM copy produces
        if plan.wide:
            operand = view.reshape(plan.sub_dim, -1)
        else:
            operand = view.reshape(self.count, plan.sub_dim, -1)
        product = matrix @ operand
        self.tensor = product.reshape(plan.shape(self.count))
        self.layout = plan.axes

    def apply_lanes(self, matrix: np.ndarray, plan: ApplyPlan, lanes: np.ndarray) -> None:
        """Apply ``matrix`` to a lane subset, preserving the current layout.

        Mirrors the eager lane-masked apply (gather, transform, scatter)
        except the gather/scatter address the current lazy layout — the
        GEMM operand is bit-identical because gathering lanes and
        permuting axes commute exactly.
        """
        batch_axis = self.layout.index(0)
        selected = np.take(self.tensor, lanes, axis=batch_axis)
        view = self._to_layout(selected, plan.axes)
        count = int(lanes.size)
        if plan.wide:
            operand = view.reshape(plan.sub_dim, -1)
        else:
            operand = view.reshape(count, plan.sub_dim, -1)
        product = matrix @ operand
        permuted = product.reshape(plan.shape(count))
        back = tuple(plan.axes.index(axis) for axis in self.layout)
        index = (slice(None),) * batch_axis + (lanes,)
        self.tensor[index] = permuted.transpose(back)

    def restore(self) -> np.ndarray:
        """The canonical ``(count, dimension)`` amplitude matrix."""
        view = self._to_layout(self.tensor, self._identity)
        return view.reshape(self.count, -1)


# ----------------------------------------------------------------------
# the compiled program
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSchedule:
    """One compiled circuit's flat kernel program.

    ``segments`` alternates :class:`FusedRun` stretches with bare op
    indices — the dynamic ops (mid-circuit measurement/reset, conditioned
    ops) the engine must handle in canonical layout with per-lane branch
    masks.  Static circuits compile to a single fused run; a schedule of
    bare indices only is the unfused per-op baseline.
    """

    dims: tuple[int, ...]
    segments: tuple[FusedRun | int, ...]
    num_ops: int

    def execute_run(
        self,
        run: FusedRun,
        amps: np.ndarray,
        gate_mask: np.ndarray,
        rng_lanes,
    ) -> np.ndarray:
        """Execute one fused run on ``amps`` (``(count, dimension)``, owned).

        ``rng_lanes`` is the block's :class:`~repro.noise.rng.GeneratorLanes`;
        fired noise sites draw their Pauli strings mid-run at exactly the
        stream positions the scalar loop would use.  Returns the evolved
        canonical amplitude matrix (which may alias ``amps``'s storage).
        """
        state = _LazyState(self.dims, amps)
        for item in run.items:
            if type(item) is UnitaryStep:
                state.apply_all(item.matrix, item.plan)
            else:
                fired = np.flatnonzero(gate_mask[:, item.op_index])
                if fired.size:
                    strings = rng_lanes.integers(fired, 1, item.bound)
                    self._inject_paulis(state, item, fired, strings)
        return state.restore()

    def execute_run_unitaries(
        self, run: FusedRun, amps: np.ndarray, lanes: np.ndarray
    ) -> None:
        """Apply a run's unitaries to the ``lanes`` subset of ``amps``, in place.

        The dynamic ideal-batch pass: no noise, lane-gathered once per run
        instead of once per op (``alive`` cannot change inside a run).
        """
        if not run.unitaries or not lanes.size:
            return
        state = _LazyState(self.dims, amps[lanes])
        for step in run.unitaries:
            state.apply_all(step.matrix, step.plan)
        amps[lanes] = state.restore()

    @staticmethod
    def _inject_paulis(
        state: _LazyState, site: NoiseSite, fired: np.ndarray, strings: np.ndarray
    ) -> None:
        """Inject each fired lane's sampled Pauli string, grouped by value."""
        width = len(site.slots)
        for value in np.unique(strings):
            group = fired[strings == value]
            for position in range(width):
                code = (int(value) >> (2 * (width - 1 - position))) & 3
                if code == 0:
                    continue
                matrix, plan = site.paulis[position][code - 1]
                state.apply_lanes(matrix, plan, group)


def compile_schedule(compiled, dims: tuple[int, ...], op_unitaries) -> KernelSchedule:
    """Compile (and cache on the artifact) ``compiled``'s kernel schedule.

    ``op_unitaries`` is the engine's embedded-unitary list (one entry per
    op, ``None`` for measurements) — deterministic per ``(compiled, dims)``,
    which is why caching by dims alone is sound.
    """
    dims = tuple(int(d) for d in dims)
    return compiled.cached_schedule(
        ("trajectory-kernel", dims),
        lambda: _build_schedule(compiled, dims, op_unitaries),
    )


def _build_schedule(compiled, dims: tuple[int, ...], op_unitaries) -> KernelSchedule:
    table = EmbeddingTable(dims)

    def pauli_for(unit: int, slot: int, code: int) -> tuple[np.ndarray, ApplyPlan]:
        matrix, units = table.pauli(unit, slot, code)
        return matrix, table.plan(units)

    segments: list[FusedRun | int] = []
    items: list[UnitaryStep | NoiseSite] = []

    def flush() -> None:
        if items:
            segments.append(
                FusedRun(
                    items=tuple(items),
                    unitaries=tuple(i for i in items if type(i) is UnitaryStep),
                )
            )
            items.clear()

    for index, op in enumerate(compiled.ops):
        if op.is_dynamic:
            flush()
            segments.append(index)
            continue
        embedded = op_unitaries[index]
        if embedded is not None:
            matrix, units = embedded
            items.append(UnitaryStep(index, matrix, table.plan(tuple(units))))
        if op.slots:
            slots = tuple(op.slots)
            items.append(
                NoiseSite(
                    op_index=index,
                    slots=slots,
                    bound=4 ** len(slots),
                    paulis=tuple(
                        tuple(pauli_for(unit, slot, code) for code in (1, 2, 3))
                        for unit, slot in slots
                    ),
                )
            )
    flush()
    return KernelSchedule(dims=dims, segments=tuple(segments), num_ops=len(compiled.ops))


# ----------------------------------------------------------------------
# the event-only kernel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EventKernel:
    """The event-only engine's flat program: one fused threshold vector.

    Concatenates the per-op error probabilities and per-qubit idle decay
    gammas so a whole block's events come from a single vectorised
    compare.  The values and IEEE predicates are exactly the eager
    path's, so the counts are bit-identical.
    """

    thresholds: np.ndarray
    num_ops: int

    def count_block(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot gate and idle event counts for one draw matrix."""
        events = draws < self.thresholds
        return (
            events[:, : self.num_ops].sum(axis=1),
            events[:, self.num_ops:].sum(axis=1),
        )


def build_event_kernel(op_probs: np.ndarray, idle_gammas: np.ndarray) -> EventKernel:
    """Fuse the two threshold vectors into one :class:`EventKernel`."""
    thresholds = np.concatenate([
        np.asarray(op_probs, dtype=np.float64),
        np.asarray(idle_gammas, dtype=np.float64),
    ])
    return EventKernel(thresholds=thresholds, num_ops=len(op_probs))
