"""Fused shot-evolution kernel programs for the trajectory hot path.

This module compiles each :class:`~repro.compiler.result.CompiledCircuit`
**once** into a flat kernel program that the engine's block walker
executes without per-op Python dispatch.  Plans (``build_plan``,
re-exported here) and the lazy layout they execute in belong to
:mod:`repro.simulation.batched`; this module owns the programs:

* :class:`FusedRun` is a maximal stretch of non-dynamic ops compiled into
  a flat schedule of :class:`UnitaryStep` and :class:`NoiseSite` items,
  each carrying its precomputed plan.  Executing a run keeps the block's
  amplitudes in a **lazily-permuted layout**: each unitary's GEMM leaves
  the tensor in that op's permuted layout, and the next op gathers
  directly from there — the per-op scatter pass back to the canonical
  ``(batch, dimension)`` layout is skipped entirely (one restore at the
  end of the run).  Adjacent ops on the same unit tuple share a layout,
  so their GEMMs run back to back with **zero** copies between them.
  This halves the memory traffic of the tracked path, which is
  memory-bound at register dimension >= 512.
* :class:`EmbeddingTable` embeds the single-slot operators (Paulis,
  measurement projectors, damping Kraus operators) once per engine, for
  the scalar reference, the engine's canonical-layout op step and the
  schedule's noise sites alike.
* :func:`inject_paulis` applies sampled Pauli strings, for a fused run's
  noise sites and the engine's bare op step alike.
* :class:`EventKernel` is the event-only engine's program: one fused
  threshold vector compared against the whole draw matrix in a single
  vectorised pass.

Bit-equality invariant: the fused program performs the **same arithmetic
on the same values in the same order** as the canonical-layout per-op
step.  Layout transitions compose transposes — exact index bookkeeping —
and every GEMM operand is materialised C-contiguous exactly where the
per-op step's reshape copy materialises it, so each GEMM consumes
bit-identical memory and produces bit-identical output.  The golden tests
assert fused chunks ``==`` the retained scalar ``run_reference`` across
presets x strategies x seeds x block splits.

Each :class:`~repro.noise.trajectory.TrajectoryEngine` builds its own
schedule (:func:`build_schedule`) from its op unitaries and its one
:class:`EmbeddingTable`; nothing is cached on the compiled artifact.
Kernel programs never enter point content keys or stored blobs: they
change how results are computed, not what they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pulses.unitaries import qubit_gate
from repro.simulation.batched import ApplyPlan, _LazyState, build_plan
from repro.simulation.verify import embed_on_slots


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
    are the ``(matrix, units)`` pairs ``apply``/``apply_kraus`` take.
    """

    def __init__(self, dims: tuple[int, ...]) -> None:
        self.dims = tuple(int(d) for d in dims)
        self._operators: dict[tuple, Embedded] = {}

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

    def paulis(self, slots: tuple[tuple[int, int], ...]) -> tuple[tuple[Embedded, ...], ...]:
        """X, Y and Z on each of ``slots``, indexed ``[position][code - 1]``."""
        return tuple(
            tuple(self.pauli(unit, slot, code) for code in (1, 2, 3)) for unit, slot in slots
        )

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
                    inject_paulis(state.apply_lanes, item.paulis, fired, strings)
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


def inject_paulis(apply, paulis, fired: np.ndarray, strings: np.ndarray) -> None:
    """Inject each fired lane's sampled Pauli string, grouped by value.

    ``paulis[position][code - 1]`` holds the operands ``apply`` takes
    before its lane index array for Pauli ``code`` (1=X, 2=Y, 3=Z) on
    slot ``position``: ``(matrix, plan)`` for a fused run's
    ``_LazyState.apply_lanes``, ``(matrix, units)`` for the bare op
    step's :meth:`~repro.simulation.batched.BatchedMixedRadixState.apply`.
    Each distinct string is one lane-masked apply per non-identity slot —
    per lane, the exact op sequence the scalar loop performs.
    """
    width = len(paulis)
    for value in np.unique(strings):
        group = fired[strings == value]
        for position in range(width):
            code = (int(value) >> (2 * (width - 1 - position))) & 3
            if code:
                apply(*paulis[position][code - 1], group)


def build_schedule(
    compiled, dims: tuple[int, ...], op_unitaries, table: EmbeddingTable
) -> KernelSchedule:
    """Compile ``compiled``'s op stream into its :class:`KernelSchedule`.

    ``op_unitaries`` is the engine's embedded-unitary list (one entry per
    op, ``None`` for measurements) and ``table`` its embedding table, so
    the schedule's steps and noise sites apply the very arrays the
    engine's bare op step does.
    """
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
            items.append(UnitaryStep(index, matrix, build_plan(dims, tuple(units))))
        if op.slots:
            slots = tuple(op.slots)
            items.append(
                NoiseSite(
                    op_index=index,
                    slots=slots,
                    bound=4 ** len(slots),
                    paulis=tuple(
                        tuple((matrix, build_plan(dims, units)) for matrix, units in entry)
                        for entry in table.paulis(slots)
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
