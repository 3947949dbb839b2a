"""Simulation-based verification of compiled circuits.

The strongest correctness check in the repository: replay the physical
operation list produced by the compiler on the mixed-radix state-vector
simulator and compare the resulting state against the logical simulation of
the source circuit.  If mapping, routing, gate resolution or scheduling ever
emit a physically wrong operation, the fidelity drops below one and the
check fails.

The check is exact (fidelity ~ 1.0) for circuits compiled with single-qubit
merging disabled, because merged ``x01`` operations lose the identity of the
two source gates they combine.  Compile with
``QompressCompiler(device, strategy, merge_single_qubit_gates=False)`` when
verifying.

The Full-Ququart baseline is replayable too: its ``enc``/``dec`` ops are
modelled as slot transports — a SWAP between the partner qubit's encoded
slot and the ancilla unit it is parked on — which is exactly the unitary
content of encode/decode once the error cost has been charged, and its
``swap4`` ops exchange the full contents of two units.  Units that ever
host a full-ququart SWAP are promoted to dimension 4 in the replay
register (:func:`register_dims`), since FQ routing may park an encoded
pair on a unit that operates bare the rest of the time.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.result import CompiledCircuit, PhysicalOp
from repro.gates.styles import GateStyle
from repro.pulses.unitaries import SWAP_MATRIX, embed_operator, qubit_gate
from repro.simulation.statevector import MixedRadixState


class VerificationError(Exception):
    """Raised when a compiled circuit fails verification.

    Covers both replay-detected inequivalence (this module) and
    statically-detected illegal programs (:mod:`repro.analysis`).  A
    proper :class:`Exception` subclass on purpose: it used to derive from
    ``AssertionError``, which ``python -O`` semantics train readers to
    treat as strippable debug checks — these are not.
    """


def _double_swap_matrix() -> np.ndarray:
    """4-qubit permutation |a b c d> -> |c d a b> (full ququart SWAP).

    Acting on slots ``((here, 0), (here, 1), (there, 0), (there, 1))`` it
    exchanges the complete encoded contents of two units, which is the
    ``swap4`` semantics the FQ router relies on.
    """
    matrix = np.zeros((16, 16), dtype=complex)
    for source in range(16):
        a, b = (source >> 3) & 1, (source >> 2) & 1
        c, d = (source >> 1) & 1, source & 1
        matrix[(c << 3) | (d << 2) | (a << 1) | b, source] = 1.0
    return matrix


_DOUBLE_SWAP = _double_swap_matrix()


def register_dims(compiled: CompiledCircuit) -> tuple[int, ...]:
    """Per-unit dimensions (2 or 4) of the compiled circuit's register.

    A unit is four-dimensional when it is operated in ququart mode — or
    when any full-ququart ``swap4`` ever touches it: FQ routing moves whole
    encoded pairs through intermediate units, so those units must carry
    two encoded slots during replay even if no qubit rests there.
    """
    quad = set(compiled.ququart_units)
    for op in compiled.ops:
        if op.style is GateStyle.FULL_QUQUART_SWAP:
            quad.update(op.units)
    return tuple(
        4 if unit in quad else 2 for unit in range(compiled.device.num_units)
    )


def _embed_logical_state(
    logical_vector: np.ndarray,
    placement: dict[int, tuple[int, int]],
    dims: tuple[int, ...],
    num_logical: int,
) -> np.ndarray:
    """Lift a logical n-qubit state onto the physical register under a placement."""
    register = np.zeros(int(np.prod(dims)), dtype=complex)
    for logical_index, amplitude in enumerate(logical_vector):
        if amplitude == 0:
            continue
        levels = [0] * len(dims)
        for qubit in range(num_logical):
            bit = (logical_index >> (num_logical - 1 - qubit)) & 1
            if bit == 0:
                continue
            unit, slot = placement[qubit]
            if dims[unit] == 2:
                levels[unit] |= 1
            else:
                levels[unit] |= 2 if slot == 0 else 1
        flat = 0
        for level, dim in zip(levels, dims):
            flat = flat * dim + level
        register[flat] += amplitude
    return register


def embed_on_slots(
    dims: tuple[int, ...],
    matrix: np.ndarray,
    slots: tuple[tuple[int, int], ...],
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Embed a k-qubit logical matrix onto encoded slots of the register.

    Returns the embedded operator together with the distinct physical units
    it acts on (in first-appearance order), ready for
    :meth:`MixedRadixState.apply`.
    """
    units: list[int] = []
    for unit, _position in slots:
        if unit not in units:
            units.append(unit)
    operands = []
    for unit, position in slots:
        operands.append((units.index(unit), position))
    embedded = embed_operator(matrix, tuple(dims[u] for u in units), operands)
    return embedded, tuple(units)


def physical_op_unitary(
    op: PhysicalOp,
    dims: tuple[int, ...],
    lowered: QuantumCircuit,
) -> tuple[np.ndarray, tuple[int, ...]] | None:
    """Embedded unitary of one physical op, or ``None`` for measurements.

    Shared by the equivalence checker and the noise-simulation subsystem.
    Raises :class:`VerificationError` for ops that cannot be replayed
    (merged ``x01`` ops, ops without slot information, dangling source-gate
    references).
    """
    if op.gate in ("measure", "measure_mid", "reset"):
        return None
    if op.gate == "x01":
        raise VerificationError(
            "merged x01 ops cannot be verified; compile with merge_single_qubit_gates=False"
        )
    if not op.slots:
        raise VerificationError(f"op {op.gate} carries no slot information")
    if op.style in (GateStyle.ENCODE, GateStyle.DECODE):
        # encode/decode transport the partner qubit between its encoded
        # slot and the ancilla unit: unitarily, a SWAP of those two slots.
        if len(op.slots) != 2:
            raise VerificationError(f"op {op.gate} needs exactly two slots, got {op.slots}")
        return embed_on_slots(dims, SWAP_MATRIX, op.slots)
    if op.style is GateStyle.FULL_QUQUART_SWAP:
        if len(op.slots) != 4:
            raise VerificationError(f"op {op.gate} needs exactly four slots, got {op.slots}")
        return embed_on_slots(dims, _DOUBLE_SWAP, op.slots)
    if op.style.is_swap_like:
        return embed_on_slots(dims, SWAP_MATRIX, op.slots)
    if op.source_gate < 0 or op.source_gate >= len(lowered):
        raise VerificationError(f"op {op.gate} does not reference a source gate")
    gate = lowered[op.source_gate]
    matrix = qubit_gate(gate.name, gate.params)
    return embed_on_slots(dims, matrix, op.slots)


def _replay_op(
    state: MixedRadixState,
    dims: tuple[int, ...],
    op: PhysicalOp,
    lowered: QuantumCircuit,
    slot_of: dict[int, tuple[int, int]],
) -> None:
    embedded = physical_op_unitary(op, dims, lowered)
    if embedded is None:
        return
    matrix, units = embedded
    state.apply(matrix, units)
    # Any op that records moves relocates qubits: routing SWAPs, FQ swap4,
    # and permanent decodes (reencode_after_measure=False).
    for qubit, new_slot in op.moves.items():
        slot_of[qubit] = new_slot


def replay_compiled(compiled: CompiledCircuit) -> MixedRadixState:
    """Execute every physical op of a compiled circuit on the simulator."""
    lowered = compiled.lowered_circuit
    if not isinstance(lowered, QuantumCircuit):
        raise VerificationError("the compiled circuit does not carry its lowered source")
    if compiled.is_dynamic:
        raise VerificationError(
            "dynamic circuits (mid-circuit measurement / classical control) branch at "
            "runtime and cannot be replayed as a single unitary; use "
            "repro.dynamic.simulate.simulate_dynamic for branch-complete checking"
        )
    dims = register_dims(compiled)
    state = MixedRadixState(dims)
    slot_of = dict(compiled.initial_placement)
    for op in compiled.ops:
        _replay_op(state, dims, op, lowered, slot_of)
    if slot_of != compiled.final_placement:
        raise VerificationError("replayed qubit positions disagree with the final placement")
    return state


def compiled_state_fidelity(compiled: CompiledCircuit, reference: QuantumCircuit) -> float:
    """Fidelity between the replayed compiled circuit and the logical reference."""
    from repro.simulation.encoding import simulate_logical_circuit

    final_state = replay_compiled(compiled)
    logical = simulate_logical_circuit(reference.without_meta())
    expected = _embed_logical_state(
        logical, compiled.final_placement, register_dims(compiled), reference.num_qubits
    )
    overlap = np.vdot(expected, final_state.vector)
    return float(abs(overlap) ** 2)


def assert_equivalent(
    compiled: CompiledCircuit, reference: QuantumCircuit, tolerance: float = 1e-7
) -> None:
    """Raise :class:`VerificationError` unless the compiled circuit matches."""
    fidelity = compiled_state_fidelity(compiled, reference)
    if fidelity < 1.0 - tolerance:
        raise VerificationError(
            f"compiled circuit is not equivalent to its source (fidelity {fidelity:.6f})"
        )
