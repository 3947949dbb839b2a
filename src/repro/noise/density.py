"""Exact density-matrix reference for the trajectory engine.

Evolves the full density matrix of a small compiled circuit (up to 3
physical units, i.e. Hilbert dimension at most 64) under the *same* channel
composition the trajectory engine unravels:

1. each physical op's embedded unitary, in op order, followed by a
   depolarizing channel of the op's calibrated error probability on the
   encoded qubits it touched, then
2. an amplitude-damping channel per logical qubit, with the damping
   parameter accumulated from its qubit/ququart-mode residency, applied at
   the qubit's final placement.

Because the composition matches exactly, the Monte Carlo average of
trajectory projectors (with the ``kraus`` idle policy) converges to
:func:`reference_density` — the agreement the hypothesis tests check — and
``<ideal| rho |ideal>`` gives the exact outcome-success probability the
sampled estimate converges to.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.result import CompiledCircuit
from repro.noise.kernel import EmbeddingTable
from repro.noise.model import NoiseModel, NoiseSpec, resolve_model
from repro.noise.trajectory import TrajectoryEngine
from repro.simulation.verify import (
    VerificationError,
    embed_on_slots,
    physical_op_unitary,
    register_dims,
)

#: Largest register (in physical units) the reference path accepts.
MAX_REFERENCE_UNITS = 3


def _check_size(compiled: CompiledCircuit) -> tuple[int, ...]:
    dims = register_dims(compiled)
    if len(dims) > MAX_REFERENCE_UNITS:
        raise VerificationError(
            f"the density-matrix reference is limited to {MAX_REFERENCE_UNITS} units; "
            f"this circuit uses {len(dims)}"
        )
    return dims


def _depolarize(
    rho: np.ndarray,
    dims: tuple[int, ...],
    slots: tuple[tuple[int, int], ...],
    probability: float,
) -> np.ndarray:
    """Depolarizing channel on the encoded qubits in ``slots``."""
    if probability <= 0.0 or not slots:
        return rho
    identity = np.eye(rho.shape[0], dtype=complex)
    table = EmbeddingTable(dims)
    per_slot = []
    for unit, slot in slots:
        embedded = [identity]
        for code in (1, 2, 3):
            embedded.append(_lift(*table.pauli(unit, slot, code), dims))
        per_slot.append(embedded)
    # every non-identity Pauli string over the touched slots
    strings: list[np.ndarray] = []
    def build(index: int, operator: np.ndarray, non_identity: bool) -> None:
        if index == len(per_slot):
            if non_identity:
                strings.append(operator)
            return
        for code, factor in enumerate(per_slot[index]):
            build(index + 1, factor @ operator, non_identity or code > 0)
    build(0, identity, False)
    mixed = sum(p @ rho @ p.conj().T for p in strings) / len(strings)
    return (1.0 - probability) * rho + probability * mixed


def _lift(matrix: np.ndarray, units: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Expand an operator on a unit subset to the full register dimension."""
    if units == tuple(range(len(dims))):
        return matrix
    # Build by applying to basis vectors through the state machinery-free
    # tensor algebra: permute target axes to the front, apply, restore.
    dimension = int(np.prod(dims))
    full = np.zeros((dimension, dimension), dtype=complex)
    others = [axis for axis in range(len(dims)) if axis not in units]
    order = list(units) + others
    inverse = np.argsort(order)
    sub_dim = int(np.prod([dims[u] for u in units]))
    for column in range(dimension):
        basis = np.zeros(dimension, dtype=complex)
        basis[column] = 1.0
        tensor = basis.reshape(dims).transpose(order).reshape(sub_dim, -1)
        tensor = matrix @ tensor
        full[:, column] = tensor.reshape([dims[axis] for axis in order]).transpose(inverse).reshape(dimension)
    return full


def _amplitude_damp(
    rho: np.ndarray,
    dims: tuple[int, ...],
    unit: int,
    slot: int,
    gamma: float,
) -> np.ndarray:
    """Amplitude-damping channel on one encoded qubit."""
    if gamma <= 0.0:
        return rho
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    lifted = []
    for kraus in (k0, k1):
        matrix, units = embed_on_slots(dims, kraus, ((unit, slot),))
        lifted.append(_lift(matrix, units, dims))
    return sum(k @ rho @ k.conj().T for k in lifted)


def reference_density(
    compiled: CompiledCircuit,
    model: NoiseModel | NoiseSpec,
) -> np.ndarray:
    """Exact final density matrix under the model's channel composition."""
    model = resolve_model(model, compiled.device)
    dims = _check_size(compiled)
    lowered = compiled.lowered_circuit
    if not isinstance(lowered, QuantumCircuit):
        raise VerificationError("the compiled circuit does not carry its lowered source")
    dimension = int(np.prod(dims))
    rho = np.zeros((dimension, dimension), dtype=complex)
    rho[0, 0] = 1.0
    for op in compiled.ops:
        embedded = physical_op_unitary(op, dims, lowered)
        if embedded is not None:
            matrix, units = embedded
            lifted = _lift(matrix, units, dims)
            rho = lifted @ rho @ lifted.conj().T
        rho = _depolarize(rho, dims, op.slots, model.op_error_probability(op))
    exponents = model.residency_decay_exponent(compiled)
    for qubit in sorted(exponents):
        gamma = float(-np.expm1(-exponents[qubit]))
        unit, slot = compiled.final_placement[qubit]
        rho = _amplitude_damp(rho, dims, unit, slot, gamma)
    return rho


def trajectory_mean_density(
    compiled: CompiledCircuit,
    model: NoiseModel | NoiseSpec,
    shots: int,
    seed: int = 0,
) -> np.ndarray:
    """Monte Carlo average of trajectory projectors |psi><psi|.

    Uses the ``kraus`` idle policy (the exact unraveling); as ``shots``
    grows this converges to :func:`reference_density`.  The trajectories
    ride the batched state-tracking path, and the projector average is one
    stacked product over the whole ``(shots, dimension)`` vector matrix.
    """
    model = resolve_model(model, compiled.device)
    if model.idle_policy != "kraus":
        raise ValueError("trajectory_mean_density requires the kraus idle policy")
    if shots <= 0:
        raise ValueError("trajectory_mean_density needs a positive shot count")
    _check_size(compiled)
    engine = TrajectoryEngine(compiled, model, track_state=True)
    vectors = np.stack(engine.final_vectors(shots, seed))
    return (vectors.T @ vectors.conj()) / shots


def exact_outcome_probability(
    compiled: CompiledCircuit,
    model: NoiseModel | NoiseSpec,
) -> float:
    """Exact probability of the ideal outcome: ``<ideal| rho |ideal>``."""
    rho = reference_density(compiled, model)
    dims = _check_size(compiled)
    lowered = compiled.lowered_circuit
    from repro.simulation.statevector import MixedRadixState

    state = MixedRadixState(dims)
    for op in compiled.ops:
        embedded = physical_op_unitary(op, dims, lowered)
        if embedded is not None:
            state.apply(*embedded)
    ideal = state.vector
    return float(np.real(ideal.conj() @ rho @ ideal))
