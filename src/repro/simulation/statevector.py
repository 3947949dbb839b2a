"""Dense state-vector simulator for mixed-radix registers.

A register is a list of physical units, each with dimension 2 (bare qubit)
or 4 (ququart).  Unitaries produced by :mod:`repro.pulses.unitaries` (or any
matrix of matching dimension) can be applied to arbitrary subsets of units.
"""

from __future__ import annotations

import numpy as np

#: Kraus branches below this squared-norm weight are treated as impossible
#: jumps and leave the state unchanged (the batched class shares it).
DEAD_BRANCH_WEIGHT = 1e-18


class MixedRadixState:
    """State vector over a register of qudits with per-unit dimensions.

    Parameters
    ----------
    dims:
        Dimension of each physical unit, in register order.
    """

    def __init__(self, dims: tuple[int, ...] | list[int]) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("a register needs at least one unit")
        if any(d < 2 for d in dims):
            raise ValueError("every unit must have dimension at least 2")
        self.dims = dims
        self.num_units = len(dims)
        self.dimension = int(np.prod(dims))
        self._vector = np.zeros(self.dimension, dtype=complex)
        self._vector[0] = 1.0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_levels(cls, dims: tuple[int, ...] | list[int], levels: tuple[int, ...]) -> "MixedRadixState":
        """Computational basis state with each unit in the given level."""
        state = cls(dims)
        if len(levels) != state.num_units:
            raise ValueError("one level per unit is required")
        index = 0
        for level, dim in zip(levels, state.dims):
            if not 0 <= level < dim:
                raise ValueError(f"level {level} out of range for dimension {dim}")
            index = index * dim + level
        state._vector[:] = 0.0
        state._vector[index] = 1.0
        return state

    @property
    def vector(self) -> np.ndarray:
        """A copy of the underlying amplitude vector."""
        return self._vector.copy()

    def set_vector(self, vector: np.ndarray, atol: float = 1e-3) -> None:
        """Replace the amplitude vector, renormalising small float drift.

        Long Kraus chains (e.g. amplitude damping applied after every op of
        a deep circuit) accumulate norm drift well past the 1e-8 gate this
        method used to enforce, so a hard equality check rejects perfectly
        good trajectory states.  Instead the norm is held to a *loose*
        sanity bound ``atol`` — a gross deviation still raises, because it
        means the caller handed over something that is not a state — and
        any residual drift inside the bound is divided out.
        """
        vector = np.asarray(vector, dtype=complex)
        if vector.shape != (self.dimension,):
            raise ValueError(f"vector must have shape ({self.dimension},)")
        norm = np.linalg.norm(vector)
        if not np.isclose(norm, 1.0, atol=atol):
            raise ValueError(
                f"state vector must be normalised (norm {norm:.6g} deviates "
                f"from 1 by more than {atol:g})"
            )
        self._vector = vector / norm

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply(self, unitary: np.ndarray, units: tuple[int, ...] | list[int]) -> None:
        """Apply ``unitary`` to the listed units (in the unitary's tensor order)."""
        units = tuple(int(u) for u in units)
        if len(set(units)) != len(units):
            raise ValueError("target units must be distinct")
        for unit in units:
            if not 0 <= unit < self.num_units:
                raise ValueError(f"unit index {unit} out of range")
        sub_dim = int(np.prod([self.dims[u] for u in units]))
        if unitary.shape != (sub_dim, sub_dim):
            raise ValueError(
                f"unitary of shape {unitary.shape} does not match target dimensions {sub_dim}"
            )
        tensor = self._vector.reshape(self.dims)
        # Move the target axes to the front, flatten, multiply, restore.
        others = [axis for axis in range(self.num_units) if axis not in units]
        permuted = np.transpose(tensor, axes=list(units) + others)
        permuted_shape = permuted.shape
        matrix = permuted.reshape(sub_dim, -1)
        matrix = unitary @ matrix
        permuted = matrix.reshape(permuted_shape)
        inverse_axes = np.argsort(list(units) + others)
        self._vector = np.transpose(permuted, axes=inverse_axes).reshape(self.dimension)

    def apply_kraus(self, operator: np.ndarray, units: tuple[int, ...] | list[int]) -> float:
        """Apply a (possibly non-unitary) Kraus operator and renormalise.

        Returns the pre-normalisation squared norm — the probability weight
        of this Kraus branch given the current state.  If the branch has
        (near-)zero weight the state is left unchanged and 0.0 is returned,
        so callers can treat an impossible jump as a no-op.
        """
        before = self._vector
        self.apply(operator, units)
        weight = float(np.vdot(self._vector, self._vector).real)
        if weight < DEAD_BRANCH_WEIGHT:
            self._vector = before
            return 0.0
        self._vector = self._vector / np.sqrt(weight)
        return weight

    # ------------------------------------------------------------------
    # measurement-style queries (non-destructive)
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Probability of each joint computational basis state."""
        return np.abs(self._vector) ** 2

    def unit_populations(self, unit: int) -> np.ndarray:
        """Marginal level populations of one physical unit."""
        if not 0 <= unit < self.num_units:
            raise ValueError(f"unit index {unit} out of range")
        tensor = np.abs(self._vector.reshape(self.dims)) ** 2
        axes = tuple(axis for axis in range(self.num_units) if axis != unit)
        return tensor.sum(axis=axes)

    def basis_labels(self, index: int) -> tuple[int, ...]:
        """Decode a flat basis index into per-unit levels."""
        labels = []
        remainder = index
        for dim in reversed(self.dims):
            labels.append(remainder % dim)
            remainder //= dim
        return tuple(reversed(labels))

    def dominant_basis_state(self) -> tuple[tuple[int, ...], float]:
        """The most probable joint basis state and its probability."""
        probabilities = self.probabilities()
        index = int(np.argmax(probabilities))
        return self.basis_labels(index), float(probabilities[index])

    def fidelity_with(self, other: "MixedRadixState") -> float:
        """Squared overlap with another state on the same register."""
        if other.dims != self.dims:
            raise ValueError("states live on different registers")
        return float(abs(np.vdot(self._vector, other._vector)) ** 2)
