"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`~repro.circuits.gates.Gate` objects
acting on ``num_qubits`` logical qubits.  The class offers the usual builder
methods (``x``, ``cx``, ``swap``, ...), structural queries used by the
compiler (interaction pairs, operation counts, moments, depth), and simple
transformations (copy, remap, compose).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import replace

from repro.circuits.gates import Gate


class QuantumCircuit:
    """An ordered sequence of logical gates over a fixed qubit register.

    Parameters
    ----------
    num_qubits:
        Size of the logical qubit register.
    name:
        Optional human-readable name used in reports.
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: list[Gate] = []
        # Declared classical registers as (name, size) in flat-offset order.
        # Pure serialisation metadata (QASM register names); never part of
        # circuit equality.
        self._cregs: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates of the circuit as an immutable tuple."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._gates == other._gates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_gates={len(self._gates)})"
        )

    # ------------------------------------------------------------------
    # builder API
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a pre-built gate, validating qubit indices."""
        if any(q >= self.num_qubits for q in gate.qubits):
            raise ValueError(
                f"gate {gate.name} acts on qubit {max(gate.qubits)} but the circuit "
                f"only has {self.num_qubits} qubits"
            )
        self._gates.append(gate)
        return self

    def add(
        self,
        name: str,
        *qubits: int,
        params: Iterable[float] = (),
        cbits: Iterable[int] = (),
        condition: tuple[tuple[int, ...], int] | None = None,
    ) -> "QuantumCircuit":
        """Append a gate by name; convenience wrapper around :meth:`append`."""
        return self.append(
            Gate(name, tuple(qubits), tuple(params), cbits=tuple(cbits), condition=condition)
        )

    def i(self, q: int) -> "QuantumCircuit":
        return self.add("i", q)

    def x(self, q: int) -> "QuantumCircuit":
        return self.add("x", q)

    def y(self, q: int) -> "QuantumCircuit":
        return self.add("y", q)

    def z(self, q: int) -> "QuantumCircuit":
        return self.add("z", q)

    def h(self, q: int) -> "QuantumCircuit":
        return self.add("h", q)

    def s(self, q: int) -> "QuantumCircuit":
        return self.add("s", q)

    def sdg(self, q: int) -> "QuantumCircuit":
        return self.add("sdg", q)

    def t(self, q: int) -> "QuantumCircuit":
        return self.add("t", q)

    def tdg(self, q: int) -> "QuantumCircuit":
        return self.add("tdg", q)

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rx", q, params=(theta,))

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("ry", q, params=(theta,))

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rz", q, params=(theta,))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cx", control, target)

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cz", control, target)

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("swap", a, b)

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("rzz", a, b, params=(theta,))

    def ccx(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self.add("ccx", c1, c2, target)

    def cswap(self, control: int, a: int, b: int) -> "QuantumCircuit":
        return self.add("cswap", control, a, b)

    def measure(self, q: int, cbit: int | None = None) -> "QuantumCircuit":
        return self.add("measure", q, cbits=() if cbit is None else (cbit,))

    def measure_mid(self, q: int, cbit: int | None = None) -> "QuantumCircuit":
        """Mid-circuit measurement: later gates may depend on its outcome."""
        return self.add("measure_mid", q, cbits=() if cbit is None else (cbit,))

    def reset(self, q: int) -> "QuantumCircuit":
        """Re-initialise a qubit to |0> mid-circuit."""
        return self.add("reset", q)

    def measure_all(self) -> "QuantumCircuit":
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        targets = qubits if qubits else tuple(range(self.num_qubits))
        return self.add("barrier", *targets)

    # ------------------------------------------------------------------
    # classical registers & control
    # ------------------------------------------------------------------
    def add_creg(self, name: str, size: int) -> "QuantumCircuit":
        """Declare a named classical register spanning the next flat bits."""
        if size <= 0:
            raise ValueError("a classical register needs at least one bit")
        if any(existing == name for existing, _ in self._cregs):
            raise ValueError(f"duplicate classical register {name!r}")
        self._cregs.append((name, int(size)))
        return self

    @property
    def cregs(self) -> tuple[tuple[str, int], ...]:
        """Declared classical registers as ``(name, size)`` in flat order."""
        return tuple(self._cregs)

    @property
    def num_clbits(self) -> int:
        """Size of the flat classical register the circuit addresses."""
        highest = -1
        for gate in self._gates:
            for bit in gate.clbits_touched:
                highest = max(highest, bit)
        declared = sum(size for _, size in self._cregs)
        return max(highest + 1, declared)

    def apply_condition(
        self, start_index: int, condition: tuple[tuple[int, ...], int]
    ) -> "QuantumCircuit":
        """Attach ``condition`` to every gate appended since ``start_index``.

        Used by the QASM frontends: one conditioned source statement may
        macro-expand into several gates, all of which inherit the condition
        (sound because macro bodies are unitary).
        """
        for index in range(start_index, len(self._gates)):
            gate = self._gates[index]
            if gate.condition is not None and gate.condition != condition:
                raise ValueError("gate is already conditioned on different bits")
            self._gates[index] = replace(gate, condition=condition)
        return self

    @property
    def is_dynamic(self) -> bool:
        """True when the circuit uses mid-circuit measurement, reset or control."""
        return any(
            gate.name in ("measure_mid", "reset") or gate.condition is not None
            for gate in self._gates
        )

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def count_ops(self) -> Counter:
        """Histogram of gate names."""
        return Counter(gate.name for gate in self._gates)

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates (cx, cz, swap, rzz)."""
        return sum(1 for gate in self._gates if gate.is_two_qubit)

    def active_qubits(self) -> set[int]:
        """Set of qubit indices touched by at least one gate."""
        used: set[int] = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return used

    def interaction_pairs(self) -> Counter:
        """Counter of unordered qubit pairs that interact via multi-qubit gates."""
        pairs: Counter = Counter()
        for gate in self._gates:
            if gate.is_meta or gate.num_qubits < 2:
                continue
            operands = sorted(gate.qubits)
            for i, a in enumerate(operands):
                for b in operands[i + 1 :]:
                    pairs[(a, b)] += 1
        return pairs

    def moments(self) -> list[list[int]]:
        """Greedy ASAP layering of gate indices.

        Each moment is a list of gate indices that act on disjoint qubits;
        barriers force a new moment across their operands.  Classical bits
        serialise conservatively: any two gates touching the same classical
        bit (a measurement writing it or a conditioned gate reading it)
        never share a moment.
        """
        layers: list[list[int]] = []
        frontier: dict[int, int] = defaultdict(int)  # qubit -> first free layer
        clbit_frontier: dict[int, int] = defaultdict(int)  # classical bit -> first free layer
        for index, gate in enumerate(self._gates):
            start = max((frontier[q] for q in gate.qubits), default=0)
            for bit in gate.clbits_touched:
                start = max(start, clbit_frontier[bit])
            while len(layers) <= start:
                layers.append([])
            layers[start].append(index)
            for q in gate.qubits:
                frontier[q] = start + 1
            for bit in gate.clbits_touched:
                clbit_frontier[bit] = start + 1
        return layers

    def depth(self) -> int:
        """Circuit depth measured in moments."""
        return len(self.moments())

    def gate_timesteps(self) -> dict[int, int]:
        """Map each gate index to its 1-based ASAP timestep.

        This is the ``s(o)`` function of the paper's interaction-weight
        formula (Section 4.2): earlier gates carry a higher weight.
        """
        steps: dict[int, int] = {}
        for layer_index, layer in enumerate(self.moments(), start=1):
            for gate_index in layer:
                steps[gate_index] = layer_index
        return steps

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """Return a shallow copy (gates are immutable, so this is safe)."""
        clone = QuantumCircuit(self.num_qubits, name or self.name)
        clone._gates = list(self._gates)
        clone._cregs = list(self._cregs)
        return clone

    def remapped(self, mapping: dict[int, int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Return a copy with every qubit index translated through ``mapping``."""
        size = num_qubits if num_qubits is not None else self.num_qubits
        clone = QuantumCircuit(size, self.name)
        for gate in self._gates:
            clone.append(gate.remapped(mapping))
        return clone

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append all gates of ``other`` to a copy of this circuit."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("cannot compose a larger circuit onto a smaller one")
        clone = self.copy()
        for gate in other:
            clone.append(gate)
        return clone

    def without_meta(self) -> "QuantumCircuit":
        """Return a copy with measure/barrier/reset operations removed."""
        clone = QuantumCircuit(self.num_qubits, self.name)
        for gate in self._gates:
            if not gate.is_meta:
                clone.append(gate)
        return clone

    def _is_terminal_measure(self, index: int) -> bool:
        """A measure at ``index`` is terminal when nothing depends on it."""
        gate = self._gates[index]
        if gate.condition is not None:
            return False
        qubit = gate.qubits[0]
        written = set(gate.cbits)
        for later in self._gates[index + 1:]:
            if later.name != "barrier" and qubit in later.qubits:
                return False
            if written & set(later.clbits_touched):
                return False
        return True

    def classify_measurements(self) -> "QuantumCircuit":
        """Return a copy with each measurement named by its true role.

        A ``measure`` becomes ``measure_mid`` when a later non-barrier gate
        acts on its qubit, a later gate touches its classical bit, or the
        measurement itself is conditioned; a ``measure_mid`` with no such
        dependency becomes a plain terminal ``measure``.  The result is
        deterministic in the gate list, so QASM round-trips are exact.
        """
        clone = self.copy()
        for index, gate in enumerate(clone._gates):
            if not gate.is_measurement:
                continue
            name = "measure" if clone._is_terminal_measure(index) else "measure_mid"
            if name != gate.name:
                clone._gates[index] = replace(gate, name=name)
        return clone

    # ------------------------------------------------------------------
    # interchange
    # ------------------------------------------------------------------
    def to_qasm(self) -> str:
        """Serialise as OpenQASM 2.0 (see :mod:`repro.circuits.qasm`)."""
        from repro.circuits.qasm import circuit_to_qasm

        return circuit_to_qasm(self)
