"""Tests for the simulation-based compiled-circuit equivalence checker."""

import dataclasses

import pytest

from repro.arch import Device, grid_topology, linear_topology
from repro.circuits import QuantumCircuit
from repro.compiler import QompressCompiler
from repro.compression import get_strategy
from repro.simulation import (
    VerificationError,
    assert_equivalent,
    compiled_state_fidelity,
    replay_compiled,
)
from tests.conftest import make_random_circuit


@pytest.fixture
def device():
    return Device(topology=grid_topology(2, 3))


class TestReplay:
    def test_bell_circuit_replays_exactly(self, device, bell_circuit):
        compiler = QompressCompiler(device, get_strategy("qubit_only"),
                                    merge_single_qubit_gates=False)
        compiled = compiler.compile(bell_circuit)
        assert compiled_state_fidelity(compiled, bell_circuit) == pytest.approx(1.0)

    def test_ghz_with_compression(self, device, ghz_circuit):
        compiler = QompressCompiler(device, get_strategy("eqm"),
                                    merge_single_qubit_gates=False)
        compiled = compiler.compile(ghz_circuit)
        assert_equivalent(compiled, ghz_circuit)

    @pytest.mark.parametrize("strategy", ["qubit_only", "eqm", "rb", "awe", "pp"])
    def test_random_circuits_equivalent_under_every_strategy(self, device, strategy):
        for seed in range(3):
            circuit = make_random_circuit(6, 22, seed=seed)
            compiler = QompressCompiler(device, get_strategy(strategy),
                                        merge_single_qubit_gates=False)
            compiled = compiler.compile(circuit)
            assert_equivalent(compiled, circuit)

    def test_compressed_register_larger_than_device(self):
        # 6 logical qubits on a 3-unit line require compression to fit at all.
        device = Device(topology=linear_topology(3))
        circuit = make_random_circuit(6, 18, seed=7, include_swaps=False)
        compiler = QompressCompiler(device, get_strategy("eqm"),
                                    merge_single_qubit_gates=False)
        compiled = compiler.compile(circuit)
        assert_equivalent(compiled, circuit)

    def test_toffoli_circuit_equivalent(self, device):
        circuit = QuantumCircuit(5).h(0).ccx(0, 1, 2).cx(2, 3).ccx(1, 3, 4)
        compiler = QompressCompiler(device, get_strategy("rb"),
                                    merge_single_qubit_gates=False)
        compiled = compiler.compile(circuit)
        assert_equivalent(compiled, circuit)

    def test_replay_returns_register_state(self, device, bell_circuit):
        compiler = QompressCompiler(device, get_strategy("qubit_only"),
                                    merge_single_qubit_gates=False)
        compiled = compiler.compile(bell_circuit)
        state = replay_compiled(compiled)
        assert state.dims == (2,) * device.num_units


class TestVerificationFailures:
    def test_merged_ops_are_rejected(self, device):
        circuit = QuantumCircuit(4).cx(0, 1).h(0).h(1).cx(0, 1).h(0).h(1)
        # Force a compression so single-ququart gates exist and get merged.
        compiler = QompressCompiler(device, get_strategy("eqm"))
        compiled = compiler.compile(circuit)
        if any(op.gate == "x01" for op in compiled.ops):
            with pytest.raises(VerificationError, match="merge_single_qubit_gates"):
                replay_compiled(compiled)

    def test_missing_source_circuit_rejected(self, device, bell_circuit):
        compiler = QompressCompiler(device, get_strategy("qubit_only"),
                                    merge_single_qubit_gates=False)
        compiled = dataclasses.replace(compiler.compile(bell_circuit), lowered_circuit=None)
        with pytest.raises(VerificationError, match="lowered source"):
            replay_compiled(compiled)

    def test_corrupted_op_detected(self, device, ghz_circuit):
        compiler = QompressCompiler(device, get_strategy("qubit_only"),
                                    merge_single_qubit_gates=False)
        compiled = compiler.compile(ghz_circuit)
        # Flip one CX's operands: the replay no longer matches the source.
        for op in compiled.ops:
            if op.style.is_cx_like:
                op.slots = (op.slots[1], op.slots[0])
                break
        assert compiled_state_fidelity(compiled, ghz_circuit) < 1.0 - 1e-6


class TestFullQuquartReplay:
    """FQ encode/decode semantics are modelled, closing the last strategy gap."""

    @pytest.mark.parametrize("bench,size", [
        ("bv", 4), ("bv", 5), ("ghz", 6), ("qft", 5), ("qft", 6),
    ])
    def test_fq_compiles_replay_exactly(self, bench, size):
        from repro.runner import SweepPoint

        compiled = SweepPoint(bench, size, "fq").execute().compiled
        assert_equivalent(compiled, compiled.lowered_circuit)

    def test_fq_random_circuits_equivalent(self, device):
        for seed in range(3):
            circuit = make_random_circuit(6, 18, seed=seed, include_swaps=False)
            compiler = QompressCompiler(device, get_strategy("fq"))
            compiled = compiler.compile(circuit)
            assert_equivalent(compiled, circuit)

    def test_swap4_units_are_promoted_to_ququarts(self):
        # qft-6 FQ routing parks an encoded pair on an otherwise-bare unit;
        # the replay register must carry both encoded slots there
        from repro.runner import SweepPoint
        from repro.simulation.verify import register_dims

        compiled = SweepPoint("qft", 6, "fq").execute().compiled
        swap4_units = {
            unit for op in compiled.ops if op.gate == "swap4" for unit in op.units
        }
        assert swap4_units, "qft-6 FQ is expected to route with swap4"
        dims = register_dims(compiled)
        for unit in swap4_units:
            assert dims[unit] == 4

    def test_fq_ops_carry_slots(self):
        from repro.runner import SweepPoint

        compiled = SweepPoint("ghz", 4, "fq").execute().compiled
        for op in compiled.ops:
            if op.gate == "measure":
                continue
            assert op.slots, f"{op.gate} op lost its slot annotation"
            if op.gate in ("enc", "dec"):
                assert len(op.slots) == 2
            if op.gate == "swap4":
                assert len(op.slots) == 4
