"""Tests for the Eq. 4 success-probability cost model."""

import math

import pytest

from repro.arch import Device, grid_topology, linear_topology
from repro.compiler import CostModel


@pytest.fixture
def line_costs():
    device = Device(topology=linear_topology(4))
    # Units 1 and 2 operate as ququarts.
    return device, CostModel(device, {1, 2})


class TestStructure:
    def test_unit_modes(self, line_costs):
        device, costs = line_costs
        from repro.gates import UnitMode

        assert costs.unit_mode(0) is UnitMode.QUBIT
        assert costs.unit_mode(1) is UnitMode.QUQUART

    def test_enabled_slots(self, line_costs):
        _device, costs = line_costs
        enabled = set(costs.enabled_slots())
        assert (0, 0) in enabled and (0, 1) not in enabled
        assert (1, 0) in enabled and (1, 1) in enabled
        assert costs.is_enabled((2, 1))
        assert not costs.is_enabled((3, 1))

    def test_units_off_the_device_are_rejected(self):
        device = Device(topology=linear_topology(4))
        with pytest.raises(ValueError, match=r"\[7\]"):
            CostModel(device, {1, 7})
        with pytest.raises(ValueError):
            CostModel(device, {-1})
        costs = CostModel(device, {1})
        assert not costs.is_enabled((7, 0))
        assert not costs.is_enabled((-1, 0))
        assert costs.swap_distance((0, 0), (7, 0)) == float("inf")

    def test_slot_neighbors_respect_modes(self, line_costs):
        _device, costs = line_costs
        neighbors = set(costs.slot_neighbors((0, 0)))
        # Unit 0 is a qubit: no partner slot; unit 1 is a ququart: both slots.
        assert neighbors == {(1, 0), (1, 1)}
        neighbors = set(costs.slot_neighbors((1, 0)))
        assert (1, 1) in neighbors
        assert (0, 0) in neighbors and (2, 0) in neighbors and (2, 1) in neighbors
        assert (0, 1) not in neighbors


class TestGateSelection:
    def test_single_qubit_gate(self, line_costs):
        _device, costs = line_costs
        assert costs.single_qubit_gate((0, 0)) == "x"
        assert costs.single_qubit_gate((1, 0)) == "x0"
        assert costs.single_qubit_gate((1, 1)) == "x1"

    def test_cx_gate_selection(self, line_costs):
        _device, costs = line_costs
        assert costs.cx_gate((0, 0), (3, 0)) == "cx2"
        assert costs.cx_gate((1, 0), (0, 0)) == "cx0q"
        assert costs.cx_gate((0, 0), (1, 1)) == "cxq1"
        assert costs.cx_gate((1, 0), (2, 1)) == "cx01"
        assert costs.cx_gate((1, 0), (1, 1)) == "cx0_in"

    def test_swap_gate_selection(self, line_costs):
        _device, costs = line_costs
        assert costs.swap_gate((0, 0), (3, 0)) == "swap2"
        assert costs.swap_gate((0, 0), (1, 1)) == "swapq1"
        assert costs.swap_gate((1, 1), (2, 0)) == "swap01"
        assert costs.swap_gate((1, 0), (1, 1)) == "swap_in"


class TestSuccessProbabilities:
    def test_op_success_formula(self, line_costs):
        device, costs = line_costs
        duration = device.durations.duration("cx2")
        fidelity = device.durations.fidelity("cx2")
        expected = fidelity * math.exp(-duration / device.qubit_t1_ns) ** 2
        assert costs.op_success("cx2", (0, 3)) == pytest.approx(expected)

    def test_ququart_units_use_shorter_t1(self, line_costs):
        device, costs = line_costs
        success_qubit_pair = costs.op_success("cx2", (0, 3))
        success_mixed = costs.op_success("cx2", (0, 1))
        # The same gate is less likely to succeed if one unit is a ququart.
        assert success_mixed < success_qubit_pair

    def test_op_cost_is_negative_log(self, line_costs):
        _device, costs = line_costs
        success = costs.op_success("swap2", (0, 3))
        assert costs.op_cost("swap2", (0, 3)) == pytest.approx(-math.log(success))

    def test_costs_are_positive(self, line_costs):
        _device, costs = line_costs
        assert costs.swap_cost((0, 0), (1, 0)) > 0
        assert costs.cx_cost((0, 0), (1, 0)) > 0


class TestDistances:
    def test_swap_distance_zero_to_self(self, line_costs):
        _device, costs = line_costs
        assert costs.swap_distance((0, 0), (0, 0)) == 0.0

    def test_swap_distance_monotone_with_hops(self, line_costs):
        _device, costs = line_costs
        near = costs.swap_distance((0, 0), (1, 0))
        far = costs.swap_distance((0, 0), (3, 0))
        assert far > near

    def test_shortest_slot_path_endpoints(self, line_costs):
        _device, costs = line_costs
        path = costs.shortest_slot_path((0, 0), (3, 0))
        assert path[0] == (0, 0)
        assert path[-1] == (3, 0)
        # Consecutive path elements must be neighbours.
        for a, b in zip(path, path[1:]):
            assert b in costs.slot_neighbors(a)

    def test_interaction_distance_adjacent_qubits_is_just_cx(self):
        device = Device(topology=linear_topology(4))
        costs = CostModel(device, frozenset())
        distance = costs.interaction_distance((0, 0), (1, 0))
        assert distance == pytest.approx(costs.cx_cost((0, 0), (1, 0)), rel=1e-6)

    def test_interaction_distance_may_prefer_internal_cx(self, line_costs):
        # When the partner unit is a ququart, swapping into it and using the
        # fast internal CX can beat the direct partial CX (this is exactly the
        # flexibility the paper's gate set provides).
        _device, costs = line_costs
        distance = costs.interaction_distance((0, 0), (1, 0))
        assert distance <= costs.cx_cost((0, 0), (1, 0)) + 1e-9

    def test_interaction_distance_far_includes_swaps(self, line_costs):
        _device, costs = line_costs
        adjacent = costs.interaction_distance((0, 0), (1, 0))
        far = costs.interaction_distance((0, 0), (3, 0))
        assert far > adjacent

    def test_qubit_only_model_matches_simple_grid(self):
        device = Device(topology=grid_topology(2, 2))
        costs = CostModel(device, frozenset())
        # With no ququarts every link uses the same swap2 cost.
        step = costs.swap_cost((0, 0), (1, 0))
        assert costs.swap_distance((0, 0), (3, 0)) == pytest.approx(2 * step)
