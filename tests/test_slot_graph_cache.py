"""The cached slot graph behind :class:`CostModel` routing queries.

``CostModel`` answers every path query from one Dijkstra tree per source.
These tests hold it to the early-exit search it replaced (same paths, heap
tie-breaks included, and path costs equal to the left-to-right SWAP sum) and
count the work: within one model no edge cost is derived twice and no
source's tree is built twice.
"""

from __future__ import annotations

import heapq
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import Device, grid_topology, linear_topology
from repro.compiler import CostModel, QompressCompiler
from repro.compression import get_strategy
from repro.runner import DeviceSpec
from repro.workloads import build_benchmark


def early_exit_slot_path(costs: CostModel, source, destination) -> list:
    """Reference: a Dijkstra that stops once ``destination`` is settled."""
    if source == destination:
        return [source]
    distances = {source: 0.0}
    previous = {}
    queue = [(0.0, source)]
    visited = set()
    while queue:
        cost, slot = heapq.heappop(queue)
        if slot in visited:
            continue
        if slot == destination:
            break
        visited.add(slot)
        for neighbor in costs.slot_neighbors(slot):
            step = costs.swap_cost(slot, neighbor)
            new_cost = cost + step
            if new_cost < distances.get(neighbor, float("inf")):
                distances[neighbor] = new_cost
                previous[neighbor] = slot
                heapq.heappush(queue, (new_cost, neighbor))
    if destination not in distances:
        raise RuntimeError(f"no route from {source} to {destination}")
    path = [destination]
    while path[-1] != source:
        path.append(previous[path[-1]])
    path.reverse()
    return path


TOPOLOGIES = {
    "linear-5": lambda: linear_topology(5),
    "linear-8": lambda: linear_topology(8),
    "grid-2x3": lambda: grid_topology(2, 3),
    "grid-3x3": lambda: grid_topology(3, 3),
}


@st.composite
def routing_queries(draw):
    """A device, a ququart set and slot pairs; slots may be disabled."""
    topology = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]()
    device = Device(topology=topology)
    units = st.integers(0, device.num_units - 1)
    ququarts = draw(st.sets(units))
    slot = st.tuples(units, st.integers(0, 1))
    pairs = draw(st.lists(st.tuples(slot, slot), min_size=1, max_size=8))
    return device, ququarts, pairs


@given(query=routing_queries())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_tree_walk_matches_early_exit_search(query):
    device, ququarts, pairs = query
    costs = CostModel(device, ququarts)
    for source, destination in pairs:
        try:
            expected = early_exit_slot_path(costs, source, destination)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                costs.shortest_slot_path(source, destination)
            assert costs.swap_distance(source, destination) == float("inf")
            continue
        path = costs.shortest_slot_path(source, destination)
        assert path == expected
        total = 0.0
        for slot_a, slot_b in zip(path, path[1:]):
            total += costs.swap_cost(slot_a, slot_b)
        assert costs.swap_distance(source, destination) == total


@pytest.mark.parametrize("strategy", ["eqm", "pp"])
def test_routing_derives_each_edge_and_tree_once(monkeypatch, strategy):
    # Keyed by the model object itself (not its id) so every model stays
    # alive and no key is reused across the many models PP builds.
    swap_costs: Counter = Counter()
    trees: Counter = Counter()
    swap_cost = CostModel.swap_cost
    tree = CostModel._tree

    def counted_swap_cost(self, slot_a, slot_b):
        swap_costs[(self, slot_a, slot_b)] += 1
        return swap_cost(self, slot_a, slot_b)

    def counted_tree(self, source):
        trees[(self, source)] += 1
        return tree(self, source)

    monkeypatch.setattr(CostModel, "swap_cost", counted_swap_cost)
    monkeypatch.setattr(CostModel, "_tree", counted_tree)
    circuit = build_benchmark("qaoa_torus", 16, seed=0)
    device = DeviceSpec(kind="grid").build(16)
    compiled = QompressCompiler(device, get_strategy(strategy)).compile(circuit)

    assert compiled.ops and swap_costs and trees
    assert max(swap_costs.values()) == 1
    assert max(trees.values()) == 1
