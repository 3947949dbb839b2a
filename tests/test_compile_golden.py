"""Golden digests of compiled op streams.

Pins one SHA-256 over every compiled op of two compile sets, so a change to
mapping, routing, scheduling or the cost model that moves a single op, a
start time or the makespan fails here:

* the ``repro lint`` enumeration (every registry workload at its minimum
  size under the seven canonical strategies, 84 cells);
* the Figure 7 benchmarks at 16 qubits under the six Figure 7 strategies,
  the routing-heavy set (48 cells).

Both sets are compiled through :func:`repro.analysis.drivers.lint_workloads`,
with ``verify_compiled`` wrapped to capture each compiled circuit.  The test
also counts ``CostModel.shortest_slot_path`` calls so a pin cannot pass on a
set that does no routing.
"""

from __future__ import annotations

import hashlib

import repro.analysis.drivers as drivers
from repro.compiler.costs import CostModel
from repro.evaluation import DEFAULT_STRATEGIES

FIG7_BENCHMARKS = ("cuccaro", "cnu", "qram", "bv",
                   "qaoa_random", "qaoa_cylinder", "qaoa_torus", "qaoa_bwt")

LINT_DIGEST = "613d47bb92156c6168ff3bf8d023d4e32411048f4af1c6da1cff9cf77d83df3a"
FIG7_DIGEST = "15a030dd05a51ac1876de04d043bf6843acf4d356bf0479d852c13d1b8d75113"


def _op_record(op) -> tuple:
    return (op.gate, op.units, op.logical_qubits, op.slots,
            tuple(sorted(op.moves.items())), op.start_ns, op.duration_ns,
            op.fidelity, op.cbits, op.condition)


def _compile_digest(monkeypatch, **lint_kwargs) -> tuple[str, int, int]:
    """Digest of every program ``lint_workloads`` compiles, cells and path queries."""
    compiled_programs = []
    path_calls = 0
    verify = drivers.verify_compiled
    shortest_slot_path = CostModel.shortest_slot_path

    def capture(compiled):
        compiled_programs.append(compiled)
        return verify(compiled)

    def counted(self, source, destination):
        nonlocal path_calls
        path_calls += 1
        return shortest_slot_path(self, source, destination)

    monkeypatch.setattr(drivers, "verify_compiled", capture)
    monkeypatch.setattr(CostModel, "shortest_slot_path", counted)
    cells = drivers.lint_workloads(**lint_kwargs)
    assert all(cell["report"].ok for cell in cells)
    assert len(compiled_programs) == len(cells)
    records = [
        (tuple(_op_record(op) for op in compiled.ops), compiled.makespan_ns)
        for compiled in compiled_programs
    ]
    digest = hashlib.sha256(repr(records).encode("utf-8")).hexdigest()
    return digest, len(cells), path_calls


def test_lint_enumeration_compiles_to_golden_digest(monkeypatch):
    digest, cells, path_calls = _compile_digest(monkeypatch)
    assert cells == 84
    assert path_calls > 0
    assert digest == LINT_DIGEST


def test_figure7_compiles_to_golden_digest(monkeypatch):
    digest, cells, path_calls = _compile_digest(
        monkeypatch, benchmarks=FIG7_BENCHMARKS, num_qubits=16,
        strategies=DEFAULT_STRATEGIES,
    )
    assert cells == len(FIG7_BENCHMARKS) * len(DEFAULT_STRATEGIES)
    assert path_calls > 0
    assert digest == FIG7_DIGEST
