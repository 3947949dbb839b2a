"""Routing-layer benchmark: the 16-qubit Figure 7 compile.

Compiles the eight Figure 7 benchmarks at 16 qubits under the six Figure 7
strategies (48 cells, no store).  Routing and PP planning dominate this
sweep, so it tracks the cached slot graph behind ``CostModel``; the golden
op-stream digest of the same set lives in ``tests/test_compile_golden.py``.
"""

from repro.evaluation import strategy_sweep

BENCHMARKS = ("cuccaro", "cnu", "qram", "bv", "qaoa_random", "qaoa_cylinder",
              "qaoa_torus", "qaoa_bwt")
STRATEGIES = ("qubit_only", "fq", "eqm", "rb", "awe", "pp")


def test_bench_figure7_compile_16q(benchmark):
    sweep = benchmark.pedantic(
        strategy_sweep,
        kwargs={"benchmarks": BENCHMARKS, "sizes": (16,), "strategies": STRATEGIES},
        rounds=1, iterations=1,
    )
    cells = [result for name in BENCHMARKS for result in sweep[name][16].values()]
    assert len(cells) == len(BENCHMARKS) * len(STRATEGIES)
    assert all(result.compiled.ops for result in cells)
