"""Collect reproduction numbers for EXPERIMENTS.md.

Runs a representative slice of every experiment and writes a plain-text
summary to results/summary.txt plus per-figure CSV files under results/.

All sweep-shaped experiments run through the :mod:`repro.runner` engine:
``--workers N`` fans compiles out over N processes and ``--cache-dir PATH``
reuses compiled points across experiments (the Figure 7/10 sweep, Figure 11
and the Figure 13 grid column all share cells) and across repeated runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.store import ArtifactStore
from repro.cli import _worker_count
from repro.evaluation import (
    figure3_state_evolution,
    figure4_exhaustive,
    figure8_gate_distribution,
    figure9_qubit_error_sweep,
    figure11_t1_improvement,
    figure12_t1_ratio_sweep,
    figure13_topologies,
    format_table,
    results_to_rows,
    run_strategies,
    save_csv,
    strategy_sweep,
    table1_durations,
)
from repro.evaluation.reporting import SWEEP_HEADERS

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def banner(handle, title):
    handle.write("\n" + "=" * 70 + "\n" + title + "\n" + "=" * 70 + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=_worker_count, default=1,
                        help="worker processes for the sweeps (1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="serve and publish results through the artifact "
                             "store rooted at this directory")
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    store = ArtifactStore(Path(args.cache_dir)) if args.cache_dir else None
    engine = {"workers": args.workers, "store": store}
    started = time.perf_counter()
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "summary.txt"
    with out_path.open("w") as out:
        banner(out, "Table 1")
        for group, gates in table1_durations().items():
            out.write(f"{group}: {gates}\n")

        banner(out, "Figure 3 (endpoint populations)")
        traces = figure3_state_evolution(steps=11)
        for name, trace in traces.items():
            out.write(f"{name}: start={trace['populations'][0].round(3).tolist()} "
                      f"end={trace['populations'][-1].round(3).tolist()}\n")

        banner(out, "Figure 4 (cylinder QAOA 12q, EC)")
        fig4 = figure4_exhaustive(num_qubits=12, max_pairs=3, **engine)
        for label, data in fig4.items():
            out.write(f"{label}: gate_eps={data['report'].gate_eps:.4f} "
                      f"coh={data['report'].coherence_eps:.4f} pairs={data['pairs']}\n")

        banner(out, "Figures 7/10 sweep (sizes 8-20)")
        sweep = strategy_sweep(
            benchmarks=("cuccaro", "cnu", "qram", "bv", "qaoa_random",
                        "qaoa_cylinder", "qaoa_torus", "qaoa_bwt"),
            sizes=(8, 12, 16, 20),
            strategies=("qubit_only", "fq", "eqm", "rb", "awe", "pp"),
            **engine,
        )
        rows = results_to_rows(sweep)
        save_csv(RESULTS_DIR / "fig7_fig10_sweep.csv", SWEEP_HEADERS, rows)
        out.write(format_table(SWEEP_HEADERS, rows) + "\n")

        banner(out, "Figure 8 (torus QAOA 30q gate types)")
        for strategy, histogram in figure8_gate_distribution(num_qubits=30, **engine).items():
            out.write(f"{strategy}: {histogram}\n")

        banner(out, "Figure 9 (qubit error sweep, 16q)")
        fig9 = figure9_qubit_error_sweep(num_qubits=16, **engine)
        for bench, by_scale in fig9.items():
            for scale, cell in by_scale.items():
                out.write(
                    f"{bench} scale={scale}: " + " ".join(
                        f"{name}={res.report.gate_eps:.4f}" for name, res in cell.items()
                    ) + "\n"
                )

        banner(out, "Figure 11 (10x T1, 16q)")
        base = {b: run_strategies(b, 16, strategies=("qubit_only", "eqm", "rb"), **engine)
                for b in ("cuccaro", "qaoa_torus")}
        fig11 = figure11_t1_improvement(num_qubits=16, **engine)
        for bench in fig11:
            for strategy in ("qubit_only", "eqm", "rb"):
                out.write(f"{bench} {strategy}: 1x={base[bench][strategy].report.coherence_eps:.4f} "
                          f"10x={fig11[bench][strategy].report.coherence_eps:.4f}\n")

        banner(out, "Figure 12 (T1 ratio sweep, 25q, RB)")
        fig12 = figure12_t1_ratio_sweep(num_qubits=25, **engine)
        for bench, data in fig12.items():
            out.write(f"{bench}: baseline_total={data['baseline'].report.total_eps:.4f} "
                      f"crossover={data['crossover_ratio']}\n")
            for ratio, point in data["series"].items():
                out.write(f"  ratio={ratio:.3f} total={point.report.total_eps:.4f}\n")

        banner(out, "Figure 13 (topologies)")
        fig13 = figure13_topologies(sizes=(8, 12, 16, 20), **engine)
        for bench, by_topology in fig13.items():
            for topology, stats in by_topology.items():
                out.write(f"{bench} {topology}: min={stats['min']:.3f} "
                          f"mean={stats['mean']:.3f} max={stats['max']:.3f}\n")

    elapsed = time.perf_counter() - started
    print(f"wrote {out_path} in {elapsed:.1f}s "
          f"(workers={args.workers}"
          + (f", cache hits={store.hits} misses={store.misses}"
             if store is not None else "")
          + ")")


if __name__ == "__main__":
    sys.exit(main())
