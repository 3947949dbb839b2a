"""Regenerate ``reference.json``: result digests and the per-layer baseline.

Usage (from the root of a checkout)::

    python3 perfbench/record_reference.py --seeds 0-9

For each workload and seed this runs one fully checked pass and records
the digest of its results; the benchmark then fails any later run at that
seed whose results differ.  It also stores one traced run per workload, at
the first seed, as the per-layer baseline.  Only record digests from a
commit whose results are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

import run as bench


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[0])
    args = parser.parse_args(argv)

    path = bench.BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text())
    for workload in bench.WORKLOADS:
        for seed in args.seeds:
            work = bench.ROOT / ".perfbench_work" / f"record-{os.getpid()}-{time.time_ns()}"
            work.mkdir(parents=True)
            try:
                run = bench.Run(workload, seed, work)
                if not bench.prepare(run):
                    raise SystemExit(f"{workload} seed {seed}: {run.errors}")
                report = run.child("pass", full_checks=True)
                if report is None or report["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: not recorded: "
                                     f"{run.errors or report['notes']}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            reference["digests"].setdefault(workload, {})[str(seed)] = report["digest"]
            print(f"{workload} seed {seed}: {report['digest']}", flush=True)
        work = bench.ROOT / ".perfbench_work" / f"record-{os.getpid()}-{time.time_ns()}"
        work.mkdir(parents=True)
        try:
            result = bench.traced_run(bench.Run(workload, args.seeds[0], work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if not result["correct"]:
            raise SystemExit(f"{workload}: traced run failed: {result['info']['notes']}")
        reference.setdefault("per_layer_baseline", {})[workload] = {
            "seed": args.seeds[0],
            "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, "
                       f"Python {platform.python_version()}",
            "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        }
    try:
        (bench.ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
