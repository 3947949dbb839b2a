"""The repo benchmark: end-to-end metrics per workload, or a traced layer map.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7_compile --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (self time of each module's entry points, plus counters)
and the tracing overhead.  Every timed pass runs in a fresh interpreter
(``child.py``), so no pass inherits another's warm per-process memos.
Correctness gates run outside the timed phase; the last line of standard
output is one JSON object, and the exit code is 1 when any gate failed.
See ``README.md`` for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child

clock = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = tuple(child.WORKLOAD_REQUESTS)
REQUESTS_PER_PASS = child.REQUESTS_PER_PASS
#: Passes every run makes at least, whatever ``--seconds`` says; fixes the
#: smallest latency sample and so the tail percentile reported.
MIN_PASSES = {"fig7_compile": 3, "tracked_validate": 2, "store_publish": 5, "store_replay": 2}
#: Mean seconds of ``child.speed_probe`` on the reference VM: the host
#: speed the gated times are scaled to (see ``reference_seconds``).
PROBE_NOMINAL_S = 0.0075
#: Set-up-only interpreters started per run, besides the passes' own set-ups.
SETUP_RUNS = 1
#: Percentiles the tail latency may be reported at.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
#: A run stops starting interpreters after this many seconds.
RUN_BUDGET_S = 165.0

#: The workload-specific name each end-to-end metric goes by.
ALIASES = {
    ("fig7_compile", "throughput_per_s"): "compile_cells_per_s [cells/s]",
    ("tracked_validate", "throughput_per_s"): "tracked_shots_per_s [shots/s]",
    ("store_publish", "throughput_per_s"): "publish_points_per_s [points/s]",
    ("store_replay", "throughput_per_s"): "replay_points_per_s [points/s]",
    ("store_replay", "request_p50_ms"): "replay_job_p50_ms [ms]",
    ("store_replay", "request_tail_ms"): "replay_job_tail_ms [ms]",
}

#: The gated end-to-end metrics, in the final JSON line.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
)
#: Printed beside them but not gated: over ten seeds on the reference VM
#: their run-to-run spread reached the largest bound a gate may have.
LATENCIES = (
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
)

#: Per-layer metrics of a traced run, named by module.  ``*_s`` metrics are
#: the self time of the layer's spans; the rest are counters.
PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.import_pulses_s", "s"),
    ("setup.inputs_s", "s"),
    ("workloads.build_s", "s"),
    ("circuits.decompose_s", "s"),
    ("circuits.lowered_gates", "count"),
    ("compression.plan_s", "s"),
    ("compression.pairs", "count"),
    ("compiler.mapping_s", "s"),
    ("compiler.routing_s", "s"),
    ("compiler.routing.shortest_path_calls", "count"),
    ("compiler.routing.op_success_calls", "count"),
    ("compiler.scheduling_s", "s"),
    ("compiler.physical_ops", "count"),
    ("compiler.comm_ops", "count"),
    ("metrics.eps_s", "s"),
    ("backends.compile_point_s", "s"),
    ("backends.noise_point_s", "s"),
    ("noise.engine_build_s", "s"),
    ("noise.run_static_s", "s"),
    ("noise.run_dynamic_s", "s"),
    ("noise.shots", "count"),
    ("noise.kernel.execute_run_s", "s"),
    ("noise.kernel.execute_run_calls", "count"),
    ("noise.kernel.layout_copies", "count"),
    ("noise.kernel.copy_bytes", "bytes"),
    ("noise.kernel.gemm_flops", "flop"),
    ("noise.rng.lanes_init_s", "s"),
    ("noise.rng.draw_s", "s"),
    ("noise.event.count_block_s", "s"),
    ("runner.execute_plan_s", "s"),
    ("runner.point_key_s", "s"),
    ("runner.point_key_calls", "count"),
    ("runner.cache_hits", "count"),
    ("runner.executed", "count"),
    ("store.put_s", "s"),
    ("store.puts", "count"),
    ("store.bytes_written", "bytes"),
    ("store.get_s", "s"),
    ("store.gets", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.ref_reads", "count"),
    ("store.manifest_write_s", "s"),
    ("service.submit_s", "s"),
    ("service.job_s", "s"),
    ("service.jobs_done", "count"),
    ("service.jobs_failed", "count"),
    ("service.deduped", "count"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_s", "s"),
)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


class Run:
    """One benchmark invocation: its work directory, deadline and children."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = clock()
        self.env = child_env()
        self.errors: list[str] = []

    def child(self, mode: str, trace: int = 0, full_checks: bool = False,
              importtime: bool = False, probe: bool = False) -> dict | None:
        """Start ``child.py`` in a fresh interpreter and return its report."""
        remaining = RUN_BUDGET_S - (clock() - self.started)
        if remaining <= 1.0:
            self.errors.append(f"{mode}: run budget exhausted")
            return None
        command = [sys.executable]
        if importtime:
            command += ["-X", "importtime"]
        command += [str(BENCH_DIR / "child.py"), "--mode", mode, "--workload", self.workload,
                    "--seed", str(self.seed), "--work", str(self.work),
                    "--trace", str(trace)]
        if full_checks:
            command.append("--full-checks")
        if probe:
            command.append("--probe")
        started = clock()
        command += ["--t0", repr(started)]
        try:
            done = subprocess.run(command, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode}: timed out after {remaining:.0f}s")
            return None
        wall = clock() - started
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = (done.stderr or done.stdout).strip().splitlines()[-3:]
            self.errors.append(f"{mode}: exit {done.returncode}: {' | '.join(tail)}")
            return None
        report = json.loads(lines[-1])
        report["child_wall_s"] = wall
        if importtime:
            report["importtime"] = parse_importtime(done.stderr)
        return report


def parse_importtime(stderr: str) -> dict:
    """Total import seconds and the ``repro.pulses`` share, from ``-X importtime``."""
    total_us = 0
    pulses_us = 0
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for line in stderr.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        cumulative, indent, name = int(match.group(2)), len(match.group(3)), match.group(4)
        if indent == 1:  # top-level imports: their cumulative times partition the total
            total_us += cumulative
        if name == "repro.pulses":
            pulses_us = max(pulses_us, cumulative)
    return {"import_s": total_us / 1e6, "import_pulses_s": pulses_us / 1e6}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (``0 <= p <= 100``)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(workload: str) -> float:
    """Highest ladder percentile with at least ten samples beyond it in
    the smallest sample a run can take."""
    samples = REQUESTS_PER_PASS[workload] * MIN_PASSES[workload]
    return max(p for p in TAIL_LADDER if samples * (1 - p / 100.0) >= 10)


def reference_seconds(seconds: float, report: dict) -> float:
    """``seconds`` measured in ``report``'s interpreter, at the reference VM's speed.

    The shared host's speed drifts by tens of percent over minutes, for
    every program alike.  Each interpreter times a fixed pure-Python loop
    (``child.speed_probe``) beside its measurements: every 0.1 s of a pass,
    or after a set-up.  Scaling a time by the loop's nominal over its mean
    time cancels that drift and leaves the program's own speed.
    """
    return seconds * PROBE_NOMINAL_S / statistics.fmean(report["probes_s"])


def raw_throughput(report: dict) -> float:
    """Work per second of one pass's timed phase, as measured."""
    return report["units"] / report["wall_s"]


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())


def check_digests(workload: str, seed: int, digests: list[str]) -> list[str]:
    """Every pass of a run must agree, and match the recorded seed's digest."""
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"passes disagree: {sorted(set(digests))}")
    recorded = load_reference()["digests"].get(workload, {}).get(str(seed))
    if recorded is not None and digests and digests[0] != recorded:
        problems.append(f"digest {digests[0][:16]} != recorded {recorded[:16]} at seed {seed}")
    return problems


def prepare(run: Run) -> bool:
    """Publish ``store_replay``'s warm store before anything is timed."""
    return run.workload != "store_replay" or run.child("prepare") is not None


# ----------------------------------------------------------------------
# timed run (--trace 0)
# ----------------------------------------------------------------------
def timed_run(run: Run, seconds: float) -> dict:
    workload = run.workload
    if not prepare(run):
        return failed_result(run, REQUESTS_PER_PASS[workload])
    measure_start = clock()
    setups = []
    for _ in range(SETUP_RUNS):
        report = run.child("setup", probe=True)
        if report is not None:
            setups.append(reference_seconds(report["setup_s"], report))
    passes = []
    while True:
        report = run.child("pass", full_checks=not passes, probe=True)
        if report is None:  # its requests count as failed below, via run.errors
            break
        passes.append(report)
        elapsed = clock() - measure_start
        typical = statistics.median(p["child_wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES[workload] and elapsed + typical > seconds:
            break
    if len(passes) < MIN_PASSES[workload]:
        return failed_result(run, REQUESTS_PER_PASS[workload] * MIN_PASSES[workload])
    setups += [reference_seconds(p["setup_s"], p) for p in passes]
    latencies = [lat for p in passes for lat in p["latencies_s"]]
    tail_p = tail_percentile(workload)
    notes = [note for p in passes for note in p["notes"]]
    problems = check_digests(workload, run.seed, [p["digest"] for p in passes])
    lost = REQUESTS_PER_PASS[workload] if run.errors else 0
    attempted = sum(p["attempted"] for p in passes) + lost
    failed = attempted if problems else sum(p["failed"] for p in passes) + lost
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "throughput_per_s": statistics.median(
            p["units"] / reference_seconds(p["wall_s"], p) for p in passes),
    }
    latency = {
        "request_p50_ms": 1000.0 * statistics.median(latencies),
        "request_tail_ms": 1000.0 * percentile(latencies, tail_p),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        "info": {
            "latency": {name: {"value": latency[name], "unit": unit} for name, unit in LATENCIES},
            "raw_throughput_per_s": statistics.median(raw_throughput(p) for p in passes),
            "probe_ms": 1000.0 * statistics.fmean(x for p in passes for x in p["probes_s"]),
            "passes": len(passes),
            "setups": len(setups),
            "requests": len(latencies),
            "tail_percentile": tail_p,
            "notes": notes + problems + run.errors,
        },
    }


def failed_result(run: Run, attempted: int) -> dict:
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}, "info": {"notes": run.errors}}


# ----------------------------------------------------------------------
# traced run (--trace 1)
# ----------------------------------------------------------------------
def traced_run(run: Run) -> dict:
    workload = run.workload
    if not prepare(run):
        return failed_result(run, REQUESTS_PER_PASS[workload])
    imports = run.child("setup", importtime=True)
    # no speed probe: the tracer would count its time as a layer's self time,
    # and the untraced pass must match the traced one for trace.overhead_s
    plain = run.child("pass", full_checks=True)
    traced = run.child("pass", trace=1)
    if imports is None or plain is None or traced is None:
        return failed_result(run, 2 * REQUESTS_PER_PASS[workload])
    trace = traced["trace"]
    self_s = trace["self_s"]
    counters = trace["counters"]
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.endswith("_s"):
            values[name] = self_s.get(name[:-2], 0.0)
        else:
            values[name] = counters.get(name, 0)
    values["setup.import_s"] = imports["importtime"]["import_s"]
    values["setup.import_pulses_s"] = imports["importtime"]["import_pulses_s"]
    values["setup.inputs_s"] = traced["inputs_s"]
    gets = counters.get("store.gets", 0)
    values["store.hit_ratio"] = counters.get("store.get_hits", 0) / gets if gets else 0.0
    values["trace.attributed_frac"] = sum(self_s.values()) / trace["request_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    problems = check_digests(workload, run.seed, [plain["digest"], traced["digest"]])
    attempted = plain["attempted"] + traced["attempted"]
    failed = attempted if problems else plain["failed"] + traced["failed"]
    return {
        "correct": failed == 0 and not run.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
        "info": {
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": plain["wall_s"],
            "edges": trace["edges"],
            "notes": plain["notes"] + traced["notes"] + problems + run.errors,
        },
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def describe(workload: str, seed: int, result: dict, trace: int) -> list[str]:
    info = result.get("info", {})
    lines = [f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})"]
    for name, metric in {**result["metrics"], **info.get("latency", {})}.items():
        extra = f"  = {ALIASES[workload, name]}" if (workload, name) in ALIASES else ""
        if name == "request_tail_ms":
            extra += (f"  (p{info['tail_percentile']:g} of {info['requests']} requests"
                      f" over {info['passes']} passes)")
        elif name == "setup_s":
            extra += f"  (median of {info['setups']} set-ups, at reference speed)"
        elif name == "throughput_per_s":
            extra += (f"  (at reference speed; measured {info['raw_throughput_per_s']:.6g}"
                      f" with a {info['probe_ms']:.4g} ms speed probe)")
        lines.append(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}{extra}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  {'failed_frac':40s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    if trace and "edges" in info:
        lines.append("  layer call tree (parent -> child: total seconds)")
        for parent, callee, seconds in info["edges"]:
            lines.append(f"    {parent} -> {callee}: {seconds:.4f}")
    for note in info.get("notes", []):
        lines.append(f"  note: {note}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work)
        result = traced_run(run) if trace else timed_run(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in describe(workload, seed, result, trace):
        print(line, flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
        final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
