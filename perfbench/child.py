"""One fresh-interpreter step of a benchmark run.

``run.py`` starts this script once per step, so every timed pass sees the
cold per-process state a user's command sees (compile memos, engine memos,
backend handle memos and cached kernel schedules all start empty).  Modes:

``setup``
    Import the workload's modules and build its inputs, then exit.
``prepare``
    ``store_replay`` only: publish every cell into the run's warm store and
    record each cell's result digest for the replay comparison.
``pass``
    Set up, run one timed pass of the workload, then run the correctness
    checks outside the timed phase.  With ``--trace 1`` the pass runs under
    the layer tracer of :mod:`tracing`.

The last line of standard output is one JSON object describing the step.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

clock = time.perf_counter

#: Figure 7/10 cross product.
FIG7_BENCHMARKS = ("cuccaro", "cnu", "qram", "bv",
                   "qaoa_random", "qaoa_cylinder", "qaoa_torus", "qaoa_bwt")
FIG7_SIZES = (8, 12, 16)
DEFAULT_STRATEGIES = ("qubit_only", "fq", "eqm", "rb", "awe", "pp")

TRACKED_BENCHMARKS = ("bv", "ghz", "qft", "teleport")
TRACKED_SIZES = (4, 6)
TRACKED_SHOTS = 1500
#: Shots of each cell replayed through ``run_reference`` as a bit-exact check.
TRACKED_SLICE_SHOTS = 2

STORE_BENCHMARKS = ("bv", "ghz", "qft", "cuccaro")
STORE_SIZES = (4, 6, 8)
STORE_STRATEGIES = ("qubit_only", "eqm", "rb")
STORE_CHUNK_SHOTS = 128
STORE_CHUNKS = 32
#: Closed-loop submitter threads (the machine's core count).
SUBMITTERS = 2
#: Rounds of the whole cell list each submitter replays per pass.
REPLAY_ROUNDS = 5
#: Client-side wait for one job; a job that exceeds it counts as failed.
JOB_TIMEOUT_S = 60.0
#: Iterations of the speed probe, a fixed pure-Python loop (about 7.5 ms on
#: the reference VM) that tracks how fast the shared host runs right now.
PROBE_ITERATIONS = 100_000
#: Wall-clock seconds between two probes during a timed pass.
PROBE_INTERVAL_S = 0.1
#: Probes a set-up-only step takes once its set-up is timed.
SETUP_PROBES = 8


def cells(benchmarks, sizes, strategies) -> list[tuple[str, int, str]]:
    return [(b, n, s) for b in benchmarks for n in sizes for s in strategies]


#: One request per entry: a client call the pass makes and times.  A
#: ``fig7_compile`` request sweeps one circuit under every strategy (as
#: ``repro sweep`` does); the others handle one cell.
WORKLOAD_REQUESTS = {
    "fig7_compile": [(b, n) for b in FIG7_BENCHMARKS for n in FIG7_SIZES],
    "tracked_validate": cells(TRACKED_BENCHMARKS, TRACKED_SIZES, DEFAULT_STRATEGIES),
    "store_publish": cells(STORE_BENCHMARKS, STORE_SIZES, STORE_STRATEGIES),
    "store_replay": cells(STORE_BENCHMARKS, STORE_SIZES, STORE_STRATEGIES),
}

#: Requests (client calls) one pass makes.
REQUESTS_PER_PASS = {
    "fig7_compile": len(WORKLOAD_REQUESTS["fig7_compile"]),
    "tracked_validate": len(WORKLOAD_REQUESTS["tracked_validate"]),
    "store_publish": len(WORKLOAD_REQUESTS["store_publish"]),
    "store_replay": len(WORKLOAD_REQUESTS["store_replay"]) * SUBMITTERS * REPLAY_ROUNDS,
}


def request_seed(seed: int, index: int) -> int:
    """The workload seed of request ``index``.

    Each request draws its own instance (Bernstein-Vazirani secret, random
    QAOA graph and angles, noise streams), so a pass averages over many
    random instances instead of repeating one, and its cost depends little
    on the run's seed.
    """
    return seed * 1000 + index


# ----------------------------------------------------------------------
# result digests
# ----------------------------------------------------------------------
def _op_record(op) -> tuple:
    return (op.gate, op.units, op.logical_qubits, op.duration_ns, op.fidelity,
            op.is_communication, tuple(sorted(op.moves.items())), op.start_ns,
            op.source_gate, op.slots, op.cbits, op.condition)


def result_record(result) -> tuple:
    """Everything a result means, as a value whose ``repr`` is exact."""
    from repro.noise.result import NoisyResult

    if isinstance(result, NoisyResult):
        return ("noisy",) + dataclasses.astuple(result)
    compiled = result.compiled
    return ("compiled", result.benchmark, result.num_qubits, result.strategy,
            tuple(_op_record(op) for op in compiled.ops), compiled.makespan_ns,
            dataclasses.astuple(result.report))


def digest(records) -> str:
    return hashlib.sha256(repr(list(records)).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def import_workload_modules(workload: str) -> None:
    import repro.backends  # noqa: F401
    import repro.runner  # noqa: F401

    if workload == "fig7_compile":
        import repro.analysis  # noqa: F401
        import repro.evaluation.experiments  # noqa: F401
    elif workload == "tracked_validate":
        import repro.evaluation.validate  # noqa: F401
        import repro.noise.trajectory  # noqa: F401
    else:
        import repro.noise.points  # noqa: F401
        import repro.service  # noqa: F401
        import repro.store  # noqa: F401


def store_plans(seed: int, backend: str) -> list:
    """One plan per store cell: its compile point plus event-only shot chunks."""
    from repro.noise.model import NoiseSpec
    from repro.noise.points import shot_plan
    from repro.runner import SweepPlan

    noise = NoiseSpec.from_preset("table1")
    plans = []
    for index, (benchmark, size, strategy) in enumerate(WORKLOAD_REQUESTS["store_publish"]):
        cell_seed = request_seed(seed, index)
        compile_plan = SweepPlan.single(benchmark, size, strategy, seed=cell_seed,
                                        backend=backend)
        plans.append(compile_plan + shot_plan(
            compile_plan[0], noise, STORE_CHUNK_SHOTS * STORE_CHUNKS,
            seed=cell_seed, chunk_size=STORE_CHUNK_SHOTS,
        ))
    return plans


def build_inputs(workload: str, seed: int, work: Path) -> dict:
    """Everything the timed pass needs, resolved before the clock starts.

    Backends are resolved here, once, in the main thread: that is the
    once-per-process cost every user pays, and doing it before any job
    thread runs keeps the benchmark clear of the registry's first-lookup
    race (see ``README.md``).
    """
    from repro.backends import get_backend
    from repro.runner import code_fingerprint

    for name in ("trajectory", "replay"):
        get_backend(name)
    code_fingerprint()
    inputs: dict = {"requests": WORKLOAD_REQUESTS[workload]}
    if workload == "tracked_validate":
        from repro.noise.model import NoiseSpec

        inputs["noise"] = NoiseSpec.from_preset("table1")
    elif workload in ("store_publish", "store_replay"):
        from repro.store import ArtifactStore

        if workload == "store_publish":
            inputs["plans"] = store_plans(seed, "trajectory")
            root = work / f"publish-{time.time_ns()}"  # a fresh store per pass
        else:
            inputs["plans"] = store_plans(seed, "replay")
            root = work / "warm"
            published = json.loads((work / "published.json").read_text())
            inputs["published"] = published["cells"]
        inputs["store"] = ArtifactStore(root)
    return inputs


# ----------------------------------------------------------------------
# timed passes
# ----------------------------------------------------------------------
def speed_probe() -> float:
    """CPU seconds one fixed pure-Python loop takes in the calling thread.

    CPU time, because a probe that runs beside a service's job threads
    waits for the interpreter lock without using the CPU.
    """
    started = time.thread_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - started


class SpeedProbe:
    """Samples the host's speed evenly over a timed pass.

    A timer signal every ``PROBE_INTERVAL_S`` of wall-clock runs
    ``speed_probe`` in the main thread between two bytecodes (or while it
    waits for the submitter threads); ``spent`` is the probes' own time,
    which callers take back out of the times they measure.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame) -> None:
        seconds = speed_probe()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "SpeedProbe":
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def pass_fig7(seed: int, inputs: dict, probe: SpeedProbe) -> dict:
    from repro.evaluation.experiments import strategy_sweep

    latencies, results, failures = [], [], []
    for index, (benchmark, size) in enumerate(inputs["requests"]):
        started, probed = clock(), probe.spent
        try:
            sweep = strategy_sweep((benchmark,), (size,), DEFAULT_STRATEGIES,
                                   seed=request_seed(seed, index))
            results.append(list(sweep[benchmark][size].values()))
        except Exception as error:  # noqa: BLE001 - a failed request is a data point
            results.append(None)
            failures.append(f"{benchmark}-{size}: {type(error).__name__}: {error}")
        latencies.append(clock() - started - (probe.spent - probed))
    return {"latencies": latencies, "results": results, "failures": failures,
            "units": len(inputs["requests"]) * len(DEFAULT_STRATEGIES)}


def pass_tracked(seed: int, inputs: dict, probe: SpeedProbe) -> dict:
    from repro.evaluation.validate import validate_eps

    latencies, results, failures = [], [], []
    for index, (benchmark, size, strategy) in enumerate(inputs["requests"]):
        started, probed = clock(), probe.spent
        try:
            rows = validate_eps((benchmark,), (size,), (strategy,), noise=inputs["noise"],
                                shots=TRACKED_SHOTS, seed=request_seed(seed, index),
                                track_state=True)
            results.append(rows[0])
        except Exception as error:  # noqa: BLE001
            results.append(None)
            failures.append(f"{benchmark}-{size}-{strategy}: {type(error).__name__}: {error}")
        latencies.append(clock() - started - (probe.spent - probed))
    return {"latencies": latencies, "results": results, "failures": failures,
            "units": TRACKED_SHOTS * len(inputs["requests"])}


def run_closed_loop(service, schedules: list[list[int]], plans: list) -> dict:
    """Each submitter submits its cells one job at a time and waits for results.

    Returns the closed loop's wall-clock and, per request, ``(cell, latency,
    status, results, error)`` in submission order per submitter.
    """
    records: list[list] = [[] for _ in schedules]

    def submitter(index: int) -> None:
        for cell in schedules[index]:
            started = clock()
            status, results, error = None, None, None
            try:
                job = service.submit(plans[cell])
                results = service.results(job, timeout=JOB_TIMEOUT_S)
                status = service.status(job)
            except Exception as exc:  # noqa: BLE001 - timeouts and job failures
                error = f"{type(exc).__name__}: {exc}"
            records[index].append((cell, clock() - started, status, results, error))

    threads = [threading.Thread(target=submitter, args=(index,), name=f"submitter-{index}")
               for index in range(len(schedules))]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()  # every wait inside is bounded by JOB_TIMEOUT_S
    wall = clock() - started
    return {"records": [r for per in records for r in per], "wall": wall}


def _drain(service) -> None:
    """Wait for job threads unless one is stuck; stuck daemons die at exit."""
    if all(service.status(job).finished for job in service.job_ids()):
        service.shutdown(wait=True)


def pass_store(inputs: dict, workload: str, probe: SpeedProbe) -> dict:
    from repro.service import SweepService

    plans = inputs["plans"]
    count = len(plans)
    if workload == "store_publish":
        schedules = [list(range(index, count, SUBMITTERS)) for index in range(SUBMITTERS)]
    else:
        # every submitter replays every cell, each starting at its own offset
        schedules = [
            [(index * count // SUBMITTERS + step) % count
             for _ in range(REPLAY_ROUNDS) for step in range(count)]
            for index in range(SUBMITTERS)
        ]
    service = SweepService(inputs["store"], workers=1)
    probed = probe.spent
    loop = run_closed_loop(service, schedules, plans)
    wall = loop["wall"] - (probe.spent - probed)
    _drain(service)
    latencies = [record[1] for record in loop["records"]]
    units = sum(len(plans[record[0]]) for record in loop["records"])
    return {"latencies": latencies, "records": loop["records"], "wall": wall,
            "units": units}


# ----------------------------------------------------------------------
# correctness checks (outside the timed phase)
# ----------------------------------------------------------------------
def check_fig7(outcome: dict, full: bool) -> tuple[list[bool], list[str], str]:
    bad = [result is None for result in outcome["results"]]
    notes = list(outcome["failures"])
    if full:
        from repro.analysis import verify_compiled

        for index, sweep in enumerate(outcome["results"]):
            for result in sweep or ():
                report = verify_compiled(result.compiled)
                if not report.ok:
                    bad[index] = True
                    notes.append(f"verify_compiled: {result.benchmark}-{result.num_qubits}-"
                                 f"{result.strategy}: {report.errors[0].message}")
    records = [[result_record(r) for r in sweep] if sweep is not None else None
               for sweep in outcome["results"]]
    return bad, notes, digest(records)


def check_tracked(outcome: dict, inputs: dict, seed: int, full: bool,
                  ) -> tuple[list[bool], list[str], str]:
    bad = [row is None for row in outcome["results"]]
    notes = list(outcome["failures"])
    validated = sum(1 for row in outcome["results"] if row is not None and row.validated)
    notes.append(f"info: {validated}/{len(bad)} cells validated (statistical, not gated)")
    if full:
        from repro.backends import get_backend
        from repro.noise.trajectory import TrajectoryEngine
        from repro.runner import SweepPlan

        backend = get_backend("trajectory")
        noise = inputs["noise"]
        for index, (benchmark, size, strategy) in enumerate(inputs["requests"]):
            cell_seed = request_seed(seed, index)
            point = SweepPlan.single(benchmark, size, strategy, seed=cell_seed,
                                     compiler_kwargs={"merge_single_qubit_gates": False})[0]
            compiled = backend.compile_point(point).compiled
            engine = TrajectoryEngine(compiled, noise, track_state=True)
            base = 1 + seed % 97
            fused = engine.run(TRACKED_SLICE_SHOTS, cell_seed, base_shot=base)
            scalar = engine.run_reference(TRACKED_SLICE_SHOTS, cell_seed, base_shot=base)
            if fused != scalar:
                bad[index] = True
                notes.append(f"fused != run_reference: {benchmark}-{size}-{strategy}")
    records = [result_record(r.result) if r is not None else None for r in outcome["results"]]
    return bad, notes, digest(records)


def _job_ok(record) -> bool:
    _cell, _latency, status, results, error = record
    return error is None and status is not None and status.state == "done" and results is not None


def check_store(outcome: dict, inputs: dict, seed: int, workload: str,
                ) -> tuple[list[bool], list[str], str]:
    records = outcome["records"]
    bad = [not _job_ok(record) for record in records]
    notes = [f"job for cell {r[0]}: {r[4] or r[2]}" for r, b in zip(records, bad) if b]
    per_cell: dict[int, str] = {}
    for index, record in enumerate(records):
        if bad[index]:
            continue
        cell_digest = digest(result_record(r) for r in record[3])
        per_cell.setdefault(record[0], cell_digest)
        if workload == "store_replay":
            status = record[2]
            if status.executed != 0 or status.cache_hits != status.total_points:
                bad[index] = True
                notes.append(f"replay job for cell {record[0]} executed {status.executed} points")
            if cell_digest != inputs["published"][record[0]]:
                bad[index] = True
                notes.append(f"replay of cell {record[0]} differs from its published results")
    if workload == "store_publish":
        # replay every published cell: bit-identical results, zero executed
        from repro.service import SweepService

        replays = store_plans(seed, "replay")
        service = SweepService(inputs["store"], workers=1)
        loop = run_closed_loop(service, [list(range(len(replays)))], replays)
        _drain(service)
        for record in loop["records"]:
            cell = record[0]
            indices = [i for i, r in enumerate(records) if r[0] == cell]
            fine = (_job_ok(record) and record[2].executed == 0
                    and cell in per_cell
                    and digest(result_record(r) for r in record[3]) == per_cell[cell])
            if not fine:
                for index in indices:
                    bad[index] = True
                notes.append(f"replay check failed for cell {cell}: {record[4] or record[2]}")
    verify = inputs["store"].verify()
    if not verify.ok:
        bad = [True] * len(bad)
        notes.append(f"store verify: {verify.issues[:3]}")
    count = len(inputs["plans"])
    cell_digests = [per_cell.get(cell) for cell in range(count)]
    return bad, notes, digest(cell_digests)


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(args, inputs: dict) -> dict:
    workload = args.workload
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        context = tracing.install(tracer)
    else:
        import contextlib

        context = contextlib.nullcontext()
    probe = SpeedProbe(enabled=args.probe)
    with context, probe:
        started = clock()
        if workload == "fig7_compile":
            outcome = pass_fig7(args.seed, inputs, probe)
        elif workload == "tracked_validate":
            outcome = pass_tracked(args.seed, inputs, probe)
        else:
            outcome = pass_store(inputs, workload, probe)
        wall = outcome.get("wall", clock() - started - probe.spent)
    if workload == "fig7_compile":
        bad, notes, result_digest = check_fig7(outcome, args.full_checks)
    elif workload == "tracked_validate":
        bad, notes, result_digest = check_tracked(outcome, inputs, args.seed, args.full_checks)
    else:
        bad, notes, result_digest = check_store(outcome, inputs, args.seed, workload)
    report = {
        "wall_s": wall,
        "units": outcome["units"],
        "latencies_s": outcome["latencies"],
        "probes_s": probe.samples,
        "failed": sum(bad),
        "attempted": len(bad),
        "notes": notes,
        "digest": result_digest,
    }
    if tracer is not None:
        report["trace"] = trace_report(tracer, outcome)
    return report


def trace_report(tracer, outcome: dict) -> dict:
    counters = tracer.counters()
    statuses = [r[2] for r in outcome.get("records", ()) if r[2] is not None]
    counters["runner.cache_hits"] = (counters.get("runner.cache_hits", 0)
                                     + sum(s.cache_hits for s in statuses))
    counters["service.jobs_done"] = sum(1 for s in statuses if s.state == "done")
    counters["service.jobs_failed"] = (len(outcome.get("records", ())) - len(statuses)
                                       + sum(1 for s in statuses if s.state == "failed"))
    counters["service.deduped"] = sum(s.deduped for s in statuses)
    return {
        "self_s": tracer.self_seconds(),
        "counters": counters,
        "edges": [[parent, child, seconds]
                  for (parent, child), seconds in sorted(tracer.edges().items())],
        # the time clients waited, which the layers' self times attribute
        "request_s": sum(outcome["latencies"]),
    }


def prepare(args) -> dict:
    """Publish every store cell into ``<work>/warm`` and record its digest."""
    from repro.service import SweepService
    from repro.store import ArtifactStore

    store = ArtifactStore(args.work / "warm")
    plans = store_plans(args.seed, "trajectory")
    service = SweepService(store, workers=1)
    loop = run_closed_loop(service, [list(range(len(plans)))], plans)
    _drain(service)
    cells_out = []
    for record in loop["records"]:
        if not _job_ok(record):
            raise RuntimeError(f"publishing cell {record[0]} failed: {record[4] or record[2]}")
        cells_out.append(digest(result_record(r) for r in record[3]))
    (args.work / "published.json").write_text(json.dumps({"cells": cells_out}))
    return {"cells": len(cells_out), "digest": digest(cells_out)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "prepare", "pass"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOAD_REQUESTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, default=None,
                        help="parent's perf_counter just before starting this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-checks", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="time the speed probe beside the set-up or pass")
    args = parser.parse_args(argv)

    t0 = args.t0 if args.t0 is not None else _STARTED
    import_workload_modules(args.workload)
    imported = clock()
    if args.mode == "prepare":
        report = prepare(args)
    else:
        inputs = build_inputs(args.workload, args.seed, args.work)
        ready = clock()
        report = {"setup_s": ready - t0, "inputs_s": ready - imported}
        if args.mode == "pass":
            report.update(run_pass(args, inputs))
        elif args.probe:
            report["probes_s"] = [speed_probe() for _ in range(SETUP_PROBES)]
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
