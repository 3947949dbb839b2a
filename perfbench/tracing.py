"""Layer spans and counters installed around the repo's public entry points.

The benchmark attributes wall-clock to the repo's modules without editing
them: :func:`install` replaces each entry point with a wrapper at the name
its callers look up (a module attribute or a class attribute), records a
span per call and restores every original on exit.

Spans nest per thread.  Each open span remembers how much of its interval
its children covered, so a layer's *self time* is exact: its spans'
durations minus the parts spent inside other recorded spans.  Totals are
kept per thread (no lock on the hot path) and merged at the end; the
aggregated parent -> child edges are kept too, so the call tree of layers
can be printed.
"""

from __future__ import annotations

import contextlib
import inspect
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "self_s", "edges", "counters")

    def __init__(self) -> None:
        #: open spans: ``[name, start, child_seconds]``
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        #: ``(parent, child) -> seconds`` of the child's full duration
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)


class Tracer:
    """Per-thread span stacks with exact self time, plus counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def call(self, name: str, function, args, kwargs):
        """Run ``function`` inside a span named ``name``."""
        state = self._state()
        stack = state.stack
        frame = [name, _clock(), 0.0]
        stack.append(frame)
        try:
            return function(*args, **kwargs)
        finally:
            duration = _clock() - frame[1]
            stack.pop()
            state.self_s[name] += duration - frame[2]
            parent = stack[-1][0] if stack else "<root>"
            state.edges[(parent, name)] += duration
            if stack:
                stack[-1][2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counters[name] += amount

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for state in self._states:
            for name, seconds in state.self_s.items():
                totals[name] += seconds
        return dict(totals)

    def counters(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for state in self._states:
            for name, amount in state.counters.items():
                totals[name] += amount
        return dict(totals)

    def edges(self) -> dict[tuple[str, str], float]:
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for state in self._states:
            for edge, seconds in state.edges.items():
                totals[edge] += seconds
        return dict(totals)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        own = attr in vars(owner)
        self._undo.append((owner, attr, original, own))
        wrapper = make_wrapper(original)
        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _span(tracer: Tracer, name, after=None):
    """Wrapper factory: time each call as ``name`` (a string, or a
    function of the call's arguments), then feed ``after`` the arguments
    and the result for counters."""

    def make(original):
        def wrapper(*args, **kwargs):
            layer = name if isinstance(name, str) else name(args)
            result = tracer.call(layer, original, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    return make


def _counted(tracer: Tracer, counter: str, amount=None):
    """Wrapper factory: count calls (or ``amount(args)``) without a span."""

    def make(original):
        if amount is None:
            def wrapper(*args, **kwargs):
                tracer.count(counter)
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                tracer.count(counter, amount(args))
                return original(*args, **kwargs)

        return wrapper

    return make


def _run_copy_profile(run, dims: tuple[int, ...]) -> tuple[int, int]:
    """``(layout copies, GEMM flops per lane)`` of one fused run.

    A :class:`~repro.noise.kernel.UnitaryStep` whose plan axes differ from
    the current layout materialises one copy, and so does a non-identity
    restore at the end of the run.  A GEMM multiplies a ``sub_dim`` square
    matrix into ``dimension`` amplitudes per lane: ``8 * sub_dim *
    dimension`` real flops for complex operands.
    """
    from repro.noise.kernel import UnitaryStep

    identity = tuple(range(len(dims) + 1))
    dimension = 1
    for dim in dims:
        dimension *= dim
    layout = identity
    copies = 0
    flops = 0
    for item in run.items:
        if type(item) is UnitaryStep:
            if item.plan.axes != layout:
                copies += 1
                layout = item.plan.axes
            flops += 8 * item.plan.sub_dim * dimension
    if layout != identity:
        copies += 1
    return copies, flops


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    import repro.compiler.pipeline as pipeline
    import repro.metrics.eps as eps
    import repro.noise.trajectory as trajectory
    import repro.runner.cache as runner_cache
    import repro.runner.points as runner_points
    import repro.service.queue as queue
    import repro.store.artifacts as artifacts
    from repro.backends.contract import ExecutionBackend
    from repro.backends.trajectory import TrajectoryBackend
    from repro.compiler.costs import CostModel
    from repro.compiler.routing import Router
    from repro.compression import CompressionStrategy
    from repro.noise.kernel import EventKernel, KernelSchedule
    from repro.noise.rng import GeneratorLanes
    from repro.runner.executor import ParallelExecutor
    from repro.store.artifacts import ArtifactStore

    patches = _Patches()
    count = tracer.count

    def lowered(args, kwargs, circuit):
        count("circuits.lowered_gates", len(circuit))

    def planned(args, kwargs, plan):
        count("compression.pairs", len(plan.pairs))

    def scheduled(args, kwargs, ops):
        count("compiler.physical_ops", len(ops))
        count("compiler.comm_ops", sum(1 for op in ops if op.is_communication))

    def engine_layer(args):
        return "noise.run_dynamic" if args[0].is_dynamic else "noise.run_static"

    def ran(args, kwargs, chunk):
        count("noise.shots", chunk.shots)

    profiles: dict[int, tuple[object, tuple[int, int]]] = {}

    def executed_run(args, kwargs, amps):
        schedule, run, source = args[0], args[1], args[2]
        cached = profiles.get(id(run))
        if cached is None or cached[0] is not run:
            cached = (run, _run_copy_profile(run, schedule.dims))
            profiles[id(run)] = cached
        copies, flops = cached[1]
        lanes, dimension = source.shape
        count("noise.kernel.execute_run_calls")
        count("noise.kernel.layout_copies", copies)
        count("noise.kernel.copy_bytes", copies * lanes * dimension * source.itemsize)
        count("noise.kernel.gemm_flops", flops * lanes)

    def executed_plan(args, kwargs, results):
        stats = args[0].last_stats
        count("runner.executed", stats.executed)
        count("runner.cache_hits", stats.cache_hits)

    def got(args, kwargs, result):
        count("store.gets")
        if result is not None:
            count("store.get_hits")

    def put(args, kwargs, digest):
        count("store.puts")

    try:
        replace = patches.replace
        replace(runner_points, "build_benchmark", _span(tracer, "workloads.build"))
        replace(pipeline, "decompose_to_basis", _span(tracer, "circuits.decompose", lowered))
        for strategy in _subclasses(CompressionStrategy):
            if "plan" in vars(strategy):
                replace(strategy, "plan", _span(tracer, "compression.plan", planned))
        replace(pipeline, "initial_mapping", _span(tracer, "compiler.mapping"))
        replace(Router, "run", _span(tracer, "compiler.routing"))
        # the full-ququart baseline routes whole ququarts in its own loop
        replace(pipeline.QompressCompiler, "_compile_full_ququart",
                _span(tracer, "compiler.routing"))
        replace(CostModel, "shortest_slot_path",
                _counted(tracer, "compiler.routing.shortest_path_calls"))
        replace(CostModel, "op_success", _counted(tracer, "compiler.routing.op_success_calls"))
        replace(pipeline, "schedule_ops", _span(tracer, "compiler.scheduling", scheduled))
        replace(eps, "evaluate_eps", _span(tracer, "metrics.eps"))
        replace(ExecutionBackend, "run_compile_point", _span(tracer, "backends.compile_point"))
        replace(TrajectoryBackend, "run_noise_point", _span(tracer, "backends.noise_point"))
        replace(trajectory.TrajectoryEngine, "__init__", _span(tracer, "noise.engine_build"))
        replace(trajectory.TrajectoryEngine, "run", _span(tracer, engine_layer, ran))
        replace(KernelSchedule, "execute_run",
                _span(tracer, "noise.kernel.execute_run", executed_run))
        replace(GeneratorLanes, "__init__", _span(tracer, "noise.rng.lanes_init"))
        for method in ("random_block", "random", "integers"):
            replace(GeneratorLanes, method, _span(tracer, "noise.rng.draw"))
        replace(trajectory, "uniform_streams", _span(tracer, "noise.rng.draw"))
        replace(EventKernel, "count_block", _span(tracer, "noise.event.count_block"))
        replace(ParallelExecutor, "run", _span(tracer, "runner.execute_plan", executed_plan))
        for module in (runner_cache, queue):
            replace(module, "point_key", _span(
                tracer, "runner.point_key",
                lambda args, kwargs, key: count("runner.point_key_calls"),
            ))
        replace(ArtifactStore, "get_object", _span(tracer, "store.get", got))
        replace(ArtifactStore, "put_object", _span(tracer, "store.put", put))
        replace(ArtifactStore, "get_ref", _counted(tracer, "store.ref_reads"))
        replace(ArtifactStore, "write_manifest", _span(tracer, "store.manifest_write"))
        replace(artifacts, "_atomic_write_bytes",
                _counted(tracer, "store.bytes_written", lambda args: len(args[1])))
        replace(queue.SweepService, "submit", _span(tracer, "service.submit"))
        # the job thread's own body: dedupe map, futures, status, manifest
        replace(queue.SweepService, "_run_job", _span(tracer, "service.job"))
        yield tracer
    finally:
        patches.restore()
