"""Serial and process-parallel execution of sweep plans.

Determinism contract: results always come back in plan order and are
**byte-identical** at every worker count and chunk size.  This holds
because each worker rebuilds its point from the pickled spec and executes
it with no shared mutable state — ``workers=1`` is the reference path and
``workers>1`` is purely a wall-clock optimisation, which
``tests/test_runner.py`` pins by comparing serial and parallel reports.
When an :class:`~repro.store.ArtifactStore` is attached, each point is
keyed once with :func:`~repro.runner.cache.point_key`, hits are redeemed
from the store and only the misses are dispatched and published; the
merged result list is indistinguishable from a store-less run.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

# keyed through the module so a patched ``point_key`` is honoured
import repro.runner.cache as keying
from repro.runner.plan import SweepPlan
from repro.runner.points import SweepPoint, execute_point, pin_store_root
from repro.store import ArtifactStore


@dataclass
class ExecutionStats:
    """What one :meth:`ParallelExecutor.run` call actually did."""

    total_points: int = 0
    cache_hits: int = 0
    executed: int = 0


@dataclass
class ParallelExecutor:
    """Run sweep plans across processes, optionally memoised in a store.

    ``workers=1`` executes points inline in plan order — the reproducibility
    reference path.  ``workers>1`` fans misses out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` in chunks; because every
    point is rebuilt deterministically from its spec, the parallel results are
    identical to the serial ones, and ``run`` always returns them in plan
    order regardless of completion order.
    """

    workers: int = 1
    store: ArtifactStore | None = None
    #: Points handed to each worker task; ``None`` picks a chunk size that
    #: gives every worker ~4 chunks for decent load balancing.
    chunksize: int | None = None
    last_stats: ExecutionStats = field(default_factory=ExecutionStats)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, plan: SweepPlan | Iterable[SweepPoint]) -> list:
        """Execute every point and return results in plan order.

        Points are any values with ``execute()``/``payload()`` — compiled
        sweep points yield :class:`StrategyResult`, noise shot batches yield
        :class:`~repro.noise.result.TrajectoryChunk`.
        """
        points = list(plan)
        store = self.store
        if store is None:
            keys, results = [], [None] * len(points)
        else:
            keys = [keying.point_key(point) for point in points]
            results = [store.get_object(key) for key in keys]
        pending = [index for index, result in enumerate(results) if result is None]
        if pending:
            # store-reading backends (replay) must resolve against *this*
            # run's store, not the process default — pin the root onto the
            # dispatched copies (content keys are unchanged, so the keys
            # computed above still name the original points).
            to_run = [points[index] for index in pending]
            if store is not None:
                to_run = [pin_store_root(point, store.root) for point in to_run]
            computed = self._execute(to_run)
            for index, result in zip(pending, computed):
                results[index] = result
                if store is not None:
                    store.put_object(keys[index], result,
                                     payload=points[index].payload())
        self.last_stats = ExecutionStats(
            total_points=len(points),
            cache_hits=len(points) - len(pending),
            executed=len(pending),
        )
        return results

    #: Cap on the auto-picked dispatch chunk: huge plans (tens of
    #: thousands of shot chunks) would otherwise serialise into a handful
    #: of giant worker tasks, losing load balancing and delaying store
    #: writes until the very end of the run.
    MAX_AUTO_CHUNKSIZE = 64

    def _execute(self, points: Sequence[SweepPoint]) -> list:
        workers = min(self.workers, len(points))
        if workers <= 1:
            return [execute_point(point) for point in points]
        chunksize = self.chunksize or min(
            self.MAX_AUTO_CHUNKSIZE, max(1, len(points) // (workers * 4))
        )
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map preserves input order, so plan order survives the fan-out.
            return list(pool.map(execute_point, points, chunksize=chunksize))


def execute_plan(
    plan: SweepPlan | Iterable[SweepPoint],
    workers: int = 1,
    store: ArtifactStore | None = None,
    chunksize: int | None = None,
) -> list:
    """One-shot convenience wrapper around :class:`ParallelExecutor`.

    ``chunksize`` overrides the executor's auto-picked points-per-worker-task
    dispatch granularity (it does not change results, only scheduling).
    """
    return ParallelExecutor(workers=workers, store=store, chunksize=chunksize).run(plan)
