"""Noisy shot batches as sweep-plan points.

A :class:`NoisePoint` is one chunk of Monte Carlo shots for one compiled
circuit under one noise spec — frozen, picklable and content-keyed, so shot
batches fan out through the existing :class:`~repro.runner.ParallelExecutor`
and land in the same artifact store as compile results.  Because every shot's
RNG stream depends only on ``(seed, absolute shot index)``, the chunked
results merge into a :class:`~repro.noise.result.NoisyResult` that is
bit-identical whatever the worker count or chunk size.

The compile request itself is carried declaratively (a
:class:`~repro.runner.SweepPoint`); workers get the compiled circuit from
the backend's per-process compile memo
(:meth:`~repro.backends.ExecutionBackend.compile_point`) and build one
engine per ``(point, noise, track_state)`` (:func:`_engine_for`), so a
thousand chunks of the same circuit compile it once per worker.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from repro.noise.model import NoiseSpec
from repro.noise.result import NoisyResult
from repro.noise.trajectory import TrajectoryEngine
from repro.runner.plan import SweepPlan
from repro.runner.points import SweepPoint
from repro.store import ArtifactStore

#: Default shots per plan point.  Sized for the chunk-batched vectorised
#: engine: thousands of shots per chunk amortise the per-chunk overhead
#: (compile memo lookup, pickling) to nothing and keep each chunk inside
#: one vectorised block (:data:`repro.noise.trajectory.EVENT_BLOCK_SHOTS`),
#: while staying small enough that multi-cell plans load-balance a pool.
#: Raised from 500 when the event-only path was vectorised (PR 4).
DEFAULT_CHUNK_SIZE = 4096


@functools.lru_cache(maxsize=16)
def _engine_for(point: SweepPoint, noise: NoiseSpec, track_state: bool) -> TrajectoryEngine:
    """Process-local memo of trajectory engines, and of everything each
    one derives from its artifact (op unitaries, kernel schedule, error
    sites).  The artifact comes from the backend's compile memo."""
    from repro.backends import get_backend

    compiled = get_backend(point.backend).compile_point(point).compiled
    return TrajectoryEngine(compiled, noise, track_state=track_state)


@dataclass(frozen=True)
class NoisePoint:
    """One seeded batch of noisy trajectories for one compiled circuit."""

    compile_point: SweepPoint
    noise: NoiseSpec
    shots: int
    base_shot: int = 0
    seed: int = 0
    track_state: bool = False

    def payload(self) -> dict:
        """JSON-serialisable representation used for cache keying."""
        return {
            "kind": "noise_shots",
            "compile": self.compile_point.payload(),
            "noise": self.noise.payload(),
            "shots": self.shots,
            "base_shot": self.base_shot,
            "seed": self.seed,
            "track_state": self.track_state,
        }

    @property
    def backend(self) -> str:
        """The execution backend this chunk runs on (the compile point's)."""
        return self.compile_point.backend

    @property
    def cache_root(self) -> str | None:
        """Pinned store root (the compile point's; see ``pin_store_root``)."""
        return self.compile_point.cache_root

    def key(self) -> str:
        """Stable content digest (see :func:`~repro.runner.cache.point_key`)."""
        from repro.runner.cache import point_key

        return point_key(self)

    def execute(self) -> NoisyResult:
        """Run this batch of trajectories (the process-pool worker body).

        Dispatches to the compile point's backend; each chunk comes back as
        a contract-validated :class:`NoisyResult` whose counters
        :meth:`NoisyResult.from_chunks` merges bit-identically at any chunk
        split.
        """
        from repro.backends import get_backend

        return get_backend(self.backend).run_noise_point(self)


def shot_plan(
    compile_point: SweepPoint,
    noise: NoiseSpec,
    shots: int,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    track_state: bool = False,
) -> SweepPlan:
    """Split ``shots`` into chunked :class:`NoisePoint` plan entries.

    ``shots=0`` is a valid degenerate request and yields an empty plan
    (which merges into the zero-shot :class:`NoisyResult`).
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    points = []
    base = 0
    while base < shots:
        count = min(chunk_size, shots - base)
        points.append(
            NoisePoint(
                compile_point=compile_point,
                noise=noise,
                shots=count,
                base_shot=base,
                seed=seed,
                track_state=track_state,
            )
        )
        base += count
    return SweepPlan(tuple(points))


def simulate_point(
    compile_point: SweepPoint,
    noise: NoiseSpec,
    shots: int,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    track_state: bool = False,
    workers: int = 1,
    store: ArtifactStore | None = None,
) -> NoisyResult:
    """Simulate one declarative compile point under noise, with fan-out.

    Chunks ride the :class:`~repro.runner.ParallelExecutor`; results merge
    in plan order, so ``workers=1`` and ``workers=N`` (and store-served
    re-runs) return bit-identical :class:`NoisyResult` values.
    """
    from repro.runner.executor import execute_plan

    plan = shot_plan(
        compile_point, noise, shots,
        seed=seed, chunk_size=chunk_size, track_state=track_state,
    )
    chunks = execute_plan(plan, workers=workers, store=store)
    result = NoisyResult.from_chunks(chunks, seed)
    if not chunks and track_state:
        # a zero-shot plan has no chunks to vote on trackedness; preserve
        # the request so the zero-shot outcome estimators raise instead of
        # answering None ("not a tracked run")
        result = replace(result, tracked=True)
    return result
