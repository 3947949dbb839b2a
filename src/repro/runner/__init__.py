"""Parallel sweep execution engine over the content-addressed artifact store.

The runner turns the evaluation layer's nested for-loops into three explicit
pieces:

* :class:`SweepPlan` — declarative enumeration of
  ``(benchmark, num_qubits, strategy, device, seed)`` points,
* :class:`ParallelExecutor` — serial (``workers=1``) or process-parallel
  execution with deterministic, plan-ordered results,
* :func:`point_key` — content keying, so an executor given a
  :class:`~repro.store.ArtifactStore` serves repeated sweeps (and
  experiments sharing points) without recompiling the same circuit twice.

A plan point is any picklable value satisfying the :class:`ExecutionPoint`
protocol (``key()``, ``payload()``, ``execute()``): compile requests
(:class:`SweepPoint`, including content-keyed external QASM programs via
:meth:`SweepPoint.from_qasm`) and the noise subsystem's shot batches
(:class:`repro.noise.points.NoisePoint`) share the same executor and
store.  Points carry a ``backend`` name resolved through
:mod:`repro.backends`, so the same plan can run on the trajectory engine,
be served purely from the store (``replay``) or cross-checked on an
independent simulator (``external-sim``).

Typical use::

    from repro.runner import ParallelExecutor, SweepPlan
    from repro.store import ArtifactStore

    plan = SweepPlan.cartesian(("cuccaro", "cnu"), (8, 12), ("qubit_only", "eqm"))
    store = ArtifactStore(".repro_cache")
    executor = ParallelExecutor(workers=4, store=store)
    results = executor.run(plan)          # list[StrategyResult], plan order
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    code_fingerprint,
    default_cache_dir,
    point_key,
)
from repro.runner.executor import (
    ExecutionStats,
    ParallelExecutor,
    execute_plan,
)
from repro.runner.plan import SweepPlan
from repro.runner.points import (
    DEFAULT_BACKEND,
    DeviceSpec,
    ExecutionPoint,
    StrategyResult,
    SweepPoint,
    ensure_execution_point,
    execute_point,
    freeze_kwargs,
    make_device,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "code_fingerprint",
    "default_cache_dir",
    "ExecutionStats",
    "ParallelExecutor",
    "execute_plan",
    "SweepPlan",
    "DEFAULT_BACKEND",
    "DeviceSpec",
    "ExecutionPoint",
    "ensure_execution_point",
    "StrategyResult",
    "SweepPoint",
    "execute_point",
    "freeze_kwargs",
    "make_device",
    "point_key",
]
