"""The execution-backend contract: what every result source must provide.

A *backend* is one way of turning declarative plan points into results.
The contract is deliberately small — two methods::

    compile(circuit, device, strategy) -> CompiledHandle
    execute(handle, shots, seed)       -> NoisyResult

plus two point-level entry points (``run_compile_point`` /
``run_noise_point``) with default implementations in terms of the two
methods above, which is what the runner actually calls.  Ported executors
(the trajectory engine), stored artifacts (the replay backend) and
independent simulators (the external-sim backend) all fit behind it; see
:mod:`repro.backends.registry` for how names map to instances.

Content-key rules live here too: :attr:`ExecutionBackend.content_name` is
the string folded into every point's cache key.  It defaults to the
registry name, so two different executors never share store entries — the
replay backend is the deliberate exception (it *serves* another backend's
entries, so it advertises that backend's content name).  For the keys to
stay unambiguous, any :attr:`ExecutionBackend.compiler_overrides` must be a
pure function of the backend class, never per-call state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Mapping

from repro.noise.result import NoisyResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.compiler.result import CompiledCircuit
    from repro.metrics.eps import EPSReport
    from repro.noise.points import NoisePoint
    from repro.runner.points import StrategyResult, SweepPoint


class BackendError(RuntimeError):
    """Base class for execution-backend failures."""


class UnknownBackendError(BackendError, KeyError):
    """A backend name that no registered backend answers to."""


class DuplicateBackendError(BackendError, ValueError):
    """A second registration under an already-taken backend name."""


class BackendContractError(BackendError, TypeError):
    """A backend returned a value that violates the execution contract."""


class ReplayMissError(BackendError, LookupError):
    """The replay backend was asked for a point the store has no result for."""


@dataclass(frozen=True)
class CompiledHandle:
    """What a backend's ``compile`` hands back for later ``execute`` calls.

    ``compiled`` and ``report`` are the shared currency every backend can
    produce; ``qasm`` carries the round-tripped physical program for
    backends (external-sim) that re-import rather than share the in-memory
    circuit.
    """

    backend: str
    compiled: "CompiledCircuit"
    report: "EPSReport"
    qasm: str | None = None


#: Integer counter fields every :class:`NoisyResult` must carry with sane
#: values; checked by :func:`ensure_noisy_result` before results merge.
_RESULT_COUNTERS = ("shots", "no_error_shots", "gate_events", "idle_events")


def ensure_noisy_result(result: object, backend: str) -> NoisyResult:
    """Validate a backend's execute() return value against the contract.

    Malformed results surface here as a typed :class:`BackendContractError`
    naming the offending backend, instead of as an ``AttributeError`` deep
    inside :meth:`NoisyResult.from_chunks` or a silently wrong merge.
    """
    if not isinstance(result, NoisyResult):
        raise BackendContractError(
            f"backend {backend!r} returned {type(result).__name__!r} from "
            "execute(); the contract requires a repro.noise.result.NoisyResult"
        )
    for name in _RESULT_COUNTERS:
        value = getattr(result, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise BackendContractError(
                f"backend {backend!r} returned a NoisyResult with "
                f"{name}={value!r}; the contract requires a non-negative int"
            )
    if result.no_error_shots > result.shots:
        raise BackendContractError(
            f"backend {backend!r} returned a NoisyResult with "
            f"no_error_shots={result.no_error_shots} > shots={result.shots}"
        )
    return result


class ExecutionBackend:
    """Base class every execution backend extends.

    Subclasses set :attr:`name`, implement :meth:`compile` and
    :meth:`execute`, and inherit point-level plumbing: a bounded
    per-process handle memo so a thousand shot chunks of one circuit
    compile it once, and contract validation of every execute() result.
    """

    #: Registry name (``--backend`` value).
    name: ClassVar[str] = ""
    #: Name folded into point content keys.  Defaults to :attr:`name`; the
    #: replay backend overrides it to the backend whose artifacts it serves.
    content_name: ClassVar[str] = ""
    #: Compiler kwargs this backend forces (merged over the point's own).
    #: Must be a constant of the class — content keys depend on it only
    #: through :attr:`content_name`.
    compiler_overrides: ClassVar[Mapping[str, object]] = {}
    #: Whether ``execute(track_state=True)`` is supported.
    supports_track_state: ClassVar[bool] = False
    #: Whether this backend *reads* stored artifacts to answer points
    #: (replay).  The executor and the sweep service pin such points to
    #: the caller's store root (:func:`repro.runner.points.pin_store_root`)
    #: so lookups resolve against the configured store, not the process
    #: default.  Pinning never changes content keys.
    reads_store: ClassVar[bool] = False

    #: Bound on the per-process compiled-handle memo, the process's only
    #: compile memo (shot chunks reach their artifact through it).  Kept
    #: at 16: at 64 the Figure 7 sweep's peak RSS grew from 99 to 107 MB,
    #: and a plan that runs each cell's shot chunks right after its
    #: compile (as ``validate_eps`` does) needs one entry per cell in
    #: flight.
    _MEMO_LIMIT = 16

    def __init__(self) -> None:
        self._handles: dict[object, CompiledHandle] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.content_name:
            cls.content_name = cls.name

    # ------------------------------------------------------------------
    # the contract
    # ------------------------------------------------------------------
    def compile(self, circuit, device, strategy, compiler_kwargs: dict | None = None,
                ) -> CompiledHandle:
        """Compile ``circuit`` for ``device`` under a strategy object."""
        raise NotImplementedError

    def execute(self, handle: CompiledHandle, shots: int, seed: int, *,
                noise, base_shot: int = 0, track_state: bool = False) -> NoisyResult:
        """Run ``shots`` noisy trajectories of a compiled handle."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # point-level entry points (what the runner dispatches to)
    # ------------------------------------------------------------------
    def compile_point(self, point: "SweepPoint") -> CompiledHandle:
        """Compile one declarative point through :meth:`compile` (memoised)."""
        handle = self._handles.get(point)
        if handle is None:
            from repro.compression import get_strategy

            circuit = point.build_circuit()
            device = point.device.build(point.num_qubits)
            strategy = get_strategy(point.strategy, **dict(point.strategy_kwargs))
            kwargs = dict(point.compiler_kwargs)
            kwargs.update(self.compiler_overrides)
            handle = self.compile(circuit, device, strategy, compiler_kwargs=kwargs)
            if len(self._handles) >= self._MEMO_LIMIT:
                self._handles.clear()
            self._handles[point] = handle
        return handle

    def run_compile_point(self, point: "SweepPoint") -> "StrategyResult":
        """Execute one compile point; the :class:`SweepPoint` worker body."""
        from repro.runner.points import StrategyResult

        handle = self.compile_point(point)
        return StrategyResult(
            benchmark=point.benchmark,
            num_qubits=point.num_qubits,
            strategy=point.strategy,
            report=handle.report,
            compiled=handle.compiled,
        )

    def run_noise_point(self, point: "NoisePoint") -> NoisyResult:
        """Execute one chunk of noisy shots; the :class:`NoisePoint` worker body."""
        if point.track_state and not self.supports_track_state:
            raise BackendError(
                f"backend {self.name!r} cannot track the state vector; "
                "use the 'trajectory' backend for outcome-level metrics"
            )
        handle = self.compile_point(point.compile_point)
        result = self.execute(
            handle, point.shots, point.seed,
            noise=point.noise, base_shot=point.base_shot,
            track_state=point.track_state,
        )
        return ensure_noisy_result(result, self.name)
