"""The default backend: the in-process mixed-radix trajectory engine.

This is a straight port of the pre-registry execution path — the compile
pipeline (:class:`~repro.compiler.pipeline.QompressCompiler` + EPS report)
and the vectorised :class:`~repro.noise.trajectory.TrajectoryEngine` — so
the golden bit-equality guarantees (``run`` vs ``run_reference``, serial vs
parallel, cached vs fresh) are untouched.  Shot chunks reuse the noise
subsystem's per-process engine memo, which takes its artifacts from this
backend's compile memo.
"""

from __future__ import annotations

from repro.backends.contract import (
    CompiledHandle,
    ExecutionBackend,
    ensure_noisy_result,
)
from repro.backends.registry import register_backend
from repro.noise.result import NoisyResult
from repro.noise.trajectory import TrajectoryEngine


@register_backend("trajectory")
class TrajectoryBackend(ExecutionBackend):
    """Monte Carlo trajectory sampling on the mixed-radix statevector."""

    name = "trajectory"
    supports_track_state = True

    def compile(self, circuit, device, strategy, compiler_kwargs: dict | None = None,
                ) -> CompiledHandle:
        """Compile through the Qompress pipeline and evaluate analytic EPS."""
        from repro.compiler.pipeline import QompressCompiler
        from repro.metrics.eps import evaluate_eps

        compiled = QompressCompiler(device, strategy, **(compiler_kwargs or {})).compile(circuit)
        return CompiledHandle(
            backend=self.name, compiled=compiled, report=evaluate_eps(compiled)
        )

    def execute(self, handle: CompiledHandle, shots: int, seed: int, *,
                noise, base_shot: int = 0, track_state: bool = False) -> NoisyResult:
        """Sample seeded trajectories; bit-identical at any chunk split."""
        engine = TrajectoryEngine(handle.compiled, noise, track_state=track_state)
        chunk = engine.run(shots, seed, base_shot=base_shot)
        return NoisyResult.from_chunks([chunk], seed)

    def run_noise_point(self, point) -> NoisyResult:
        """Shot-chunk worker body, via the process-local engine memo.

        Overrides the base implementation to share
        :func:`repro.noise.points._engine_for` — a thousand chunks of one
        circuit build the engine (op probabilities, idle channels, kernel
        schedule) once per process.
        """
        from repro.noise.points import _engine_for

        engine = _engine_for(point.compile_point, point.noise, point.track_state)
        chunk = engine.run(point.shots, point.seed, base_shot=point.base_shot)
        return ensure_noisy_result(NoisyResult.from_chunks([chunk], point.seed), self.name)
