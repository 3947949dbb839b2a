"""Ablation studies for the design choices called out in DESIGN.md.

Three ablations are provided:

* **Single-qubit merging** — Section 4.2 argues that two simultaneous
  single-qubit gates on one ququart should be merged into a single combined
  gate.  :func:`merging_ablation` compiles with and without the merging pass
  and reports the op-count and duration difference.
* **Internal-gate advantage** — the compression strategies are designed to
  exploit the fast, high-fidelity internal CX.  :func:`internal_gate_ablation`
  removes that advantage (internal gates get two-qudit fidelity and
  qubit-qubit CX duration) and measures how much of the compression win
  survives.
* **Fidelity-aware routing** — the router chooses paths by the Eq. 4
  success-probability cost.  :func:`uniform_routing_ablation` compares
  against a device whose gates all share one fidelity, which collapses the
  cost model to (duration-weighted) hop counting.

Each ablation expresses its baseline/ablated pair as two declarative
:class:`~repro.runner.SweepPoint` values (device tweaks become
duration/fidelity overrides on the :class:`~repro.runner.DeviceSpec`), so the
pair executes through the runner engine and can share its artifact store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.eps import EPSReport
from repro.pulses.durations import GateDurationTable
from repro.runner import SweepPlan, DeviceSpec, execute_plan
from repro.store import ArtifactStore


@dataclass(frozen=True)
class AblationResult:
    """Before/after reports for one ablation on one benchmark."""

    benchmark: str
    num_qubits: int
    strategy: str
    baseline: EPSReport
    ablated: EPSReport

    @property
    def gate_eps_ratio(self) -> float:
        """Ablated gate EPS relative to the baseline (1.0 = no effect)."""
        if self.baseline.gate_eps == 0:
            return float("inf")
        return self.ablated.gate_eps / self.baseline.gate_eps

    @property
    def makespan_ratio(self) -> float:
        """Ablated duration relative to the baseline (>1 = ablation is slower)."""
        if self.baseline.makespan_ns == 0:
            return float("inf")
        return self.ablated.makespan_ns / self.baseline.makespan_ns


def _run_pair(
    baseline_plan: SweepPlan,
    ablated_plan: SweepPlan,
    store: ArtifactStore | None,
) -> tuple[EPSReport, EPSReport]:
    baseline, ablated = execute_plan(baseline_plan + ablated_plan, store=store)
    return baseline.report, ablated.report


def merging_ablation(
    benchmark: str = "qaoa_torus",
    num_qubits: int = 16,
    strategy: str = "eqm",
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """Compile with and without the combined single-ququart gate merge."""
    merged = SweepPlan.single(
        benchmark, num_qubits, strategy, seed=seed,
        compiler_kwargs={"merge_single_qubit_gates": True},
    )
    unmerged = SweepPlan.single(
        benchmark, num_qubits, strategy, seed=seed,
        compiler_kwargs={"merge_single_qubit_gates": False},
    )
    baseline, ablated = _run_pair(merged, unmerged, store)
    return AblationResult(
        benchmark=benchmark,
        num_qubits=num_qubits,
        strategy=strategy,
        baseline=baseline,
        ablated=ablated,
    )


def _overrides_without_internal_advantage() -> tuple[dict[str, float], dict[str, float]]:
    """Duration/fidelity overrides making internal gates no better than CX2."""
    table = GateDurationTable()
    cx2_duration = table.duration("cx2")
    swap2_duration = table.duration("swap2")
    two_qudit_fidelity = table.fidelity("cx2")
    durations = {
        "cx0_in": cx2_duration,
        "cx1_in": cx2_duration,
        "swap_in": swap2_duration,
    }
    fidelities = {
        "cx0_in": two_qudit_fidelity,
        "cx1_in": two_qudit_fidelity,
        "swap_in": two_qudit_fidelity,
    }
    return durations, fidelities


def internal_gate_ablation(
    benchmark: str = "cuccaro",
    num_qubits: int = 16,
    strategy: str = "rb",
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """Remove the internal-gate advantage and recompile."""
    durations, fidelities = _overrides_without_internal_advantage()
    ablated_spec = DeviceSpec(
        kind="grid",
        duration_overrides=tuple(sorted(durations.items())),
        fidelity_overrides=tuple(sorted(fidelities.items())),
    )
    baseline_plan = SweepPlan.single(benchmark, num_qubits, strategy, seed=seed)
    ablated_plan = SweepPlan.single(
        benchmark, num_qubits, strategy, device=ablated_spec, seed=seed
    )
    baseline, ablated = _run_pair(baseline_plan, ablated_plan, store)
    return AblationResult(
        benchmark=benchmark,
        num_qubits=num_qubits,
        strategy=strategy,
        baseline=baseline,
        ablated=ablated,
    )


def uniform_routing_ablation(
    benchmark: str = "qaoa_random",
    num_qubits: int = 16,
    strategy: str = "eqm",
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """Collapse the Eq. 4 cost model by giving every gate the same fidelity.

    Durations (and therefore the T1 terms) still differ, so this isolates the
    contribution of fidelity-aware path selection.
    """
    table = GateDurationTable()
    uniform = {name: 0.99 for name in table.known_gates() if name != "measure"}
    ablated_spec = DeviceSpec(
        kind="grid", fidelity_overrides=tuple(sorted(uniform.items()))
    )
    baseline_plan = SweepPlan.single(benchmark, num_qubits, strategy, seed=seed)
    ablated_plan = SweepPlan.single(
        benchmark, num_qubits, strategy, device=ablated_spec, seed=seed
    )
    baseline, ablated = _run_pair(baseline_plan, ablated_plan, store)
    return AblationResult(
        benchmark=benchmark,
        num_qubits=num_qubits,
        strategy=strategy,
        baseline=baseline,
        ablated=ablated,
    )
