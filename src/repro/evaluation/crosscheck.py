"""Cross-backend verification of the paper's EPS numbers.

Runs the same validation cells (:func:`~repro.evaluation.validate.validate_eps`)
on two or more execution backends and compares their Monte Carlo EPS
estimates pairwise.  Every backend compiles with single-qubit merging
disabled so each one simulates the *same physical program* — the analytic
EPS is then bitwise identical across backends (asserted), and the
simulated estimates must agree statistically: two backends *agree* on a
cell when their Wilson confidence intervals overlap or the estimates sit
within a relative tolerance of each other.

The estimates are genuinely independent: the trajectory backend samples
``default_rng((seed, shot))`` streams against vectorised thresholds, the
external-sim backend samples salted ``(seed, shot, salt)`` streams against
scalar-computed thresholds on a QASM-round-tripped program.  Agreement is
therefore evidence about the *model*, not about shared code paths.  The CI
``cross-backend-verify`` job gates on this via ``repro crosscheck``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.evaluation.validate import ValidationRow, validate_eps
from repro.noise.result import NoisyResult
from repro.store import ArtifactStore

#: Backends compared when the caller does not choose.
DEFAULT_CROSSCHECK_BACKENDS: tuple[str, ...] = ("trajectory", "external-sim")

CROSSCHECK_HEADERS = [
    "benchmark",
    "qubits",
    "strategy",
    "analytic_eps",
    "eps_by_backend",
    "max_rel_diff",
    "agree",
]


@dataclass(frozen=True)
class CrossCheckRow:
    """One validation cell's EPS estimates across backends."""

    benchmark: str
    num_qubits: int
    strategy: str
    analytic_eps: float
    results: tuple[tuple[str, NoisyResult], ...]
    rel_tolerance: float = 0.10

    def eps(self, backend: str) -> float:
        """Simulated EPS estimate from one backend."""
        return dict(self.results)[backend].success_probability

    @property
    def max_rel_diff(self) -> float:
        """Largest pairwise relative difference between backend estimates."""
        worst = 0.0
        for (_a, first), (_b, second) in combinations(self.results, 2):
            mean = (first.success_probability + second.success_probability) / 2.0
            if mean == 0.0:
                continue
            diff = abs(first.success_probability - second.success_probability) / mean
            worst = max(worst, diff)
        return worst

    @property
    def agree(self) -> bool:
        """Every backend pair's CIs overlap or estimates sit within tolerance."""
        for (_a, first), (_b, second) in combinations(self.results, 2):
            low_a, high_a = first.confidence_interval()
            low_b, high_b = second.confidence_interval()
            overlap = low_a <= high_b and low_b <= high_a
            mean = (first.success_probability + second.success_probability) / 2.0
            within = mean > 0.0 and (
                abs(first.success_probability - second.success_probability) / mean
                <= self.rel_tolerance
            )
            if not (overlap or within):
                return False
        return True

    def as_row(self) -> list:
        """Display row for the text table (see :data:`CROSSCHECK_HEADERS`)."""
        return [
            self.benchmark,
            self.num_qubits,
            self.strategy,
            self.analytic_eps,
            " ".join(f"{name}={result.success_probability:.4f}"
                     for name, result in self.results),
            self.max_rel_diff,
            "yes" if self.agree else "NO",
        ]

    def as_dict(self) -> dict:
        """Typed, machine-readable representation (JSON artifact rows)."""
        return {
            "benchmark": self.benchmark,
            "qubits": self.num_qubits,
            "strategy": self.strategy,
            "analytic_eps": self.analytic_eps,
            "eps": {name: result.success_probability for name, result in self.results},
            "shots": {name: result.shots for name, result in self.results},
            "max_rel_diff": self.max_rel_diff,
            "agree": bool(self.agree),
        }


def cross_backend_check(
    benchmarks: tuple[str, ...] = ("bv", "ghz"),
    sizes: tuple[int, ...] = (4,),
    strategies: tuple[str, ...] = ("qubit_only", "eqm"),
    backends: tuple[str, ...] = DEFAULT_CROSSCHECK_BACKENDS,
    noise: str = "table1",
    shots: int = 2000,
    seed: int = 0,
    device_kind: str = "grid",
    rel_tolerance: float = 0.10,
    workers: int = 1,
    store: ArtifactStore | None = None,
) -> list[CrossCheckRow]:
    """Run the validation cells on every backend and zip the estimates.

    Each backend gets the same cells, seed and shot budget, compiled with
    single-qubit merging disabled so the physical program (and hence the
    analytic EPS) is identical across backends; a mismatch in the analytic
    values means the backends compiled different programs and is raised as
    an ``AssertionError`` rather than laundered into a statistical verdict.
    """
    if len(backends) < 2:
        raise ValueError("cross-checking needs at least two backends")
    per_backend: dict[str, list[ValidationRow]] = {}
    for backend in backends:
        per_backend[backend] = validate_eps(
            benchmarks=benchmarks, sizes=sizes, strategies=strategies,
            noise=noise, shots=shots, seed=seed, device_kind=device_kind,
            rel_tolerance=rel_tolerance, workers=workers, store=store,
            backend=backend,
            compiler_kwargs={"merge_single_qubit_gates": False},
        )
    rows: list[CrossCheckRow] = []
    cells = zip(*(per_backend[backend] for backend in backends))
    for cell in cells:
        reference = cell[0]
        for other in cell[1:]:
            assert other.analytic_eps == reference.analytic_eps, (
                f"backends compiled different programs for "
                f"{reference.benchmark}-{reference.num_qubits} "
                f"{reference.strategy}: analytic EPS "
                f"{reference.analytic_eps} vs {other.analytic_eps}"
            )
        rows.append(
            CrossCheckRow(
                benchmark=reference.benchmark,
                num_qubits=reference.num_qubits,
                strategy=reference.strategy,
                analytic_eps=reference.analytic_eps,
                results=tuple(
                    (backend, row.result) for backend, row in zip(backends, cell)
                ),
                rel_tolerance=rel_tolerance,
            )
        )
    return rows


def crosscheck_rows(rows: list[CrossCheckRow]) -> list[list]:
    """Flatten rows for :func:`~repro.evaluation.format_table`."""
    return [row.as_row() for row in rows]
