"""Structured findings and reports for the static-analysis subsystem.

Every verifier pass and source-lint rule emits :class:`Finding` records —
a severity, the pass (or rule) that produced it, an anchor (op index and
qubit/clbit for program findings, file and line for source findings) and a
human-readable message.  :class:`AnalysisReport` aggregates the findings
of one analysis run, knows whether the subject is clean (no
error-severity findings) and round-trips losslessly through JSON, which
is what ``repro lint --json`` and the CI ``static-verify`` job consume.

The analysis layer deliberately reuses
:class:`~repro.simulation.verify.VerificationError` for its raising entry
point (:meth:`AnalysisReport.raise_if_errors`): a statically-detected
illegal program and a replay-detected inequivalent program are the same
class of failure to callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.verify import VerificationError

#: Recognised severities, most severe first.  ``error`` findings fail
#: ``repro lint`` (exit code 1) and trip ``QompressCompiler(verify=True)``;
#: ``warning`` findings are reported but never fail a run.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One defect (or observation) emitted by a pass or lint rule.

    Program findings anchor on ``op_index`` (position in the compiled op
    stream) plus optionally the logical ``qubit`` or classical ``clbit``
    involved; source findings anchor on ``file`` and ``line``.  Unused
    anchors stay ``None``.
    """

    severity: str
    pass_name: str
    message: str
    op_index: int | None = None
    qubit: int | None = None
    clbit: int | None = None
    file: str | None = None
    line: int | None = None

    def __post_init__(self) -> None:
        """Reject severities outside :data:`SEVERITIES` at construction."""
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    def as_dict(self) -> dict:
        """JSON-serialisable representation (``None`` anchors omitted)."""
        document = {
            "severity": self.severity,
            "pass": self.pass_name,
            "message": self.message,
        }
        for key, value in (
            ("op_index", self.op_index),
            ("qubit", self.qubit),
            ("clbit", self.clbit),
            ("file", self.file),
            ("line", self.line),
        ):
            if value is not None:
                document[key] = value
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "Finding":
        """Inverse of :meth:`as_dict`."""
        return cls(
            severity=document["severity"],
            pass_name=document["pass"],
            message=document["message"],
            op_index=document.get("op_index"),
            qubit=document.get("qubit"),
            clbit=document.get("clbit"),
            file=document.get("file"),
            line=document.get("line"),
        )

    def describe(self) -> str:
        """One-line human-readable rendering (the text-table cell)."""
        anchors = []
        if self.file is not None:
            anchors.append(f"{self.file}:{self.line}" if self.line is not None else self.file)
        if self.op_index is not None:
            anchors.append(f"op {self.op_index}")
        if self.qubit is not None:
            anchors.append(f"qubit {self.qubit}")
        if self.clbit is not None:
            anchors.append(f"clbit {self.clbit}")
        where = f" [{', '.join(anchors)}]" if anchors else ""
        return f"{self.severity} {self.pass_name}{where}: {self.message}"


@dataclass(frozen=True)
class AnalysisReport:
    """The aggregated outcome of one static-analysis run.

    ``subject`` names what was analysed (a compiled circuit, a source
    tree, a store); ``passes_run`` records which passes executed so a
    clean report still documents its coverage.
    """

    subject: str
    passes_run: tuple[str, ...]
    findings: tuple[Finding, ...] = ()
    #: Free-form labels (strategy name, benchmark, device) carried along
    #: for report tables; values must be JSON-serialisable scalars.
    context: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was emitted."""
        return not self.errors

    @property
    def errors(self) -> tuple[Finding, ...]:
        """The error-severity findings alone."""
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        """The warning-severity findings alone."""
        return tuple(f for f in self.findings if f.severity == "warning")

    def raise_if_errors(self) -> None:
        """Raise :class:`VerificationError` when any error finding exists."""
        if self.errors:
            lines = [f.describe() for f in self.errors]
            raise VerificationError(
                f"static verification of {self.subject} found "
                f"{len(lines)} error(s):\n  " + "\n  ".join(lines)
            )

    def as_dict(self) -> dict:
        """JSON-serialisable representation, inverse of :meth:`from_dict`."""
        return {
            "subject": self.subject,
            "ok": self.ok,
            "passes": list(self.passes_run),
            "context": {key: value for key, value in self.context},
            "findings": [finding.as_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "AnalysisReport":
        """Inverse of :meth:`as_dict` (the redundant ``ok`` key is ignored)."""
        return cls(
            subject=document["subject"],
            passes_run=tuple(document["passes"]),
            findings=tuple(
                Finding.from_dict(entry) for entry in document["findings"]
            ),
            context=tuple(sorted(document.get("context", {}).items())),
        )


@dataclass
class FindingCollector:
    """Mutable accumulator the passes append to while walking a program."""

    pass_name: str
    findings: list[Finding] = field(default_factory=list)

    def error(self, message: str, **anchors) -> None:
        """Record an error-severity finding."""
        self.findings.append(
            Finding(severity="error", pass_name=self.pass_name, message=message, **anchors)
        )

    def warning(self, message: str, **anchors) -> None:
        """Record a warning-severity finding."""
        self.findings.append(
            Finding(severity="warning", pass_name=self.pass_name, message=message, **anchors)
        )

    def info(self, message: str, **anchors) -> None:
        """Record an info-severity finding."""
        self.findings.append(
            Finding(severity="info", pass_name=self.pass_name, message=message, **anchors)
        )
