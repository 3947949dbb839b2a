"""Noise models built from device calibration.

A :class:`NoiseModel` turns the device's calibration data into channel
strengths for the Monte Carlo trajectory engine:

* every physical gate's Table 1 infidelity (via
  :meth:`~repro.pulses.durations.GateDurationTable.error_rate`) becomes the
  probability of a stochastic Pauli/depolarizing error after that op, and
* the device's ``qubit_t1_ns`` / ``ququart_t1_ns`` become amplitude-damping
  decay rates charged over each logical qubit's residency, in qubit or
  ququart mode, for the whole scheduled circuit (the paper's worst-case
  liveness assumption).

The declarative counterpart :class:`NoiseSpec` freezes every knob into a
hashable, JSON-serialisable recipe so noisy shot batches can ride the sweep
engine and the on-disk cache exactly like compile points do.  Named presets
cover the common scenarios::

    NoiseSpec.from_preset("table1")         # calibration as published
    NoiseSpec.from_preset("ideal")          # no noise at all
    NoiseSpec.from_preset("pessimistic")    # 3x gate error, T1 / 3
    NoiseSpec.from_preset("heterogeneous")  # per-unit / per-edge variation
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.arch.device import Device
from repro.compiler.result import CompiledCircuit, PhysicalOp

#: Idle-noise accounting policies understood by the trajectory engine.
#:
#: ``"worst_case"`` samples a decay event for every logical qubit with the
#: state-independent hazard ``1 - exp(-t / T1)`` accumulated over its
#: residency — exactly the assumption behind the analytic coherence EPS, so
#: the no-error probability converges to ``total_eps``.  ``"kraus"`` is the
#: physically exact amplitude-damping unraveling (jump probability scales
#: with the excited-state population); it is what the density-matrix
#: reference path compares against.
IDLE_POLICIES = ("worst_case", "kraus")

#: Named noise scenarios; values are :class:`NoiseSpec` keyword overrides.
NOISE_PRESETS: dict[str, dict] = {
    "ideal": {"gate_error_scale": 0.0, "t1_scale": math.inf},
    "table1": {},
    "pessimistic": {"gate_error_scale": 3.0, "t1_scale": 1.0 / 3.0},
    "heterogeneous": {"heterogeneity": 0.5, "hetero_seed": 2023},
}


@dataclass(frozen=True)
class NoiseSpec:
    """A reproducible recipe for building a :class:`NoiseModel`.

    Parameters
    ----------
    gate_error_scale:
        Multiplier on every gate's calibrated error rate (0 disables gate
        noise entirely).
    t1_scale:
        Multiplier on both T1 times (``inf`` disables decay).
    idle_policy:
        One of :data:`IDLE_POLICIES`.
    heterogeneity:
        Relative half-width of the per-unit T1 and per-edge gate-error
        multipliers.  0 keeps the device uniform; 0.5 draws multipliers
        uniformly from [0.5, 1.5].
    hetero_seed:
        Seed for the deterministic heterogeneity draw.
    """

    gate_error_scale: float = 1.0
    t1_scale: float = 1.0
    idle_policy: str = "worst_case"
    heterogeneity: float = 0.0
    hetero_seed: int = 0

    def __post_init__(self) -> None:
        if self.gate_error_scale < 0:
            raise ValueError("gate_error_scale must be non-negative")
        if self.t1_scale <= 0:
            raise ValueError("t1_scale must be positive (use inf to disable decay)")
        if self.idle_policy not in IDLE_POLICIES:
            raise ValueError(f"idle_policy must be one of {IDLE_POLICIES}")
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ValueError("heterogeneity must be in [0, 1)")

    @classmethod
    def from_preset(cls, name: str, **overrides) -> "NoiseSpec":
        """Build the named preset, optionally overriding individual knobs."""
        key = name.strip().lower()
        if key not in NOISE_PRESETS:
            raise KeyError(
                f"unknown noise preset {name!r}; choose one of {sorted(NOISE_PRESETS)}"
            )
        return cls(**{**NOISE_PRESETS[key], **overrides})

    def with_idle_policy(self, policy: str) -> "NoiseSpec":
        """Copy of the spec using a different idle-noise policy."""
        return replace(self, idle_policy=policy)

    def payload(self) -> dict:
        """JSON-serialisable representation used for cache keying."""
        return {
            "gate_error_scale": self.gate_error_scale,
            "t1_scale": repr(self.t1_scale) if math.isinf(self.t1_scale) else self.t1_scale,
            "idle_policy": self.idle_policy,
            "heterogeneity": self.heterogeneity,
            "hetero_seed": self.hetero_seed,
        }

    def build(self, device: Device) -> "NoiseModel":
        """Materialise the noise model this spec describes for ``device``."""
        return NoiseModel.from_device(
            device,
            gate_error_scale=self.gate_error_scale,
            t1_scale=self.t1_scale,
            idle_policy=self.idle_policy,
            heterogeneity=self.heterogeneity,
            hetero_seed=self.hetero_seed,
        )


def resolve_model(model: "NoiseModel | NoiseSpec", device: Device) -> "NoiseModel":
    """Accept either a live model or a declarative spec and return a model."""
    if isinstance(model, NoiseSpec):
        return model.build(device)
    return model


@dataclass(frozen=True)
class NoiseModel:
    """Channel strengths for one device, ready for the trajectory engine.

    Built by :meth:`from_device` (usually through :meth:`NoiseSpec.build`);
    the per-gate error table comes straight from the device's calibration
    table, so duration/fidelity overrides and recalibrated pulse tables flow
    into the simulation with no extra plumbing.
    """

    #: Error probability per physical gate name, already scaled.
    gate_error: dict[str, float]
    #: Decay rate (1/ns) of a unit operated as a qubit; 0 disables decay.
    qubit_decay_rate: float
    #: Decay rate (1/ns) of a unit operated as a ququart.
    ququart_decay_rate: float
    idle_policy: str = "worst_case"
    #: Per-unit T1 multiplier (heterogeneous preset); missing units use 1.
    unit_t1_factor: dict[int, float] = field(default_factory=dict)
    #: Per-edge gate-error multiplier keyed by sorted unit pair.
    edge_error_factor: dict[tuple[int, int], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_device(
        cls,
        device: Device,
        gate_error_scale: float = 1.0,
        t1_scale: float = 1.0,
        idle_policy: str = "worst_case",
        heterogeneity: float = 0.0,
        hetero_seed: int = 0,
    ) -> "NoiseModel":
        """Derive channel strengths from the device's calibration data."""
        gate_error = {
            name: min(1.0, device.durations.error_rate(name) * gate_error_scale)
            for name in device.durations.known_gates()
        }
        if math.isinf(t1_scale):
            qubit_rate = ququart_rate = 0.0
        else:
            qubit_rate = 1.0 / (device.qubit_t1_ns * t1_scale)
            ququart_rate = 1.0 / (device.ququart_t1_ns * t1_scale)
        unit_t1_factor: dict[int, float] = {}
        edge_error_factor: dict[tuple[int, int], float] = {}
        if heterogeneity > 0.0:
            rng = np.random.default_rng(hetero_seed)
            low, high = 1.0 - heterogeneity, 1.0 + heterogeneity
            for unit in range(device.num_units):
                unit_t1_factor[unit] = float(rng.uniform(low, high))
            for edge in device.topology.edges():
                edge_error_factor[tuple(sorted(edge))] = float(rng.uniform(low, high))
        return cls(
            gate_error=gate_error,
            qubit_decay_rate=qubit_rate,
            ququart_decay_rate=ququart_rate,
            idle_policy=idle_policy,
            unit_t1_factor=unit_t1_factor,
            edge_error_factor=edge_error_factor,
        )

    # ------------------------------------------------------------------
    # channel strengths
    # ------------------------------------------------------------------
    @property
    def is_ideal(self) -> bool:
        """True when neither gate noise nor decay can ever fire."""
        return (
            self.qubit_decay_rate == 0.0
            and self.ququart_decay_rate == 0.0
            and all(p == 0.0 for p in self.gate_error.values())
        )

    def op_error_probability(self, op: PhysicalOp) -> float:
        """Depolarizing-event probability of one scheduled physical op."""
        base = self.gate_error.get(op.gate)
        if base is None:
            base = 1.0 - op.fidelity
        if len(op.units) == 2:
            base *= self.edge_error_factor.get(tuple(sorted(op.units)), 1.0)
        return min(1.0, max(0.0, base))

    def op_error_probabilities(self, compiled: CompiledCircuit) -> np.ndarray:
        """Depolarizing-event probability of every scheduled op, as one array.

        The vectorised trajectory engine consumes this flat export instead
        of calling :meth:`op_error_probability` per op.  Each entry is that
        method's value, memoised per calibrated ``(gate, edge)`` error site,
        so the two views are bit-equal.
        """
        memo: dict[tuple[str, tuple[int, ...] | None], float] = {}
        probabilities = np.empty(len(compiled.ops), dtype=np.float64)
        for index, op in enumerate(compiled.ops):
            if op.gate not in self.gate_error:
                # uncalibrated gate: per-op fidelity fallback, not memoisable
                probabilities[index] = self.op_error_probability(op)
                continue
            key = (op.gate, tuple(sorted(op.units)) if len(op.units) == 2 else None)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self.op_error_probability(op)
            probabilities[index] = value
        return probabilities

    def idle_decay_channels(self, compiled: CompiledCircuit) -> tuple[list[int], np.ndarray]:
        """Per-qubit amplitude-damping hazards as flat arrays.

        Returns the sorted logical qubits and, aligned with them, each
        qubit's whole-circuit decay probability ``1 - exp(-t / T1)``
        accumulated over its residency — the thresholds the worst-case idle
        policy samples against.
        """
        exponents = self.residency_decay_exponent(compiled)
        qubits = sorted(exponents)
        gammas = -np.expm1(-np.array([exponents[qubit] for qubit in qubits]))
        return qubits, np.atleast_1d(gammas)

    def decay_rate(self, unit: int, is_ququart: bool) -> float:
        """Amplitude-damping rate (1/ns) of one unit in its operating mode."""
        rate = self.ququart_decay_rate if is_ququart else self.qubit_decay_rate
        factor = self.unit_t1_factor.get(unit, 1.0)
        return rate / factor if factor > 0 else rate

    def residency_decay_exponent(self, compiled: CompiledCircuit) -> dict[int, float]:
        """Per logical qubit: accumulated ``t / T1`` over its residency."""
        exponents: dict[int, float] = {}
        for logical, segments in compiled.residency_segments().items():
            exponent = 0.0
            for start, end, unit in segments:
                rate = self.decay_rate(unit, unit in compiled.ququart_units)
                exponent += (end - start) * rate
            exponents[logical] = exponent
        return exponents

    # ------------------------------------------------------------------
    # analytic predictions under this model
    # ------------------------------------------------------------------
    def analytic_gate_eps(self, compiled: CompiledCircuit) -> float:
        """Probability that no gate error fires: product of (1 - p) over ops."""
        total = 1.0
        for op in compiled.ops:
            total *= 1.0 - self.op_error_probability(op)
        return total

    def analytic_coherence_eps(self, compiled: CompiledCircuit) -> float:
        """Probability that no logical qubit decays during the circuit."""
        exponent = sum(self.residency_decay_exponent(compiled).values())
        return math.exp(-exponent)

    def analytic_total_eps(self, compiled: CompiledCircuit) -> float:
        """No-error probability under this model.

        For the uniform ``table1`` spec this equals
        :func:`repro.metrics.eps.total_eps` exactly — the closed form the
        trajectory engine's success estimate converges to.
        """
        return self.analytic_gate_eps(compiled) * self.analytic_coherence_eps(compiled)
