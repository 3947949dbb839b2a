"""Monte Carlo quantum-trajectory engine over the mixed-radix simulator.

Each trajectory (shot) replays a compiled circuit's scheduled physical ops
and stochastically injects the noise a :class:`~repro.noise.model.NoiseModel`
prescribes:

* after each physical op, with the op's calibrated error probability, a
  uniformly random non-identity Pauli string on the encoded qubits the op
  touched (stochastic depolarizing), and
* amplitude-damping decay charged against every logical qubit's residency —
  qubit-mode time at the qubit T1, ququart-mode time at the ququart T1 —
  following the paper's worst-case assumption that every qubit is live for
  the whole makespan.  Jumps are applied at the end of the op stream (the
  timing of a jump does not change the event statistics the EPS model
  predicts, and it keeps the channel composition identical to the
  density-matrix reference path).

Determinism: shot ``i`` of seed ``s`` always draws from the RNG stream
``default_rng((s, i))``, so results are bit-identical however the shots are
chunked across workers.

The event-only path (``track_state=False``, all the EPS estimate needs) is
chunk-batched: the circuit's error-site schedule is pre-extracted into flat
probability arrays once per engine, and all stochastic draws for a whole
block of shots are generated in one vectorised pass through
:mod:`repro.noise.rng` — an order of magnitude faster than one Python
``Generator`` per shot, yet bit-identical to it.  The original scalar loop
is retained as the ``_reference`` implementation (:meth:`run_reference`)
and the golden-equivalence tests compare the two draw for draw.

Shots where *no* event fired estimate the analytic EPS; with
``track_state=True`` the engine additionally evolves the state vector and
reports outcome-level success (which the analytic model lower-bounds).
State tracking replays every strategy, including the Full-Ququart baseline
whose encode/decode ops are modelled as slot transports (see
:func:`repro.simulation.verify.physical_op_unitary`).

The state-tracking path is chunk-batched too: a block of shots evolves as
one :class:`~repro.simulation.batched.BatchedMixedRadixState`, walked
through the circuit's kernel schedule (:mod:`repro.noise.kernel`: fused
runs of static ops, bare canonical-layout steps for the dynamic ops
between them; sampled Paulis and damping jumps touch only the lanes whose
error fired), and the per-shot RNG streams advance through
:class:`repro.noise.rng.GeneratorLanes`, which replicates
``Generator.integers``' 32-bit bounded path bit for bit.  The scalar loop
remains the golden ``run_reference``; the batched path is asserted
bit-identical to it, chunk for chunk.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.result import CompiledCircuit
from repro.noise.kernel import (
    EmbeddingTable,
    KernelSchedule,
    build_event_kernel,
    build_schedule,
    inject_paulis,
)
from repro.noise.model import NoiseModel, NoiseSpec, resolve_model
from repro.noise.result import NoisyResult, TrajectoryChunk
from repro.noise.rng import GeneratorLanes, uniform_streams
from repro.simulation.batched import BatchedMixedRadixState
from repro.simulation.statevector import MixedRadixState
from repro.simulation.verify import (
    VerificationError,
    physical_op_unitary,
    register_dims,
)

#: Shots per vectorised block in the event-only path.  Bounds the size of
#: the per-block draw matrix (``block x draws_per_shot`` float64) while
#: keeping the batch large enough that per-block overhead is negligible.
EVENT_BLOCK_SHOTS = 8192

#: Amplitude budget of one state-tracking block: the block size is chosen
#: so ``block x register_dimension`` complex amplitudes stay near this cap
#: (4 MiB of complex128 — the sweet spot measured across the benchmark
#: registers: big enough to amortise per-block overhead, small enough that
#: the per-op gather/GEMM/scatter passes stay cache-friendly).  Purely a
#: scheduling knob — any block split is bit-invisible.
TRACKED_BLOCK_AMPLITUDES = 1 << 18

#: Largest shot count :meth:`TrajectoryEngine.final_vectors` will
#: materialise as one list (O(shots x dimension) complex128 memory).
#: Larger requests must stream :meth:`TrajectoryEngine.iter_final_vectors`.
FINAL_VECTORS_MAX_SHOTS = 4096


@dataclass(frozen=True)
class _ShotOutcome:
    gate_events: int
    idle_events: int
    vector: np.ndarray | None
    #: Pre-computed ideal-vs-noisy fidelity (dynamic shots only, where the
    #: per-shot ideal state follows the shot's own branch decisions and no
    #: single circuit-wide ideal vector exists).
    fidelity: float | None = None


class TrajectoryEngine:
    """Reusable sampler for one (compiled circuit, noise model) pair.

    Parameters
    ----------
    compiled:
        The scheduled physical program to simulate.
    model:
        A :class:`NoiseModel` (or a :class:`NoiseSpec`, built against the
        compiled circuit's device).
    track_state:
        ``False`` samples error events only — enough for the EPS estimate
        and available for *any* compiled circuit, on the fast chunk-batched
        path.  ``True`` additionally replays the state vector with the
        sampled noise injected, enabling the outcome-level metrics; it
        requires a replayable op stream (compile with
        ``merge_single_qubit_gates=False``; the FQ baseline always
        schedules unmerged).
    use_kernel:
        ``True`` (the default) walks the pre-compiled fused kernel
        program (:mod:`repro.noise.kernel`) when tracking state.
        ``False`` walks an all-bare schedule instead — every op one
        canonical-layout step, bit-identical and unfused — which is the
        A/B baseline of the kernel benchmark.  The event-only path
        ignores it.
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        model: NoiseModel | NoiseSpec,
        track_state: bool = False,
        use_kernel: bool = True,
    ) -> None:
        self.compiled = compiled
        self.model = resolve_model(model, compiled.device)
        self.track_state = bool(track_state)
        self.use_kernel = bool(use_kernel)
        if self.model.idle_policy == "kraus" and not self.track_state:
            # validate the policy/track_state combination eagerly: the kraus
            # unraveling needs the state (jump probability scales with the
            # excited population), so a misconfigured engine must fail here,
            # at construction — not shots into a run
            raise VerificationError(
                "the kraus idle policy is state-dependent; "
                "construct the engine with track_state=True"
            )
        self.dims = register_dims(compiled)
        self.dimension = int(np.prod(self.dims))
        self.is_dynamic = compiled.is_dynamic
        self.op_probs = self.model.op_error_probabilities(compiled)
        self.idle_qubits, self.idle_gammas = self.model.idle_decay_channels(compiled)
        self._draws = len(compiled.ops) + len(self.idle_qubits)
        self._ideal_vector: np.ndarray | None = None
        self._op_unitaries: list[tuple[np.ndarray, tuple[int, ...]] | None] = []
        self._embeds = EmbeddingTable(self.dims)
        self._event_kernel = build_event_kernel(self.op_probs, self.idle_gammas)
        self._schedule: KernelSchedule | None = None
        if self.track_state:
            self._prepare_replay()
            if self.use_kernel:
                self._schedule = build_schedule(
                    compiled, self.dims, self._op_unitaries, self._embeds
                )
            else:
                num_ops = len(compiled.ops)
                self._schedule = KernelSchedule(self.dims, tuple(range(num_ops)), num_ops)

    # ------------------------------------------------------------------
    # replay preparation (state-tracking mode)
    # ------------------------------------------------------------------
    def _prepare_replay(self) -> None:
        lowered = self.compiled.lowered_circuit
        if not isinstance(lowered, QuantumCircuit):
            raise VerificationError(
                "state tracking needs the lowered source circuit; "
                "this compiled circuit does not carry one"
            )
        self._op_unitaries = [
            physical_op_unitary(op, self.dims, lowered) for op in self.compiled.ops
        ]
        if self.is_dynamic:
            # Dynamic programs branch at runtime: there is no single ideal
            # final vector.  Each shot instead evolves a parallel noise-free
            # state through its own branch decisions (see _run_shot_dynamic).
            self._ideal_vector = None
            return
        state = MixedRadixState(self.dims)
        for embedded in self._op_unitaries:
            if embedded is not None:
                state.apply(*embedded)
        self._ideal_vector = state.vector

    @staticmethod
    def _condition_met(creg: int, condition: tuple[tuple[int, ...], int]) -> bool:
        """Evaluate a classical control against one shot's register value."""
        bits, value = condition
        got = 0
        for position, bit in enumerate(bits):
            got |= ((creg >> bit) & 1) << position
        return got == value

    # ------------------------------------------------------------------
    # state helpers (shared by the scalar and batched paths)
    # ------------------------------------------------------------------
    def _excited_levels(self, unit: int, slot: int) -> tuple[int, ...]:
        """Levels of ``unit`` where the encoded qubit at ``slot`` is |1>."""
        if self.dims[unit] == 2:
            return (1,)
        return (2, 3) if slot == 0 else (1, 3)

    def _excited_population(
        self, state: MixedRadixState | BatchedMixedRadixState, unit: int, slot: int
    ) -> np.ndarray:
        """|1> population of the encoded qubit at ``(unit, slot)`` (per lane on a batch)."""
        populations = state.unit_populations(unit)
        levels = self._excited_levels(unit, slot)
        total = populations[..., levels[0]]
        for level in levels[1:]:
            total = total + populations[..., level]
        return total

    # ------------------------------------------------------------------
    # scalar sampling (the _reference implementation, and state tracking)
    # ------------------------------------------------------------------
    def _run_shot(self, rng: np.random.Generator) -> _ShotOutcome:
        draws = rng.random(self._draws) if self._draws else np.empty(0)
        num_ops = len(self.compiled.ops)
        gate_mask = draws[:num_ops] < self.op_probs
        gate_events = int(gate_mask.sum())
        if not self.track_state:
            # the constructor guarantees the worst_case policy here
            idle_events = int((draws[num_ops:] < self.idle_gammas).sum())
            return _ShotOutcome(gate_events, idle_events, None)
        if self.is_dynamic:
            return self._run_shot_dynamic(rng, draws, gate_mask)

        state = MixedRadixState(self.dims)
        for index, op in enumerate(self.compiled.ops):
            embedded = self._op_unitaries[index]
            if embedded is not None:
                state.apply(*embedded)
            if gate_mask[index] and op.slots:
                string = int(rng.integers(1, 4 ** len(op.slots)))
                for position, (unit, slot) in enumerate(op.slots):
                    code = (string >> (2 * (len(op.slots) - 1 - position))) & 3
                    if code == 0:
                        continue
                    state.apply(*self._embeds.pauli(unit, slot, code))
        idle_events = self._idle_decay_shot(state, draws)
        return _ShotOutcome(gate_events, idle_events, state.vector)

    def _idle_decay_shot(self, state: MixedRadixState, draws: np.ndarray) -> int:
        """Idle decay of one scalar shot; returns its idle event count.

        Applied per logical qubit at its final position, reading the
        shot's ``draws`` column after the ops for each qubit.  A jump on a
        qubit with no excited amplitude cannot fire physically and leaves
        the state unchanged (the shot still counts as failed under the
        worst-case policy).
        """
        num_ops = len(self.compiled.ops)
        idle_events = 0
        for position, qubit in enumerate(self.idle_qubits):
            gamma = float(self.idle_gammas[position])
            if gamma <= 0.0:
                continue
            unit, slot = self.compiled.final_placement[qubit]
            draw = float(draws[num_ops + position])
            if self.model.idle_policy == "worst_case":
                if draw < gamma:
                    idle_events += 1
                    state.apply_kraus(*self._embeds.damping_jump(unit, slot))
            else:  # kraus: jump probability scales with the excited population
                jump_probability = gamma * float(self._excited_population(state, unit, slot))
                if draw < jump_probability:
                    idle_events += 1
                    state.apply_kraus(*self._embeds.damping_jump(unit, slot))
                else:
                    state.apply_kraus(*self._embeds.damping_survival(unit, slot, gamma))
        return idle_events

    def _run_shot_dynamic(
        self, rng: np.random.Generator, draws: np.ndarray, gate_mask: np.ndarray
    ) -> _ShotOutcome:
        """One state-tracked shot of a dynamic program (scalar reference).

        A parallel noise-free ``ideal`` state evolves through the *same*
        instruction stream, following the noisy run's branch decisions:
        mid-circuit measurement outcomes are sampled from the noisy state
        and the matching projector is applied to both states.  When the
        ideal state carries zero weight on the sampled branch the shot's
        ideal reference is lost (``alive`` drops) and its fidelity is 0.

        Stream consumption: one block of ``self._draws`` uniforms up front
        (already drawn by the caller), one extra uniform per *executed*
        mid-circuit measurement/reset at its op position, one bounded-integer
        Pauli draw per fired-and-executed op — condition-false ops consume
        nothing, which is what keeps the batched path lane-exact.
        """
        gate_events = int(gate_mask.sum())
        state = MixedRadixState(self.dims)
        ideal = MixedRadixState(self.dims)
        alive = True
        creg = 0
        for index, op in enumerate(self.compiled.ops):
            executed = op.condition is None or self._condition_met(creg, op.condition)
            if executed and op.gate in ("measure_mid", "reset"):
                unit, slot = op.slots[0]
                draw = float(rng.random())
                outcome = int(draw < float(self._excited_population(state, unit, slot)))
                projector, units = self._embeds.projector(unit, slot, outcome)
                state.apply_kraus(projector, units)
                if alive:
                    alive = ideal.apply_kraus(projector, units) > 0.0
                if op.gate == "measure_mid":
                    bit = int(op.cbits[0])
                    creg = (creg & ~(1 << bit)) | (outcome << bit)
                elif outcome:  # reset: flip the sampled |1> back to |0>
                    flip = self._embeds.pauli(unit, slot, 1)
                    state.apply(*flip)
                    if alive:
                        ideal.apply(*flip)
            elif executed:
                embedded = self._op_unitaries[index]
                if embedded is not None:
                    state.apply(*embedded)
                    if alive:
                        ideal.apply(*embedded)
            if gate_mask[index] and executed and op.slots:
                string = int(rng.integers(1, 4 ** len(op.slots)))
                for position, (unit, slot) in enumerate(op.slots):
                    code = (string >> (2 * (len(op.slots) - 1 - position))) & 3
                    if code == 0:
                        continue
                    state.apply(*self._embeds.pauli(unit, slot, code))
        idle_events = self._idle_decay_shot(state, draws)
        if alive:
            fidelity = float(abs(np.vdot(ideal.vector, state.vector)) ** 2)
        else:
            fidelity = 0.0
        return _ShotOutcome(gate_events, idle_events, state.vector, fidelity=fidelity)

    def run_reference(self, shots: int, seed: int, base_shot: int = 0) -> TrajectoryChunk:
        """Sample trajectories with the original one-``Generator``-per-shot loop.

        This is the retained ``_reference`` implementation: slower than
        :meth:`run` but trivially correct against the documented RNG-stream
        contract.  The golden-equivalence tests assert ``run`` returns
        bit-identical chunks; production callers should use :meth:`run`.
        """
        if shots < 0:
            raise ValueError("shots must be non-negative")
        no_error = 0
        gate_events = 0
        idle_events = 0
        outcome_successes = 0
        fidelity_sum = 0.0
        for offset in range(shots):
            shot_index = base_shot + offset
            rng = np.random.default_rng((seed, shot_index))
            outcome = self._run_shot(rng)
            gate_events += outcome.gate_events
            idle_events += outcome.idle_events
            if outcome.gate_events == 0 and outcome.idle_events == 0:
                no_error += 1
            if outcome.vector is not None:
                if outcome.fidelity is not None:
                    fidelity = outcome.fidelity
                else:
                    fidelity = float(abs(np.vdot(self._ideal_vector, outcome.vector)) ** 2)
                fidelity_sum += fidelity
                if rng.random() < fidelity:
                    outcome_successes += 1
        return TrajectoryChunk(
            shots=shots,
            base_shot=base_shot,
            no_error_shots=no_error,
            gate_events=gate_events,
            idle_events=idle_events,
            tracked=self.track_state,
            outcome_successes=outcome_successes,
            outcome_fidelity_sum=fidelity_sum,
        )

    # ------------------------------------------------------------------
    # chunk-batched sampling (the production event-only path)
    # ------------------------------------------------------------------
    def _run_event_batch(self, shots: int, seed: int, base_shot: int) -> TrajectoryChunk:
        """Vectorised event-only sampling over blocks of shots.

        Generates every shot's private ``default_rng((seed, shot))`` stream
        in batch (:func:`repro.noise.rng.uniform_streams`) and compares the
        whole draw matrix against the fused threshold vector of the
        pre-built :class:`~repro.noise.kernel.EventKernel` at once.  The
        thresholds and the draws are the same floats the scalar loop uses,
        compared with the same IEEE predicates, so the event counts are
        bit-identical at any block or chunk split.
        """
        no_error = 0
        gate_events = 0
        idle_events = 0
        for start in range(0, shots, EVENT_BLOCK_SHOTS):
            count = min(EVENT_BLOCK_SHOTS, shots - start)
            draws = uniform_streams(seed, base_shot + start, count, self._draws)
            per_shot_gate, per_shot_idle = self._event_kernel.count_block(draws)
            no_error += int(((per_shot_gate == 0) & (per_shot_idle == 0)).sum())
            gate_events += int(per_shot_gate.sum())
            idle_events += int(per_shot_idle.sum())
        return TrajectoryChunk(
            shots=shots,
            base_shot=base_shot,
            no_error_shots=no_error,
            gate_events=gate_events,
            idle_events=idle_events,
            tracked=False,
        )

    # ------------------------------------------------------------------
    # chunk-batched sampling (the production state-tracking path)
    # ------------------------------------------------------------------
    def _tracked_block_shots(self) -> int:
        """Shots per state-tracking block, sized by the amplitude budget."""
        return max(1, min(EVENT_BLOCK_SHOTS, TRACKED_BLOCK_AMPLITUDES // self.dimension))

    def _evolve_block(
        self, seed: int, base_shot: int, count: int
    ) -> tuple[GeneratorLanes, BatchedMixedRadixState, np.ndarray, np.ndarray, np.ndarray]:
        """Replay one block of tracked shots, lane-exact vs the scalar loop.

        Walks the engine's kernel schedule: each :class:`FusedRun` runs
        through :meth:`KernelSchedule.execute_run`, each bare op index is
        one canonical-layout :meth:`_apply_op` step.  Dynamic programs
        mirror :meth:`_run_shot_dynamic` per lane: each lane carries its
        own classical register and branch decisions, a parallel noise-free
        batch follows the same branches, and mid-stream RNG draws touch
        only the lanes that execute the drawing op — so every lane's
        stream position matches its scalar ``default_rng((seed, shot))``
        twin.  Returns the live RNG lanes, the noisy batch, the per-lane
        gate/idle event counts and the per-lane ideal-vs-noisy fidelities.
        """
        num_ops = len(self.compiled.ops)
        lanes = GeneratorLanes(seed, base_shot, count)
        draws = lanes.random_block(self._draws)
        gate_mask = draws[:, :num_ops] < self.op_probs
        state = BatchedMixedRadixState(self.dims, count)
        ideal = BatchedMixedRadixState(self.dims, count) if self.is_dynamic else None
        alive = np.ones(count, dtype=bool)
        creg = np.zeros(count, dtype=np.int64)
        schedule = self._schedule
        for segment in schedule.segments:
            if isinstance(segment, int):
                self._apply_op(segment, state, ideal, alive, creg, lanes, gate_mask)
                continue
            state.replace_amplitudes(
                schedule.execute_run(segment, state.amplitudes, gate_mask, lanes)
            )
            if ideal is not None:
                # ``alive`` only changes at bare ops, so the ideal batch's
                # live-lane subset is constant across a whole run
                schedule.execute_run_unitaries(
                    segment, ideal.amplitudes, np.flatnonzero(alive)
                )
        # idle decay, applied per logical qubit at its final position
        idle_counts = np.zeros(count, dtype=np.int64)
        for position, qubit in enumerate(self.idle_qubits):
            gamma = float(self.idle_gammas[position])
            if gamma <= 0.0:
                continue
            unit, slot = self.compiled.final_placement[qubit]
            column = draws[:, num_ops + position]
            if self.model.idle_policy == "worst_case":
                jumped = np.flatnonzero(column < gamma)
                survived = None
            else:  # kraus: jump probability scales with the excited population
                jump_probability = gamma * self._excited_population(state, unit, slot)
                fired = column < jump_probability
                jumped = np.flatnonzero(fired)
                survived = np.flatnonzero(~fired)
            idle_counts[jumped] += 1
            if jumped.size:
                matrix, units = self._embeds.damping_jump(unit, slot)
                state.apply_kraus(matrix, units, lanes=jumped)
            if survived is not None and survived.size:
                matrix, units = self._embeds.damping_survival(unit, slot, gamma)
                state.apply_kraus(matrix, units, lanes=survived)
        if ideal is None:
            fidelities = state.fidelities_with(self._ideal_vector)
        else:
            fidelities = state.fidelities_with_batch(ideal)
            fidelities[~alive] = 0.0
        return lanes, state, gate_mask.sum(axis=1), idle_counts, fidelities

    def _apply_op(
        self,
        index: int,
        state: BatchedMixedRadixState,
        ideal: BatchedMixedRadixState | None,
        alive: np.ndarray,
        creg: np.ndarray,
        lanes: GeneratorLanes,
        gate_mask: np.ndarray,
    ) -> None:
        """Apply op ``index`` to the batch in canonical layout, per-lane exact.

        The walker's step for a bare schedule segment: the dynamic ops
        between fused runs (mid-circuit measurement/``reset`` and
        conditioned ops need per-lane branch masks), or any op of the
        all-bare schedule ``use_kernel=False`` selects.  ``ideal`` is a
        dynamic program's parallel noise-free batch and ``None`` for a
        static one.  Mutates ``state``/``ideal``/``alive``/``creg`` in
        place.
        """
        op = self.compiled.ops[index]
        count = creg.shape[0]
        if op.condition is None:
            executed = np.ones(count, dtype=bool)
        else:
            bits, value = op.condition
            got = np.zeros(count, dtype=np.int64)
            for position, bit in enumerate(bits):
                got |= ((creg >> np.int64(bit)) & 1) << np.int64(position)
            executed = got == value
        exec_idx = np.flatnonzero(executed)
        if op.gate in ("measure_mid", "reset"):
            if exec_idx.size:
                unit, slot = op.slots[0]
                draw = lanes.random(exec_idx)
                excited = self._excited_population(state, unit, slot)[exec_idx]
                outcomes = draw < excited
                for outcome in (0, 1):
                    selected = exec_idx[outcomes == bool(outcome)]
                    if not selected.size:
                        continue
                    projector, units = self._embeds.projector(unit, slot, outcome)
                    state.apply_kraus(projector, units, lanes=selected)
                    live = selected[alive[selected]]
                    if live.size:
                        weights = ideal.apply_kraus(projector, units, lanes=live)
                        alive[live[weights == 0.0]] = False
                if op.gate == "measure_mid":
                    bit = np.int64(op.cbits[0])
                    creg[exec_idx] = (creg[exec_idx] & ~(np.int64(1) << bit)) | (
                        outcomes.astype(np.int64) << bit
                    )
                else:  # reset: flip the sampled |1> lanes back to |0>
                    flipped = exec_idx[outcomes]
                    if flipped.size:
                        flip, flip_units = self._embeds.pauli(unit, slot, 1)
                        state.apply(flip, flip_units, lanes=flipped)
                        live = flipped[alive[flipped]]
                        if live.size:
                            ideal.apply(flip, flip_units, lanes=live)
        else:
            embedded = self._op_unitaries[index]
            if embedded is not None and exec_idx.size:
                matrix, units = embedded
                if op.condition is None:
                    state.apply(matrix, units)
                else:
                    state.apply(matrix, units, lanes=exec_idx)
                if ideal is not None:
                    live = exec_idx[alive[exec_idx]]
                    if live.size:
                        ideal.apply(matrix, units, lanes=live)
        if op.slots:
            fired = np.flatnonzero(gate_mask[:, index] & executed)
            if fired.size:
                strings = lanes.integers(fired, 1, 4 ** len(op.slots))
                inject_paulis(state.apply, self._embeds.paulis(op.slots), fired, strings)

    def _run_tracked_batch(self, shots: int, seed: int, base_shot: int) -> TrajectoryChunk:
        """Vectorised state-tracking sampling over blocks of shots.

        Every lane's evolution — op unitaries, sampled Pauli injections,
        damping jumps/survivals, the final fidelity and the outcome draw —
        reproduces the scalar ``run_reference`` loop bit for bit: the RNG
        lanes consume the identical stream positions and the batched state
        applies the identical kernels per lane (see
        :class:`~repro.simulation.batched.BatchedMixedRadixState`).
        """
        no_error = 0
        gate_events = 0
        idle_events = 0
        outcome_successes = 0
        fidelity_sum = 0.0
        block = self._tracked_block_shots()
        for start in range(0, shots, block):
            count = min(block, shots - start)
            lanes, state, gate_counts, idle_counts, fidelities = self._evolve_block(
                seed, base_shot + start, count
            )
            final_draws = lanes.random_block(1)[:, 0]
            gate_events += int(gate_counts.sum())
            idle_events += int(idle_counts.sum())
            no_error += int(((gate_counts == 0) & (idle_counts == 0)).sum())
            outcome_successes += int((final_draws < fidelities).sum())
            for fidelity in fidelities:
                # accumulate in shot order with plain adds, matching the
                # scalar loop's running sum bit for bit
                fidelity_sum += float(fidelity)
        return TrajectoryChunk(
            shots=shots,
            base_shot=base_shot,
            no_error_shots=no_error,
            gate_events=gate_events,
            idle_events=idle_events,
            tracked=True,
            outcome_successes=outcome_successes,
            outcome_fidelity_sum=fidelity_sum,
        )

    def run(self, shots: int, seed: int, base_shot: int = 0) -> TrajectoryChunk:
        """Sample ``shots`` trajectories starting at absolute index ``base_shot``.

        Both engine modes take a chunk-batched vectorised path: event-only
        sampling batches the stochastic draws, state tracking additionally
        evolves the whole block on a batched state.  Both honour the
        per-shot ``(seed, shot)`` RNG-stream contract, so the vectorised
        paths — and any chunk split of either — are bit-identical to the
        scalar loop (asserted by :meth:`run_reference` comparisons in the
        test suite).

        A zero-shot batch is valid and returns an empty chunk.
        """
        if shots < 0:
            raise ValueError("shots must be non-negative")
        if self.track_state:
            return self._run_tracked_batch(shots, seed, base_shot)
        return self._run_event_batch(shots, seed, base_shot)

    def iter_final_vectors(
        self, shots: int, seed: int, base_shot: int = 0
    ) -> Iterator[np.ndarray]:
        """Yield each trajectory's final state vector, in shot order.

        Streaming variant of :meth:`final_vectors` for sweep-scale shot
        counts: only one block of states (at most
        ``TRACKED_BLOCK_AMPLITUDES`` amplitudes) is live at a time, so
        memory stays bounded however many shots are requested.  Replays
        the same deterministic per-shot streams :meth:`run` would use, on
        the batched state (state-tracking mode only).  Arguments are
        checked here, at the call, before the first vector is requested.
        """
        if not self.track_state:
            raise VerificationError("final_vectors requires track_state=True")
        if shots < 0:
            raise ValueError("shots must be non-negative")
        return self._stream_final_vectors(shots, seed, base_shot)

    def _stream_final_vectors(
        self, shots: int, seed: int, base_shot: int
    ) -> Iterator[np.ndarray]:
        block = self._tracked_block_shots()
        for start in range(0, shots, block):
            count = min(block, shots - start)
            _, state, _, _, _ = self._evolve_block(seed, base_shot + start, count)
            yield from state.vectors()

    def final_vectors(self, shots: int, seed: int, base_shot: int = 0) -> list[np.ndarray]:
        """Final state vector of each trajectory, as one list (capped).

        Used by the density-matrix agreement path.  Materialising every
        vector costs O(shots x dimension) memory, so this wrapper refuses
        more than ``FINAL_VECTORS_MAX_SHOTS`` shots — stream
        :meth:`iter_final_vectors` instead at sweep scale.
        """
        if shots > FINAL_VECTORS_MAX_SHOTS:
            raise ValueError(
                f"final_vectors materialises every state vector; {shots} shots "
                f"exceeds the {FINAL_VECTORS_MAX_SHOTS}-shot cap — iterate "
                "iter_final_vectors() instead"
            )
        return list(self.iter_final_vectors(shots, seed, base_shot=base_shot))


def simulate_noisy(
    compiled: CompiledCircuit,
    model: NoiseModel | NoiseSpec,
    shots: int,
    seed: int = 0,
    track_state: bool = False,
) -> NoisyResult:
    """Monte Carlo estimate of a compiled circuit's success probability.

    Returns a :class:`NoisyResult` whose ``success_probability`` (fraction
    of error-free trajectories) estimates the analytic EPS, with a Wilson
    confidence interval.  The same ``seed`` always produces a bit-identical
    result.
    """
    engine = TrajectoryEngine(compiled, model, track_state=track_state)
    chunk = engine.run(shots, seed)
    return NoisyResult.from_chunks([chunk], seed)
