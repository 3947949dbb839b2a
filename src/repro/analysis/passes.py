"""Static verifier passes over compiled-circuit op streams.

Each pass walks a :class:`~repro.compiler.result.CompiledCircuit` in
linear time — zero simulation — and proves (or refutes) one family of
invariants the compiler is supposed to maintain:

``encdec``
    Encode/decode bracketing well-formedness.  Transient decodes (no
    ``moves``) must be closed by a matching ``enc`` on the same logical
    pair; permanent decodes (``reencode_after_measure=False``, recorded
    via ``moves``) need no re-encode; a bare ``enc`` is legal only as the
    Full-Ququart baseline's initial pair encoding.

``residency``
    Abstract interpretation of slot/unit state.  Every operand qubit must
    be allocated, slot positions must be legal under the register dims
    (:func:`~repro.simulation.verify.register_dims`), ``moves`` may never
    collide two qubits on one slot, no op may touch a qubit while a
    decode has ejected it, and the interpreted final occupancy must equal
    the recorded ``final_placement``.

``classical``
    Classical dataflow def-use.  Every ``condition`` bit must be written
    by a prior measurement, condition encodings must be well-formed, and
    a mid-circuit measurement whose bits are never read is flagged as a
    dead measure (warning).

``schedule``
    Schedule legality.  Start times must respect program-order data
    dependences (shared units and classical bits) with durations, and the
    whole schedule must re-derive exactly under the compiler's greedy
    ASAP rule — including the makespan.

``kernel``
    Kernel-schedule conformance.  The
    :class:`~repro.noise.kernel.KernelSchedule` a trajectory engine would
    build must partition the op stream exactly: every dynamic op a bare
    segment, every fused item anchored to a non-dynamic op in monotonic
    order, noise-site Pauli tables closed and apply-plans consistent with
    the register dims.

What is provable here is *structural* legality; unitary equivalence to
the source circuit still requires replay
(:func:`~repro.simulation.verify.replay_compiled`) or the dynamic
branch-complete simulator.  The two are complementary: replay is
exponential in register size, these passes are linear in op count.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import AnalysisReport, Finding, FindingCollector
from repro.compiler.result import CompiledCircuit, PhysicalOp
from repro.gates.styles import GateStyle
from repro.simulation.verify import register_dims

#: Strategy names compiled by the Full-Ququart baseline, whose initial
#: per-pair ``enc`` ops legitimately open no bracket.
_FQ_STRATEGY_NAMES = frozenset({"fq", "full_ququart"})

#: Gates that read out (or reset) a unit instead of applying a unitary.
_MEASUREMENT_GATES = frozenset({"measure", "measure_mid", "reset"})

#: Tolerance for schedule-time comparisons (times are sums of exact
#: float durations, so genuine compiler output matches exactly).
_TIME_EPS = 1e-6


def _is_fq(compiled: CompiledCircuit) -> bool:
    """Whether the artifact came from the Full-Ququart baseline compiler."""
    return compiled.strategy_name.strip().lower() in _FQ_STRATEGY_NAMES


def _pair_key(op: PhysicalOp) -> tuple[int, ...]:
    """Bracket identity of an enc/dec op: its logical pair, sorted."""
    return tuple(sorted(op.logical_qubits))


# ----------------------------------------------------------------------
# encdec: encode/decode bracketing
# ----------------------------------------------------------------------
def check_encdec(compiled: CompiledCircuit) -> list[Finding]:
    """Verify encode/decode bracketing well-formedness per strategy."""
    out = FindingCollector("encdec")
    fq = _is_fq(compiled)
    # pair -> (op index, slots) of the currently-open transient decode
    open_decs: dict[tuple[int, ...], tuple[int, tuple]] = {}
    initial_encs: set[tuple[int, ...]] = set()
    for index, op in enumerate(compiled.ops):
        style = op.style
        if style is GateStyle.DECODE:
            pair = _pair_key(op)
            if len(op.logical_qubits) != 2:
                out.error(
                    f"dec must name the (measured, partner) logical pair, got "
                    f"{op.logical_qubits}", op_index=index,
                )
                continue
            if pair in open_decs:
                out.error(
                    f"dec on pair {pair} while an earlier dec (op "
                    f"{open_decs[pair][0]}) is still open", op_index=index,
                )
                continue
            if op.moves:
                # Permanent decode: the partner stays on the ancilla; no
                # re-encode is expected (reencode_after_measure=False).
                if fq:
                    out.error(
                        "the full-ququart baseline never decodes permanently "
                        f"(dec on pair {pair} records moves)", op_index=index,
                    )
                continue
            open_decs[pair] = (index, op.slots)
        elif style is GateStyle.ENCODE:
            pair = _pair_key(op)
            opened = open_decs.pop(pair, None)
            if opened is None:
                if fq and pair not in initial_encs:
                    # FQ's up-front pair encoding: one unmatched enc per pair.
                    initial_encs.add(pair)
                    continue
                out.error(
                    f"enc on pair {pair} does not close any open dec "
                    "(unmatched enc)", op_index=index,
                    qubit=op.logical_qubits[0] if op.logical_qubits else None,
                )
                continue
            dec_index, dec_slots = opened
            if dec_slots and op.slots:
                mirrored = tuple(reversed(dec_slots))
                if op.slots not in (dec_slots, mirrored):
                    out.error(
                        f"enc slots {op.slots} do not mirror the slots "
                        f"{dec_slots} of the dec it closes (op {dec_index})",
                        op_index=index,
                    )
    for pair, (index, _slots) in sorted(open_decs.items()):
        out.error(
            f"transient dec on pair {pair} is never re-encoded "
            "(unmatched dec; permanent decodes must record moves)",
            op_index=index, qubit=pair[0],
        )
    return out.findings


# ----------------------------------------------------------------------
# residency: abstract interpretation of slot/unit occupancy
# ----------------------------------------------------------------------
def check_residency(compiled: CompiledCircuit) -> list[Finding]:
    """Verify slot/unit residency legality by abstract interpretation."""
    out = FindingCollector("residency")
    dims = register_dims(compiled)
    num_units = compiled.device.num_units
    slot_of: dict[int, tuple[int, int]] = dict(compiled.initial_placement)
    occupant: dict[tuple[int, int], int] = {}
    for qubit, slot in slot_of.items():
        if slot in occupant:
            out.error(
                f"initial placement puts qubits {occupant[slot]} and {qubit} "
                f"on the same slot {slot}", qubit=qubit,
            )
        occupant[slot] = qubit
    # qubit -> op index of the transient dec that ejected its pair
    ejected: dict[int, int] = {}

    def check_slot(index: int, slot: tuple[int, int]) -> None:
        """Flag a slot whose unit or encoding position is illegal."""
        unit, position = slot
        if not (0 <= unit < num_units):
            out.error(f"slot {slot} names a unit outside the device "
                      f"(num_units={num_units})", op_index=index)
        elif position not in (0, 1):
            out.error(f"slot {slot} has an illegal encoding position", op_index=index)
        elif position == 1 and dims[unit] != 4:
            out.error(
                f"slot {slot} uses encoding position 1 on unit {unit}, which "
                "operates as a bare qubit (dimension 2)", op_index=index,
            )

    for index, op in enumerate(compiled.ops):
        for unit in op.units:
            if not (0 <= unit < num_units):
                out.error(
                    f"op {op.gate} addresses unit {unit} outside the device "
                    f"(num_units={num_units})", op_index=index,
                )
        for slot in op.slots:
            check_slot(index, slot)
        if op.slots:
            slot_units = {slot[0] for slot in op.slots}
            if slot_units != set(op.units):
                out.error(
                    f"op {op.gate} units {tuple(op.units)} disagree with its "
                    f"slot operands {op.slots}", op_index=index,
                )
        style = op.style
        for qubit in op.logical_qubits:
            if qubit not in slot_of:
                out.error(
                    f"op {op.gate} touches logical qubit {qubit}, which is "
                    "not allocated on the register", op_index=index, qubit=qubit,
                )
            ejecting_dec = ejected.get(qubit)
            if ejecting_dec is not None and style is not GateStyle.ENCODE:
                out.error(
                    f"op {op.gate} touches logical qubit {qubit} while a "
                    f"decode (op {ejecting_dec}) has ejected it to an ancilla "
                    "(gate on a decoded qubit)", op_index=index, qubit=qubit,
                )
        # Transient dec/enc bracketing ejects (and restores) the partner —
        # the second logical operand — without recording moves.
        if style is GateStyle.DECODE and not op.moves and len(op.logical_qubits) == 2:
            ejected[op.logical_qubits[1]] = index
        elif style is GateStyle.ENCODE and len(op.logical_qubits) == 2:
            ejected.pop(op.logical_qubits[1], None)
        # Apply recorded relocations (routing SWAPs, swap4, permanent dec).
        if op.moves:
            for qubit, target in op.moves.items():
                check_slot(index, target)
                if qubit not in slot_of:
                    out.error(
                        f"op {op.gate} moves unallocated qubit {qubit}",
                        op_index=index, qubit=qubit,
                    )
            for qubit in op.moves:
                slot = slot_of.get(qubit)
                if slot is not None and occupant.get(slot) == qubit:
                    del occupant[slot]
            for qubit, target in op.moves.items():
                if qubit not in slot_of:
                    continue
                holder = occupant.get(target)
                if holder is not None and holder != qubit:
                    out.error(
                        f"op {op.gate} moves qubit {qubit} onto slot {target} "
                        f"already occupied by qubit {holder}",
                        op_index=index, qubit=qubit,
                    )
                occupant[target] = qubit
                slot_of[qubit] = target
    if slot_of != dict(compiled.final_placement):
        moved = sorted(
            qubit for qubit in set(slot_of) | set(compiled.final_placement)
            if slot_of.get(qubit) != compiled.final_placement.get(qubit)
        )
        out.error(
            "interpreted final occupancy disagrees with the recorded "
            f"final_placement for qubits {moved}",
            qubit=moved[0] if moved else None,
        )
    return out.findings


# ----------------------------------------------------------------------
# classical: condition def-use dataflow
# ----------------------------------------------------------------------
def check_classical(compiled: CompiledCircuit) -> list[Finding]:
    """Verify classical dataflow: condition bits defined, measures used."""
    out = FindingCollector("classical")
    written: set[int] = set()
    # mid-circuit measure op index -> bits still awaiting a reader
    pending_reads: dict[int, set[int]] = {}
    for index, op in enumerate(compiled.ops):
        if op.condition is not None:
            bits, value = op.condition
            if len(set(bits)) != len(bits):
                out.error(
                    f"condition on op {op.gate} repeats classical bits {bits}",
                    op_index=index,
                )
            if not bits:
                out.error(
                    f"condition on op {op.gate} reads no classical bits",
                    op_index=index,
                )
            elif not (0 <= value < 2 ** len(bits)):
                out.error(
                    f"condition value {value} does not fit in {len(bits)} "
                    f"classical bit(s)", op_index=index,
                )
            for bit in bits:
                if bit not in written:
                    out.error(
                        f"condition on op {op.gate} reads classical bit {bit}, "
                        "which no prior measurement writes",
                        op_index=index, clbit=bit,
                    )
                for pending in pending_reads.values():
                    pending.discard(bit)
        if op.cbits:
            if op.gate not in _MEASUREMENT_GATES:
                out.error(
                    f"op {op.gate} writes classical bits {op.cbits} but is "
                    "not a measurement", op_index=index,
                )
            written.update(op.cbits)
            if op.gate == "measure_mid":
                pending_reads[index] = set(op.cbits)
    for index, bits in sorted(pending_reads.items()):
        if bits:
            out.warning(
                "mid-circuit measurement writes classical bit(s) "
                f"{tuple(sorted(bits))} that no later condition reads "
                "(dead measure)", op_index=index, clbit=min(bits),
            )
    return out.findings


# ----------------------------------------------------------------------
# schedule: timing legality + greedy-ASAP re-derivation
# ----------------------------------------------------------------------
def check_schedule(compiled: CompiledCircuit) -> list[Finding]:
    """Verify start times respect dependences and re-derive as greedy ASAP."""
    out = FindingCollector("schedule")
    unit_busy_until: dict[int, float] = {}
    clbit_busy_until: dict[int, float] = {}
    # Legality under the *actual* recorded start times: program order on a
    # shared unit or classical bit must be non-overlapping.
    for index, op in enumerate(compiled.ops):
        if op.start_ns < 0:
            out.error(f"op {op.gate} was never scheduled (start_ns < 0)",
                      op_index=index)
            continue
        touched_bits = set(op.cbits)
        if op.condition is not None:
            touched_bits.update(op.condition[0])
        for unit in op.units:
            free = unit_busy_until.get(unit, 0.0)
            if op.start_ns < free - _TIME_EPS:
                out.error(
                    f"op {op.gate} starts at {op.start_ns}ns while unit "
                    f"{unit} is busy until {free}ns (overlapping ops on one "
                    "unit)", op_index=index,
                )
        for bit in touched_bits:
            free = clbit_busy_until.get(bit, 0.0)
            if op.start_ns < free - _TIME_EPS:
                out.error(
                    f"op {op.gate} starts at {op.start_ns}ns while classical "
                    f"bit {bit} is busy until {free}ns", op_index=index, clbit=bit,
                )
        finish = op.start_ns + op.duration_ns
        for unit in op.units:
            unit_busy_until[unit] = max(unit_busy_until.get(unit, 0.0), finish)
        for bit in touched_bits:
            clbit_busy_until[bit] = max(clbit_busy_until.get(bit, 0.0), finish)
    # Exact re-derivation of the compiler's greedy ASAP schedule (the loop
    # in repro.compiler.scheduling.schedule_ops, durations already final).
    unit_free: dict[int, float] = {}
    clbit_free: dict[int, float] = {}
    derived_makespan = 0.0
    for index, op in enumerate(compiled.ops):
        start = max((unit_free.get(unit, 0.0) for unit in op.units), default=0.0)
        touched_bits = set(op.cbits)
        if op.condition is not None:
            touched_bits.update(op.condition[0])
        for bit in touched_bits:
            start = max(start, clbit_free.get(bit, 0.0))
        if op.start_ns >= 0 and abs(op.start_ns - start) > _TIME_EPS:
            out.warning(
                f"op {op.gate} starts at {op.start_ns}ns but greedy ASAP "
                f"re-derivation places it at {start}ns", op_index=index,
            )
        finish = start + op.duration_ns
        derived_makespan = max(derived_makespan, finish)
        for unit in op.units:
            unit_free[unit] = finish
        for bit in touched_bits:
            clbit_free[bit] = finish
    if abs(derived_makespan - compiled.makespan_ns) > _TIME_EPS:
        out.warning(
            f"re-derived makespan {derived_makespan}ns differs from the "
            f"artifact's {compiled.makespan_ns}ns"
        )
    return out.findings


# ----------------------------------------------------------------------
# kernel: fused kernel-schedule conformance
# ----------------------------------------------------------------------
def _placeholder_unitaries(compiled: CompiledCircuit, dims: tuple[int, ...]) -> list:
    """Identity stand-ins for the engine's embedded op unitaries.

    The structural shape of a kernel schedule depends only on which ops
    carry a unitary and which units each acts on — not on the matrix
    values — so identity matrices of the right embedded dimension let the
    conformance check build a schedule without the replay machinery
    (which rejects merged ``x01`` ops and slotless FQ measures).
    """
    unitaries: list = []
    for op in compiled.ops:
        if op.gate in _MEASUREMENT_GATES or not op.slots:
            unitaries.append(None)
            continue
        units: list[int] = []
        for unit, _position in op.slots:
            if unit not in units:
                units.append(unit)
        sub_dim = int(np.prod([dims[u] for u in units]))
        unitaries.append((np.eye(sub_dim, dtype=complex), tuple(units)))
    return unitaries


def _check_one_kernel(schedule, compiled: CompiledCircuit,
                      dims: tuple[int, ...], out: FindingCollector) -> None:
    """Check one :class:`KernelSchedule` against the op stream."""
    from repro.noise.kernel import FusedRun, NoiseSite, UnitaryStep, build_plan

    ops = compiled.ops
    if schedule.num_ops != len(ops):
        out.error(
            f"kernel schedule covers {schedule.num_ops} ops but the "
            f"artifact has {len(ops)}"
        )
        return
    if tuple(schedule.dims) != tuple(dims):
        out.error(
            f"kernel schedule dims {tuple(schedule.dims)} disagree "
            f"with register dims {tuple(dims)}"
        )
        return
    seen_dynamic: set[int] = set()
    last_index = -1

    def monotonic(index: int, what: str) -> None:
        """Require partition items to reference ops in increasing order."""
        nonlocal last_index
        if not (0 <= index < len(ops)):
            out.error(f"{what} references op {index} outside the "
                      f"stream", op_index=None)
        elif index < last_index:
            out.error(
                f"{what} for op {index} appears after op "
                f"{last_index} (non-monotonic partition)", op_index=index,
            )
        last_index = max(last_index, index)

    for segment in schedule.segments:
        if isinstance(segment, FusedRun):
            for item in segment.items:
                monotonic(item.op_index, type(item).__name__)
                if not (0 <= item.op_index < len(ops)):
                    continue
                op = ops[item.op_index]
                if op.is_dynamic:
                    out.error(
                        f"dynamic op {op.gate} was fused into a run "
                        "(dynamic ops must be bare segments)",
                        op_index=item.op_index,
                    )
                if isinstance(item, NoiseSite):
                    if tuple(item.slots) != tuple(op.slots):
                        out.error(
                            f"noise site slots {item.slots} disagree "
                            f"with op slots {op.slots}", op_index=item.op_index,
                        )
                    if item.bound != 4 ** len(item.slots):
                        out.error(
                            f"noise site Pauli bound {item.bound} != "
                            f"4**{len(item.slots)}", op_index=item.op_index,
                        )
                    if len(item.paulis) != len(item.slots) or any(
                        len(entry) != 3 for entry in item.paulis
                    ):
                        out.error(
                            "noise site Pauli table is not closed "
                            "(expected 3 embedded Paulis per slot)",
                            op_index=item.op_index,
                        )
                        continue
                    for (unit, _pos), entry in zip(item.slots, item.paulis):
                        for matrix, plan in entry:
                            if plan != build_plan(dims, plan.units):
                                out.error(
                                    f"noise-site apply-plan for unit "
                                    f"{unit} does not re-derive from the "
                                    "register dims", op_index=item.op_index,
                                )
                            if unit not in plan.units:
                                out.error(
                                    f"embedded Pauli for slot unit "
                                    f"{unit} targets units {plan.units}",
                                    op_index=item.op_index,
                                )
                elif isinstance(item, UnitaryStep):
                    if item.plan != build_plan(dims, item.plan.units):
                        out.error(
                            "unitary apply-plan does not re-derive "
                            "from the register dims", op_index=item.op_index,
                        )
            if segment.unitaries != tuple(
                i for i in segment.items if type(i) is UnitaryStep
            ):
                out.error("a fused run's unitary shortcut list does "
                          "not match its items")
        else:
            index = int(segment)
            monotonic(index, "dynamic segment")
            if 0 <= index < len(ops):
                if not ops[index].is_dynamic:
                    out.error(
                        f"op {ops[index].gate} is a bare segment but "
                        "is not dynamic", op_index=index,
                    )
                if index in seen_dynamic:
                    out.error(f"dynamic op {index} partitioned twice",
                              op_index=index)
                seen_dynamic.add(index)
    expected_dynamic = {i for i, op in enumerate(ops) if op.is_dynamic}
    missing = expected_dynamic - seen_dynamic
    if missing:
        out.error(
            f"dynamic ops {tuple(sorted(missing))} are missing from "
            "the kernel partition", op_index=min(missing),
        )


def check_kernel(compiled: CompiledCircuit) -> list[Finding]:
    """Verify kernel-schedule conformance with the op stream.

    Builds the schedule a trajectory engine would build, through
    :func:`repro.noise.kernel.build_schedule` with identity stand-in
    unitaries, and checks it against the op stream.
    """
    from repro.noise.kernel import EmbeddingTable, build_schedule

    out = FindingCollector("kernel")
    dims = register_dims(compiled)
    schedule = build_schedule(
        compiled, dims, _placeholder_unitaries(compiled, dims), EmbeddingTable(dims)
    )
    _check_one_kernel(schedule, compiled, dims, out)
    return out.findings


# ----------------------------------------------------------------------
# the pass registry and driver
# ----------------------------------------------------------------------
#: Verifier passes in execution order: ``name -> pass(compiled) -> findings``.
PROGRAM_PASSES = {
    "encdec": check_encdec,
    "residency": check_residency,
    "classical": check_classical,
    "schedule": check_schedule,
    "kernel": check_kernel,
}


def verify_compiled(
    compiled: CompiledCircuit,
    passes: tuple[str, ...] | None = None,
) -> AnalysisReport:
    """Statically verify a compiled circuit; the analysis subsystem's API.

    Runs every registered pass (or the named subset) over the op stream
    and returns an :class:`AnalysisReport`.  A pass that crashes is
    itself reported as an error finding rather than aborting the run, so
    one malformed invariant never hides the others.
    """
    selected = tuple(PROGRAM_PASSES) if passes is None else tuple(passes)
    unknown = [name for name in selected if name not in PROGRAM_PASSES]
    if unknown:
        raise KeyError(
            f"unknown verifier pass(es) {unknown}; known: {sorted(PROGRAM_PASSES)}"
        )
    findings: list[Finding] = []
    for name in selected:
        try:
            findings.extend(PROGRAM_PASSES[name](compiled))
        except Exception as error:  # noqa: BLE001 - report, don't abort
            findings.append(
                Finding(
                    severity="error", pass_name=name,
                    message=f"pass crashed: {type(error).__name__}: {error}",
                )
            )
    return AnalysisReport(
        subject=f"{compiled.circuit_name}/{compiled.strategy_name}",
        passes_run=selected,
        findings=tuple(findings),
        context=(
            ("circuit", compiled.circuit_name),
            ("device", compiled.device.name),
            ("strategy", compiled.strategy_name),
        ),
    )
