"""Golden tests for the fused trajectory kernel programs.

The contract under test (see :mod:`repro.noise.kernel`): the fused
kernel path — the default in both batched trajectory engines — is
bit-identical to the retained scalar ``run_reference`` across workloads,
strategies, presets, seeds and chunk/block splits, static and dynamic
circuits alike.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.noise.kernel as kernel_module
import repro.noise.trajectory as trajectory_module
import repro.simulation.batched as batched_module
from repro.backends.trajectory import TrajectoryBackend
from repro.noise import NoiseSpec, TrajectoryEngine
from repro.noise.kernel import (
    EventKernel,
    FusedRun,
    KernelSchedule,
    NoiseSite,
    build_event_kernel,
    build_plan,
)
from repro.noise.trajectory import FINAL_VECTORS_MAX_SHOTS
from repro.runner import SweepPoint
from repro.simulation import BatchedMixedRadixState, MixedRadixState
from repro.simulation.verify import VerificationError

TABLE1 = NoiseSpec.from_preset("table1")

#: Tracked compile pool the property tests draw from: every strategy
#: family plus a dynamic feed-forward program, compiled once per session
#: (tracked engines need the unmerged, replayable op stream).
_POOL_SPECS = (
    ("bv", 6, "eqm"),
    ("qft", 4, "rb"),
    ("ghz", 5, "full_ququart"),
    ("teleport", 3, "eqm"),
    ("teleport", 3, "qubit_only"),
)
_PRESETS = ("table1", "pessimistic", "heterogeneous", "ideal")
_COMPILED: dict[int, object] = {}
_ENGINES: dict[tuple, TrajectoryEngine] = {}


def _pooled_compiled(spec_index: int):
    compiled = _COMPILED.get(spec_index)
    if compiled is None:
        bench, size, strategy = _POOL_SPECS[spec_index]
        compiled = SweepPoint(
            bench, size, strategy,
            compiler_kwargs=(("merge_single_qubit_gates", False),),
        ).execute().compiled
        _COMPILED[spec_index] = compiled
    return compiled


def _pooled_engine(spec_index: int, preset: str, **kwargs) -> TrajectoryEngine:
    key = (spec_index, preset, tuple(sorted(kwargs.items())))
    engine = _ENGINES.get(key)
    if engine is None:
        engine = TrajectoryEngine(
            _pooled_compiled(spec_index), NoiseSpec.from_preset(preset),
            track_state=True, **kwargs,
        )
        _ENGINES[key] = engine
    return engine


class TestFusedGoldenEquivalence:
    """Fused kernel chunks must equal the scalar reference, bit for bit."""

    @given(
        spec_index=st.integers(0, len(_POOL_SPECS) - 1),
        preset=st.sampled_from(_PRESETS),
        seed=st.one_of(st.integers(0, 2**8), st.integers(0, 2**40)),
        base_shot=st.integers(0, 5000),
        shots=st.integers(0, 48),
        split=st.integers(0, 48),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fused_matches_reference(
        self, spec_index, preset, seed, base_shot, shots, split
    ):
        engine = _pooled_engine(spec_index, preset)
        reference = engine.run_reference(shots, seed, base_shot=base_shot)
        assert engine.run(shots, seed, base_shot=base_shot) == reference
        # any chunk split of the same shot range is bit-invisible
        cut = min(split, shots)
        first = engine.run(cut, seed, base_shot=base_shot)
        second = engine.run(shots - cut, seed, base_shot=base_shot + cut)
        assert first.no_error_shots + second.no_error_shots == reference.no_error_shots
        assert first.gate_events + second.gate_events == reference.gate_events
        assert first.outcome_successes + second.outcome_successes == (
            reference.outcome_successes
        )

    @given(
        spec_index=st.integers(0, len(_POOL_SPECS) - 1),
        seed=st.integers(0, 2**16),
        shots=st.integers(1, 32),
    )
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fused_matches_legacy_op_at_a_time(self, spec_index, seed, shots):
        fused = _pooled_engine(spec_index, "table1")
        legacy = _pooled_engine(spec_index, "table1", use_kernel=False)
        assert fused.run(shots, seed) == legacy.run(shots, seed)

    def test_kraus_idle_policy_fused(self):
        compiled = _pooled_compiled(1)
        spec = TABLE1.with_idle_policy("kraus")
        for use_kernel in (True, False):
            engine = TrajectoryEngine(compiled, spec, track_state=True,
                                      use_kernel=use_kernel)
            assert engine.run(40, seed=9) == engine.run_reference(40, seed=9)

    def test_dynamic_kraus_idle_policy_fused(self):
        compiled = _pooled_compiled(3)
        spec = TABLE1.with_idle_policy("kraus")
        for use_kernel in (True, False):
            engine = TrajectoryEngine(compiled, spec, track_state=True,
                                      use_kernel=use_kernel)
            assert engine.run(40, seed=9) == engine.run_reference(40, seed=9)

    def test_block_split_is_invisible(self, monkeypatch):
        engine = _pooled_engine(0, "table1")
        whole = engine.run(60, seed=3)
        monkeypatch.setattr(trajectory_module, "TRACKED_BLOCK_AMPLITUDES",
                            engine.dimension * 5)
        blocked = TrajectoryEngine(
            _pooled_compiled(0), TABLE1, track_state=True
        )
        assert blocked.run(60, seed=3) == whole

    def test_event_path_fused_matches_reference(self):
        compiled = SweepPoint("bv", 6, "eqm").execute().compiled
        fused = TrajectoryEngine(compiled, TABLE1)
        reference = fused.run_reference(300, seed=2)
        assert fused.run(300, seed=2) == reference


class TestKernelCompilation:
    """The compiled program's structure, built by each engine for itself."""

    def test_one_embedding_table_per_engine(self, monkeypatch):
        # the schedule's noise sites and the bare op step apply the very
        # arrays of the engine's one table
        built = []
        original = kernel_module.EmbeddingTable.__init__

        def counting(table, dims):
            built.append(table)
            original(table, dims)

        monkeypatch.setattr(kernel_module.EmbeddingTable, "__init__", counting)
        compiled = TrajectoryBackend().compile_point(SweepPoint(
            "bv", 4, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
        )).compiled
        engine = TrajectoryEngine(compiled, TABLE1, track_state=True)
        assert built == [engine._embeds]
        sites = [
            item for segment in engine._schedule.segments
            if isinstance(segment, FusedRun)
            for item in segment.items if isinstance(item, NoiseSite)
        ]
        assert sites
        for site in sites:
            for entry, bare in zip(site.paulis, engine._embeds.paulis(site.slots)):
                for (matrix, plan), (bare_matrix, units) in zip(entry, bare):
                    assert matrix is bare_matrix
                    assert plan.units == tuple(units)

    def test_all_bare_schedule_stays_off_the_artifact(self):
        compiled = SweepPoint(
            "bv", 4, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
        ).execute().compiled
        bare = TrajectoryEngine(compiled, TABLE1, track_state=True, use_kernel=False)
        assert bare._schedule.segments == tuple(range(len(compiled.ops)))
        fused = TrajectoryEngine(compiled, TABLE1, track_state=True)
        assert fused._schedule is not bare._schedule
        assert bare.run(20, seed=1) == fused.run(20, seed=1)

    def test_static_circuit_compiles_to_one_fused_run(self):
        engine = _pooled_engine(0, "table1")
        schedule = engine._schedule
        assert isinstance(schedule, KernelSchedule)
        assert len(schedule.segments) == 1
        assert isinstance(schedule.segments[0], FusedRun)
        assert schedule.num_ops == len(engine.compiled.ops)

    def test_dynamic_circuit_alternates_runs_and_dynamic_ops(self):
        engine = _pooled_engine(3, "table1")
        segments = engine._schedule.segments
        bare = [s for s in segments if isinstance(s, int)]
        assert bare, "a feed-forward program must keep its dynamic ops bare"
        for index in bare:
            assert engine.compiled.ops[index].is_dynamic
        for segment in segments:
            if isinstance(segment, FusedRun):
                for item in segment.items:
                    assert not engine.compiled.ops[item.op_index].is_dynamic

    def test_build_plan_matches_transform_layouts(self):
        plan = build_plan((2, 2, 2, 2), (1,))
        assert plan.sub_dim == 2 and plan.rest == 8
        assert plan.shape(7) == tuple(
            7 if axis == 0 else (2, 2, 2, 2)[axis - 1] for axis in plan.axes
        )
        narrow = build_plan((2, 2), (0,))
        assert not narrow.wide  # rest == 2 never takes the wide panel
        assert narrow.axes[0] == 0

    def test_event_kernel_counts_match_two_compare_loop(self):
        kernel = build_event_kernel(np.array([0.5, 0.0, 0.25]), np.array([0.125]))
        assert isinstance(kernel, EventKernel)
        draws = np.array([[0.4, 0.1, 0.2, 0.1], [0.6, 0.0, 0.3, 0.2]])
        gate, idle = kernel.count_block(draws)
        assert gate.tolist() == [2, 0]
        assert idle.tolist() == [1, 0]


class TestStackedFallback:
    """A BLAS build that fails the wide-panel probe runs every GEMM stacked.

    Power-of-two registers take the wide panel wherever the probe passes,
    so these tests force the probe's answer to False and rebuild every
    plan from scratch to run the configuration such a build would run.
    """

    @pytest.fixture
    def stacked_only(self, monkeypatch):
        build_plan.cache_clear()
        monkeypatch.setattr(batched_module, "_WIDE_PANEL_OK", False)
        yield
        build_plan.cache_clear()

    @staticmethod
    def _plans(schedule):
        for segment in schedule.segments:
            if not isinstance(segment, FusedRun):
                continue
            for item in segment.items:
                if isinstance(item, NoiseSite):
                    yield from (plan for entry in item.paulis for _, plan in entry)
                else:
                    yield item.plan

    @pytest.mark.parametrize("bench,size", [("bv", 6), ("teleport", 3)])
    def test_fused_matches_reference_without_wide_panels(self, stacked_only, bench, size):
        compiled = SweepPoint(
            bench, size, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
        ).execute().compiled
        engine = TrajectoryEngine(compiled, TABLE1, track_state=True)
        assert set(engine.dims) <= {2, 4}
        plans = list(self._plans(engine._schedule))
        assert any(plan.rest > 2 for plan in plans), "no plan would go wide"
        assert not any(plan.wide for plan in plans)
        for base_shot in (0, 40):
            assert engine.run(40, seed=5, base_shot=base_shot) == engine.run_reference(
                40, seed=5, base_shot=base_shot
            )

    def test_batched_lanes_match_scalar_without_wide_panels(self, stacked_only):
        dims = (2, 4, 2, 2)
        rng = np.random.default_rng(11)
        batched = BatchedMixedRadixState(dims, 6)
        scalars = [MixedRadixState(dims) for _ in range(6)]
        for step in range(8):
            units = (step % 4,) if step % 2 else (step % 4, (step + 1) % 4)
            sub = int(np.prod([dims[unit] for unit in units]))
            assert not build_plan(dims, units).wide
            operator = np.linalg.qr(
                rng.standard_normal((sub, sub)) + 1j * rng.standard_normal((sub, sub))
            )[0]
            lanes = np.arange(6) if step % 3 else np.array([1, 4])
            batched.apply(operator, units, lanes=lanes)
            for lane in lanes:
                scalars[lane].apply(operator, units)
        for lane, scalar in zip(batched.vectors(), scalars):
            assert (lane == scalar.vector).all()


class TestFinalVectorStreaming:
    """iter_final_vectors streams; final_vectors stays list-shaped but capped."""

    def test_iterator_matches_list_wrapper(self):
        engine = _pooled_engine(1, "table1")
        streamed = list(engine.iter_final_vectors(25, seed=9))
        listed = engine.final_vectors(25, seed=9)
        assert len(streamed) == len(listed) == 25
        for left, right in zip(streamed, listed):
            assert (left == right).all()

    def test_iterator_is_lazy(self):
        engine = _pooled_engine(1, "table1")
        iterator = engine.iter_final_vectors(10, seed=1)
        assert iter(iterator) is iterator  # a generator, not a list
        first = next(iterator)
        assert first.shape == (engine.dimension,)

    def test_list_wrapper_refuses_unbounded_shots(self):
        engine = _pooled_engine(1, "table1")
        with pytest.raises(ValueError, match="iter_final_vectors"):
            engine.final_vectors(FINAL_VECTORS_MAX_SHOTS + 1, seed=0)
        # the streaming API has no cap: it starts yielding immediately
        stream = engine.iter_final_vectors(FINAL_VECTORS_MAX_SHOTS + 1, seed=0)
        assert next(stream).shape == (engine.dimension,)

    def test_requires_track_state(self):
        compiled = SweepPoint("bv", 4, "eqm").execute().compiled
        engine = TrajectoryEngine(compiled, TABLE1)
        # both checks fire at the call, before any vector is requested
        with pytest.raises(VerificationError):
            engine.iter_final_vectors(3, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            _pooled_engine(1, "table1").iter_final_vectors(-1, seed=0)

    def test_dynamic_vectors_stream_too(self):
        engine = _pooled_engine(3, "table1")
        vectors = list(engine.iter_final_vectors(8, seed=4))
        assert len(vectors) == 8
        for vector in vectors:
            assert vector.shape == (engine.dimension,)
            assert np.isfinite(vector).all()
