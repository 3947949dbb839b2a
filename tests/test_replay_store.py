"""Regression tests for replay's store-root contract.

The bug under test: ``ReplayBackend._lookup`` used to hardcode the
process-default cache directory, so library callers against a non-default
store silently missed (or were served another store's artifacts), and the
CLI papered over it by mutating ``os.environ[CACHE_DIR_ENV]``
process-wide.  Now the executor and the sweep service pin replay points
to the caller's store root (:func:`repro.runner.points.pin_store_root`)
— with content keys unchanged and no environment mutation anywhere.
"""

import dataclasses
import json
import os

import pytest

from repro.backends import ReplayMissError, get_backend
from repro.cli import main
from repro.evaluation import validate_eps
from repro.noise import NoisePoint, NoiseSpec, shot_plan
from repro.runner import (
    ParallelExecutor,
    SweepPoint,
    execute_plan,
)
from repro.runner.points import pin_store_root
from repro.service import SweepService
from repro.store import ArtifactStore

TABLE1 = NoiseSpec.from_preset("table1")


def _warm_store(root, *points):
    """Execute ``points`` on their own backend into the store at ``root``."""
    store = ArtifactStore(root)
    return store, execute_plan(list(points), store=store)


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    return dict(os.environ)


class TestPinStoreRoot:
    """The pinning helper: replay points only, content keys untouched."""

    def test_pins_replay_points_without_changing_the_key(self, tmp_path):
        point = SweepPoint("bv", 4, "eqm", backend="replay")
        pinned = pin_store_root(point, tmp_path)
        assert pinned.cache_root == str(tmp_path)
        assert pinned.key() == point.key()
        assert pinned.payload() == point.payload()
        assert "cache_root" not in pinned.payload()

    def test_leaves_non_store_reading_backends_alone(self, tmp_path):
        for backend in ("trajectory", "external-sim"):
            point = SweepPoint("bv", 4, "eqm", backend=backend)
            assert pin_store_root(point, tmp_path) is point
            assert not get_backend(backend).reads_store
        assert get_backend("replay").reads_store

    def test_pins_noise_points_through_the_compile_point(self, tmp_path):
        compile_point = SweepPoint("bv", 4, "eqm", backend="replay")
        noise_point = NoisePoint(compile_point=compile_point, noise=TABLE1,
                                 shots=100, seed=3)
        pinned = pin_store_root(noise_point, tmp_path)
        assert isinstance(pinned, NoisePoint)
        assert pinned.cache_root == str(tmp_path)
        assert pinned.key() == noise_point.key()

    def test_repinning_the_same_root_is_a_noop(self, tmp_path):
        point = SweepPoint("bv", 4, "eqm", backend="replay")
        pinned = pin_store_root(point, tmp_path)
        assert pin_store_root(pinned, tmp_path) is pinned

    def test_spec_round_trips_the_pin(self, tmp_path):
        point = pin_store_root(SweepPoint("bv", 4, "eqm", backend="replay"), tmp_path)
        rebuilt = SweepPoint.from_spec(point.spec())
        assert rebuilt == point


class TestReplayBackendLookup:
    """The backend honours a point's pinned root, falling back to default."""

    def test_pinned_point_serves_from_a_custom_root(self, tmp_path, clean_env,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)  # make the cold default root local
        store_root = tmp_path / "warm"
        point = SweepPoint("bv", 4, "eqm")
        _, [warm] = _warm_store(store_root, point)
        replay = dataclasses.replace(point, backend="replay")
        pinned = pin_store_root(replay, store_root)
        served = pinned.execute()
        assert served.report == warm.report
        # the unpinned twin must miss: the default root is cold
        with pytest.raises(ReplayMissError, match="no stored result"):
            replay.execute()
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_pinned_miss_names_the_pinned_root(self, tmp_path):
        replay = pin_store_root(
            SweepPoint("bv", 4, "eqm", backend="replay"), tmp_path / "nowhere"
        )
        with pytest.raises(ReplayMissError, match="nowhere"):
            replay.execute()

    def test_executor_pins_pending_replay_points(self, tmp_path, clean_env,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        store_root = tmp_path / "warm"
        point = SweepPoint("ghz", 4, "eqm")
        _, [warm] = _warm_store(store_root, point)
        replay = dataclasses.replace(point, backend="replay")
        # drop the executor's own store hit so it must dispatch the
        # point — the pinned lookup inside the backend has to serve it
        class NoHitStore(ArtifactStore):
            def get_object(self, _key):
                return None
        executor = ParallelExecutor(store=NoHitStore(store_root))
        [served] = executor.run([replay])
        assert executor.last_stats.executed == 1
        assert served.report == warm.report
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_shot_chunks_replay_from_a_custom_root(self, tmp_path, clean_env,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        store_root = tmp_path / "warm"
        compile_point = SweepPoint("bv", 4, "eqm")
        store = ArtifactStore(store_root)
        plan = shot_plan(compile_point, TABLE1, 400, seed=7, chunk_size=150)
        chunks = execute_plan(plan, store=store)
        replay_plan = [
            dataclasses.replace(
                p, compile_point=dataclasses.replace(p.compile_point, backend="replay")
            )
            for p in plan
        ]
        executor = ParallelExecutor(store=store)
        replayed = executor.run(replay_plan)
        assert executor.last_stats.executed == 0
        assert executor.last_stats.cache_hits == len(replay_plan)
        assert replayed == chunks


class TestValidateEpsReplay:
    """`validate_eps(backend="replay", store=...)` resolves the caller's store."""

    KWARGS = dict(benchmarks=("bv",), sizes=(4,), strategies=("qubit_only",),
                  shots=600, seed=1)

    def test_replay_against_a_custom_store(self, tmp_path, clean_env, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ArtifactStore(tmp_path / "warm")
        warm = validate_eps(store=store, **self.KWARGS)
        replayed = validate_eps(store=store, backend="replay", **self.KWARGS)
        assert [row.as_dict() for row in replayed] == [row.as_dict() for row in warm]
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_replay_against_a_cold_custom_store_misses(self, tmp_path, clean_env,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        # warm only the *default* root: a cold custom store must miss
        # loudly instead of silently serving the default root's artifacts
        default_store = ArtifactStore(tmp_path / ".repro_cache")
        validate_eps(store=default_store, **self.KWARGS)
        cold = ArtifactStore(tmp_path / "cold")
        with pytest.raises(ReplayMissError, match="cold"):
            validate_eps(store=cold, backend="replay", **self.KWARGS)
        assert "REPRO_CACHE_DIR" not in os.environ


class TestSweepServiceReplay:
    """The service resolves replay against its own store, not the default."""

    def test_replay_job_serves_from_the_service_store(self, tmp_path, clean_env,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ArtifactStore(tmp_path / "service_store")
        service = SweepService(store=store)
        point = SweepPoint("bv", 4, "eqm")
        job = service.submit([point])
        service.wait(job)
        assert service.status(job).state == "done"
        replay = dataclasses.replace(point, backend="replay")
        job2 = service.submit([replay])
        service.wait(job2)
        status = service.status(job2)
        assert status.state == "done"
        assert status.executed == 0
        assert status.cache_hits == 1
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_replay_job_against_an_empty_store_misses_loudly(
        self, tmp_path, clean_env, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        # warm the default root so a store-root leak would silently serve
        point = SweepPoint("bv", 4, "eqm")
        _warm_store(tmp_path / ".repro_cache", point)
        empty = ArtifactStore(tmp_path / "empty_store")
        service = SweepService(store=empty)
        job = service.submit([dataclasses.replace(point, backend="replay")])
        service.wait(job)
        status = service.status(job)
        assert status.state == "failed"
        assert "ReplayMissError" in status.error
        assert "empty_store" in status.error
        assert "REPRO_CACHE_DIR" not in os.environ


class TestReplayCLI:
    """CLI behaviour unchanged — minus the process-wide env mutation."""

    def test_replay_sweep_no_longer_mutates_the_environment(
        self, capsys, tmp_path, clean_env, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "sweep.json"
        cache_dir = tmp_path / "custom_cache"
        base = ["sweep", "--benchmarks", "bv", "--sizes", "4",
                "--strategies", "qubit_only",
                "--cache-dir", str(cache_dir), "--json", str(target)]
        assert main(base) == 0
        warm = json.loads(target.read_text())
        capsys.readouterr()
        assert main(base + ["--backend", "replay"]) == 0
        capsys.readouterr()
        replayed = json.loads(target.read_text())
        assert replayed["rows"] == warm["rows"]
        assert replayed["cache"] == {"enabled": True, "hits": 1, "misses": 0}
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_replay_validate_eps_cli_with_custom_cache_dir(
        self, capsys, tmp_path, clean_env, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cache_dir = tmp_path / "custom_cache"
        base = ["validate-eps", "--smoke", "--cache-dir", str(cache_dir)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--backend", "replay"]) == 0
        out = capsys.readouterr().out
        assert "validated" in out.lower() or "ok" in out.lower()
        assert "REPRO_CACHE_DIR" not in os.environ
