"""Tests for the content-addressed artifact store (blobs, refs, manifests)."""

import hashlib
import json
import multiprocessing
import pickle
import sys
import threading
from dataclasses import FrozenInstanceError, dataclass, fields

import pytest

from repro.noise.model import NoiseSpec
from repro.noise.points import shot_plan
from repro.runner import SweepPlan, SweepPoint, execute_point, point_key
from repro.service import SweepService
from repro.store import (
    ArtifactStore,
    MANIFEST_SCHEMA,
    SchemaError,
    build_manifest,
    plan_fingerprint,
    validate,
    validate_manifest,
    wait_for,
)


@dataclass(frozen=True)
class FakePoint:
    """Minimal payload()-bearing point for store-level tests."""

    name: str
    payload_extra: int = 0

    def payload(self) -> dict:
        return {"kind": "fake", "name": self.name, "extra": self.payload_extra}

    def key(self) -> str:
        return point_key(self)

    def execute(self) -> dict:
        return {"name": self.name, "value": self.payload_extra}


def _manifest_for(store: ArtifactStore, *contents: bytes, **overrides) -> dict:
    """A valid manifest whose points reference freshly-written blobs."""
    points = []
    for data in contents:
        digest = store.put_blob(data)
        points.append({"key": "ab" * 32, "blob": digest, "cached": False})
    fields = {
        "kind": "sweep",
        "plan_fp": plan_fingerprint(p["key"] for p in points),
        "code_fp": "cd" * 32,
        "points": points,
        "total_seconds": 0.5,
        "executed": len(points),
        "cache_hits": 0,
        "deduped": 0,
    }
    fields.update(overrides)
    return build_manifest(**fields)


class TestSchemaValidator:
    def test_accepts_the_manifest_schema_itself(self):
        manifest = build_manifest(
            kind="sweep", plan_fp="ab" * 32, code_fp="cd" * 32, points=[],
            total_seconds=0.0, executed=0, cache_hits=0, deduped=0,
        )
        assert validate(manifest, MANIFEST_SCHEMA) is None

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda m: m.update(schema=2), r"\$\.schema"),
        (lambda m: m.update(kind="party"), r"\$\.kind"),
        (lambda m: m.update(plan_fingerprint="xyz"), r"\$\.plan_fingerprint"),
        (lambda m: m.pop("timings"), "missing required property"),
        (lambda m: m.update(surprise=1), "unexpected property"),
        (lambda m: m["timings"].update(executed=-1), "below minimum"),
        (lambda m: m["timings"].update(executed=1.5), "expected integer"),
    ])
    def test_rejects_and_names_the_offending_field(self, mutate, fragment):
        manifest = build_manifest(
            kind="sweep", plan_fp="ab" * 32, code_fp="cd" * 32, points=[],
            total_seconds=0.0, executed=0, cache_hits=0, deduped=0,
        )
        mutate(manifest)
        with pytest.raises(SchemaError, match=fragment):
            validate_manifest(manifest)

    def test_point_entries_are_validated_with_paths(self):
        manifest = build_manifest(
            kind="sweep", plan_fp="ab" * 32, code_fp="cd" * 32,
            points=[{"key": "ab" * 32, "blob": "cd" * 32, "cached": True}],
            total_seconds=0.0, executed=0, cache_hits=1, deduped=0,
        )
        manifest["points"][0]["blob"] = "nope"
        with pytest.raises(SchemaError, match=r"\$\.points\[0\]\.blob"):
            validate_manifest(manifest)

    def test_booleans_are_not_integers(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})
        with pytest.raises(SchemaError):
            validate(True, {"type": "number"})
        assert validate(True, {"type": "boolean"}) is None

    def test_build_manifest_refuses_to_build_invalid(self):
        with pytest.raises(SchemaError):
            build_manifest(
                kind="nonsense", plan_fp="ab" * 32, code_fp="cd" * 32, points=[],
                total_seconds=0.0, executed=0, cache_hits=0, deduped=0,
            )

    def test_plan_fingerprint_is_order_sensitive(self):
        assert plan_fingerprint(["a" * 64, "b" * 64]) != plan_fingerprint(["b" * 64, "a" * 64])


class TestBlobs:
    def test_roundtrip_and_fanout_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_blob(b"hello artifacts")
        assert digest == hashlib.sha256(b"hello artifacts").hexdigest()
        path = store.blob_path(digest)
        assert path.parent.name == digest[:2]
        assert path.parent.parent == store.blobs_dir
        assert store.get_blob(digest) == b"hello artifacts"
        assert store.has_blob(digest)

    def test_put_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.put_blob(b"x") == store.put_blob(b"x")
        assert store.stats().blobs == 1

    def test_tampered_blob_reads_as_miss_and_is_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_blob(b"good content")
        store.blob_path(digest).write_bytes(b"evil content")
        assert store.get_blob(digest) is None
        assert not store.blob_path(digest).exists()

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_blob(b"a")
        store.put_ref("ab" * 32, "cd" * 32)
        store.write_manifest(_manifest_for(store, b"b"))
        assert not [p for p in tmp_path.rglob("*") if ".tmp." in p.name]


class TestRefsAndObjects:
    def test_object_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_object("ab" * 32, {"answer": 42}, payload={"q": 1})
        assert store.get_object("ab" * 32) == {"answer": 42}
        ref = store.get_ref("ab" * 32)
        assert ref["blob"] == digest
        assert ref["payload"] == {"q": 1}

    def test_corrupt_ref_is_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_object("ab" * 32, 1)
        store.ref_path("ab" * 32).write_text("{not json")
        assert store.get_object("ab" * 32) is None
        assert not store.ref_path("ab" * 32).exists()

    def test_dangling_ref_is_a_miss_and_cleaned(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_object("ab" * 32, 1)
        store.blob_path(digest).unlink()
        assert store.get_object("ab" * 32) is None
        assert not store.ref_path("ab" * 32).exists()

    def test_truncated_blob_is_a_miss_not_a_crash(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_object("ab" * 32, list(range(1000)))
        path = store.blob_path(digest)
        path.write_bytes(path.read_bytes()[:17])
        assert store.get_object("ab" * 32) is None


class TestManifests:
    def test_write_read_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        manifest = _manifest_for(store, b"result-bytes")
        path = store.write_manifest(manifest)
        assert path.exists()
        assert store.read_manifest(manifest["manifest_id"]) == manifest
        assert store.manifest_ids() == [manifest["manifest_id"]]

    def test_invalid_manifest_refused_at_write(self, tmp_path):
        store = ArtifactStore(tmp_path)
        manifest = _manifest_for(store, b"data")
        manifest["kind"] = "nonsense"
        with pytest.raises(SchemaError):
            store.write_manifest(manifest)


class TestVerify:
    def test_clean_store_verifies(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_object("ab" * 32, {"v": 1}, payload={"p": 1})
        store.write_manifest(_manifest_for(store, b"one", b"two"))
        report = store.verify()
        assert report.ok
        assert report.checked_blobs == 3
        assert report.checked_refs == 1
        assert report.checked_manifests == 1

    @pytest.mark.parametrize("corrupt, kind", [
        (lambda s: s.blob_path(s.put_blob(b"x")).write_bytes(b"y"), "blob-hash-mismatch"),
        (lambda s: s.put_ref("ab" * 32, "cd" * 32), "ref-dangling"),
        (lambda s: s.ref_path("ab" * 32).parent.mkdir(parents=True) or
                   s.ref_path("ab" * 32).write_text("{broken"), "ref-unparseable"),
        (lambda s: (s.blobs_dir / "zz").mkdir() or
                   (s.blobs_dir / "zz" / "not-a-digest").write_bytes(b"?"), "blob-misplaced"),
        (lambda s: s.manifest_path("0" * 16).write_text("{broken"), "manifest-unparseable"),
        (lambda s: s.manifest_path("0" * 16).write_text('{"schema": 99}'), "manifest-schema"),
    ])
    def test_each_corruption_kind_is_reported(self, tmp_path, corrupt, kind):
        store = ArtifactStore(tmp_path)
        corrupt(store)
        report = store.verify()
        assert not report.ok
        assert {issue["kind"] for issue in report.issues} == {kind}

    def test_manifest_referencing_missing_blob_fails_verify(self, tmp_path):
        store = ArtifactStore(tmp_path)
        manifest = _manifest_for(store, b"soon gone")
        store.write_manifest(manifest)
        store.blob_path(manifest["points"][0]["blob"]).unlink()
        report = store.verify()
        assert [issue["kind"] for issue in report.issues] == ["manifest-dangling"]


class TestGC:
    def test_orphan_blobs_are_collected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_blob(b"orphan")
        report = store.gc()
        assert report.removed_blobs == 1
        assert report.reclaimed_bytes == len(b"orphan")
        assert store.stats().blobs == 0

    def test_ref_referenced_blob_survives(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_object("ab" * 32, {"keep": True})
        report = store.gc()
        assert report.removed_blobs == 0
        assert report.kept_blobs == 1
        assert store.get_object("ab" * 32) == {"keep": True}

    def test_manifest_referenced_blob_is_never_collected(self, tmp_path):
        # The satellite guarantee: gc must not eat a blob only a manifest
        # (no ref) still points at.
        store = ArtifactStore(tmp_path)
        manifest = _manifest_for(store, b"manifest-only")
        store.write_manifest(manifest)
        digest = manifest["points"][0]["blob"]
        assert store.get_ref("ab" * 32) is None or True  # no ref for this key
        report = store.gc()
        assert report.removed_blobs == 0
        assert store.has_blob(digest)
        assert store.verify().ok

    def test_stale_temp_files_are_swept(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_blob(b"kept")
        store.put_ref("ab" * 32, digest)
        (store.blobs_dir / digest[:2] / "x.tmp.123").write_bytes(b"torn")
        (store.refs_dir / "ab" / "y.json.tmp.9").write_bytes(b"torn")
        report = store.gc()
        assert report.removed_temp_files == 2
        assert store.has_blob(digest)

    def test_clear_empties_everything(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_object("ab" * 32, 1)
        store.write_manifest(_manifest_for(store, b"data"))
        (store.refs_dir / "ab" / "y.json.tmp.9").write_bytes(b"torn")
        assert store.clear() == 1
        stats = store.stats()
        assert (stats.blobs, stats.refs, stats.manifests) == (0, 0, 0)
        assert not list(store.refs_dir.glob("*/*"))


# ----------------------------------------------------------------------
# concurrent publication (two real processes, one store)
# ----------------------------------------------------------------------
def _publish_batch(root: str, writer: int, names: list) -> None:
    """Worker body: publish shared and private keys as fast as possible."""
    store = ArtifactStore(root)
    for _ in range(10):
        for name in names:
            point = FakePoint(name=name)
            store.put_object(point_key(point), point.execute(), payload=point.payload())
        store.put_object(
            point_key(FakePoint(name=f"private-{writer}", payload_extra=writer)),
            {"writer": writer},
        )


class TestConcurrentWriters:
    def test_two_processes_same_and_different_keys(self, tmp_path):
        shared = ["alpha", "beta", "gamma"]
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_publish_batch, args=(str(tmp_path), i, shared))
            for i in range(2)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert process.exitcode == 0
        store = ArtifactStore(tmp_path)
        # no torn files: every blob re-hashes, every ref resolves
        report = store.verify()
        assert report.ok, report.as_dict()
        # dedupe observed: 3 shared results + 2 private ones = 5 blobs/refs,
        # however many times the writers raced over them
        stats = store.stats()
        assert stats.refs == 5
        assert stats.blobs == 5
        for name in shared:
            assert store.get_object(point_key(FakePoint(name=name)))["name"] == name
        assert not [p for p in tmp_path.rglob("*") if ".tmp." in p.name]


def _publish(store: ArtifactStore, point, result):
    """Publish ``result`` the way the executor does; return its blob path."""
    return store.blob_path(store.put_object(point_key(point), result, payload=point.payload()))


class TestStoredResults:
    def test_results_live_in_the_store_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        point = SweepPoint("bv", 4, "qubit_only")
        result = execute_point(point)
        blob_path = _publish(store, point, result)
        assert blob_path.is_relative_to(tmp_path / "blobs")
        assert ArtifactStore(tmp_path).verify().ok
        assert store.get_object(point_key(point)).report == result.report

    def test_truncated_blob_is_a_miss_not_an_unpickling_crash(self, tmp_path):
        # Regression for the pre-store result cache: a partial pickle write
        # (crash mid-put) used to be fed straight to pickle.load on the next
        # read.  The store re-hashes on read, so truncation must surface as
        # a plain miss that a later put repairs.
        store = ArtifactStore(tmp_path)
        point = SweepPoint("bv", 4, "qubit_only")
        result = execute_point(point)
        blob_path = _publish(store, point, result)
        blob_path.write_bytes(blob_path.read_bytes()[:64])
        assert store.get_object(point_key(point)) is None
        assert store.misses == 1
        _publish(store, point, result)
        assert store.get_object(point_key(point)).report == result.report

    def test_two_instances_share_one_root(self, tmp_path):
        writer, reader = ArtifactStore(tmp_path), ArtifactStore(tmp_path)
        point = SweepPoint("bv", 4, "qubit_only")
        _publish(writer, point, execute_point(point))
        assert reader.get_object(point_key(point)) is not None
        assert reader.hits == 1

    def test_pickle_protocol_is_stable_for_identical_results(self, tmp_path):
        store = ArtifactStore(tmp_path)
        point = SweepPoint("bv", 4, "qubit_only")
        result = execute_point(point)
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        assert _publish(store, point, result).name == hashlib.sha256(data).hexdigest()

    def test_blob_bytes_do_not_depend_on_engine_caches(self, tmp_path):
        # A job that simulates a point before publishing it must store the
        # same bytes as a bare compile: engines keep what they derive from
        # a compiled circuit to themselves.
        point = SweepPoint(
            "bv", 4, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
        )
        noise = NoiseSpec.from_preset("table1")
        jobs = {
            "alone": SweepPlan((point,)),
            "event": SweepPlan((point,)) + shot_plan(point, noise, 64, chunk_size=32),
            "tracked": SweepPlan((point,)) + shot_plan(
                point, noise, 64, chunk_size=32, track_state=True
            ),
        }
        blobs = {}
        for name, plan in jobs.items():
            store = ArtifactStore(tmp_path / name)
            with SweepService(store) as service:
                service.results(service.submit(plan), timeout=120)
            blobs[name] = store.get_ref(point_key(point))["blob"]
            compiled = store.get_object(point_key(point)).compiled
            assert set(vars(compiled)) == {f.name for f in fields(compiled)}, name
        assert blobs["event"] == blobs["alone"]
        assert blobs["tracked"] == blobs["alone"]

    def test_compiled_circuit_carries_only_its_fields(self, tmp_path):
        # every layer that reads a compiled circuit leaves it as compile
        # returned it: plain frozen data, nothing attached afterwards
        from repro.analysis import verify_compiled
        from repro.metrics.eps import evaluate_eps
        from repro.noise import TrajectoryEngine

        point = SweepPoint(
            "teleport", 3, "eqm", compiler_kwargs=(("merge_single_qubit_gates", False),)
        )
        result = execute_point(point)
        compiled = result.compiled
        names = {f.name for f in fields(compiled)}
        assert set(vars(compiled)) == names
        evaluate_eps(compiled)
        assert verify_compiled(compiled).ok
        noise = NoiseSpec.from_preset("table1")
        TrajectoryEngine(compiled, noise).run(16, seed=1)
        TrajectoryEngine(compiled, noise, track_state=True).run(16, seed=1)
        _publish(ArtifactStore(tmp_path), point, result)
        assert set(vars(compiled)) == names
        with pytest.raises(FrozenInstanceError):
            compiled.ops = []

    def test_hit_and_miss_counts_are_exact_across_threads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_object("ab" * 32, {"hit": True})
        rounds, threads = 200, 8

        def reader():
            for _ in range(rounds):
                store.get_object("ab" * 32)
                store.get_object("cd" * 32)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=reader) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert (store.hits, store.misses) == (rounds * threads, rounds * threads)


class TestWaitFor:
    def test_returns_truthy_value(self):
        assert wait_for(lambda: "ready", timeout=1.0) == "ready"

    def test_times_out(self):
        with pytest.raises(TimeoutError, match="nothing"):
            wait_for(lambda: False, timeout=0.05, poll=0.01, message="nothing")


class TestRefDocumentFormat:
    def test_ref_document_is_audit_friendly_json(self, tmp_path):
        store = ArtifactStore(tmp_path)
        point = FakePoint(name="audit")
        key = point_key(point)
        store.put_object(key, point.execute(), payload=point.payload())
        document = json.loads(store.ref_path(key).read_text())
        assert document["key"] == key
        assert document["payload"]["name"] == "audit"
