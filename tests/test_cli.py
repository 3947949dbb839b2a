"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_compile_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["compile", "--benchmark", "cuccaro", "--qubits", "10", "--strategy", "rb"]
        )
        assert args.command == "compile"
        assert args.benchmark == "cuccaro"
        assert args.qubits == 10
        assert args.strategy == "rb"
        assert args.device == "grid"

    def test_unknown_benchmark_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["compile", "--benchmark", "nope", "--qubits", "10"])

    def test_benchmark_and_qasm_are_exclusive(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["compile", "--benchmark", "bv", "--qasm", "x.qasm"])
        with pytest.raises(SystemExit):
            parser.parse_args(["compile"])

    def test_qasm_arguments(self):
        args = build_parser().parse_args(
            ["compile", "--qasm", "file.qasm", "--emit-qasm", "out.qasm"]
        )
        assert args.qasm == "file.qasm"
        assert args.emit_qasm == "out.qasm"
        assert args.benchmark is None

    def test_new_workload_families_accepted(self):
        args = build_parser().parse_args(
            ["sweep", "--benchmarks", "qft", "ghz", "random_clifford_t", "--sizes", "8"]
        )
        assert args.benchmarks == ["qft", "ghz", "random_clifford_t"]

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.benchmarks == ["cuccaro", "cnu"]
        assert args.strategies == ["qubit_only", "eqm", "rb"]
        assert args.workers == 1
        assert args.cache_dir is None

    def test_sweep_runner_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--workers", "4", "--cache-dir", "/tmp/c", "--json", "out.json"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"
        assert args.json_output == "out.json"

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "--benchmark", "bv", "--qubits", "6",
             "--shots", "500", "--noise", "pessimistic", "--track-state"]
        )
        assert args.command == "simulate"
        assert args.shots == 500
        assert args.noise == "pessimistic"
        assert args.track_state

    def test_simulate_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--shots", "10"])

    def test_simulate_unknown_noise_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--benchmark", "bv", "--qubits", "4", "--noise", "nope"]
            )

    def test_validate_eps_defaults(self):
        args = build_parser().parse_args(["validate-eps"])
        assert args.command == "validate-eps"
        # None = "use the documented default"; lets --smoke detect conflicts
        assert args.benchmarks is None
        assert args.sizes is None
        assert args.shots is None
        assert args.noise == "table1"
        assert not args.smoke


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "cx2" in output
        assert "251" in output
        assert "swap4" in output

    def test_compile_reports_eps(self, capsys):
        code = main(["compile", "--benchmark", "bv", "--qubits", "8",
                     "--strategy", "eqm", "--show-gates"])
        assert code == 0
        output = capsys.readouterr().out
        assert "gate EPS" in output
        assert "total EPS" in output
        assert "gate type" in output

    def test_sweep_writes_csv(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--benchmarks", "bv", "--sizes", "6",
            "--strategies", "qubit_only", "eqm", "--output", str(target),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "qubit_only" in output
        assert target.exists()
        lines = target.read_text().splitlines()
        assert lines[0].startswith("benchmark")
        assert len(lines) == 3  # header + two strategies

    def test_figure_fig4(self, capsys, tmp_path):
        target = tmp_path / "fig4.csv"
        code = main(["figure", "--name", "fig4", "--output", str(target)])
        assert code == 0
        output = capsys.readouterr().out
        assert "qubit_only" in output
        assert target.exists()

    def test_figure_fig3(self, capsys):
        assert main(["figure", "--name", "fig3"]) == 0
        output = capsys.readouterr().out
        assert "cx0q" in output

    def test_sweep_parallel_json_and_cache(self, capsys, tmp_path):
        import json

        target = tmp_path / "sweep.json"
        cache_dir = tmp_path / "cache"
        argv = ["sweep", "--benchmarks", "bv", "--sizes", "6",
                "--strategies", "qubit_only", "eqm",
                "--workers", "2", "--cache-dir", str(cache_dir),
                "--json", str(target)]
        assert main(argv) == 0
        first = json.loads(target.read_text())
        assert first["schema"] == 2
        assert len(first["rows"]) == 2
        assert first["rows"][0]["benchmark"] == "bv"
        assert {row["strategy"] for row in first["rows"]} == {"qubit_only", "eqm"}
        assert first["cache"] == {"enabled": True, "hits": 0, "misses": 2}
        capsys.readouterr()

        # second run must be fully cache-served and row-identical
        assert main(argv) == 0
        capsys.readouterr()
        second = json.loads(target.read_text())
        assert second["cache"] == {"enabled": True, "hits": 2, "misses": 0}
        assert second["rows"] == first["rows"]

    def test_sweep_json_without_cache(self, capsys, tmp_path):
        import json

        target = tmp_path / "sweep.json"
        assert main(["sweep", "--benchmarks", "ghz", "--sizes", "6",
                     "--strategies", "qubit_only", "--json", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["cache"] == {"enabled": False, "hits": 0, "misses": 0}
        assert len(data["rows"]) == 1

    def test_compile_qasm_file(self, capsys, tmp_path):
        source = tmp_path / "bell.qasm"
        source.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        assert main(["compile", "--qasm", str(source)]) == 0
        output = capsys.readouterr().out
        assert "bell" in output
        assert "total EPS" in output

    def test_compile_qasm_emit_roundtrip(self, capsys, tmp_path):
        source = tmp_path / "ghz3.qasm"
        source.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
        )
        routed = tmp_path / "routed.qasm"
        assert main(["compile", "--qasm", str(source),
                     "--emit-qasm", str(routed)]) == 0
        text = routed.read_text()
        assert "OPENQASM 2.0;" in text
        assert "qreg u[" in text
        assert "// t=" in text

    def test_compile_qasm_missing_file(self, capsys):
        assert main(["compile", "--qasm", "/nonexistent/x.qasm"]) == 2
        assert "cannot compile" in capsys.readouterr().err

    def test_compile_qasm_bad_program(self, capsys, tmp_path):
        source = tmp_path / "bad.qasm"
        source.write_text("OPENQASM 2.0;\nqreg q[1];\nif (c==0) x q[0];\n")
        assert main(["compile", "--qasm", str(source)]) == 2
        message = capsys.readouterr().err
        assert "unknown classical register" in message
        assert "line 3, column 5" in message

    def test_compile_benchmark_requires_qubits(self, capsys):
        assert main(["compile", "--benchmark", "bv"]) == 2
        assert "--qubits" in capsys.readouterr().err

    def test_compile_new_family(self, capsys):
        assert main(["compile", "--benchmark", "qft", "--qubits", "6"]) == 0
        assert "qft-6" in capsys.readouterr().out

    def test_compile_qasm_is_cacheable(self, capsys, tmp_path):
        source = tmp_path / "bell.qasm"
        source.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        cache_dir = tmp_path / "cache"
        argv = ["compile", "--qasm", str(source), "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache: 0 hits, 1 misses" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache: 1 hits, 0 misses" in second
        # identical EPS lines whether compiled or cache-served
        assert [line for line in first.splitlines() if "EPS" in line] == [
            line for line in second.splitlines() if "EPS" in line
        ]

    def test_compile_qasm_cache_invalidates_on_edit(self, capsys, tmp_path):
        source = tmp_path / "bell.qasm"
        source.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        cache_dir = tmp_path / "cache"
        argv = ["compile", "--qasm", str(source), "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        source.write_text(source.read_text() + "x q[1];\n")
        assert main(argv) == 0
        assert "cache: 0 hits, 1 misses" in capsys.readouterr().out

    def test_simulate_benchmark(self, capsys):
        code = main(["simulate", "--benchmark", "bv", "--qubits", "4",
                     "--strategy", "eqm", "--shots", "200"])
        assert code == 0
        output = capsys.readouterr().out
        assert "analytic EPS" in output
        assert "simulated success" in output
        assert "95% CI low" in output

    def test_simulate_track_state(self, capsys):
        code = main(["simulate", "--benchmark", "ghz", "--qubits", "3",
                     "--shots", "100", "--strategy", "qubit_only", "--track-state"])
        assert code == 0
        output = capsys.readouterr().out
        assert "outcome success" in output
        assert "mean outcome fidelity" in output

    def test_simulate_track_state_covers_fq(self, capsys):
        # FQ encode/decode semantics are modelled since PR 4
        code = main(["simulate", "--benchmark", "ghz", "--qubits", "3",
                     "--shots", "10", "--strategy", "fq", "--track-state"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome success" in out

    def test_simulate_qasm(self, capsys, tmp_path):
        source = tmp_path / "bell.qasm"
        source.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        assert main(["simulate", "--qasm", str(source), "--shots", "100"]) == 0
        assert "bell" in capsys.readouterr().out

    def test_validate_eps_smoke_writes_json(self, capsys, tmp_path):
        target = tmp_path / "validate.json"
        code = main(["validate-eps", "--smoke", "--json", str(target)])
        assert code == 0
        output = capsys.readouterr().out
        assert "all 4 cells validated" in output
        data = json.loads(target.read_text())
        assert data["schema"] == 1
        assert data["validated"] is True
        assert len(data["rows"]) == 4
        assert all(row["validated"] is True for row in data["rows"])
        assert all(isinstance(row["rel_error"], float) for row in data["rows"])

    def test_validate_eps_smoke_rejects_explicit_flags(self, capsys):
        code = main(["validate-eps", "--smoke", "--shots", "500"])
        assert code == 2
        assert "--smoke fixes" in capsys.readouterr().err

    def test_validate_eps_workers_identical_json(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["validate-eps", "--smoke", "--json", str(serial)]) == 0
        assert main(["validate-eps", "--smoke", "--workers", "2",
                     "--json", str(parallel)]) == 0
        capsys.readouterr()
        assert json.loads(serial.read_text()) == json.loads(parallel.read_text())

    def test_cache_info_and_clear(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        main(["sweep", "--benchmarks", "bv", "--sizes", "6",
              "--strategies", "qubit_only", "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["store", "stats", "--dir", str(cache_dir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["refs"] == 1
        assert main(["store", "clear", "--dir", str(cache_dir)]) == 0
        assert "removed 1 stored results" in capsys.readouterr().out
        assert main(["store", "stats", "--dir", str(cache_dir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["refs"] == 0

    def test_store_actions_refuse_a_missing_root(self, capsys, tmp_path):
        missing = tmp_path / "typo"
        for action in ("stats", "verify", "gc", "clear"):
            assert main(["store", action, "--dir", str(missing), "--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "no artifact store" in captured.err
        assert not missing.exists()


class TestValidateEpsShotGuard:
    def test_zero_shots_is_a_clean_error(self, capsys):
        code = main(["validate-eps", "--shots", "0"])
        assert code == 2
        assert "--shots must be positive" in capsys.readouterr().err


class TestStoreServiceVerbs:
    def _submit(self, spool, store, extra=()):
        return main([
            "submit", "--benchmarks", "bv", "--sizes", "4",
            "--strategies", "qubit_only", "--spool", str(spool),
            "--store", str(store), *extra,
        ])

    def test_submit_serve_once_and_store_verbs(self, capsys, tmp_path):
        spool, store = tmp_path / "spool", tmp_path / "store"
        assert self._submit(spool, store, extra=("--quiet",)) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id

        assert main(["serve", "--spool", str(spool), "--store", str(store),
                     "--once"]) == 0
        output = capsys.readouterr().out
        assert f"job {job_id}: done" in output
        assert "served 1 jobs" in output

        # warm second submission is fully store-served and prints the table
        assert self._submit(spool, store) == 0
        capsys.readouterr()
        assert main(["serve", "--spool", str(spool), "--store", str(store),
                     "--once"]) == 0
        assert "1 store hits, 0 executed" in capsys.readouterr().out

        assert main(["store", "verify", "--dir", str(store), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["issues"] == []
        assert report["checked"]["manifests"] == 2

        assert main(["store", "stats", "--dir", str(store), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["blobs"] == 1  # identical point dedupes to one blob
        assert stats["manifests"] == 2

        assert main(["store", "gc", "--dir", str(store)]) == 0
        assert "kept 1 referenced blobs" in capsys.readouterr().out

    def test_submit_wait_against_a_preserved_backlog(self, capsys, tmp_path):
        # serve first, then --wait returns immediately from the status file
        spool, store = tmp_path / "spool", tmp_path / "store"
        assert self._submit(spool, store, extra=("--quiet",)) == 0
        capsys.readouterr()
        assert main(["serve", "--spool", str(spool), "--store", str(store),
                     "--once"]) == 0
        capsys.readouterr()
        assert self._submit(spool, store, extra=("--quiet",)) == 0
        capsys.readouterr()
        assert main(["serve", "--spool", str(spool), "--store", str(store),
                     "--once"]) == 0
        capsys.readouterr()
        assert self._submit(spool, store) == 0
        out = capsys.readouterr().out
        assert "spooled at" in out

    def test_submit_wait_times_out_without_a_server(self, capsys, tmp_path):
        spool, store = tmp_path / "spool", tmp_path / "store"
        code = self._submit(spool, store,
                            extra=("--wait", "--timeout", "0.2", "--quiet"))
        assert code == 1
        assert "is a server running?" in capsys.readouterr().err

    def test_store_verify_fails_on_corruption(self, capsys, tmp_path):
        spool, store = tmp_path / "spool", tmp_path / "store"
        assert self._submit(spool, store, extra=("--quiet",)) == 0
        assert main(["serve", "--spool", str(spool), "--store", str(store),
                     "--once"]) == 0
        capsys.readouterr()
        blob = next(p for p in (store / "blobs").rglob("*") if p.is_file())
        blob.write_bytes(b"corrupted")
        assert main(["store", "verify", "--dir", str(store), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(i["kind"] == "blob-hash-mismatch" for i in report["issues"])

    def test_submit_wait_prints_the_result_table(self, capsys, tmp_path):
        import threading
        import time

        from repro.service import serve_once
        from repro.store import ArtifactStore

        spool, store = tmp_path / "spool", tmp_path / "store"

        def server():
            jobs = spool / "jobs"
            for _ in range(600):
                if jobs.exists() and any(jobs.glob("*.json")):
                    serve_once(spool, ArtifactStore(store))
                    return
                time.sleep(0.05)

        thread = threading.Thread(target=server)
        thread.start()
        try:
            code = self._submit(spool, store, extra=("--wait",))
        finally:
            thread.join()
        assert code == 0
        out = capsys.readouterr().out
        assert "store hits" in out
        assert "total_eps" in out  # the sweep table header
        assert "\nbv" in out      # one row per point


class TestBackendCLI:
    """The --backend flag and the crosscheck command."""

    def test_backend_choices_come_from_the_registry(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--benchmarks", "bv", "--sizes", "4",
                                  "--backend", "replay"])
        assert args.backend == "replay"
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--benchmarks", "bv", "--sizes", "4",
                               "--backend", "nope"])

    def test_replay_sweep_serves_a_warm_cache(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        target = tmp_path / "sweep.json"
        cache_dir = tmp_path / "cache"
        base = ["sweep", "--benchmarks", "bv", "--sizes", "4",
                "--strategies", "qubit_only", "eqm",
                "--cache-dir", str(cache_dir), "--json", str(target)]
        assert main(base) == 0
        warm = json.loads(target.read_text())
        capsys.readouterr()

        assert main(base + ["--backend", "replay"]) == 0
        capsys.readouterr()
        replayed = json.loads(target.read_text())
        assert replayed["backend"] == "replay"
        assert replayed["cache"] == {"enabled": True, "hits": 2, "misses": 0}
        assert replayed["rows"] == warm["rows"]

    def test_cold_replay_fails_with_a_clean_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["sweep", "--benchmarks", "bv", "--sizes", "4",
                     "--strategies", "qubit_only",
                     "--cache-dir", str(tmp_path / "empty"),
                     "--backend", "replay"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no stored result" in err
        assert "Traceback" not in err

    def test_crosscheck_smoke(self, capsys, tmp_path):
        import json

        target = tmp_path / "crosscheck.json"
        assert main(["crosscheck", "--benchmarks", "bv", "--sizes", "4",
                     "--strategies", "qubit_only", "--shots", "400",
                     "--json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "agree" in out
        data = json.loads(target.read_text())
        assert data["agree"] is True
        assert data["backends"] == ["trajectory", "external-sim"]
        assert len(data["rows"]) == 1
        assert set(data["rows"][0]["eps"]) == {"trajectory", "external-sim"}

    def test_crosscheck_rejects_single_backend(self, capsys):
        assert main(["crosscheck", "--backends", "trajectory",
                     "--shots", "100"]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_crosscheck_rejects_non_positive_shots(self, capsys):
        assert main(["crosscheck", "--shots", "0"]) == 2
        assert "positive" in capsys.readouterr().err
