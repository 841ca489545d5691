"""CLI: every command runs and produces the expected artifacts."""

import pytest

import pathlib
import threading
import time

from repro.cli import build_parser, main


@pytest.fixture
def start_ingest(tmp_path):
    """``repro ingest --serve-jobs 1`` on a thread this fixture owns.

    Yields ``(server_thread, host, port)`` once the gateway is up.
    Teardown serves the one job ``--serve-jobs`` waits for if the body
    did not (it failed first, or never meant to), joins the thread and
    fails if it is still alive — a server cannot outlive its test and
    park the interpreter in ``threading._shutdown``.
    """
    from repro.net import GatewayError, StreamClient

    ready = tmp_path / "ready"
    server = threading.Thread(daemon=True, target=main, args=([
        "ingest", "--serve-jobs", "1", "--workers", "2",
        "--ready-file", str(ready),
    ],))
    server.start()
    deadline = time.monotonic() + 30.0
    while not ready.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert ready.exists(), "gateway never came up"
    host, port = ready.read_text().split()
    yield server, host, port
    try:
        with StreamClient(host, int(port)) as client:
            served = sum(client.stats()["jobs"][state] for state in
                         ("completed", "failed", "cancelled"))
        if not served:
            main(["submit", "--connect", f"{host}:{port}",
                  "--app", "histo", "--tuples", "200"])
    except (OSError, GatewayError):
        pass  # the gateway is already closing; the join below decides
    finally:
        server.join(timeout=60.0)
        assert not server.is_alive(), "`repro ingest` outlived its test"


@pytest.fixture
def start_ingest_after_spy(tmp_path, monkeypatch, request):
    """Spy on file writes, then start ``repro ingest``; yields what the
    ready path held (None when absent) each time a write had created
    its file but not yet filled it."""
    ready = tmp_path / "ready"
    seen = []
    write_text = pathlib.Path.write_text

    def stalled_write(path, text, *args, **kwargs):
        path.touch()  # created, contents still to come
        seen.append(ready.read_text() if ready.exists() else None)
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", stalled_write)
    request.getfixturevalue("start_ingest")
    yield seen


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--app", "nope"])

    @pytest.mark.parametrize("command", ("serve", "submit"))
    def test_transport_flag_is_gone(self, command, capsys):
        # The process backend has one shard path, so there is no knob.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--backend", "process", "--transport", "shm"])
        assert "--transport" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("serve", "submit", "ingest"))
    def test_engine_flag_is_gone(self, command, capsys):
        # Serving runs the fast engine only; the cycle engine is the
        # tests' oracle (tests/oracle.py), not a serving mode.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--engine", "cycle"])
        assert "--engine" in capsys.readouterr().err


class TestExperiment:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        for name in ["fig2a", "fig2b", "table2", "fig7", "table3",
                     "fig8", "fig9"]:
            assert name in out

    def test_unknown_name_fails_cleanly(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig2b_runs(self, capsys):
        assert main(["experiment", "fig2b"]) == 0
        assert "Fig.2b" in capsys.readouterr().out

    def test_fig9_runs(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        assert "Fig.9" in capsys.readouterr().out


class TestSimulate:
    def test_verified_run(self, capsys):
        code = main([
            "simulate", "--app", "histo", "--alpha", "2.0",
            "--tuples", "6000", "--secpes", "4", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified       : OK" in out
        assert "16P+4S" in out

    def test_partition_app(self, capsys):
        code = main([
            "simulate", "--app", "dp", "--alpha", "1.0",
            "--tuples", "4000", "--verify",
        ])
        assert code == 0
        assert "verified       : OK" in capsys.readouterr().out

    def test_hhd_app(self, capsys):
        code = main([
            "simulate", "--app", "hhd", "--alpha", "2.5",
            "--tuples", "4000", "--secpes", "2",
        ])
        assert code == 0


class TestGenerateSelectCodegen:
    def test_generate_prints_full_set(self, capsys):
        assert main(["generate", "--app", "hll"]) == 0
        out = capsys.readouterr().out
        assert "16P+15S" in out
        assert "distinct capacity" in out

    def test_select_reports_required_secpes(self, capsys):
        code = main([
            "select", "--app", "histo", "--alpha", "3.0",
            "--tuples", "60000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "required SecPEs" in out
        assert "selected" in out

    def test_codegen_writes_files(self, tmp_path, capsys):
        code = main([
            "codegen", "--app", "histo", "--secpes", "1",
            "--output", str(tmp_path),
        ])
        assert code == 0
        out_dir = tmp_path / "16P+1S"
        assert (out_dir / "common.h").exists()
        assert (out_dir / "profiler.cl").exists()
        assert "__kernel" in (out_dir / "pe.cl").read_text()


class TestServeSubmit:
    def test_serve_demo_runs_end_to_end(self, capsys):
        code = main([
            "serve", "--demo", "--tuples", "4000", "--workers", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4 jobs" in out
        assert "skew-aware" in out
        assert "fleet throughput" in out
        for app in ("hll", "histo", "hhd", "dp"):
            assert f"app={app}" in out

    def test_serve_round_robin_balancer(self, capsys):
        code = main([
            "serve", "--tuples", "4000", "--balancer", "roundrobin",
        ])
        assert code == 0
        assert "round-robin sharding" in capsys.readouterr().out

    def test_submit_histo_job(self, capsys):
        code = main([
            "submit", "--app", "histo", "--tuples", "4000",
            "--alpha", "2.0", "--priority", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=completed" in out
        assert "Per-worker load" in out

    def test_submit_pagerank_job(self, capsys):
        code = main([
            "submit", "--app", "pagerank", "--tuples", "3000",
            "--alpha", "1.0", "--vertices", "512",
        ])
        assert code == 0
        assert "status=completed" in capsys.readouterr().out

    def test_serve_process_backend(self, capsys):
        code = main([
            "serve", "--demo", "--tuples", "4000", "--workers", "2",
            "--backend", "process",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4 jobs" in out
        assert "process backend" in out

    def test_submit_process_backend(self, capsys):
        code = main([
            "submit", "--app", "histo", "--tuples", "4000",
            "--backend", "process",
        ])
        assert code == 0
        assert "status=completed" in capsys.readouterr().out


class TestNetworkCLI:
    def test_ingest_serves_submit_connect_round_trip(self, start_ingest,
                                                     capsys):
        server, host, port = start_ingest
        code = main([
            "submit", "--connect", f"{host}:{port}", "--app", "histo",
            "--tuples", "4000", "--alpha", "2.0",
        ])
        assert code == 0
        server.join(timeout=60.0)  # the fleet report is printed at exit
        out = capsys.readouterr().out
        assert "status=completed" in out
        assert "over the wire" in out
        assert "gateway" in out  # ingest printed the fleet report

    def test_serve_jobs_exit_waits_for_a_late_result_request(
            self, start_ingest):
        """Regression: once the N-th job turned terminal, the next 50 ms
        poll cut every connection — including the one whose client had
        not asked for its result yet."""
        from repro.net import StreamClient
        from repro.workloads.streams import chunk_stream
        from repro.workloads.zipf import ZipfGenerator

        server, host, port = start_ingest
        batch = ZipfGenerator(alpha=1.5, seed=3).generate(4_000)
        with StreamClient(host, int(port)) as client:
            job_id = client.submit_stream(
                "histo", chunk_stream(batch, 1_000), window_seconds=4e-6)
            while client.poll(job_id)["status"] != "completed":
                time.sleep(0.01)
            time.sleep(0.3)  # several exit polls of cmd_ingest
            result = client.result(job_id)
        assert result.tuples == 4_000
        server.join(timeout=60.0)  # its exit report stays in this test

    def test_ready_file_is_never_seen_empty(self, start_ingest_after_spy):
        """The ready file appears with its contents: each write
        ``repro ingest`` makes is observed after its file is created
        and before its text lands, and the ready path must not exist
        yet at that moment (the fixture then reads it whole)."""
        seen = start_ingest_after_spy
        assert seen, "ingest wrote no file"
        assert all(state is None for state in seen), seen

    def test_connect_rejects_bad_address(self):
        with pytest.raises(SystemExit):
            main(["submit", "--connect", "nonsense"])


class TestTraceCLI:
    def test_serve_captures_and_trace_analyzes(self, tmp_path, capsys):
        capture = tmp_path / "capture.jsonl"
        code = main([
            "serve", "--demo", "--tuples", "4000", "--workers", "2",
            "--adaptive", "--trace", str(capture),
        ])
        assert code == 0
        assert "trace: wrote" in capsys.readouterr().out
        assert capture.exists()

        code = main(["trace", str(capture), "--tail", "2",
                     "--decisions"])
        assert code == 0
        out = capsys.readouterr().out
        assert "events from" in out
        assert '"kind"' in out  # tailed raw JSON
        assert "queue p50/p95 (tup)" in out  # stage breakdown header
        assert "control decisions" in out

    def test_trace_tenant_and_kind_filters(self, tmp_path, capsys):
        capture = tmp_path / "capture.jsonl"
        main(["serve", "--demo", "--tuples", "4000", "--workers", "2",
              "--trace", str(capture)])
        capsys.readouterr()
        code = main(["trace", str(capture), "--tenant", "batch",
                     "--kind", "job."])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch" in out
        assert "interactive" not in out

    def test_trace_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_stats_fetches_prometheus_from_gateway(self, start_ingest,
                                                   capsys):
        _, host, port = start_ingest
        code = main(["stats", "--connect", f"{host}:{port}",
                     "--format", "prometheus"])
        assert code == 0
        out = capsys.readouterr().out
        # The ingest thread's startup banner shares the captured
        # stdout; the exposition starts at its first HELP line.
        body = out[out.index("# HELP"):]
        from repro.obs.exposition import parse_prometheus
        assert parse_prometheus(body)
