"""Tests for the repro-serve command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import ReservationLedger, SelectionService
from repro.service.cli import build_parser, main
from repro.topology import dumbbell, to_json


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(to_json(dumbbell(4, 4)))
    return str(path)


def write_workload(tmp_path, ops):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(ops))
    return str(path)


class TestParser:
    def test_requires_a_source(self, topo_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args([topo_file])

    def test_demo_and_requests_exclusive(self, topo_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [topo_file, "--demo", "3", "--requests", "w.json"]
            )


class TestDemo:
    def test_demo_text_output(self, topo_file, capsys):
        assert main([topo_file, "--demo", "4", "--cpu", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "admitted" in out
        assert "requests" in out  # metrics block

    def test_demo_json_output(self, topo_file, capsys):
        assert main([
            topo_file, "--demo", "6", "--nodes", "4", "--cpu", "0.6",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["outcomes"]) == 6
        assert payload["metrics"]["requests"] == 6
        statuses = {o["status"] for o in payload["outcomes"]}
        # 8 nodes at 0.6 claim host at most 8 four-node tenants' worth of
        # 0.6-claims = 2 admissions; the rest queue.
        assert "admitted" in statuses and "queued" in statuses

    def test_demo_burst_is_cached(self, topo_file, capsys):
        assert main([
            topo_file, "--demo", "10", "--ttl", "100", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["snapshot_sweeps"] == 1


class TestWorkloadFile:
    def test_request_release_cycle(self, topo_file, tmp_path, capsys):
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "fft", "at": 0, "nodes": 4, "cpu": 0.9},
            {"op": "request", "app": "mri", "at": 1, "nodes": 4, "cpu": 0.9},
            {"op": "request", "app": "air", "at": 2, "nodes": 4, "cpu": 0.9},
            {"op": "release", "app": "fft", "at": 10},
            {"op": "tick", "at": 11},
        ])
        assert main([topo_file, "--requests", workload,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = [
            (o.get("app"), o.get("status")) for o in payload["outcomes"]
        ]
        assert statuses[:4] == [
            ("fft", "admitted"),
            ("mri", "admitted"),
            ("air", "queued"),
            ("fft", "released"),
        ]
        assert payload["metrics"]["admitted_from_queue"] == 1

    def test_renew_op(self, topo_file, tmp_path, capsys):
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "a", "at": 0, "cpu": 0.5},
            {"op": "renew", "app": "a", "at": 30, "nodes": 2},
        ])
        assert main([topo_file, "--requests", workload, "--lease", "60",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcomes"][-1]["status"] == "renewed"
        assert payload["outcomes"][-1]["expires_at"] == pytest.approx(90.0)

    def test_expiry_between_ops(self, topo_file, tmp_path, capsys):
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "a", "at": 0, "cpu": 0.5},
            {"op": "tick", "at": 120},
        ])
        assert main([topo_file, "--requests", workload, "--lease", "60",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The lease lapsed while the clock advanced to the tick op (the
        # advance itself runs expiry), so the metrics record it even
        # though the explicit tick found nothing left to reap.
        assert payload["metrics"]["expired"] == 1
        assert payload["metrics"]["active_reservations"] == 0.0

    def test_out_of_order_ops_rejected(self, topo_file, tmp_path, capsys):
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "a", "at": 10},
            {"op": "release", "app": "a", "at": 5},
        ])
        assert main([topo_file, "--requests", workload]) == 2
        assert "time-ordered" in capsys.readouterr().err

    @pytest.mark.parametrize("at", [float("inf"), float("nan")],
                             ids=["inf", "nan"])
    def test_non_finite_time_rejected(self, topo_file, tmp_path, capsys, at):
        """``json`` reads ``Infinity`` and ``NaN``: an op at such a time
        is refused before the clock moves, so nothing is granted on a
        deadline that never lapses and the state directory holds only
        what came before it."""
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "a", "at": 0, "cpu": 0.2},
            {"op": "tick", "at": at},
            {"op": "request", "app": "b", "cpu": 0.2},
        ])
        state = str(tmp_path / "state")
        assert main([topo_file, "--requests", workload,
                     "--state-dir", state]) == 2
        err = capsys.readouterr().err
        assert "time must be finite" in err and "Traceback" not in err
        assert sorted(ReservationLedger.recover(state).reservations) == ["a"]

    def test_unknown_op_rejected(self, topo_file, tmp_path, capsys):
        workload = write_workload(tmp_path, [{"op": "explode", "app": "a"}])
        assert main([topo_file, "--requests", workload]) == 2
        assert "bad workload" in capsys.readouterr().err

    def test_missing_app_rejected(self, topo_file, tmp_path, capsys):
        workload = write_workload(tmp_path, [{"op": "request"}])
        assert main([topo_file, "--requests", workload]) == 2

    def test_non_array_workload_rejected(self, topo_file, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text('{"op": "request"}')
        assert main([topo_file, "--requests", str(path)]) == 2
        assert "cannot load workload" in capsys.readouterr().err


class TestErrors:
    @pytest.mark.parametrize("flag, value", [
        ("--batch-max", "0"), ("--workers", "0"),
    ])
    def test_out_of_range_flag_returns_2(self, topo_file, capsys, flag,
                                         value):
        args = [topo_file, "--demo", "2", flag, value]
        if flag == "--workers":
            args += ["--shards", "2"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be >= " in err and value in err

    @pytest.mark.parametrize("args", [
        ["--demo", "2", "--shards", "0"], ["--demo", "2", "--shards", "-2"],
        ["--demo", "-3"],
    ])
    def test_out_of_range_size_returns_2(self, topo_file, capsys, args):
        assert main([topo_file, *args]) == 2
        flag, value = args[-2:]
        out, err = capsys.readouterr()
        assert f"error: {flag} must be >= " in err and value in err
        assert out == ""  # nothing ran

    @pytest.mark.parametrize("shards, built", [
        ("1", "selection service"), ("2", "shard router"),
    ])
    def test_construction_error_names_what_was_built(self, topo_file,
                                                     capsys, shards, built):
        assert main([topo_file, "--demo", "2", "--lease", "0",
                     "--shards", shards]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot build the {built}: " in err
        assert "lease_s must be positive" in err
        assert "shard topology" not in err

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_nan_ttl_returns_2(self, topo_file, capsys, shards):
        assert main([topo_file, "--demo", "2", "--ttl", "nan",
                     "--shards", shards]) == 2
        assert "ttl must be a non-negative number: nan" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "-5"])
    def test_metrics_port_out_of_range_returns_2(self, topo_file, tmp_path,
                                                 capsys, port):
        state = tmp_path / "state"
        assert main([topo_file, "--demo", "2", "--state-dir", str(state),
                     "--metrics-port", port]) == 2
        assert "error: cannot bind metrics port" in capsys.readouterr().err
        # The service was closed: the durable run wrote its snapshot.
        assert (state / "snapshot.json").exists()

    def test_missing_topology_returns_2(self, capsys):
        assert main(["/nonexistent.json", "--demo", "1"]) == 2
        assert "cannot load topology" in capsys.readouterr().err


class TestProfile:
    def test_profile_text_prints_stage_latencies(self, topo_file, capsys):
        assert main([topo_file, "--demo", "4", "--cpu", "0.4",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stage latencies" in out
        for stage in ("snapshot_fetch", "residual_view", "select",
                      "claim_verify", "ledger_commit"):
            assert stage in out

    def test_profile_json_nests_stage_histograms(self, topo_file, capsys):
        assert main([topo_file, "--demo", "4", "--cpu", "0.4",
                     "--format", "json", "--profile"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stages = payload["metrics"]["stages"]
        assert stages["select"]["count"] >= 4
        for key in ("mean_us", "p50_us", "p95_us", "p99_us"):
            assert stages["select"][key] >= 0.0

    def test_stages_omitted_without_profile(self, topo_file, capsys):
        assert main([topo_file, "--demo", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stages" not in payload["metrics"]
        assert main([topo_file, "--demo", "2"]) == 0
        assert "stage latencies" not in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_out_writes_jsonl(self, topo_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([topo_file, "--demo", "3", "--cpu", "0.3",
                     "--trace-out", str(trace_path)]) == 0
        err = capsys.readouterr().err
        assert "spans" in err
        lines = trace_path.read_text().splitlines()
        assert len(lines) >= 3
        names = {json.loads(line)["name"] for line in lines}
        assert "service.request" in names
        assert "stage.select" in names

    def test_dump_metrics_writes_valid_exposition(
        self, topo_file, tmp_path, capsys,
    ):
        from repro.obs import validate_exposition
        dump_path = tmp_path / "metrics.prom"
        assert main([topo_file, "--demo", "3", "--cpu", "0.3",
                     "--dump-metrics", str(dump_path)]) == 0
        text = dump_path.read_text()
        assert validate_exposition(text) == []
        assert "repro_service_requests_total 3" in text

    def test_dump_metrics_stdout(self, topo_file, capsys):
        assert main([topo_file, "--demo", "2", "--format", "json",
                     "--dump-metrics", "-"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in out

    def test_metrics_port_serves_exposition(self, topo_file, capsys):
        import urllib.request
        from repro.obs import MetricsRegistry, validate_exposition
        from repro.service.cli import serve_metrics

        registry = MetricsRegistry()
        registry.counter("repro_service_requests_total", "Requests.").inc(5)
        server = serve_metrics(registry, 0)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics"
            ) as resp:
                assert resp.status == 200
                assert "version=0.0.4" in resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            assert validate_exposition(body) == []
            assert "repro_service_requests_total 5" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://127.0.0.1:{port}/other")
        finally:
            server.shutdown()
            server.server_close()


class TestDurability:
    def test_state_dir_survives_a_restart(self, topo_file, tmp_path, capsys):
        state = str(tmp_path / "state")
        ops = [
            {"op": "request", "app": "fft", "at": 0, "nodes": 2,
             "cpu": 0.3, "bw_mbps": 5},
            {"op": "request", "app": "sor", "at": 1, "nodes": 2,
             "cpu": 0.3},
            {"op": "release", "app": "sor", "at": 2},
        ]
        workload = write_workload(tmp_path, ops)
        assert main([topo_file, "--requests", workload,
                     "--lease", "1000", "--state-dir", state]) == 0
        capsys.readouterr()
        # Restart over the same state dir: the lease is still held, so a
        # conflicting claim on the same capacity must queue.
        assert main([topo_file, "--demo", "0", "--state-dir", state,
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert "recovered 1 leases from WAL" in captured.err
        payload = json.loads(captured.out)
        assert payload["metrics"]["active_reservations"] == 1.0

    def test_corrupt_wal_exits_2_without_traceback(
        self, topo_file, tmp_path, capsys,
    ):
        state = tmp_path / "state"
        state.mkdir()
        (state / "wal.jsonl").write_text(
            'not json at all\n{"seq":2,"kind":"release","app":"x"}\n'
        )
        assert main([topo_file, "--demo", "1",
                     "--state-dir", str(state)]) == 2
        err = capsys.readouterr().err
        assert "corrupt WAL state" in err
        assert "Traceback" not in err

    def test_torn_tail_is_tolerated(self, topo_file, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main([topo_file, "--demo", "2", "--cpu", "0.2",
                     "--lease", "1000", "--state-dir", state]) == 0
        wal = tmp_path / "state" / "wal.jsonl"
        wal.write_bytes(wal.read_bytes() + b'{"seq":99,"kind":"rele')
        capsys.readouterr()
        assert main([topo_file, "--demo", "0", "--state-dir", state]) == 0
        assert "torn tail dropped" in capsys.readouterr().err

    def test_sigterm_flushes_a_final_snapshot(
        self, topo_file, tmp_path, capsys, monkeypatch,
    ):
        import os
        import signal

        from repro.service import cli as cli_mod

        state = str(tmp_path / "state")
        ops = [
            {"op": "request", "app": f"app{i}", "at": i, "nodes": 1,
             "cpu": 0.2}
            for i in range(5)
        ]
        workload = write_workload(tmp_path, ops)
        real_run_op = cli_mod._run_op
        calls = {"n": 0}

        def run_then_term(service, op):
            record = real_run_op(service, op)
            calls["n"] += 1
            if calls["n"] == 2:
                # Delivered synchronously on the main thread, after the
                # second op's grant hit the WAL and before its outcome
                # is recorded: the handler only notes the signal.
                os.kill(os.getpid(), signal.SIGTERM)
            return record

        monkeypatch.setattr(cli_mod, "_run_op", run_then_term)
        assert main([topo_file, "--requests", workload, "--lease", "1000",
                     "--state-dir", state, "--format", "json"]) == 0
        captured = capsys.readouterr()
        # The op the signal lands in finishes and is reported; the rest
        # are skipped.
        assert "received SIGTERM after 2/5 operations" in captured.err
        assert "flushing final snapshot" in captured.err
        reported = {rec["app"] for rec in json.loads(captured.out)["outcomes"]}
        # Every lease a restart recovers had its outcome reported.
        restarted = SelectionService(dumbbell(4, 4), state_dir=state)
        recovered = set(restarted.ledger.reservations)
        restarted.close()
        assert recovered == {"app0", "app1"} and recovered <= reported
        monkeypatch.setattr(cli_mod, "_run_op", real_run_op)
        assert main([topo_file, "--demo", "0", "--state-dir", state]) == 0
        assert "recovered 2 leases from WAL" in capsys.readouterr().err

    def test_preempt_flags_reach_the_service(self, topo_file, capsys):
        # Fill all 8 nodes with bronze, then a gold arrival: with
        # --preempt it must admit by reclaiming bronze leases.
        ops = [
            {"op": "request", "app": f"w{i}", "at": i, "nodes": 1,
             "cpu": 0.9, "priority": "bronze"}
            for i in range(8)
        ] + [
            {"op": "request", "app": "gold", "at": 9, "nodes": 2,
             "cpu": 0.9, "priority": "gold"},
        ]
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            workload = f"{tmp}/w.json"
            with open(workload, "w") as fh:
                json.dump(ops, fh)
            assert main([topo_file, "--requests", workload,
                         "--lease", "1000", "--preempt",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        gold = [o for o in payload["outcomes"] if o["app"] == "gold"][0]
        assert gold["status"] == "admitted"
        assert payload["metrics"]["preempted"] == 2


class TestSharded:
    def test_sharded_workload_routes_and_reports(self, topo_file, tmp_path,
                                                 capsys):
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "local", "at": 0, "nodes": 2,
             "cpu": 0.3},
            {"op": "request", "app": "wide", "at": 1, "nodes": 4,
             "cpu": 0.2, "bw_mbps": 1, "spread": 2},
            {"op": "release", "app": "wide", "at": 2},
        ])
        assert main([
            topo_file, "--requests", workload, "--shards", "2",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = [o["status"] for o in payload["outcomes"]]
        assert statuses == ["admitted", "admitted", "released"]
        assert payload["metrics"]["routed_local"] == 1
        assert payload["metrics"]["routed_cross"] == 1
        assert payload["metrics"]["shard_count"] == 2
        assert set(payload["metrics"]["per_shard"]) == {"0", "1"}

    def test_sharded_text_metrics_block(self, topo_file, capsys):
        assert main([topo_file, "--demo", "4", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "routed_local" in out
        assert "shard_count" in out

    def test_spread_without_shards_is_an_error(self, topo_file, tmp_path,
                                               capsys):
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "x", "nodes": 4, "spread": 2},
        ])
        assert main([topo_file, "--requests", workload]) == 2
        assert "spread" in capsys.readouterr().err

    def test_shards_with_preempt_is_an_error(self, topo_file, capsys):
        assert main([
            topo_file, "--demo", "2", "--shards", "2", "--preempt",
        ]) == 2
        assert "--preempt" in capsys.readouterr().err

    def test_too_many_shards_is_an_error(self, topo_file, capsys):
        assert main([topo_file, "--demo", "2", "--shards", "99"]) == 2
        assert "shard" in capsys.readouterr().err.lower()

    def test_sharded_durability_roundtrip(self, topo_file, tmp_path, capsys):
        state = str(tmp_path / "state")
        first = write_workload(tmp_path, [
            {"op": "request", "app": "keep", "at": 0, "nodes": 4,
             "cpu": 0.2, "bw_mbps": 1, "spread": 2},
        ])
        assert main([
            topo_file, "--requests", first, "--shards", "2",
            "--state-dir", state, "--format", "json",
        ]) == 0
        capsys.readouterr()
        second = write_workload(tmp_path, [
            {"op": "release", "app": "keep", "at": 10},  # inside the lease
        ])
        assert main([
            topo_file, "--requests", second, "--shards", "2",
            "--state-dir", state, "--format", "json",
        ]) == 0
        captured = capsys.readouterr()
        assert "recovered 1 leases" in captured.err
        payload = json.loads(captured.out)
        assert payload["outcomes"][0]["status"] == "released"


class TestBatchMax:
    def test_demo_coalesces_batches(self, topo_file, capsys):
        assert main([
            topo_file, "--demo", "12", "--batch-max", "4",
            "--cpu", "0.1", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["outcomes"]) == 12
        assert payload["metrics"]["batches"] == 3
        assert payload["metrics"]["batch_requests"] == 12
        # Each batch runs at its last op's time.
        assert [o["at"] for o in payload["outcomes"][:4]] == [3.0] * 4

    def test_steps_cut_runs_at_other_ops_and_spread(self):
        from repro.service.cli import _steps

        def req(app, **kw):
            return {"op": "request", "app": app, **kw}

        ops = [req("a", at=0), req("b", at=1), {"op": "tick", "at": 1},
               req("c", at=2, spread=2), req("d", at=3), req("e"),
               req("f", at=4), req("g", at=4)]
        service = SelectionService(dumbbell(2, 2))
        steps = [(at, [o["app"] for o in step] if isinstance(step, list)
                  else step.get("app", step["op"]))
                 for at, step in _steps(service, ops, 3)]
        assert steps == [
            (1.0, ["a", "b"]), (1.0, "tick"), (2.0, "c"),
            (4.0, ["d", "e", "f"]), (4.0, ["g"]),
        ]
        assert [step for _, step in _steps(service, ops, 1)] == ops

    def test_default_is_serial(self, topo_file, capsys):
        assert main([topo_file, "--demo", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["batches"] == 0
        assert [o["at"] for o in payload["outcomes"]] == [0.0, 1.0, 2.0, 3.0]

    def test_mixed_workload_keeps_file_order(self, topo_file, tmp_path,
                                             capsys):
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "a", "at": 0, "nodes": 2, "cpu": 0.3},
            {"op": "request", "app": "b", "at": 0, "nodes": 2, "cpu": 0.3},
            {"op": "renew", "app": "a", "at": 5},
            {"op": "request", "app": "c", "at": 6, "nodes": 2, "cpu": 0.3},
            {"op": "release", "app": "b", "at": 7},
        ])
        assert main([
            topo_file, "--requests", workload, "--batch-max", "32",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        records = [(o["op"], o.get("app")) for o in payload["outcomes"]]
        # The renew flushes the open {a, b} batch before running, so
        # every operation settles in file order.
        assert records == [
            ("request", "a"), ("request", "b"), ("renew", "a"),
            ("request", "c"), ("release", "b"),
        ]
        assert payload["outcomes"][2]["expires_at"] == pytest.approx(65.0)
        assert payload["metrics"]["batches"] == 2

    def test_out_of_order_ops_rejected(self, topo_file, tmp_path, capsys):
        workload = write_workload(tmp_path, [
            {"op": "request", "app": "a", "at": 5, "nodes": 1},
            {"op": "request", "app": "b", "at": 1, "nodes": 1},
        ])
        assert main([topo_file, "--requests", workload,
                     "--batch-max", "4"]) == 2
        assert "time-ordered" in capsys.readouterr().err

    def test_sharded_workload(self, topo_file, capsys):
        assert main([
            topo_file, "--demo", "6", "--batch-max", "4", "--shards", "2",
            "--cpu", "0.2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["outcomes"]) == 6
        assert payload["metrics"]["batches"] == 2

    @pytest.mark.parametrize("sharded", [[], ["--shards", "2"]])
    def test_batches_of_one_match_the_serial_outcomes(
            self, topo_file, tmp_path, capsys, sharded):
        """A tick between every two requests cuts every batch to one
        request, which admits exactly as a serial request does."""
        ops = []
        for i in range(20):
            ops.append({"op": "request", "app": f"app-{i:02d}", "at": i,
                        "nodes": 3, "cpu": 0.4})
            ops.append({"op": "tick", "at": i})
        argv = [topo_file, "--requests", write_workload(tmp_path, ops),
                "--format", "json", *sharded]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)["outcomes"]
        assert main([*argv, "--batch-max", "8"]) == 0
        batched = json.loads(capsys.readouterr().out)
        assert len(serial) == 40 and batched["outcomes"] == serial
        assert batched["metrics"]["batches"] == 20
        assert {"admitted"} < {
            o["status"] for o in serial if o["op"] == "request"
        }

    def test_sigterm_inside_a_batch_reports_all_its_grants(
        self, topo_file, tmp_path, capsys, monkeypatch,
    ):
        state = str(tmp_path / "state")
        real_admit_batch = SelectionService.admit_batch

        def term_then_admit(service, requests):
            # Delivered synchronously on the main thread, before the
            # batch's first grant: the handler only notes the signal.
            os.kill(os.getpid(), signal.SIGTERM)
            return real_admit_batch(service, requests)

        monkeypatch.setattr(SelectionService, "admit_batch", term_then_admit)
        assert main([
            topo_file, "--demo", "12", "--batch-max", "4", "--cpu", "0.1",
            "--lease", "1000", "--state-dir", state, "--format", "json",
        ]) == 0
        captured = capsys.readouterr()
        assert "received SIGTERM after 4/12 operations" in captured.err
        outcomes = json.loads(captured.out)["outcomes"]
        assert [o["app"] for o in outcomes] == [
            f"app-{i:03d}" for i in range(4)
        ]
        assert all(o["status"] == "admitted" for o in outcomes)
        monkeypatch.undo()
        restarted = SelectionService(dumbbell(4, 4), state_dir=state)
        assert set(restarted.ledger.reservations) == {
            o["app"] for o in outcomes
        }
        restarted.close()
