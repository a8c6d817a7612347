"""Tests for the repro-select command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.service import cli as serve_cli
from repro.topology import dumbbell, star, to_json
from repro.units import Mbps


@pytest.fixture
def topo_file(tmp_path):
    g = dumbbell(4, 4)
    g.node("l0").load_average = 2.0
    g.link("sw-left", "sw-right").set_available(5 * Mbps)
    path = tmp_path / "topo.json"
    path.write_text(to_json(g))
    return str(path)


class TestParser:
    def test_requires_m(self, topo_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args([topo_file])

    def test_defaults(self, topo_file):
        args = build_parser().parse_args([topo_file, "-m", "4"])
        assert args.objective == "balanced"
        assert args.format == "text"


class TestMain:
    def test_text_output(self, topo_file, capsys):
        assert main([topo_file, "-m", "4"]) == 0
        out = capsys.readouterr().out
        assert "selected" in out
        assert "balanced" in out

    def test_json_output(self, topo_file, capsys):
        assert main([topo_file, "-m", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["nodes"]) == 4
        assert payload["algorithm"] == "balanced"
        assert payload["min_cpu_fraction"] > 0

    def test_dot_output_highlights_selection(self, topo_file, capsys):
        assert main([topo_file, "-m", "4", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert "style=bold" in out
        assert "// selected:" in out

    def test_objective_flag(self, topo_file, capsys):
        assert main([topo_file, "-m", "4", "--objective", "compute"]) == 0
        assert "max-compute" in capsys.readouterr().out

    def test_bandwidth_floor_flag(self, topo_file, capsys):
        assert main([
            topo_file, "-m", "4", "--min-bandwidth-mbps", "50",
        ]) == 0
        assert "bandwidth-floor" in capsys.readouterr().out

    def test_cpu_floor_flag(self, topo_file, capsys):
        assert main([topo_file, "-m", "4", "--min-cpu", "0.4"]) == 0
        assert "cpu-floor" in capsys.readouterr().out

    def test_priority_flag_changes_selection(self, tmp_path, capsys):
        g = dumbbell(4, 4)
        for i in range(4):
            g.node(f"l{i}").load_average = 1.0
            g.link(f"r{i}", "sw-right").set_available(30 * Mbps)
        path = tmp_path / "t.json"
        path.write_text(to_json(g))
        main([str(path), "-m", "4", "--format", "json"])
        balanced = json.loads(capsys.readouterr().out)["nodes"]
        main([str(path), "-m", "4", "--compute-priority", "10",
              "--format", "json"])
        compute = json.loads(capsys.readouterr().out)["nodes"]
        assert balanced != compute

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(to_json(star(5))))
        assert main(["-", "-m", "3"]) == 0
        assert "selected" in capsys.readouterr().out

    def test_infeasible_returns_1(self, topo_file, capsys):
        assert main([topo_file, "-m", "99"]) == 1
        assert "no feasible" in capsys.readouterr().err

    def test_missing_file_returns_2(self, capsys):
        assert main(["/nonexistent.json", "-m", "2"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_garbage_file_returns_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([str(path), "-m", "2"]) == 2

    def test_invalid_spec_returns_2(self, topo_file, capsys):
        assert main([topo_file, "-m", "4", "--min-cpu", "3.0"]) == 2
        assert "invalid specification" in capsys.readouterr().err


class TestHealthFlags:
    """--exclude-unhealthy / --include-unhealthy / --degraded-policy."""

    @pytest.fixture
    def degraded_file(self, tmp_path):
        # A dumbbell snapshot whose l0 went unmonitorable and whose trunk
        # is stale — the marks export_snapshot() would have serialized.
        g = dumbbell(4, 4)
        g.node("l0").attrs["unmonitorable"] = True
        g.link("sw-left", "sw-right").attrs["stale"] = True
        path = tmp_path / "degraded.json"
        path.write_text(to_json(g))
        return str(path)

    def test_excludes_unhealthy_by_default(self, degraded_file, capsys):
        assert main([degraded_file, "-m", "8", "--format", "json"]) == 1
        assert "no feasible" in capsys.readouterr().err

    def test_include_unhealthy_considers_marked_nodes(
        self, degraded_file, capsys,
    ):
        assert main([
            degraded_file, "-m", "8", "--include-unhealthy",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "l0" in payload["nodes"]

    def test_flags_are_mutually_exclusive(self, degraded_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                degraded_file, "-m", "4",
                "--exclude-unhealthy", "--include-unhealthy",
            ])

    def test_optimistic_policy_strips_marks(self, degraded_file, capsys):
        assert main([
            degraded_file, "-m", "8",
            "--degraded-policy", "optimistic", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "l0" in payload["nodes"]

    def test_last_good_alias_keeps_snapshot(self, degraded_file, capsys):
        assert main([
            degraded_file, "-m", "8", "--degraded-policy", "last-good",
        ]) == 1
        assert "no feasible" in capsys.readouterr().err

    def test_conservative_policy_zeroes_stale_trunk(
        self, degraded_file, capsys,
    ):
        # The stale trunk answers zero bandwidth, so a cross-trunk
        # bandwidth floor becomes infeasible under conservative.
        assert main([
            degraded_file, "-m", "8", "--include-unhealthy",
            "--min-bandwidth-mbps", "1",
            "--degraded-policy", "conservative",
        ]) == 1
        assert main([
            degraded_file, "-m", "8", "--include-unhealthy",
            "--min-bandwidth-mbps", "1",
            "--degraded-policy", "optimistic",
        ]) == 0

    def test_bad_policy_rejected(self, degraded_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                degraded_file, "-m", "4", "--degraded-policy", "pessimistic",
            ])


class TestExplain:
    @pytest.fixture
    def figure2_file(self, tmp_path):
        """Figure 2 scenario: m=5 on a 4+4 dumbbell must cross the
        5 Mbps trunk, making the trunk the unique bottleneck."""
        g = dumbbell(4, 4)
        g.link("sw-left", "sw-right").set_available(5 * Mbps)
        path = tmp_path / "fig2.json"
        path.write_text(to_json(g))
        return str(path)

    def test_text_names_bottleneck_edge_and_min_bandwidth(
        self, figure2_file, capsys,
    ):
        assert main([
            figure2_file, "-m", "5", "--objective", "bandwidth", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "bottleneck: sw-left--sw-right" in out
        assert "5.0 Mbps" in out
        assert "min bw    : 5.0 Mbps" in out
        assert "peel" in out

    def test_json_explain_payload(self, figure2_file, capsys):
        assert main([
            figure2_file, "-m", "5", "--objective", "bandwidth",
            "--explain", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        explain = payload["explain"]
        assert explain["bottleneck"]["edge"] == "sw-left--sw-right"
        assert explain["bottleneck"]["available_bps"] == 5 * Mbps
        assert explain["min_bw_bps"] == payload["min_bandwidth_bps"]
        assert len(explain["node_cpu"]) == 5

    def test_no_explain_key_without_flag(self, figure2_file, capsys):
        assert main([
            figure2_file, "-m", "5", "--format", "json",
        ]) == 0
        assert "explain" not in json.loads(capsys.readouterr().out)

    def test_infeasible_explain_reports_rejection(self, topo_file, capsys):
        assert main([
            topo_file, "-m", "100", "--explain", "--format", "json",
        ]) == 1
        captured = capsys.readouterr()
        assert "no feasible selection" in captured.err
        payload = json.loads(captured.out)
        assert payload["explain"]["rejection"]
        assert payload["explain"]["nodes"] == []


class TestOneTopologyLoader:
    """``repro-select`` and ``repro-serve`` read a topology through one
    helper: the same refusal, message and exit code 2 for each way a
    file can be bad."""

    @pytest.mark.parametrize("text", [
        "{not json",                       # not JSON: ValueError
        "[1, 2]",                          # JSON, not an object
        '{"version": 1, "nodes": []}',     # no "links": KeyError
        None,                              # no such file: OSError
    ])
    def test_both_clis_refuse_a_malformed_file_alike(
        self, tmp_path, capsys, text
    ):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        assert main([str(path), "-m", "2"]) == 2
        select_err = capsys.readouterr().err
        assert serve_cli.main([str(path), "--demo", "1"]) == 2
        serve_err = capsys.readouterr().err
        assert select_err.startswith("error: cannot load topology: ")
        assert select_err == serve_err

    @pytest.mark.parametrize("where, field, value", [
        ("nodes", "load_average", float("nan")),
        ("nodes", "load_average", -1.0),
        ("links", "maxbw", float("nan")),
        ("links", "available_fwd", float("nan")),
        ("links", "available_rev", float("nan")),
    ], ids=["load-nan", "load-negative", "maxbw-nan", "fwd-nan", "rev-nan"])
    def test_both_clis_refuse_a_value_that_is_not_a_number(
        self, tmp_path, capsys, where, field, value
    ):
        """``json`` reads ``NaN``; a topology holding one is refused at
        load, not placed on (``min cpu : nan``, exit 0, before)."""
        data = json.loads(to_json(star(6)))
        record = next(r for r in data[where]
                      if where == "links" or r["name"] == "h0")
        record[field] = value
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert main([str(path), "-m", "2", "--min-bandwidth-mbps", "1"]) == 2
        select = capsys.readouterr()
        assert serve_cli.main([str(path), "--demo", "1"]) == 2
        serve_err = capsys.readouterr().err
        assert select.out == ""
        assert select.err.startswith("error: cannot load topology: ")
        assert select.err == serve_err
