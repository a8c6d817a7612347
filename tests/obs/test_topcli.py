"""Tests for ``repro-top``: exposition parsing and status rendering."""

from repro.obs.topcli import main, parse_exposition, render_status

EXPOSITION = """\
# HELP repro_shard_hosts Compute nodes per shard.
# TYPE repro_shard_hosts gauge
repro_shard_hosts{shard="0"} 6
repro_shard_hosts{shard="1"} 6
repro_shard_active_leases{shard="0"} 3
repro_shard_active_leases{shard="1"} 2
repro_shard_requests_total{shard="0"} 11
repro_shard_requests_total{shard="1"} 8
repro_service_admitted_total{shard="0"} 9
repro_service_rejected_total{shard="0"} 2
repro_shard_trunk_active_reservations 2
repro_shard_trunk_channels_claimed 3
repro_shard_trunk_links 8
repro_shard_trunk_min_headroom_fraction 0.41
repro_shard_workers 2
repro_shard_worker_restarts_total 1
repro_slo_status{objective="admit_latency"} 0
repro_slo_status{objective="availability"} 0
repro_slo_status{objective="worker_restarts"} 1
repro_slo_burn_rate{objective="worker_restarts",window="300s"} 3.2
repro_slo_burn_rate{objective="worker_restarts",window="3600s"} 1.5
"""


class TestParse:
    def test_plain_and_labeled_samples(self):
        samples = parse_exposition(EXPOSITION)
        assert ("repro_shard_workers", {}, 2.0) in samples
        assert (
            "repro_shard_hosts", {"shard": "1"}, 6.0
        ) in samples
        assert (
            "repro_slo_burn_rate",
            {"objective": "worker_restarts", "window": "300s"},
            3.2,
        ) in samples

    def test_comments_and_garbage_are_dropped(self):
        samples = parse_exposition(
            "# HELP x y\n\nnot a metric line at all\nrepro_x 1\n"
        )
        assert samples == [("repro_x", {}, 1.0)]


    def test_escaped_quote_and_comma_inside_a_label_value(self):
        samples = parse_exposition(
            'repro_shard_worker_errors_total{site="a\\",b",shard="0"} 2\n'
        )
        assert samples == [(
            "repro_shard_worker_errors_total",
            {"site": 'a",b', "shard": "0"}, 2.0,
        )]

    def test_trailing_timestamp_is_not_the_value(self):
        samples = parse_exposition(
            'repro_shard_hosts{shard="0"} 3 1700000000\nrepro_x 4 1700000000\n'
        )
        assert samples == [
            ("repro_shard_hosts", {"shard": "0"}, 3.0),
            ("repro_x", {}, 4.0),
        ]


class TestRender:
    def test_full_status_view(self):
        lines = render_status(parse_exposition(EXPOSITION))
        text = "\n".join(lines)
        # Per-shard table with occupancy and federated admit/reject.
        assert "shard" in lines[0] and "occup" in lines[0]
        shard0 = next(line for line in lines if line.strip().startswith("0 "))
        assert "0.50" in shard0 and "11" in shard0 and "9" in shard0
        # Shard 1 has no federated service series: rendered as '-'.
        shard1 = next(line for line in lines if line.strip().startswith("1 "))
        assert "-" in shard1
        assert ("trunk: 2 live reservations, 3/8 channels claimed, "
                "min headroom 41%") in text
        assert "workers: 2 (restarts: 1)" in text
        assert ("slo: admit_latency ok | availability ok | "
                "worker_restarts burning") in text
        assert "worker_restarts burn 3.2x/300s 1.5x/3600s" in text

    def test_empty_exposition(self):
        assert render_status([]) == [
            "no repro_* shard/SLO series found in the exposition"
        ]


class TestMain:
    def test_reads_file_and_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(EXPOSITION)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "workers: 2 (restarts: 1)" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.prom")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_watch_rejects_stdin(self, capsys):
        assert main(["-", "--watch", "1"]) == 2
