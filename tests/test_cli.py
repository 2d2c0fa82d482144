"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import save_system
from repro.wasm import parse_model


@pytest.fixture
def checkpoint(trained_system, tmp_path):
    return save_system(trained_system, tmp_path / "system.npz")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.network == "lenet"
        assert args.dataset == "mnist"

    def test_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--network", "squeezenet"])

    def test_all_commands_registered(self):
        parser = build_parser()
        commands = (
            "train", "evaluate", "export", "study", "session", "scale",
            "trace", "fleet", "health", "top", "plan", "tau",
        )
        needs_checkpoint = (
            "evaluate", "session", "scale", "trace", "fleet", "health",
            "top", "plan", "tau",
        )
        for command in commands:
            assert parser.parse_args([command] + (
                ["x.npz"]
                if command in needs_checkpoint
                else ["x.npz", "y.lcrs"] if command == "export" else []
            )).command == command

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet", "x.npz"])
        assert args.shards == [1, 2, 4]
        assert args.requests == 48
        assert not args.partition

    def test_session_rejects_unknown_fault_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["session", "x.npz", "--fault-profile", "chaos"])


class TestTrainCommand:
    def test_train_and_checkpoint(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--network", "lenet",
                "--dataset", "mnist",
                "--train-samples", "200",
                "--test-samples", "100",
                "--epochs", "1",
                "--checkpoint", str(tmp_path / "out.npz"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "M_Acc=" in out and "checkpoint written" in out
        assert (tmp_path / "out.npz").exists()


class TestPlanCommand:
    def test_trunk_plan_is_first_tier_and_matches_its_engine(
        self, checkpoint, tmp_path, capsys
    ):
        """The trunk plan keeps its first tier and equals the trunk's
        interpreter engine bit for bit; the framework module is within
        validate_bundle's tolerance of it."""
        out = tmp_path / "plan.json"
        assert main(["plan", str(checkpoint), "--batch", "8", "--json", str(out)]) == 0
        record = json.loads(out.read_text())
        for name in ("stem", "binary_branch", "trunk"):
            assert record[name]["bit_identical"] is True, name
        trunk = record["trunk"]
        assert trunk["tier"] == {}
        assert trunk["max_abs_vs_module"] <= 1e-3
        assert "max_abs_vs_module=" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_evaluate_checkpoint(self, checkpoint, capsys):
        code = main(["evaluate", str(checkpoint), "--test-samples", "80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lenet/mnist" in out and "collab=" in out


class TestExportCommand:
    def test_export_writes_valid_bundle(self, checkpoint, tmp_path, capsys):
        output = tmp_path / "bundle.lcrs"
        code = main(["export", str(checkpoint), str(output)])
        assert code == 0
        parsed = parse_model(output.read_bytes())
        assert parsed.metadata["network"] == "lenet"
        assert parsed.metadata["tau"] is not None


class TestSessionCommand:
    def test_clean_session_reports_no_fallback(self, checkpoint, capsys):
        code = main(["session", str(checkpoint), "--samples", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fallback=0.0%" in out
        assert "served_by:" in out and "link:" in out

    def test_partitioned_session_falls_back(self, checkpoint, capsys):
        code = main(
            [
                "session", str(checkpoint),
                "--samples", "40",
                "--fault-profile", "partition",
                "--max-attempts", "2",
                "--attempt-timeout-ms", "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "binary-fallback=" in out
        assert "frames_dropped=" in out

    def test_json_report_surfaces_retry_and_queue_ms(self, checkpoint, tmp_path, capsys):
        output = tmp_path / "session.json"
        code = main(
            [
                "session", str(checkpoint),
                "--samples", "24",
                "--batch-size", "8",
                "--json", str(output),
            ]
        )
        assert code == 0
        import json

        record = json.loads(output.read_text())
        assert "mean_retry_ms" in record and "mean_queue_ms" in record
        counters = record["fault_counters"]
        assert list(counters) == [
            "frames_sent",
            "frames_dropped",
            "frames_timed_out",
            "frames_corrupted",
            "frames_duplicated",
            "edge_errors",
            "overloads",
            "replies_rejected",
            "retries",
            "fallbacks",
        ]
        assert all(type(value) is int for value in counters.values())
        assert len(record["per_sample"]) == 24
        for sample in record["per_sample"]:
            assert "retry_ms" in sample and "queue_ms" in sample
            assert sample["retry_ms"] >= 0.0 and sample["queue_ms"] >= 0.0

    def test_drop_override_on_batched_path(self, checkpoint, capsys):
        code = main(
            [
                "session", str(checkpoint),
                "--samples", "40",
                "--drop", "1.0",
                "--batch-size", "16",
                "--max-attempts", "2",
                "--attempt-timeout-ms", "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "binary-fallback=" in out


class TestScaleCommand:
    def test_scale_sweep_writes_json(self, checkpoint, tmp_path, capsys):
        output = tmp_path / "scale.json"
        code = main(
            [
                "scale", str(checkpoint),
                "--users", "1", "2",
                "--window-ms", "0.0", "4.0",
                "--samples", "8",
                "--session-batch", "4",
                "--threshold", "0.05",
                "--json", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "users" in out and "speedup" in out
        assert output.exists()
        import json

        record = json.loads(output.read_text())
        # One per-request comparator plus two windowed cells per user count.
        assert len(record["points"]) == 6
        for point in record["points"]:
            assert "mean_retry_ms" in point and "mean_queue_ms" in point


@pytest.mark.fleet
class TestFleetCommand:
    def test_fleet_sweep_with_partition_writes_json(
        self, checkpoint, tmp_path, capsys
    ):
        output = tmp_path / "fleet.json"
        code = main(
            [
                "fleet", str(checkpoint),
                "--shards", "1", "2",
                "--requests", "8",
                "--batch-size", "2",
                "--partition",
                "--partition-sessions", "2",
                "--partition-samples", "8",
                "--p99-ms", "10.0",
                "--json", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards" in out and "capacity planning" in out
        assert "partition drill" in out
        assert output.exists()
        import json

        record = json.loads(output.read_text())
        assert {"capacity", "partition", "planning"} <= set(record)
        points = record["capacity"]["points"]
        assert [p["shards"] for p in points] == [1, 2]
        assert all(p["bit_identical"] is True for p in points)
        assert record["partition"]["all_samples_served"] is True

    def test_fleet_rejects_indivisible_requests(self, checkpoint, capsys):
        with pytest.raises(ValueError, match="divide evenly"):
            main(["fleet", str(checkpoint), "--shards", "3", "--requests", "8"])


@pytest.mark.tau
class TestTauCommand:
    def test_tau_sweep_writes_json(self, checkpoint, tmp_path, capsys):
        output = tmp_path / "tau.json"
        code = main(
            [
                "tau", str(checkpoint),
                "--sessions", "2", "4",
                "--rounds", "6",
                "--bases", "2",
                "--json", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive τ drill" in out
        assert "headline @ 4 sessions" in out
        assert output.exists()
        import json

        record = json.loads(output.read_text())
        assert record["num_bases"] == 2
        # Two loop modes per session level, open first.
        assert [
            (p["sessions"], p["controller"]) for p in record["points"]
        ] == [(2, False), (2, True), (4, False), (4, True)]
        assert "static_shed_rate" in record["headline"]
        for point in record["points"]:
            assert len(point["tau_trajectory"]) == point["rounds"]


class TestTraceCommand:
    def test_trace_exports_chrome_json(self, checkpoint, tmp_path, capsys):
        output = tmp_path / "trace.json"
        code = main(
            [
                "trace", str(checkpoint),
                "--users", "2",
                "--samples", "8",
                "--session-batch", "4",
                "--threshold", "0.05",
                "--out", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traces=" in out and "Perfetto" in out
        import json

        record = json.loads(output.read_text())
        assert record["displayTimeUnit"] == "ms"
        events = record["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "chunk" for e in events)
        assert any(e["ph"] == "M" for e in events)

    def test_trace_exports_jsonl(self, checkpoint, tmp_path, capsys):
        output = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace", str(checkpoint),
                "--users", "1",
                "--samples", "8",
                "--threshold", "0.05",
                "--format", "jsonl",
                "--out", str(output),
            ]
        )
        assert code == 0
        import json

        lines = [json.loads(line) for line in output.read_text().splitlines()]
        assert lines and all("name" in span and "trace_id" in span for span in lines)


class TestStudyCommand:
    def test_study_prints_tables(self, capsys):
        code = main(["study", "--samples", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "Table III" in out and "Figure 7" in out


@pytest.mark.fleet
class TestHealthCommand:
    def test_health_prints_snapshot_and_writes_artifacts(
        self, checkpoint, tmp_path, capsys
    ):
        import json

        out_json = tmp_path / "drill.json"
        prom = tmp_path / "metrics.prom"
        code = main(
            [
                "health", str(checkpoint),
                "--samples", "24",
                "--out", str(out_json),
                "--prometheus", str(prom),
            ]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert {"rounds", "shards", "alerts", "slo"} <= set(snapshot)
        assert len(snapshot["shards"]) == 2
        record = json.loads(out_json.read_text())
        assert record["monitored"] is True
        assert "alert_events" in record
        text = prom.read_text()
        assert "# TYPE" in text and "fleet_requests_total" in text


@pytest.mark.fleet
class TestTopCommand:
    def test_top_renders_one_frame_per_round(self, checkpoint, capsys):
        code = main(["top", str(checkpoint), "--samples", "24", "--no-ansi"])
        assert code == 0
        out = capsys.readouterr().out
        frames = out.count("SHARD  STATE")
        assert frames >= 4  # one frame per fleet round
        assert "drill complete" in out
        assert "\x1b[2J" not in out  # --no-ansi suppresses clears

    def test_top_ansi_mode_clears_between_frames(self, checkpoint, capsys):
        code = main(["top", str(checkpoint), "--samples", "24"])
        assert code == 0
        assert "\x1b[2J" in capsys.readouterr().out
