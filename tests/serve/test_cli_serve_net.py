"""Tests for the ``repro serve-net`` CLI subcommand."""

import pytest

from repro.cli import build_parser, main

FAST = ["--topology", "path:5", "--contents", "4", "--replicas", "2",
        "--slots", "10", "--capacity-fraction", "0.3", "--rate", "40"]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve-net"])
        assert args.topology == "tree:2x4"
        assert args.strategy == "all"
        assert args.contents == 12
        assert args.alpha == 1.0
        assert args.replicas == 4
        assert args.capacity_fraction == 0.1
        assert args.queue_capacity == 8
        assert args.seed == 0
        assert args.shards is None
        assert args.out is None

    def test_runtime_and_telemetry_args_present(self):
        args = build_parser().parse_args(
            ["serve-net", "--backend", "process:2", "--telemetry", "x.jsonl"]
        )
        assert args.backend == "process:2"
        assert args.telemetry == "x.jsonl"


class TestServeNetCommand:
    def test_strategy_comma_list(self, capsys):
        assert main(["serve-net", "--strategy", "lce,lcd"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Cache-network comparison" in out
        assert "lce" in out and "lcd" in out
        assert "probcache" not in out

    def test_per_node_breakdown(self, capsys):
        argv = ["serve-net", "--strategy", "lce", "--per-node"] + FAST
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Per-node breakdown — lce" in out
        assert "queue_rejection_rate" in out

    def test_empty_strategy_is_error(self, capsys):
        assert main(["serve-net", "--strategy", ","] + FAST) == 2
        assert "no placement strategy" in capsys.readouterr().err

    def test_unknown_strategy_is_error(self, capsys):
        assert main(["serve-net", "--strategy", "belady"] + FAST) == 2
        assert "unknown placement strategy" in capsys.readouterr().err

    def test_bad_topology_is_error(self, capsys):
        argv = ["serve-net", "--strategy", "lce", "--topology", "torus:3"]
        assert main(argv) == 2
        assert "unknown topology kind" in capsys.readouterr().err

    def test_undersized_capacity_is_error(self, capsys):
        argv = ["serve-net", "--strategy", "lce", "--topology", "path:4",
                "--contents", "4", "--capacity-fraction", "0.01"]
        assert main(argv) == 2
        assert "holds no content" in capsys.readouterr().err

    def test_out_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        argv = ["serve-net", "--strategy", "lce,edge",
                "--out", str(out_dir)] + FAST
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().out
        assert (out_dir / "network_comparison.csv").exists()
        assert (out_dir / "network_summary.json").exists()
        assert (out_dir / "per_node_lce.csv").exists()
        assert (out_dir / "per_node_edge.csv").exists()

    def test_telemetry_records_network_events(self, tmp_path):
        out_file = tmp_path / "net.jsonl"
        argv = ["serve-net", "--strategy", "lcd",
                "--telemetry", str(out_file)] + FAST
        assert main(argv) == 0
        from repro.obs import read_events

        shards = read_events(out_file, kind="net_shard")
        assert shards, "replay should emit per-shard events"
        reports = read_events(out_file, kind="network_report")
        assert len(reports) == 1
        assert reports[0]["strategy"] == "lcd"
        assert reports[0]["topology"] == "path:5"
        assert reports[0]["requests"] > 0

    def test_report_renders_cache_network_section(self, tmp_path, capsys):
        out_file = tmp_path / "net.jsonl"
        argv = ["serve-net", "--strategy", "lce",
                "--telemetry", str(out_file)] + FAST
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "cache networks" in out

    def test_backend_matches_serial_output(self, capsys):
        argv = ["serve-net", "--strategy", "lce,probcache"] + FAST
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--backend", "process:2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out


class TestBatchWidth:
    ARGV = ["serve-net", "--strategy", "mfg"] + FAST

    @pytest.mark.parametrize(
        "extra",
        [["--batch-size", "1"], ["--batch-size", "3", "--backend", "process:2"],
         ["--stream-chunk", "1"],
         ["--stream-chunk", "0", "--backend", "process:2"]],
        ids=["width-1", "width-3-process-2", "chunk-1", "chunk-0-process-2"],
    )
    def test_outputs_byte_identical_to_default(self, tmp_path, capsys, extra):
        outputs = {}
        for name, flags in (("default", []), ("variant", extra)):
            out_dir = tmp_path / name
            assert main(self.ARGV + flags + ["--out", str(out_dir)]) == 0
            table = capsys.readouterr().out.split("  wrote")[0]
            files = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
            assert files
            outputs[name] = (table, files)
        assert outputs["variant"] == outputs["default"]
