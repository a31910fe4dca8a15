"""Tests for the ``repro serve`` CLI subcommand."""

import pytest

from repro.cli import build_parser, main

FAST = ["--requests", "400", "--edps", "4", "--contents", "3", "--slots", "8",
        "--capacity-fraction", "0.5"]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.policy == "mfg"
        assert args.requests == 100_000
        assert args.edps == 16
        assert args.contents == 12
        assert args.workload == "video_marketplace"
        assert args.slots == 25
        assert args.capacity_fraction == 0.3
        assert args.seed == 7
        assert args.shards is None
        assert args.out is None

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workload", "iot"])


class TestServeCommand:
    def test_single_policy_table(self, capsys):
        assert main(["serve", "--policy", "lru"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Serving comparison" in out
        assert "hit_ratio" in out
        assert "lru" in out

    def test_all_policies_compared(self, capsys):
        assert main(["serve", "--policy", "all"] + FAST) == 0
        out = capsys.readouterr().out
        for name in ("mfg", "lru", "lfu", "random", "most-popular"):
            assert name in out

    def test_policy_comma_list(self, capsys):
        assert main(["serve", "--policy", "lru,random"] + FAST) == 0
        out = capsys.readouterr().out
        assert "lru" in out
        assert "random" in out
        assert "mfg" not in out

    def test_empty_policy_is_error(self, capsys):
        assert main(["serve", "--policy", ","] + FAST) == 2
        assert "no serving policy" in capsys.readouterr().err

    def test_unknown_policy_is_error(self, capsys):
        assert main(["serve", "--policy", "fifo"] + FAST) == 2
        assert "unknown serving policy" in capsys.readouterr().err

    def test_undersized_capacity_is_error(self, capsys):
        argv = ["serve", "--policy", "lru", "--capacity-fraction", "0.01",
                "--contents", "3"]
        assert main(argv) == 2
        assert "holds no content" in capsys.readouterr().err

    def test_out_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        argv = ["serve", "--policy", "lru,random", "--out", str(out_dir)] + FAST
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().out
        assert (out_dir / "serving_comparison.csv").exists()
        assert (out_dir / "serving_summary.json").exists()
        assert (out_dir / "per_edp_lru.csv").exists()

    def test_telemetry_records_serving_events(self, tmp_path, capsys):
        out_file = tmp_path / "serve.jsonl"
        argv = ["serve", "--policy", "lfu", "--telemetry", str(out_file)] + FAST
        assert main(argv) == 0
        from repro.obs import read_events

        shards = read_events(out_file, kind="serve_shard")
        assert shards, "replay should emit per-shard events"
        reports = read_events(out_file, kind="serving_report")
        assert len(reports) == 1
        assert reports[0]["policy"] == "lfu"
        assert reports[0]["requests"] > 0

    def test_backend_matches_serial_output(self, capsys):
        argv = ["serve", "--policy", "lru,lfu"] + FAST
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--backend", "process:2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out


class TestBatchWidth:
    """Neither the solve-shard width nor the replay chunking changes output."""

    ARGV = ["serve", "--policy", "mfg", "--requests", "400", "--edps", "4",
            "--contents", "5", "--slots", "8", "--capacity-fraction", "0.5"]
    NEWS = ["--workload", "news_cycle"]

    @pytest.mark.parametrize(
        "base, extra",
        [([], ["--batch-size", "1"]),
         ([], ["--batch-size", "3", "--backend", "process:2"]),
         (NEWS, ["--stream-chunk", "1"]),
         (NEWS, ["--stream-chunk", "0", "--backend", "process:2"])],
        ids=["width-1", "width-3-process-2", "news-chunk-1",
             "news-chunk-0-process-2"],
    )
    def test_outputs_byte_identical_to_default(
        self, tmp_path, capsys, base, extra
    ):
        outputs = {}
        for name, flags in (("default", base), ("variant", base + extra)):
            out_dir = tmp_path / name
            assert main(self.ARGV + flags + ["--out", str(out_dir)]) == 0
            table = capsys.readouterr().out.split("  wrote")[0]
            files = {
                f: (out_dir / f).read_bytes()
                for f in ("serving_summary.json", "serving_comparison.csv",
                          "per_edp_mfg.csv")
            }
            outputs[name] = (table, files)
        assert outputs["variant"] == outputs["default"]


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--edps", "0"],
        ["serve", "--slots", "0"],
        ["serve", "--contents", "0"],
        ["serve", "--batch-size", "0"],
        ["serve-net", "--slots", "0"],
        ["serve-net", "--contents", "0"],
        ["serve-net", "--replicas", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_zero_counts_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {argv[1]} must be positive, got 0"]


def requests_reported(out):
    return int(out.split(" requests)")[0].rsplit(" ", 1)[1])


def test_warmup_slots_apply_to_canned_workloads(capsys):
    argv = ["serve", "--policy", "lru"] + FAST
    assert main(argv) == 0
    plain = requests_reported(capsys.readouterr().out)
    assert main(argv + ["--warmup-slots", "5"]) == 0
    warmed = requests_reported(capsys.readouterr().out)
    assert 0 < warmed < plain


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--stream-chunk", "-1"],
        ["serve", "--seed", "-1"],
        ["serve", "--stream", "zipf", "--seed", "-1"],
        ["serve", "--stream", "zipf", "--requests", "nan"],
        ["serve", "--stream", "zipf", "--requests", "inf"],
        ["serve-net", "--seed", "-1"],
        ["serve-net", "--rate", "-1"],
        ["serve-net", "--rate", "nan"],
        ["serve-net", "--stream", "zipf", "--rate", "inf"],
        ["serve-net", "--node-capacity", "nan"],
        ["serve-net", "--node-capacity", "inf"],
        ["serve-net", "--queue-rate", "nan"],
        ["serve-net", "--queue-rate", "inf"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_values_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    field = {
        "--seed": "seed",
        "--stream-chunk": "stream_chunk",
        "--node-capacity": "node_capacity_mb",
        "--queue-rate": "queue_service_rate",
    }.get(argv[-2], "rate_per_edp")
    assert field in errors[0]
