"""Orchestration both replay engines share, checked on each of them.

:class:`~repro.serve.engine.ServingEngine` (per-EDP caches) and
:class:`~repro.serve.net.NetworkReplayEngine` (on-path cache networks)
run their replays through one skeleton: constructor checks, shard
plans with live progress, the dropped-shard diag and ``compare``.
Every case here runs against both engines.
"""

import json

import pytest

from repro.cli import main
from repro.content.workloads import zipf_workload
from repro.obs import read_status
from repro.obs.telemetry import SolverTelemetry
from repro.runtime import FaultPolicy, ResumableExecutor
from repro.serve import ServingEngine
from repro.serve.net import NetworkReplayEngine
from repro.testing import clear_faults, install_faults


def serve_engine(**kwargs):
    workload = zipf_workload(n_contents=5, alpha=1.0, rate_per_edp=30.0, seed=0)
    return ServingEngine(workload, 6, n_slots=8, shards=3, **kwargs)


def net_engine(**kwargs):
    workload = zipf_workload(n_contents=5, alpha=1.0, rate_per_edp=30.0, seed=0)
    return NetworkReplayEngine(
        workload, "path:4", n_slots=8, n_replicas=3, shards=3,
        capacity_fraction=0.3, **kwargs
    )


ENGINES = {"serve": serve_engine, "net": net_engine}
BASELINE = {"serve": "lru", "net": "lce"}


@pytest.fixture(autouse=True)
def no_leaked_faults():
    clear_faults()
    yield
    clear_faults()


@pytest.mark.parametrize("prefix", sorted(ENGINES))
def test_dropped_shard_is_reported_and_left_out(prefix):
    telemetry = SolverTelemetry.buffered()
    engine = ENGINES[prefix](
        executor=ResumableExecutor(
            "serial", policy=FaultPolicy(on_exhaust="skip")
        ),
        telemetry=telemetry,
    )
    name = BASELINE[prefix]
    install_faults(f"raise:label={prefix}:{name}:shard1,times=-1")
    report = engine.replay(name)
    dropped = [
        e for e in telemetry.sink.events
        if e["ev"] == f"diag.{prefix}.shard_dropped"
    ]
    assert len(dropped) == 1
    assert dropped[0]["shards"] == [1]
    assert dropped[0]["severity"] == "warning"
    if prefix == "serve":
        assert [s.edp for s in report.per_edp] == [0, 1, 4, 5]
    else:
        assert report.totals.replicas == 2
    assert report.requests > 0


@pytest.mark.parametrize("prefix", sorted(ENGINES))
def test_compare_needs_a_policy(prefix):
    with pytest.raises(ValueError, match="at least one"):
        ENGINES[prefix]().compare([])


@pytest.mark.parametrize(
    "prefix, field",
    [("serve", "capacity_mb"), ("net", "node_capacity_mb")],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_capacity_rejected(prefix, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ENGINES[prefix](**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_bad_queue_service_rate_rejected(value):
    with pytest.raises(ValueError, match="queue_service_rate"):
        net_engine(queue_service_rate=value)


@pytest.mark.parametrize(
    "argv, summary, hits",
    [
        (
            ["serve", "--policy", "lru", "--requests", "400", "--edps", "4",
             "--contents", "3", "--slots", "8", "--capacity-fraction", "0.5"],
            "serving_summary.json",
            "hits",
        ),
        (
            ["serve-net", "--strategy", "lce", "--topology", "path:5",
             "--contents", "4", "--replicas", "2", "--slots", "10",
             "--capacity-fraction", "0.3", "--rate", "40"],
            "network_summary.json",
            "cache_hits",
        ),
    ],
    ids=["serve", "serve-net"],
)
def test_live_status_totals_match_the_report(argv, summary, hits, tmp_path):
    status_path = tmp_path / "status.json"
    out = tmp_path / "out"
    assert main(argv + ["--live-status", str(status_path),
                        "--out", str(out)]) == 0
    (report,) = json.loads((out / summary).read_text()).values()
    status = read_status(status_path)
    assert status["state"] == "done"
    assert status["requests"]["total"] == report["requests"]
    assert status["requests"]["hits"] == report[hits]
    assert status["stream"]["workload"] == "FixedPopularityStream"
    assert status["stream"]["expected_requests"] > 0
