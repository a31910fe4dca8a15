"""Tests of the benchmark itself, on down-scaled copies of each workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ledger  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

#: Not the reference seed: the invariant checks must hold on a seed the
#: reference was not recorded at.
UNSEEN_SEED = 11


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _traced(workload):
    bench = run.Bench(ROOT, run.WORKLOADS[workload], UNSEEN_SEED, small=True)
    metrics, trace = run.traced_metrics(bench)
    assert bench.problems == []
    assert bench.attempted > 0 and bench.failed == 0
    return metrics, trace


#: Per workload, a layer counter that must be non-zero and ones that
#: must stay 0 (layers the command does not run).
LAYERS = {
    "serve-mfg": ("core.solves", ("net.cells",)),
    "stream-replay": ("serve.cells", ("core.solves", "net.cells")),
    "net-replay": ("net.cells", ("core.solves", "serve.cells")),
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_exact_counters_repeat_and_spans_add_up(workload, spec):
    first, trace = _traced(workload)
    second, _ = _traced(workload)
    assert sorted(first) == sorted(m["name"] for m in spec["per_layer"])
    for name in ledger.EXACT_COUNTERS:
        assert first[name] == second[name], name
    busy, idle = LAYERS[workload]
    assert first[busy] > 0
    assert all(first[name] == 0 for name in idle)
    spans = trace["spans"]
    run_s = spans[0][2] - spans[0][1]
    assert ledger.top_level_seconds(spans) + first[
        "trace.unattributed_s"
    ] == pytest.approx(run_s, rel=1e-9)


def test_untraced_metrics_match_spec(spec):
    bench = run.Bench(ROOT, run.WORKLOADS["stream-replay"], UNSEEN_SEED,
                      small=True)
    metrics = run.untraced_metrics(bench, seconds=0)
    assert bench.failed == 0
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(value > 0 for value in metrics.values())


def test_reference_compare_is_exact_for_ints_and_tolerant_for_floats():
    ref = {"lru": {"requests": 10, "hit_ratio": 0.5, "policy": "lru"}}
    assert verify.compare(ref, ref) == []
    assert verify.compare(ref, {"lru": dict(ref["lru"], requests=11)})
    near = 0.5 * (1 + verify.REL_TOL / 10)
    assert verify.compare(ref, {"lru": dict(ref["lru"], hit_ratio=near)}) == []
    assert verify.compare(ref, {"lru": dict(ref["lru"], hit_ratio=0.51)})


def test_nan_in_a_report_is_a_failure(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text('{"lru": {"requests": 1, "hit_ratio": NaN}}')
    with pytest.raises(ValueError):
        verify.load_json_strict(str(path))


def test_scipy_importtime_counts_outermost_scipy_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       10 |         10 |     scipy._lib",
        "import time:       20 |         30 |   scipy",
        "import time:        5 |          5 |     scipy.special._x",
        "import time:       15 |         20 |   scipy.special",
        "import time:        7 |         57 | repro.core.fpk",
        "import time:        3 |          3 | numpy",
    ])
    assert run.parse_scipy_importtime(text) == pytest.approx(50e-6)
