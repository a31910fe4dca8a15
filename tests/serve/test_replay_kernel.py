"""The per-cell serving hot path of both replay kernels.

Policy generators are built only when a policy draws, drawing policies
still see the same numbers at every chunk size, the stream recipe is
left untouched by a replay (its pickle keys resume state), static
demand is computed once per chunk, and the per-chunk occupancy audit
catches a cache changed behind :class:`~repro.serve.cache.EdgeCache`'s
back.
"""

import copy

import numpy as np
import pytest

from repro.content.workloads import zipf_workload
from repro.obs.telemetry import SolverTelemetry
from repro.serve import ServingEngine
from repro.serve.cache import CacheEntry
from repro.serve.engine import stream_state_key
from repro.serve.net import NetworkReplayEngine
from repro.serve.net.strategies import LCEStrategy
from repro.serve.policies import LRUPolicy
from repro.serve.stream import RequestStream, ShuffledZipfStream, make_stream


def serve_engine(capacity_fraction=0.3, **kwargs):
    workload = zipf_workload(n_contents=6, alpha=0.8, rate_per_edp=40.0, seed=0)
    return ServingEngine(
        workload, 4, n_slots=10, capacity_fraction=capacity_fraction, shards=2,
        **kwargs
    )


def net_engine(**kwargs):
    workload = zipf_workload(n_contents=6, alpha=0.8, rate_per_edp=40.0, seed=0)
    return NetworkReplayEngine(
        workload, "tree:2x2", n_slots=10, n_replicas=2, shards=2,
        capacity_fraction=0.3, **kwargs
    )


@pytest.fixture
def policy_rng_calls(monkeypatch):
    """Every ``RequestStream.policy_rng`` call, as ``(lane, slot)``."""
    calls = []
    original = RequestStream.policy_rng

    def counted(stream, lane, slot):
        calls.append((lane, slot))
        return original(stream, lane, slot)

    monkeypatch.setattr(RequestStream, "policy_rng", counted)
    return calls


class TestLazyPolicyGenerators:
    @pytest.mark.parametrize("policy", ["lru", "lfu", "most-popular"])
    def test_non_drawing_serve_policies_build_no_generator(
        self, policy, policy_rng_calls
    ):
        report = serve_engine().replay(policy)
        assert report.requests > 0
        assert policy_rng_calls == []

    @pytest.mark.parametrize("strategy", ["lce", "lcd", "edge-only"])
    def test_non_drawing_strategies_build_no_generator(
        self, strategy, policy_rng_calls
    ):
        report = net_engine().replay(strategy)
        assert report.requests > 0
        assert policy_rng_calls == []

    @pytest.mark.parametrize(
        "factory, name", [(serve_engine, "random"), (net_engine, "probcache")]
    )
    def test_drawing_policies_build_at_most_one_per_lane_slot(
        self, factory, name, policy_rng_calls
    ):
        factory().replay(name)
        assert policy_rng_calls
        assert len(set(policy_rng_calls)) == len(policy_rng_calls)


class TestDrawingPoliciesAcrossChunkSizes:
    @staticmethod
    def replays(engine, name):
        reports = []
        for chunk in (1, 3, 0):
            variant = copy.copy(engine)
            variant.stream_chunk = chunk
            reports.append(variant.replay(name))
        return reports

    def test_random_identical_at_every_chunk_size(self):
        first, *rest = self.replays(serve_engine(), "random")
        assert first.staleness_violations >= 0
        assert all(report == first for report in rest)

    def test_mfg_identical_at_every_chunk_size(self, engine):
        # The session engine has its equilibria solved; shallow copies
        # share them, so every chunk size reads one price path.
        first, *rest = self.replays(engine, "mfg")
        assert first.requests > 0
        assert all(report == first for report in rest)

    def test_probcache_identical_at_every_chunk_size(self):
        first, *rest = self.replays(net_engine(), "probcache")
        assert first.placements > 0
        assert all(report == first for report in rest)


def test_replay_leaves_the_state_key_unchanged():
    engine = serve_engine(stream=make_stream(
        "shuffled-zipf", n_edps=4, n_slots=10, dt=0.1, rate_per_edp=40.0,
        n_contents=6,
    ))
    spec = engine.spec()
    for name in ("random", "lru"):
        policy = engine.build_policy(name)
        before = stream_state_key(spec, policy)
        engine.replay(policy)
        assert stream_state_key(spec, policy) == before


class TestStaticDemand:
    def test_shuffled_zipf_permutes_once_per_chunk(self, monkeypatch):
        stream = make_stream(
            "shuffled-zipf", n_edps=1, n_slots=6, dt=0.1, rate_per_edp=50.0,
            n_contents=5,
        )
        calls = []
        original = ShuffledZipfStream.permutation

        def counted(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(ShuffledZipfStream, "permutation", counted)
        stream.chunk(0, 0, 6)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["zipf", "shuffled-zipf", "diurnal"])
    def test_chunk_rows_equal_per_slot_samples(self, kind):
        stream = make_stream(
            kind, n_edps=2, n_slots=7, dt=0.1, rate_per_edp=80.0,
            n_contents=5,
        )
        chunk = stream.chunk(1, 1, 4)
        draws = [stream.sample_slot(1, slot) for slot in range(4, 7)]
        np.testing.assert_array_equal(
            chunk.counts, np.stack([counts for counts, _ in draws])
        )
        np.testing.assert_array_equal(
            chunk.timeliness, np.concatenate([tl for _, tl in draws])
        )


class SmugglingLRU(LRUPolicy):
    """LRU that slips an extra copy into the cache behind its back."""

    def admit(self, slot, content, count, cache, rng):
        if 99 not in cache.entries:
            cache.entries[99] = CacheEntry(
                content=99, size_mb=1.0, fetched_at=0.0, last_used=0.0
            )
        return super().admit(slot, content, count, cache, rng)


class SmugglingLCE(LCEStrategy):
    """LCE that slips an extra copy into each node it evicts at."""

    def victim(self, slot, cache, rng):
        cache.entries.setdefault(
            99, CacheEntry(content=99, size_mb=1.0, fetched_at=0.0, last_used=0.0)
        )
        return super().victim(slot, cache, rng)


def occupancy_diags(telemetry, check):
    return [e for e in telemetry.sink.events if e["ev"] == f"diag.{check}"]


class TestOccupancyAudit:
    def test_serve_flags_entries_changed_behind_the_cache(self):
        telemetry = SolverTelemetry.buffered()
        # Room for most of the catalog, so the smuggled copy stays put
        # (an emptied cache would restart its total from zero).
        engine = serve_engine(
            capacity_fraction=0.9, telemetry=telemetry, stream_chunk=4
        )
        engine.replay(SmugglingLRU())
        diags = occupancy_diags(telemetry, "serve.occupancy")
        # One finding per EDP: the first chunk that fails the audit.
        assert sorted(d["edp"] for d in diags) == [0, 1, 2, 3]
        assert {d["severity"] for d in diags} == {"error"}
        assert all(d["message"].startswith("edge cache ") for d in diags)

    def test_net_flags_entries_changed_behind_the_cache(self):
        telemetry = SolverTelemetry.buffered()
        net_engine(telemetry=telemetry).replay(SmugglingLCE())
        diags = occupancy_diags(telemetry, "net.occupancy")
        assert diags
        assert {d["severity"] for d in diags} == {"error"}

    @pytest.mark.parametrize(
        "factory, name, check",
        [(serve_engine, "lru", "serve.occupancy"),
         (net_engine, "lce", "net.occupancy")],
    )
    def test_honest_replays_pass_the_audit(self, factory, name, check):
        telemetry = SolverTelemetry.buffered()
        factory(telemetry=telemetry).replay(name)
        assert occupancy_diags(telemetry, check) == []
