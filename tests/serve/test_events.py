"""Tests for the canned-workload request source.

Canned scenario workloads replay through a
:class:`~repro.serve.stream.FixedPopularityStream` built from the
workload's demand shares; these cases pin its per-EDP determinism.
"""

import pickle

import numpy as np
import pytest

from repro.content.timeliness import TimelinessModel
from repro.serve import FixedPopularityStream, make_stream


def make_source(n_edps=4, n_slots=6, seed=5, rate=20.0):
    return make_stream(
        "fixed",
        shares=(0.5, 0.3, 0.2),
        rate_per_edp=rate,
        timeliness=TimelinessModel(l_max=3.0),
        n_slots=n_slots,
        dt=0.1,
        seed=seed,
        n_edps=n_edps,
    )


def counts_of(source, edp):
    return source.materialize(edp).counts.tolist()


class TestSeedSequences:
    def test_children_reproducible(self):
        a, b = make_source(seed=7), make_source(seed=7)
        for edp in range(4):
            assert np.array_equal(
                a.request_rng(edp, 2).random(8), b.request_rng(edp, 2).random(8)
            )

    def test_children_distinct(self):
        source = make_source(n_edps=5, seed=7)
        first = {float(source.request_rng(edp, 0).random()) for edp in range(5)}
        assert len(first) == 5

    def test_rejects_bad_population(self):
        with pytest.raises(ValueError, match="EDP"):
            make_source(n_edps=0)


class TestTraceSource:
    def test_slot_times_are_midpoints(self):
        source = make_source(n_slots=4)
        assert np.allclose(source.slot_times(), [0.05, 0.15, 0.25, 0.35])
        assert source.horizon == pytest.approx(0.4)

    def test_stream_covers_all_slots(self):
        chunk = make_source(n_slots=6).materialize(0)
        assert chunk.start_slot == 0
        assert chunk.counts.shape == (6, 3)

    def test_stream_reproducible_per_edp(self):
        source = make_source()
        assert counts_of(source, 2) == counts_of(source, 2)

    def test_streams_differ_across_edps(self):
        source = make_source(rate=100.0)
        assert counts_of(source, 0) != counts_of(source, 1)

    def test_request_stream_independent_of_policy_draws(self):
        """Burning policy draws must not perturb the request trace."""
        source = make_source()
        baseline = counts_of(source, 1)
        for slot in range(source.n_slots):
            source.policy_rng(1, slot).random(5)
        assert counts_of(source, 1) == baseline

    def test_expected_total_requests(self):
        source = make_source(n_edps=4, n_slots=6, rate=20.0)
        # 20 req/unit-time x 0.6 units x 4 EDPs
        assert source.expected_total_requests() == pytest.approx(48.0)

    def test_pickle_roundtrip(self):
        source = make_source()
        clone = pickle.loads(pickle.dumps(source))
        assert counts_of(source, 0) == counts_of(clone, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="shares"):
            FixedPopularityStream(
                shares=(),
                rate_per_edp=1.0,
                n_slots=2,
                dt=0.1,
                n_edps=1,
            )
        with pytest.raises(IndexError, match="out of range"):
            make_source(n_edps=3).request_rng(3, 0)
