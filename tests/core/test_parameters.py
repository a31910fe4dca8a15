"""Tests for the MFG-CP configuration."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import (
    CachingParameters,
    ChannelParameters,
    MFGCPConfig,
    PaperParameters,
)


class TestPaperParameters:
    def test_records_section_v_values(self):
        paper = PaperParameters()
        assert paper.n_contents == 20
        assert paper.n_edps == 300
        assert paper.w5 == 0.65e8
        assert paper.alpha == 0.2
        assert paper.content_size_mb == 100.0


class TestChannelParameters:
    def test_process_round_trip(self):
        ch = ChannelParameters()
        ou = ch.process()
        assert ou.reversion == ch.reversion
        assert ou.mean == ch.mean

    def test_rate_positive_over_fading_range(self):
        ch = ChannelParameters()
        h = np.linspace(1.0, 10.0, 20)
        rates = ch.rate_of_fading(h)
        assert np.all(rates > 0)
        assert np.all(np.diff(rates) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParameters(reversion=0.0)
        with pytest.raises(ValueError):
            ChannelParameters(bandwidth=0.0)
        with pytest.raises(ValueError):
            ChannelParameters(mean_distance=0.0)


class TestCachingParameters:
    def test_drift_object(self):
        drift = CachingParameters().drift()
        assert drift.w1 == 1.0


class TestMFGCPConfig:
    def test_paper_default_valid(self):
        cfg = MFGCPConfig.paper_default()
        assert cfg.content_size == 100.0
        assert cfg.alpha == 0.2
        assert cfg.horizon == 1.0

    def test_fast_is_coarser(self):
        fast = MFGCPConfig.fast()
        full = MFGCPConfig.paper_default()
        assert fast.n_h <= full.n_h
        assert fast.n_q <= full.n_q

    def test_without_sharing(self):
        cfg = MFGCPConfig.fast().without_sharing()
        assert cfg.include_sharing is False
        assert cfg.economic_parameters().include_sharing is False

    def test_with_content_size(self):
        cfg = MFGCPConfig.fast().with_content_size(60.0)
        assert cfg.content_size == 60.0

    def test_derived_objects(self):
        cfg = MFGCPConfig.fast()
        assert cfg.pricing_model().p_hat == cfg.p_hat
        assert cfg.case_probabilities().alpha == cfg.alpha
        assert cfg.utility_model().content_size == cfg.content_size
        assert cfg.ou_process().mean == cfg.channel.mean

    def test_drift_rate_uses_epoch_demand(self):
        cfg = MFGCPConfig.fast()
        drift = cfg.drift_rate(np.array(0.5))
        manual = cfg.content_size * cfg.caching_drift().rate(
            0.5, cfg.popularity, cfg.timeliness
        )
        assert float(drift) == pytest.approx(float(manual))

    def test_initial_density_moments(self):
        cfg = MFGCPConfig.fast()
        mean, std = cfg.initial_density_moments()
        assert mean == pytest.approx(0.7 * cfg.content_size)
        assert std == pytest.approx(0.1 * cfg.content_size)

    def test_time_axis(self):
        cfg = MFGCPConfig.fast()
        t = cfg.time_axis()
        assert t.shape == (cfg.n_time_steps + 1,)
        assert t[0] == 0.0 and t[-1] == cfg.horizon

    def test_n_requests_at_constant_by_default(self):
        cfg = MFGCPConfig.fast()
        assert float(cfg.n_requests_at(0.7)) == cfg.n_requests

    def test_n_requests_at_decays(self):
        cfg = replace(MFGCPConfig.fast(), demand_decay=1.0)
        assert float(cfg.n_requests_at(0.0)) == pytest.approx(cfg.n_requests)
        assert float(cfg.n_requests_at(1.0)) == pytest.approx(
            cfg.n_requests * np.exp(-1.0)
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("horizon", 0.0),
            ("n_time_steps", 0),
            ("content_size", 0.0),
            ("n_h", 2),
            ("n_edps", 0),
            ("popularity", 1.5),
            ("initial_mean_fraction", 1.0),
            ("initial_std_fraction", 0.0),
            ("max_iterations", 0),
            ("tolerance", 0.0),
            ("damping", 0.0),
            ("sharer_capacity", 0),
            ("demand_decay", -1.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            replace(MFGCPConfig.fast(), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", float("nan")),
            ("horizon", float("inf")),
            ("content_size", float("nan")),
            ("content_size", float("inf")),
            ("tolerance", float("nan")),
            ("tolerance", float("inf")),
            ("eta1", -1.0),
            ("eta1", float("nan")),
            ("eta1", float("inf")),
        ],
    )
    def test_non_finite_and_negative_values_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            replace(MFGCPConfig.fast(), **{field: value})

    def test_zero_eta1_is_valid(self):
        assert replace(MFGCPConfig.fast(), eta1=0.0).eta1 == 0.0

    def test_economic_parameters_flags(self):
        cfg = replace(MFGCPConfig.fast(), include_trading=False)
        assert cfg.economic_parameters().include_trading is False
