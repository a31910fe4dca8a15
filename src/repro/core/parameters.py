"""Configuration for the MFG-CP framework.

Two parameter records live here:

* :class:`PaperParameters` — the raw values printed in Section V-A of
  the paper, kept verbatim for reference.  The paper mixes byte-scale
  and MB-scale constants (``w5 = 0.65e8`` pairs with byte-valued cache
  states while ``Q_k`` is quoted in MB), so the raw values cannot be
  used together in a single unit system.
* :class:`MFGCPConfig` — the working configuration in a consistent
  MB / money / unit-time system, with
  :meth:`MFGCPConfig.paper_default` producing the calibrated
  equivalents.  The calibration preserves the dimensionless ratios that
  drive the equilibrium — in particular ``Q_k w1 / (2 w5)`` (the slope
  of the optimal control in the value gradient, Eq. (21)) and
  ``eta1 Q_k / p_hat`` (the relative price depression at full supply,
  Eq. (17)) — so every qualitative shape of Figs. 3-14 is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

import numpy as np

from repro.economics.cases import CaseProbabilities
from repro.economics.pricing import PricingModel
from repro.economics.utility import EconomicParameters, UtilityModel
from repro.network.rate import RateModel
from repro.sde.caching_state import CachingDrift
from repro.sde.ornstein_uhlenbeck import OrnsteinUhlenbeckProcess


@dataclass(frozen=True)
class PaperParameters:
    """Verbatim Section V-A values (for reference and documentation)."""

    n_contents: int = 20
    n_edps: int = 300
    bandwidth_hz: float = 10e6
    path_loss_exponent: float = 3.0
    w1: float = 1.0
    w2: float = 1.0 / 20.0
    w3: float = 10.0
    w4: float = 2.5e3
    w5: float = 0.65e8
    xi: float = 0.1
    rho_q: float = 0.1
    content_size_mb: float = 100.0
    p_hat_per_byte: float = 5e-7
    alpha: float = 0.2
    horizon: float = 1.0
    eta1_range: Tuple[float, float] = (0.1, 0.4)
    transmission_power_w: float = 1.0
    initial_mean_range: Tuple[float, float] = (0.5, 0.8)
    initial_std_choices: Tuple[float, float] = (0.05, 0.1)
    fading_range: Tuple[float, float] = (1e-5, 10e-5)


@dataclass(frozen=True)
class ChannelParameters:
    """Eq. (1) OU parameters plus the radio constants feeding Eq. (2)."""

    reversion: float = 4.0          # varsigma_h
    mean: float = 5.0               # upsilon_h
    volatility: float = 0.5         # rho_h
    bandwidth: float = 14.0         # B, in MB per unit time after conversion
    noise_power: float = 2e-5       # rho^2
    transmission_power: float = 1.0  # G
    path_loss_exponent: float = 3.0  # tau
    mean_distance: float = 50.0     # representative EDP-requester distance (m)
    mean_interference: float = 0.0  # mean-field interference at the requester

    def __post_init__(self) -> None:
        if self.reversion <= 0 or self.volatility < 0:
            raise ValueError("reversion must be > 0 and volatility >= 0")
        if self.bandwidth <= 0 or self.noise_power <= 0:
            raise ValueError("bandwidth and noise_power must be positive")
        if self.mean_distance <= 0:
            raise ValueError(f"mean_distance must be positive, got {self.mean_distance}")

    def process(self, rng: Optional[np.random.Generator] = None) -> OrnsteinUhlenbeckProcess:
        """The OU fading process of Eq. (1)."""
        kwargs = {} if rng is None else {"rng": rng}
        return OrnsteinUhlenbeckProcess(
            reversion=self.reversion, mean=self.mean, volatility=self.volatility, **kwargs
        )

    def rate_model(self) -> RateModel:
        """Eq. (2) bound to the radio constants."""
        return RateModel(bandwidth=self.bandwidth, noise_power=self.noise_power)

    def rate_of_fading(self, fading: np.ndarray) -> np.ndarray:
        """Wireless rate as a function of the fading coefficient only.

        This is the mean-field reduction used on the state grid: the
        representative link distance and mean interference stand in for
        the per-link geometry.
        """
        return self.rate_model().effective_rate_of_fading(
            fading,
            self.mean_distance,
            self.transmission_power,
            self.path_loss_exponent,
            self.mean_interference,
        )


@dataclass(frozen=True)
class CachingParameters:
    """Eq. (4) drift/diffusion parameters for the caching state."""

    w1: float = 1.0
    w2: float = 0.05
    w3: float = 10.0
    xi: float = 0.1
    noise: float = 3.0              # rho_q, MB-scale diffusion

    def drift(self) -> CachingDrift:
        """The shared drift object (validates the coefficients)."""
        return CachingDrift(w1=self.w1, w2=self.w2, w3=self.w3, xi=self.xi)


@dataclass(frozen=True)
class MFGCPConfig:
    """Full working configuration of the MFG-CP framework (MB units).

    Attributes
    ----------
    horizon:
        Finite time horizon ``T`` of one optimization epoch.
    n_time_steps:
        Reporting time resolution; solvers sub-step internally when the
        CFL condition demands it.
    content_size:
        ``Q_k`` in MB.
    n_h, n_q:
        State-grid resolution in the fading and cache dimensions.
    channel, caching:
        SDE parameter bundles.
    w4, w5, eta2, backhaul_rate:
        Cost parameters of Eqs. (8)-(9); ``backhaul_rate`` is ``H_c``.
    p_hat, eta1, sharing_price:
        Pricing parameters of Eqs. (5) and the ``p_bar_k`` sharing
        price.
    alpha, case_smoothing:
        Case-probability parameters (Section III-A).
    n_edps:
        Population size ``M``.
    n_requests:
        Expected requests ``|I_k(t)|`` per EDP per unit time for the
        solved content at the start of the epoch.
    sharer_capacity:
        How many case-2 buyers one qualified sharer can serve per
        decision step in the finite-population game (an edge link
        bandwidth limit; buyers beyond the population's total sharing
        capacity fall back to the cloud, case 3).
    demand_decay:
        Exponential saturation rate of requester demand within the
        epoch: ``|I_k(t)| = n_requests * exp(-demand_decay * t)``.
        Zero (default) keeps demand constant; the Fig. 11/12
        experiments use a positive rate to model requesters leaving
        the market once served — the effect the paper invokes to
        explain the trading-income decline ("many EDPs have cached
        enough contents and the trading processes will be reduced").
    popularity, timeliness:
        ``Pi_k`` and ``L_k`` held fixed within one epoch (the paper
        assumes demand changes slowly relative to the epoch).
    initial_mean_fraction, initial_std_fraction:
        The initial density ``lambda(0)`` over ``q`` is a truncated
        normal with this mean/std expressed as fractions of ``Q_k``
        (paper default N(0.7, 0.1^2)).
    include_sharing:
        Disable to obtain the paper's "MFG" baseline.
    max_iterations, tolerance, damping:
        Alg. 2 fixed-point controls (``psi_th``, the policy-change
        stopping threshold, and the relaxation factor).
    """

    horizon: float = 1.0
    n_time_steps: int = 100
    content_size: float = 100.0
    n_h: int = 15
    n_q: int = 45
    channel: ChannelParameters = field(default_factory=ChannelParameters)
    caching: CachingParameters = field(default_factory=CachingParameters)
    w4: float = 2.0
    w5: float = 90.0
    eta2: float = 10.0
    backhaul_rate: float = 20.0
    p_hat: float = 0.8
    eta1: float = 2e-3
    sharing_price: float = 0.3
    alpha: float = 0.2
    case_smoothing: float = 0.1
    n_edps: int = 300
    n_requests: float = 5.0
    sharer_capacity: int = 2
    demand_decay: float = 0.0
    popularity: float = 0.3
    timeliness: float = 2.0
    initial_mean_fraction: float = 0.7
    initial_std_fraction: float = 0.1
    include_sharing: bool = True
    include_trading: bool = True
    max_iterations: int = 40
    tolerance: float = 1e-3
    damping: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}"
            )
        if self.n_time_steps < 1:
            raise ValueError(f"n_time_steps must be positive, got {self.n_time_steps}")
        if not 0.0 < self.content_size < math.inf:
            raise ValueError(
                f"content_size must be positive and finite, got {self.content_size}"
            )
        if not 0.0 <= self.eta1 < math.inf:
            raise ValueError(
                f"eta1 must be non-negative and finite, got {self.eta1}"
            )
        if self.n_h < 3 or self.n_q < 3:
            raise ValueError("grid needs at least 3 points per dimension")
        if self.n_edps < 1:
            raise ValueError(f"n_edps must be positive, got {self.n_edps}")
        if not 0.0 <= self.popularity <= 1.0:
            raise ValueError(f"popularity must lie in [0, 1], got {self.popularity}")
        if not 0.0 < self.initial_mean_fraction < 1.0:
            raise ValueError("initial_mean_fraction must lie in (0, 1)")
        if self.initial_std_fraction <= 0:
            raise ValueError("initial_std_fraction must be positive")
        if self.sharer_capacity < 1:
            raise ValueError(f"sharer_capacity must be positive, got {self.sharer_capacity}")
        if self.demand_decay < 0:
            raise ValueError(f"demand_decay must be non-negative, got {self.demand_decay}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(
                f"tolerance must be positive and finite, got {self.tolerance}"
            )
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_default(cls) -> "MFGCPConfig":
        """The MB-calibrated equivalent of the Section V-A settings."""
        return cls()

    @classmethod
    def fast(cls) -> "MFGCPConfig":
        """A coarse, quick-solving configuration for tests and demos."""
        return cls(n_time_steps=40, n_h=9, n_q=25, max_iterations=25)

    def without_sharing(self) -> "MFGCPConfig":
        """The paper's MFG baseline: sharing economics disabled."""
        return replace(self, include_sharing=False)

    def with_content_size(self, content_size: float) -> "MFGCPConfig":
        """A copy targeting a different ``Q_k`` (the Fig. 6/7 sweep)."""
        return replace(self, content_size=content_size)

    # ------------------------------------------------------------------
    # Derived model objects
    # ------------------------------------------------------------------
    def pricing_model(self) -> PricingModel:
        """Eq. (5)/(17) pricing bound to this configuration."""
        return PricingModel(
            p_hat=self.p_hat, eta1=self.eta1, sharing_price=self.sharing_price
        )

    def case_probabilities(self) -> CaseProbabilities:
        """The smoothed case probabilities of Section III-A."""
        return CaseProbabilities(alpha=self.alpha, smoothing=self.case_smoothing)

    def economic_parameters(self) -> EconomicParameters:
        """The cost/price bundle consumed by the utility model."""
        return EconomicParameters(
            w4=self.w4,
            w5=self.w5,
            eta2=self.eta2,
            backhaul_rate=self.backhaul_rate,
            cases=self.case_probabilities(),
            pricing=self.pricing_model(),
            include_sharing=self.include_sharing,
            include_trading=self.include_trading,
        )

    def utility_model(self) -> UtilityModel:
        """Eq. (10) bound to this configuration's content."""
        return UtilityModel(
            params=self.economic_parameters(), content_size=self.content_size
        )

    def caching_drift(self) -> CachingDrift:
        """The Eq. (4) drift coefficients."""
        return self.caching.drift()

    def ou_process(self, rng: Optional[np.random.Generator] = None) -> OrnsteinUhlenbeckProcess:
        """The Eq. (1) fading process."""
        return self.channel.process(rng)

    def drift_rate(self, x: np.ndarray) -> np.ndarray:
        """Eq. (4) drift of ``q`` in MB per unit time under control ``x``.

        Uses the epoch-frozen popularity and timeliness of this config.
        """
        return self.content_size * self.caching_drift().rate(
            x, self.popularity, self.timeliness
        )

    def initial_density_moments(self) -> Tuple[float, float]:
        """Mean and std (MB) of the initial cache-space density."""
        return (
            self.initial_mean_fraction * self.content_size,
            self.initial_std_fraction * self.content_size,
        )

    def n_requests_at(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """Expected request rate ``|I_k(t)|`` at time ``t``."""
        return self.n_requests * np.exp(-self.demand_decay * np.asarray(t, dtype=float))

    def time_axis(self) -> np.ndarray:
        """The reporting time grid ``0 = t_0 < ... < t_N = T``."""
        return np.linspace(0.0, self.horizon, self.n_time_steps + 1)
