"""Forward FPK solver for the population density, Eq. (15).

When every EDP follows the solved optimal strategy, the mean-field
density ``lambda(t, h, q)`` evolves by the Fokker-Planck-Kolmogorov
equation

    d_t lambda + d_h( b_h lambda ) + d_q( b_q(x*) lambda )
        - (1/2) rho_h^2 d_hh lambda - (1/2) rho_q^2 d_qq lambda = 0

with ``b_h = (1/2) varsigma_h (upsilon_h - h)`` and ``b_q`` the Eq. (4)
drift under the current policy.  The solver uses conservative
donor-cell advection and zero-flux diffusion so total probability mass
is preserved exactly; the reflecting boundary in ``q`` mirrors the
physical clamp of the remaining space to ``[0, Q_k]``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.grid import BatchGrid, StateGrid, check_out_buffer
from repro.core.operators import (
    batched_conservative_advection,
    batched_conservative_diffusion,
    conservative_advection,
    conservative_diffusion,
    stable_time_step,
)
from repro.core.parameters import MFGCPConfig


def normal_pdf(x: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """The normal density, bit-identical to ``scipy.stats.norm.pdf``.

    Written out in numpy (same operation order as scipy's) so that
    importing the solver never pulls in ``scipy.stats``.
    """
    z = (np.asarray(x, dtype=float) - loc) / scale
    return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / scale


def initial_density(
    grid: StateGrid,
    config: MFGCPConfig,
    mean_q: Optional[float] = None,
    std_q: Optional[float] = None,
) -> np.ndarray:
    """The initial mean-field density ``lambda(0, h, q)``.

    The paper draws the initial cache state from a normal distribution
    (default ``N(0.7 Q, (0.1 Q)^2)``); the fading coordinate starts in
    the OU stationary law.  Both marginals are truncated to the grid
    and the product is normalised to unit mass.
    """
    mq, sq = config.initial_density_moments()
    mean_q = mq if mean_q is None else float(mean_q)
    std_q = sq if std_q is None else float(std_q)
    if std_q <= 0:
        raise ValueError(f"std_q must be positive, got {std_q}")

    ou_mean, ou_std = config.ou_process().stationary_moments()
    if ou_std <= 0:
        # Deterministic channel: a sharp peak at the mean.
        h_density = np.zeros(grid.n_h)
        h_density[grid.locate(ou_mean, 0.0)[0]] = 1.0
    else:
        h_density = normal_pdf(grid.h, loc=ou_mean, scale=ou_std)
    q_density = normal_pdf(grid.q, loc=mean_q, scale=std_q)
    density = np.outer(h_density, q_density)
    return grid.normalize(density)


class FPKSolver:
    """Explicit conservative finite-difference solver for Eq. (15).

    ``telemetry`` is optional and only consulted on failure paths (the
    zero-mass guard in :meth:`StateGrid.normalize`); passing it lets a
    dying forward sweep record a ``diag.density.zero_mass`` event
    before raising.
    """

    def __init__(
        self, config: MFGCPConfig, grid: StateGrid, telemetry=None
    ) -> None:
        self.config = config
        self.grid = grid
        self.telemetry = telemetry
        ch = config.channel
        self._drift_h = 0.5 * ch.reversion * (ch.mean - grid.h)[:, None]
        self._diff_h = 0.5 * ch.volatility**2
        self._diff_q = 0.5 * config.caching.noise**2

    def stable_step(self) -> float:
        """The CFL-stable explicit time step for this configuration."""
        cfg = self.config
        max_bh = float(np.max(np.abs(self._drift_h)))
        drift0 = float(np.abs(cfg.drift_rate(np.array(0.0))))
        drift1 = float(np.abs(cfg.drift_rate(np.array(1.0))))
        max_bq = max(drift0, drift1)
        return stable_time_step(
            max_bh, max_bq, self.grid.dh, self.grid.dq, self._diff_h, self._diff_q
        )

    def substeps_per_interval(self) -> int:
        """Number of CFL substeps per reporting interval."""
        return max(1, int(np.ceil(self.grid.dt / self.stable_step())))

    def _step(self, density: np.ndarray, drift_q: np.ndarray, dt: float) -> np.ndarray:
        """One explicit conservative step of Eq. (15)."""
        grid = self.grid
        update = (
            conservative_advection(density, self._drift_h, grid.dh, axis=0)
            + conservative_advection(density, drift_q, grid.dq, axis=1)
            + conservative_diffusion(density, self._diff_h, grid.dh, axis=0)
            + conservative_diffusion(density, self._diff_q, grid.dq, axis=1)
        )
        new = density + dt * update
        # Donor-cell + explicit diffusion can undershoot by rounding at
        # steep fronts; clip and renormalise to keep a probability law.
        new = np.maximum(new, 0.0)
        return grid.normalize(new, telemetry=self.telemetry)

    def solve(
        self,
        policy_table: np.ndarray,
        density0: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward sweep from ``lambda(0)`` under the given policy.

        Parameters
        ----------
        policy_table:
            ``x*(t, h, q)`` of shape ``grid.path_shape`` — each
            reporting interval uses its left-endpoint policy sheet.
        density0:
            Initial density; defaults to :func:`initial_density`.

        Returns
        -------
        numpy.ndarray
            Density path of shape ``grid.path_shape`` with unit mass at
            every reporting time.
        """
        grid = self.grid
        policy_table = np.asarray(policy_table, dtype=float)
        if policy_table.shape != grid.path_shape:
            raise ValueError(
                f"policy table shape {policy_table.shape} != grid "
                f"{grid.path_shape}"
            )
        if density0 is None:
            density = initial_density(grid, self.config)
        else:
            density = grid.normalize(
                np.asarray(density0, dtype=float), telemetry=self.telemetry
            )

        path = np.empty(grid.path_shape)
        path[0] = density
        n_sub = self.substeps_per_interval()
        dt_sub = grid.dt / n_sub
        for ti in range(grid.n_t):
            drift_q = self.config.drift_rate(policy_table[ti])
            for _ in range(n_sub):
                density = self._step(density, drift_q, dt_sub)
            path[ti + 1] = density
        return path


def batched_initial_density(
    grid: BatchGrid, configs: Sequence[MFGCPConfig]
) -> np.ndarray:
    """Per-lane :func:`initial_density`, stacked to ``(B, n_h, n_q)``.

    Each lane's marginals come from its own config (``N(0.7 Q_k,
    (0.1 Q_k)^2)`` over that lane's cache axis), so lane ``b`` is
    bit-identical to ``initial_density(grid.lane(b), configs[b])``.
    """
    if len(configs) != grid.n_lanes:
        raise ValueError(f"{len(configs)} configs for {grid.n_lanes} lanes")
    return np.stack(
        [
            initial_density(grid.lane(b), cfg)
            for b, cfg in enumerate(configs)
        ]
    )


class BatchedFPKSolver:
    """One vectorized forward sweep over a batch of content lanes.

    Mirrors :class:`FPKSolver` with the content axis leading: the
    donor-cell advection, zero-flux diffusion, positivity clip, and
    per-substep renormalisation all act elementwise along the batch, so
    every lane's density path matches its scalar solve bit-for-bit.
    ``content_ids`` names the lanes in zero-mass diagnostics so a
    strict-numerics abort identifies the offending content.
    """

    def __init__(
        self,
        configs: Sequence[MFGCPConfig],
        grid: BatchGrid,
        telemetry=None,
        content_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.configs = list(configs)
        self.grid = grid
        self.telemetry = telemetry
        if len(self.configs) != grid.n_lanes:
            raise ValueError(
                f"{len(self.configs)} configs for {grid.n_lanes} grid lanes"
            )
        self.content_ids = (
            list(range(grid.n_lanes))
            if content_ids is None
            else [int(k) for k in content_ids]
        )
        self.lane_solvers = [
            FPKSolver(cfg, grid.lane(b), telemetry=telemetry)
            for b, cfg in enumerate(self.configs)
        ]
        first = self.lane_solvers[0]
        self._drift_h = first._drift_h  # shared (n_h, 1) channel drift
        self._diff_h = first._diff_h
        self._diff_q = first._diff_q
        # Per-lane pieces of drift_rate(x) = Q_k * (-w1 x - w2 pi + w3 xi^L),
        # precomputed with the scalar operation order so the batched
        # drift matches MFGCPConfig.drift_rate bit-for-bit.
        drift = self.configs[0].caching_drift()
        self._w1 = drift.w1
        self._w2_pop = np.array(
            [drift.w2 * cfg.popularity for cfg in self.configs]
        )
        self._w3_xi = np.array(
            [
                drift.w3 * np.power(drift.xi, cfg.timeliness)
                for cfg in self.configs
            ]
        )
        self._q_size = np.array([cfg.content_size for cfg in self.configs])
        self._n_sub = np.array(
            [s.substeps_per_interval() for s in self.lane_solvers], dtype=int
        )

    def _drift_q(self, policy_sheets: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """Per-lane Eq. (4) drift under the interval's policy sheets."""
        size_col = self._q_size[lanes][:, None, None]
        w2_pop_col = self._w2_pop[lanes][:, None, None]
        w3_xi_col = self._w3_xi[lanes][:, None, None]
        return size_col * (-self._w1 * policy_sheets - w2_pop_col + w3_xi_col)

    def _step(
        self,
        density: np.ndarray,
        drift_q: np.ndarray,
        dt_col: np.ndarray,
        dq_col: np.ndarray,
        subgrid: BatchGrid,
        content_ids: Sequence[int],
    ) -> np.ndarray:
        """One explicit conservative step for every lane in the batch."""
        grid = self.grid
        update = (
            batched_conservative_advection(density, self._drift_h, grid.dh, axis=0)
            + batched_conservative_advection(density, drift_q, dq_col, axis=1)
            + batched_conservative_diffusion(density, self._diff_h, grid.dh, axis=0)
            + batched_conservative_diffusion(density, self._diff_q, dq_col, axis=1)
        )
        new = density + dt_col * update
        new = np.maximum(new, 0.0)
        return subgrid.normalize(
            new, telemetry=self.telemetry, content_ids=content_ids
        )

    def solve(
        self,
        policy_tables: np.ndarray,
        density0: Optional[np.ndarray] = None,
        lanes: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward sweep advancing every requested lane simultaneously.

        Parameters
        ----------
        policy_tables:
            ``x*(t, h, q)`` per lane, shape ``(b, n_t + 1, n_h, n_q)``.
        density0:
            Initial densities ``(b, n_h, n_q)``; defaults to the
            per-lane :func:`initial_density`.
        lanes:
            Lane indices into the batch (default: all).
        out:
            Optional buffer of shape ``(b, n_t + 1, n_h, n_q)`` to
            write the density paths into instead of a new array.

        Returns
        -------
        numpy.ndarray
            Density paths, shape ``(b, n_t + 1, n_h, n_q)`` (``out``
            when given).
        """
        grid = self.grid
        lanes = (
            np.arange(grid.n_lanes) if lanes is None else np.asarray(lanes, int)
        )
        b = lanes.size
        expected = (b, grid.n_t + 1, grid.n_h, grid.n_q)
        policy_tables = np.asarray(policy_tables, dtype=float)
        if policy_tables.shape != expected:
            raise ValueError(
                f"policy tables shape {policy_tables.shape} != batch {expected}"
            )
        subgrid = grid.select(lanes)
        ids = [self.content_ids[int(i)] for i in lanes]
        if density0 is None:
            density = batched_initial_density(
                subgrid, [self.configs[int(i)] for i in lanes]
            )
        else:
            density = subgrid.normalize(
                np.asarray(density0, dtype=float),
                telemetry=self.telemetry,
                content_ids=ids,
            )

        dq_col = grid.dq[lanes][:, None, None]
        n_sub = self._n_sub[lanes]
        max_sub = int(n_sub.max())
        dt_col = (grid.dt / n_sub)[:, None, None]
        uniform = bool(np.all(n_sub == n_sub[0]))
        if out is None:
            path = np.empty(expected)
        else:
            check_out_buffer(out, expected)
            path = out
        path[:, 0] = density
        for ti in range(grid.n_t):
            drift_q = self._drift_q(policy_tables[:, ti], lanes)
            for s in range(max_sub):
                if uniform:
                    density = self._step(
                        density, drift_q, dt_col, dq_col, subgrid, ids
                    )
                else:
                    idx = np.flatnonzero(s < n_sub)
                    density[idx] = self._step(
                        density[idx],
                        drift_q[idx],
                        dt_col[idx],
                        dq_col[idx],
                        subgrid.select(idx),
                        [ids[int(i)] for i in idx],
                    )
            path[:, ti + 1] = density
        return path
