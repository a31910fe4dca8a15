"""Backward HJB solver for the generic player, Eq. (20).

The value function ``V(t, h, q)`` of the generic EDP satisfies

    max_x [ (1/2) varsigma_h (upsilon_h - h) d_h V
            + (1/2) rho_h^2 d_hh V
            + Q_k ( -w1 x - w2 Pi + w3 xi^L ) d_q V
            + (1/2) rho_q^2 d_qq V
            + U(t, x, S, lambda) ] + d_t V = 0,

with terminal condition ``V(T) = 0`` (no salvage value after the
epoch).

Discretisation.  The control enters both the ``q`` drift and the
running utility, so a naive central-difference control extraction is
nonlinearly unstable (checkerboard modes in ``d_q V`` flip the
bang-bang control and amplify).  We therefore use a **monotone Godunov
scheme** for the controlled ``q`` advection: writing the drift as
``b_q(x) = Q_k (c - w1 x)`` with ``c = -w2 Pi + w3 xi^L`` and the
control-coupled utility as ``-a x - w5 x^2``
(``a = w4 + eta2 Q_k / H_c``), the Hamiltonian is maximised separately
on the two upwind branches:

* drift >= 0 (``x <= c / w1``): forward difference ``D+ V`` (the
  backward-in-time equation reads along forward characteristics),
* drift <= 0 (``x >= c / w1``): backward difference ``D- V``,

each a clipped concave quadratic with a closed-form maximiser (the
Eq. (21) formula restricted to the branch).  The node takes the larger
branch value and its argmax as the policy.  The uncontrolled ``h``
advection uses plain sign-upwinding; diffusion is central; time
stepping is explicit Euler with CFL sub-division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from scipy.special import expit

from repro.core.grid import BatchGrid, StateGrid, check_out_buffer
from repro.core.mean_field import MeanFieldPath
from repro.core.operators import (
    batched_second_derivative,
    batched_upwind_gradient,
    central_gradient,
    second_derivative,
    stable_time_step,
    upwind_gradient,
)
from repro.core.parameters import MFGCPConfig
from repro.core.policy import CachingPolicy, optimal_control


@dataclass(frozen=True)
class HJBSolution:
    """Output of one backward HJB sweep.

    Attributes
    ----------
    grid:
        The state grid.
    value:
        ``V(t, h, q)``, shape ``grid.path_shape``.
    policy:
        The maximising control table ``x*(t, h, q)`` extracted during
        the sweep, wrapped for interpolation.
    """

    grid: StateGrid
    value: np.ndarray
    policy: CachingPolicy

    def value_gradient_q(self, time_index: int) -> np.ndarray:
        """``d_q V`` at a reporting time (central differences)."""
        return central_gradient(self.value[time_index], self.grid.dq, axis=1)

    def initial_value(self, h: float, q: float) -> float:
        """``V(0, h, q)`` — the accumulated optimal utility from state."""
        ih, iq = self.grid.locate(h, q)
        return float(self.value[0, ih, iq])


def _residual_sample_times(n_intervals: int, max_samples: int) -> np.ndarray:
    """Up to ``max_samples`` evenly spaced reporting intervals."""
    n_samples = max(1, min(int(max_samples), n_intervals))
    return np.unique(
        np.linspace(0, n_intervals - 1, n_samples).round().astype(int)
    )


class HJBSolver:
    """Monotone (Godunov) finite-difference solver for Eq. (20)."""

    def __init__(self, config: MFGCPConfig, grid: StateGrid) -> None:
        self.config = config
        self.grid = grid
        self._utility = config.utility_model()
        # Fading drift b_h = (1/2) varsigma_h (upsilon_h - h): constant
        # over time, broadcast over the spatial shape.
        ch = config.channel
        self._drift_h = 0.5 * ch.reversion * (ch.mean - grid.h)[:, None]
        self._rate_of_h = np.asarray(
            ch.rate_of_fading(grid.h), dtype=float
        )[:, None]
        if np.any(self._rate_of_h <= 0):
            raise ValueError(
                "wireless rate non-positive on the grid; widen h bounds or "
                "adjust the radio parameters"
            )
        self._diff_h = 0.5 * ch.volatility**2
        self._diff_q = 0.5 * config.caching.noise**2

        drift = config.caching_drift()
        # Control-free drift multiplier c and its balance point x_c at
        # which the q drift changes sign.
        self._drift_const = float(
            drift.rate(0.0, config.popularity, config.timeliness)
        )
        self._w1 = drift.w1
        if self._w1 > 0:
            self._x_balance = float(np.clip(self._drift_const / self._w1, 0.0, 1.0))
        else:
            self._x_balance = 1.0 if self._drift_const >= 0 else 0.0
        # Control-coupled utility: U(x) = U(0) - a x - w5 x^2.
        self._a_lin, self._w5 = self._utility.control_gradient_constants()

    # ------------------------------------------------------------------
    # Sub-stepping
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Godunov Hamiltonian in q
    # ------------------------------------------------------------------
    def _one_sided_gradients_q(self, value: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Backward and forward differences in ``q`` with Neumann ghosts."""
        dq = self.grid.dq
        backward = np.zeros_like(value)
        forward = np.zeros_like(value)
        backward[:, 1:] = (value[:, 1:] - value[:, :-1]) / dq
        forward[:, :-1] = (value[:, 1:] - value[:, :-1]) / dq
        # Reflecting state boundaries => zero normal derivative ghosts.
        return backward, forward

    def _branch_maximum(
        self, grad: np.ndarray, x_lo: float, x_hi: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Maximise the control part of the Hamiltonian on one branch.

        ``g(x) = b_q(x) grad - a x - w5 x^2`` with
        ``b_q(x) = Q (c - w1 x)``, maximised over ``x in [x_lo, x_hi]``.
        Returns the branch value and its argmax (arrays over the grid).
        """
        cfg = self.config
        q_size = cfg.content_size
        x_star = optimal_control(
            grad, q_size, self._w1, cfg.w4, cfg.w5, cfg.eta2, cfg.backhaul_rate
        )
        x = np.clip(x_star, x_lo, x_hi)
        value = q_size * (self._drift_const - self._w1 * x) * grad - self._a_lin * x - self._w5 * x**2
        return value, x

    def _godunov_q(self, value: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Monotone upwinded ``max_x [ b_q(x) d_qV - a x - w5 x^2 ]``.

        Returns the Hamiltonian contribution and the maximising control.
        """
        backward, forward = self._one_sided_gradients_q(value)
        # Upwinding for the BACKWARD-in-time equation follows the
        # forward characteristics: V(t, q) ~ V(t+dt, q + b dt), so
        # positive drift reads from larger q (forward difference).
        # Branch A: drift >= 0 (x below the balance point) -> D+ V.
        val_a, x_a = self._branch_maximum(forward, 0.0, self._x_balance)
        # Branch B: drift <= 0 (x above the balance point) -> D- V.
        val_b, x_b = self._branch_maximum(backward, self._x_balance, 1.0)
        take_a = val_a >= val_b
        return np.where(take_a, val_a, val_b), np.where(take_a, x_a, x_b)

    def _step_rhs(self, value: np.ndarray, ctx) -> Tuple[np.ndarray, np.ndarray]:
        """The bracketed operator of Eq. (20) and the maximising control."""
        grid = self.grid
        ham_q, control = self._godunov_q(value)
        # Negated velocity flips the upwind side: the backward-time
        # equation reads along forward characteristics (see _godunov_q).
        adv_h = self._drift_h * upwind_gradient(value, grid.dh, -self._drift_h, axis=0)
        diff = self._diff_h * second_derivative(
            value, grid.dh, axis=0
        ) + self._diff_q * second_derivative(value, grid.dq, axis=1)
        # Control-free running utility U(x=0); the control-coupled part
        # (-a x - w5 x^2) already lives inside the Godunov term.
        utility0 = self._utility.total(0.0, grid.q_mesh(), self._rate_of_h, ctx)
        return adv_h + ham_q + diff + utility0, control

    def control_from_value(self, value: np.ndarray) -> np.ndarray:
        """The Godunov-consistent policy for a value sheet."""
        return self._godunov_q(value)[1]

    def residual_norm(
        self,
        value_path: np.ndarray,
        mean_field: MeanFieldPath,
        max_samples: int = 8,
    ) -> float:
        """Scale-free discrete residual of a settled value path.

        Measures ``max_t || (V[t] - V[t+1]) / dt - L(V[t+1]; m(t)) ||_inf
        / (1 + ||L||_inf)`` at up to ``max_samples`` evenly-spaced
        reporting intervals, where ``L`` is the bracketed Eq. (20)
        operator.  A healthy sweep leaves O(dt) residual (substepping +
        the nonlinearity of the Godunov Hamiltonian); NaN/Inf or an
        exploding value means the backward sweep diverged.  This is a
        diagnostic for the numerical-health probes, not a convergence
        criterion — it reuses the solver's own discretisation so the
        number is comparable across runs of the same grid.
        """
        grid = self.grid
        value_path = np.asarray(value_path, dtype=float)
        if value_path.shape != grid.path_shape:
            raise ValueError(
                f"value path shape {value_path.shape} != grid {grid.path_shape}"
            )
        worst = 0.0
        for ti in _residual_sample_times(grid.n_t, max_samples):
            ctx = mean_field.context(int(ti))
            rhs, _ = self._step_rhs(value_path[ti + 1], ctx)
            residual = (value_path[ti] - value_path[ti + 1]) / grid.dt - rhs
            scale = 1.0 + float(np.max(np.abs(rhs)))
            ratio = float(np.max(np.abs(residual))) / scale
            if not np.isfinite(ratio):
                return float("nan")
            worst = max(worst, ratio)
        return worst

    def solve(
        self,
        mean_field: MeanFieldPath,
        terminal_value: Optional[np.ndarray] = None,
    ) -> HJBSolution:
        """Backward sweep from ``V(T)`` to ``V(0)`` against a mean field.

        Parameters
        ----------
        mean_field:
            The estimator's market paths (price, peer state, sharing
            benefit per reporting time).
        terminal_value:
            ``V(T, h, q)``; defaults to zero (no salvage value).
        """
        grid = self.grid
        value_path = np.empty(grid.path_shape)
        policy_path = np.empty(grid.path_shape)

        if terminal_value is None:
            value = np.zeros(grid.shape)
        else:
            value = np.asarray(terminal_value, dtype=float).copy()
            if value.shape != grid.shape:
                raise ValueError(
                    f"terminal value shape {value.shape} != grid {grid.shape}"
                )
        value_path[grid.n_t] = value
        policy_path[grid.n_t] = self.control_from_value(value)

        n_sub = self.substeps_per_interval()
        dt_sub = grid.dt / n_sub
        for ti in range(grid.n_t - 1, -1, -1):
            ctx = mean_field.context(ti)
            for _ in range(n_sub):
                rhs, _control = self._step_rhs(value, ctx)
                value = value + dt_sub * rhs
            value_path[ti] = value
            # Re-extract the control from the settled value sheet so the
            # stored policy is exactly Godunov-consistent with it.
            policy_path[ti] = self.control_from_value(value)

        return HJBSolution(
            grid=grid,
            value=value_path,
            policy=CachingPolicy(grid=grid, table=policy_path),
        )


def validate_shared_lane_params(configs: Sequence[MFGCPConfig]) -> None:
    """Check that a batch of per-content configs may share one sweep.

    The batched solvers assume the lanes differ only in the per-content
    demand fields (``content_size``, ``popularity``, ``timeliness``,
    ``n_requests``) — exactly what
    :meth:`~repro.core.solver.MFGCPSolver.per_content_config`
    specialises.  Channel, caching-drift, and economic parameters must
    be common so the fading operators and utility constants are shared.
    """
    first = configs[0]
    for i, cfg in enumerate(configs[1:], start=1):
        if cfg.channel != first.channel:
            raise ValueError(f"lane {i} has a different channel model")
        if cfg.caching != first.caching:
            raise ValueError(f"lane {i} has a different caching process")
        if cfg.economic_parameters() != first.economic_parameters():
            raise ValueError(f"lane {i} has different economic parameters")


def _batched_control_free_utility(
    params,
    size_col: np.ndarray,
    q_mesh: np.ndarray,
    wireless_rate: np.ndarray,
    n_requests_col: np.ndarray,
    price_col: np.ndarray,
    q_other_col: np.ndarray,
    benefit_col: np.ndarray,
) -> np.ndarray:
    """Eq. (10) at ``x = 0`` for a batch of lanes in one numpy pass.

    Replicates :meth:`repro.economics.utility.UtilityModel.total`
    term by term and in the same float operation order, with every
    per-lane scalar lifted to a ``(B, 1, 1)`` column — lane ``b`` is
    bit-identical to the scalar evaluation (the equivalence tests
    assert it).  The control-coupled terms (``-a x - w5 x^2``) vanish
    at ``x = 0``, matching the scalar HJB solver's ``utility0``.
    """
    two_l = 2.0 * params.cases.smoothing
    thr = params.cases.alpha * size_col
    have = expit(two_l * (thr - q_mesh))
    lack = 1.0 - have
    peer_has = expit(two_l * (thr - q_other_col))
    p1, p2, p3 = have, lack * peer_has, lack * (1.0 - peer_has)

    if params.include_trading:
        sold = (
            p1 * (size_col - q_mesh)
            + p2 * (size_col - q_other_col)
            + p3 * size_col
        )
        income = n_requests_col * price_col * sold
    else:
        income = np.zeros(np.broadcast_shapes(q_mesh.shape, size_col.shape))

    per_request = (
        p1 * (size_col - q_mesh) / wireless_rate
        + p2 * (size_col - q_other_col) / wireless_rate
        + p3 * (q_mesh / params.backhaul_rate + size_col / wireless_rate)
    )
    stale = params.eta2 * (n_requests_col * per_request)

    if params.include_sharing:
        benefit = p1 * benefit_col
        transfer = np.maximum(q_mesh - q_other_col, 0.0)
        share_cost = p2 * params.pricing.sharing_price * transfer
        return income + benefit - stale - share_cost
    return income - stale


class BatchedHJBSolver:
    """One vectorized backward sweep over a batch of content lanes.

    Wraps one scalar :class:`HJBSolver` per lane (so every per-lane
    constant — drift balance point, linear utility coefficient, CFL
    substep count — is *by construction* the scalar solver's value) and
    advances all lanes together through the batched stencil operators.
    Lanes with fewer CFL substeps than the batch maximum freeze once
    their own substeps are done, so each lane reproduces its scalar
    update sequence exactly.
    """

    def __init__(self, configs: Sequence[MFGCPConfig], grid: BatchGrid) -> None:
        self.configs = list(configs)
        self.grid = grid
        if len(self.configs) != grid.n_lanes:
            raise ValueError(
                f"{len(self.configs)} configs for {grid.n_lanes} grid lanes"
            )
        validate_shared_lane_params(self.configs)
        self.lane_solvers = [
            HJBSolver(cfg, grid.lane(b)) for b, cfg in enumerate(self.configs)
        ]
        first = self.lane_solvers[0]
        # Shared (channel-derived) pieces, identical across lanes.
        self._drift_h = first._drift_h  # (n_h, 1), broadcasts over lanes
        self._rate_of_h = first._rate_of_h
        self._diff_h = first._diff_h
        self._diff_q = first._diff_q
        self._w1 = first._w1
        self._w5 = first._w5
        self._params = first._utility.params
        cfg0 = self.configs[0]
        self._w4 = cfg0.w4
        self._eta2 = cfg0.eta2
        self._backhaul = cfg0.backhaul_rate
        # Per-lane constants, stacked from the scalar solvers.
        self._drift_const = np.array(
            [s._drift_const for s in self.lane_solvers]
        )
        self._x_balance = np.array([s._x_balance for s in self.lane_solvers])
        self._a_lin = np.array([s._a_lin for s in self.lane_solvers])
        self._q_size = np.array([cfg.content_size for cfg in self.configs])
        self._n_sub = np.array(
            [s.substeps_per_interval() for s in self.lane_solvers], dtype=int
        )

    # ------------------------------------------------------------------
    # Batched Godunov Hamiltonian
    # ------------------------------------------------------------------
    def _one_sided_gradients_q(
        self, value: np.ndarray, dq_col: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        backward = np.zeros_like(value)
        forward = np.zeros_like(value)
        diff = (value[:, :, 1:] - value[:, :, :-1]) / dq_col
        backward[:, :, 1:] = diff
        forward[:, :, :-1] = diff
        return backward, forward

    def _branch_maximum(self, grad, x_lo, x_hi, size_col, const_col, a_col):
        # Inlined Eq. (21) (optimal_control validates scalar sizes);
        # identical float operation order with per-lane columns.
        raw = -(
            self._w4 / (2.0 * self._w5)
            + self._eta2 * size_col / (2.0 * self._backhaul * self._w5)
            + size_col * self._w1 * grad / (2.0 * self._w5)
        )
        x = np.clip(np.clip(raw, 0.0, 1.0), x_lo, x_hi)
        value = (
            size_col * (const_col - self._w1 * x) * grad
            - a_col * x
            - self._w5 * x**2
        )
        return value, x

    def _godunov_q(self, value, lanes, dq_col):
        size_col = self._q_size[lanes][:, None, None]
        const_col = self._drift_const[lanes][:, None, None]
        a_col = self._a_lin[lanes][:, None, None]
        xbal_col = self._x_balance[lanes][:, None, None]
        backward, forward = self._one_sided_gradients_q(value, dq_col)
        val_a, x_a = self._branch_maximum(
            forward, 0.0, xbal_col, size_col, const_col, a_col
        )
        val_b, x_b = self._branch_maximum(
            backward, xbal_col, 1.0, size_col, const_col, a_col
        )
        take_a = val_a >= val_b
        return np.where(take_a, val_a, val_b), np.where(take_a, x_a, x_b)

    def _step_rhs(self, value, utility0, lanes, dq_col):
        grid = self.grid
        ham_q, control = self._godunov_q(value, lanes, dq_col)
        adv_h = self._drift_h * batched_upwind_gradient(
            value, grid.dh, -self._drift_h, axis=0
        )
        diff = self._diff_h * batched_second_derivative(
            value, grid.dh, axis=0
        ) + self._diff_q * batched_second_derivative(value, dq_col, axis=1)
        return adv_h + ham_q + diff + utility0, control

    def control_from_value(self, value, lanes, dq_col) -> np.ndarray:
        """The Godunov-consistent policy sheets for a batch of values."""
        return self._godunov_q(value, lanes, dq_col)[1]

    def _utility0(self, mean_fields, lanes, ti, q_mesh) -> np.ndarray:
        """Control-free running utility for one reporting interval.

        The scalar solver recomputes this inside every CFL substep, but
        it depends only on the interval's market context — hoisting it
        here is value-identical and saves ``n_sub - 1`` evaluations.
        """

        def col(values):
            return np.array(values)[:, None, None]

        n_col = col([float(mf.n_requests[ti]) for mf in mean_fields])
        price_col = col([float(mf.price[ti]) for mf in mean_fields])
        q_other_col = col([float(mf.mean_q[ti]) for mf in mean_fields])
        benefit_col = col([float(mf.sharing_benefit[ti]) for mf in mean_fields])
        return _batched_control_free_utility(
            self._params,
            self._q_size[lanes][:, None, None],
            q_mesh,
            self._rate_of_h,
            n_col,
            price_col,
            q_other_col,
            benefit_col,
        )

    def _lanes(self, lanes: Optional[np.ndarray], n_inputs: int) -> np.ndarray:
        """Requested lane indices (default all), one per mean field."""
        grid = self.grid
        lanes = (
            np.arange(grid.n_lanes) if lanes is None else np.asarray(lanes, int)
        )
        if n_inputs != lanes.size:
            raise ValueError(f"{n_inputs} mean fields for {lanes.size} lanes")
        return lanes

    def residual_norms(
        self,
        value_paths: np.ndarray,
        mean_fields: Sequence[MeanFieldPath],
        lanes: Optional[np.ndarray] = None,
        max_samples: int = 8,
    ) -> np.ndarray:
        """:meth:`HJBSolver.residual_norm` for every requested lane at once.

        One batched operator evaluation per sampled reporting time
        covers all lanes; lane ``j`` of the result is bit-identical to
        the scalar solver's residual of ``value_paths[j]``.
        """
        grid = self.grid
        lanes = self._lanes(lanes, len(mean_fields))
        value_paths = np.asarray(value_paths, dtype=float)
        expected = (lanes.size, grid.n_t + 1, grid.n_h, grid.n_q)
        if value_paths.shape != expected:
            raise ValueError(
                f"value paths shape {value_paths.shape} != batch {expected}"
            )
        dq_col = grid.dq[lanes][:, None, None]
        q_mesh = grid.q_mesh()[lanes]
        worst = np.zeros(lanes.size)
        for ti in _residual_sample_times(grid.n_t, max_samples):
            utility0 = self._utility0(mean_fields, lanes, ti, q_mesh)
            rhs, _ = self._step_rhs(value_paths[:, ti + 1], utility0, lanes, dq_col)
            residual = (value_paths[:, ti] - value_paths[:, ti + 1]) / grid.dt - rhs
            scale = 1.0 + np.max(np.abs(rhs), axis=(1, 2))
            ratio = np.max(np.abs(residual), axis=(1, 2)) / scale
            # A NaN ratio sticks, as it stops the scalar probe.
            worst = np.maximum(worst, ratio)
        # The scalar probe reports its first non-finite ratio as NaN.
        worst[~np.isfinite(worst)] = np.nan
        return worst

    def solve(
        self,
        mean_fields: Sequence[MeanFieldPath],
        lanes: Optional[np.ndarray] = None,
        terminal_value: Optional[np.ndarray] = None,
        out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backward sweep advancing every requested lane simultaneously.

        Parameters
        ----------
        mean_fields:
            One :class:`MeanFieldPath` per requested lane, in lane
            order.
        lanes:
            Lane indices into the batch (default: all lanes).  Passing
            the active subset is how the best-response iterator drops
            converged contents out of the batch.
        terminal_value:
            ``V(T)`` per lane, shape ``(b, n_h, n_q)``; defaults to
            zero.
        out:
            Optional ``(value_path, policy_path)`` buffers of shape
            ``(b, n_t + 1, n_h, n_q)`` to write the sweep into instead
            of allocating new arrays.

        Returns
        -------
        (value_path, policy_path):
            Arrays of shape ``(b, n_t + 1, n_h, n_q)`` (``out`` when
            given).
        """
        grid = self.grid
        lanes = self._lanes(lanes, len(mean_fields))
        b = lanes.size
        shape = (b, grid.n_h, grid.n_q)
        if terminal_value is None:
            value = np.zeros(shape)
        else:
            value = np.asarray(terminal_value, dtype=float).copy()
            if value.shape != shape:
                raise ValueError(
                    f"terminal value shape {value.shape} != batch {shape}"
                )

        dq_col = grid.dq[lanes][:, None, None]
        q_mesh = grid.q_mesh()[lanes]
        if out is None:
            value_path = np.empty((b, grid.n_t + 1, grid.n_h, grid.n_q))
            policy_path = np.empty_like(value_path)
        else:
            value_path, policy_path = out
            check_out_buffer(value_path, (b, grid.n_t + 1, grid.n_h, grid.n_q))
            check_out_buffer(policy_path, value_path.shape)
        value_path[:, grid.n_t] = value
        policy_path[:, grid.n_t] = self.control_from_value(value, lanes, dq_col)

        n_sub = self._n_sub[lanes]
        max_sub = int(n_sub.max())
        dt_sub = grid.dt / n_sub  # per-lane substep, (b,)
        dt_col = dt_sub[:, None, None]
        uniform = bool(np.all(n_sub == n_sub[0]))
        for ti in range(grid.n_t - 1, -1, -1):
            utility0 = self._utility0(mean_fields, lanes, ti, q_mesh)
            for s in range(max_sub):
                if uniform:
                    rhs, _ = self._step_rhs(value, utility0, lanes, dq_col)
                    value = value + dt_col * rhs
                else:
                    # Lanes whose own substep count is exhausted freeze;
                    # the stepping subset advances with its own dt.
                    idx = np.flatnonzero(s < n_sub)
                    rhs, _ = self._step_rhs(
                        value[idx], utility0[idx], lanes[idx], dq_col[idx]
                    )
                    value[idx] = value[idx] + dt_col[idx] * rhs
            value_path[:, ti] = value
            policy_path[:, ti] = self.control_from_value(value, lanes, dq_col)
        return value_path, policy_path
