"""Iterative best-response learning scheme, Algorithm 2.

The coupled HJB-FPK system is solved by fixed-point iteration:

1. initialise the policy and the mean-field estimate;
2. solve the backward HJB against the current mean field and extract
   the Eq. (21) best response;
3. stop when the policy change drops below the preset threshold;
4. otherwise solve the forward FPK under the (damped) new policy,
   refresh the mean-field estimator, and repeat.

Damped updates (``x <- (1 - beta) x_old + beta x_new``) implement the
contraction mapping of Theorem 2 robustly on coarse grids.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.equilibrium import ConvergenceReport, EquilibriumResult, IterationRecord
from repro.core.fpk import BatchedFPKSolver, FPKSolver, batched_initial_density, initial_density
from repro.core.grid import BatchGrid, StateGrid
from repro.core.hjb import BatchedHJBSolver, HJBSolution, HJBSolver
from repro.core.mean_field import MeanFieldEstimator
from repro.core.parameters import MFGCPConfig
from repro.core.policy import CachingPolicy
from repro.obs.diagnostics import (
    MAX_RESIDUAL_SAMPLES,
    IterationContext,
    SolveDiagnostics,
    SolveEndContext,
    SolveStartContext,
)
from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry, StrictNumericsError


def build_grid(config: MFGCPConfig) -> StateGrid:
    """The state grid implied by a configuration.

    The fading axis covers the OU stationary support (4 standard
    deviations around the long-term mean, widened to include the mean
    itself when volatility is tiny); the cache axis spans ``[0, Q_k]``.
    """
    ou = config.ou_process()
    h_lo, h_hi = ou.stationary_interval()
    if h_hi - h_lo < 1e-6:
        h_lo, h_hi = ou.mean - 0.5, ou.mean + 0.5
    h_lo = max(h_lo, 1e-6)  # fading coefficients are positive magnitudes
    return StateGrid.regular(
        horizon=config.horizon,
        n_time_steps=config.n_time_steps,
        h_bounds=(h_lo, h_hi),
        n_h=config.n_h,
        q_max=config.content_size,
        n_q=config.n_q,
    )


class BestResponseIterator:
    """Algorithm 2 bound to one configuration."""

    def __init__(
        self,
        config: MFGCPConfig,
        grid: Optional[StateGrid] = None,
        telemetry: Optional[SolverTelemetry] = None,
    ) -> None:
        self.config = config
        self.grid = grid if grid is not None else build_grid(config)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.hjb = HJBSolver(config, self.grid)
        self.fpk = FPKSolver(config, self.grid, telemetry=self.telemetry)
        self.estimator = MeanFieldEstimator(config, self.grid)

    def initial_policy(self, level: float = 0.5) -> np.ndarray:
        """The bootstrap policy table ``x^0`` (constant caching rate)."""
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"policy level must lie in [0, 1], got {level}")
        return np.full(self.grid.path_shape, float(level))

    def solve(
        self,
        density0: Optional[np.ndarray] = None,
        initial_policy_level: float = 0.5,
        initial_policy: Optional[np.ndarray] = None,
    ) -> EquilibriumResult:
        """Run the fixed-point loop to an MFG equilibrium.

        Parameters
        ----------
        density0:
            Initial population density ``lambda(0)``; defaults to the
            configured truncated normal.
        initial_policy_level:
            The constant bootstrap policy ``x^0``.
        initial_policy:
            Optional full bootstrap policy table (overrides the
            constant level) — warm-starting from a neighbouring
            parameter point's equilibrium cuts the iteration count in
            sweeps.
        """
        cfg = self.config
        grid = self.grid
        tele = self.telemetry
        if density0 is None:
            density0 = initial_density(grid, cfg)

        if initial_policy is not None:
            policy_table = np.asarray(initial_policy, dtype=float).copy()
            if policy_table.shape != grid.path_shape:
                raise ValueError(
                    f"initial policy shape {policy_table.shape} != grid "
                    f"{grid.path_shape}"
                )
            if np.any(policy_table < -1e-9) or np.any(policy_table > 1 + 1e-9):
                raise ValueError("initial policy values must lie in [0, 1]")
            policy_table = np.clip(policy_table, 0.0, 1.0)
        else:
            policy_table = self.initial_policy(initial_policy_level)

        # Numerical-health probes: constructed only for enabled
        # telemetry, so the NULL_TELEMETRY fast path pays a single
        # boolean check per hook site below.
        diagnostics = SolveDiagnostics(tele) if tele.enabled else None

        solve_span = tele.span("solve")
        solve_span.__enter__()
        tele.event(
            "solve_start",
            max_iterations=cfg.max_iterations,
            tolerance=cfg.tolerance,
            damping=cfg.damping,
            grid_shape=list(grid.path_shape),
        )
        if diagnostics is not None:
            diagnostics.solve_start(
                SolveStartContext(
                    telemetry=tele,
                    grid=grid,
                    config=cfg,
                    fpk=self.fpk,
                    hjb=self.hjb,
                )
            )
        with tele.span("bootstrap"):
            density_path = self.fpk.solve(policy_table, density0)
            mean_field = self.estimator.estimate(density_path, policy_table)

        history = []
        converged = False
        policy_change = np.inf
        solution = None
        for iteration in range(1, cfg.max_iterations + 1):
            with tele.span("iteration"):
                with tele.span("hjb") as sp_hjb:
                    solution = self.hjb.solve(mean_field)
                new_table = solution.policy.table
                policy_change = float(np.max(np.abs(new_table - policy_table)))

                # Damped best-response update (contraction mapping).
                policy_table = (
                    (1.0 - cfg.damping) * policy_table + cfg.damping * new_table
                )
                with tele.span("fpk") as sp_fpk:
                    density_path = self.fpk.solve(policy_table, density0)
                with tele.span("mean_field") as sp_mf:
                    new_mean_field = self.estimator.estimate(
                        density_path, policy_table
                    )
                mf_change = mean_field.distance(new_mean_field)
                mean_field = new_mean_field

            history.append(
                IterationRecord(
                    iteration=iteration,
                    policy_change=policy_change,
                    mean_field_change=mf_change,
                    mean_price=float(mean_field.price.mean()),
                    mean_control=float(mean_field.mean_control.mean()),
                )
            )
            if tele.enabled:
                tele.inc("solver.iterations")
                tele.observe("solver.hjb_seconds", sp_hjb.duration)
                tele.observe("solver.fpk_seconds", sp_fpk.duration)
                tele.event(
                    "iteration",
                    iteration=iteration,
                    policy_change=policy_change,
                    mean_field_change=mf_change,
                    mean_price=float(mean_field.price.mean()),
                    mean_control=float(mean_field.mean_control.mean()),
                    hjb_s=sp_hjb.duration,
                    fpk_s=sp_fpk.duration,
                    mean_field_s=sp_mf.duration,
                )
            if diagnostics is not None:
                diagnostics.iteration(
                    IterationContext(
                        telemetry=tele,
                        grid=grid,
                        config=cfg,
                        hjb=self.hjb,
                        iteration=iteration,
                        density_path=density_path,
                        solution=solution,
                        mean_field=mean_field,
                        policy_change=policy_change,
                        hjb_residual=self.hjb.residual_norm(
                            solution.value,
                            mean_field,
                            max_samples=MAX_RESIDUAL_SAMPLES,
                        ),
                    )
                )
            if policy_change < cfg.tolerance:
                converged = True
                break

        assert solution is not None  # max_iterations >= 1 by validation
        report = ConvergenceReport(
            converged=converged,
            n_iterations=len(history),
            final_policy_change=policy_change,
            history=history,
        )
        if diagnostics is not None:
            diagnostics.solve_end(
                SolveEndContext(telemetry=tele, config=cfg, report=report)
            )
        solve_span.__exit__(None, None, None)
        if tele.enabled:
            tele.gauge("solver.final_policy_change", policy_change)
            tele.gauge("solver.n_iterations", float(len(history)))
            tele.event(
                "solve_end",
                converged=converged,
                n_iterations=len(history),
                final_policy_change=policy_change,
                solve_s=solve_span.duration,
            )
        return EquilibriumResult(
            config=cfg,
            grid=grid,
            value=solution.value,
            policy=CachingPolicy(grid=grid, table=policy_table),
            density=density_path,
            mean_field=mean_field,
            report=report,
        )


class _LaneTelemetry:
    """Per-lane telemetry proxy tagging diagnostics with a content index.

    The batched iterator drives one :class:`SolveDiagnostics` per lane;
    every probe finding is forwarded through this proxy, which adds a
    ``content=<index>`` field to the ``diag.*`` event and prefixes a
    strict-numerics escalation with the content index — so a batched
    abort names the lane that failed, not just the check.
    """

    def __init__(self, inner: SolverTelemetry, content: int) -> None:
        self._inner = inner
        self.content = int(content)

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    @property
    def strict_numerics(self) -> bool:
        return self._inner.strict_numerics

    def diag(self, check, severity, value=None, threshold=None, message="", **fields):
        fields.setdefault("content", self.content)
        try:
            self._inner.diag(
                check,
                severity,
                value=value,
                threshold=threshold,
                message=message,
                **fields,
            )
        except StrictNumericsError as err:
            raise StrictNumericsError(
                err.check, f"content {self.content}: {err.message}", err.value
            ) from None

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BatchedBestResponseIterator:
    """Algorithm 2 over a batch of contents with a convergence mask.

    Each lane runs exactly the scalar fixed-point loop — bootstrap FPK,
    then hjb → policy change → damped update → FPK → mean-field
    refresh — but all active lanes advance through one vectorized
    backward and forward sweep per iteration.  A lane whose policy
    change drops below tolerance leaves the active set at the end of
    its iteration (after its FPK/estimator refresh, mirroring the
    scalar loop's stopping point); frozen lanes are never recomputed,
    so their value function, density, and policy stay bit-identical to
    the state at their own convergence.

    ``content_ids`` labels lanes in telemetry and diagnostics; results
    come back as one :class:`EquilibriumResult` per lane, in input
    order, each indistinguishable from a scalar
    :class:`BestResponseIterator` solve of that lane alone.
    """

    def __init__(
        self,
        configs: Sequence[MFGCPConfig],
        content_ids: Optional[Sequence[int]] = None,
        telemetry: Optional[SolverTelemetry] = None,
    ) -> None:
        self.configs = list(configs)
        if not self.configs:
            raise ValueError("cannot batch zero configs")
        first = self.configs[0]
        for i, cfg in enumerate(self.configs[1:], start=1):
            if (
                cfg.max_iterations != first.max_iterations
                or cfg.tolerance != first.tolerance
                or cfg.damping != first.damping
            ):
                raise ValueError(
                    f"lane {i} has different iteration controls "
                    "(max_iterations/tolerance/damping must be shared)"
                )
        self.content_ids = (
            list(range(len(self.configs)))
            if content_ids is None
            else [int(k) for k in content_ids]
        )
        if len(self.content_ids) != len(self.configs):
            raise ValueError(
                f"{len(self.content_ids)} content ids for "
                f"{len(self.configs)} configs"
            )
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.lane_grids = [build_grid(cfg) for cfg in self.configs]
        self.grid = BatchGrid.from_grids(self.lane_grids)
        self.hjb = BatchedHJBSolver(self.configs, self.grid)
        self.fpk = BatchedFPKSolver(
            self.configs,
            self.grid,
            telemetry=self.telemetry,
            content_ids=self.content_ids,
        )
        self.estimators = [
            MeanFieldEstimator(cfg, lane_grid)
            for cfg, lane_grid in zip(self.configs, self.lane_grids)
        ]

    def solve(
        self, initial_policy_level: float = 0.5
    ) -> List[EquilibriumResult]:
        """Run the masked fixed-point loop to per-content equilibria."""
        if not 0.0 <= initial_policy_level <= 1.0:
            raise ValueError(
                f"policy level must lie in [0, 1], got {initial_policy_level}"
            )
        grid = self.grid
        tele = self.telemetry
        cfg0 = self.configs[0]
        n_lanes = grid.n_lanes

        # Every per-lane path lives in one of four (B, n_t + 1, n_h,
        # n_q) buffers allocated once per solve.  Lanes still iterating
        # occupy the leading rows (``order[j]`` is the lane held in row
        # ``j``), so each sweep reads and writes plain slices; a lane
        # that converges swaps behind them and is never touched again.
        order = np.arange(n_lanes)
        density0 = batched_initial_density(grid, self.configs)
        policy = np.full(grid.path_shape, float(initial_policy_level))
        value_paths = np.empty(grid.path_shape)
        density_paths = np.empty(grid.path_shape)
        new_tables = np.empty(grid.path_shape)

        lane_teles = [_LaneTelemetry(tele, k) for k in self.content_ids]
        diagnostics = (
            [SolveDiagnostics(lt) for lt in lane_teles] if tele.enabled else None
        )

        solve_span = tele.span("solve")
        solve_span.__enter__()
        tele.event(
            "solve_start",
            max_iterations=cfg0.max_iterations,
            tolerance=cfg0.tolerance,
            damping=cfg0.damping,
            grid_shape=list(grid.path_shape),
            batched=True,
            contents=list(self.content_ids),
        )
        if diagnostics is not None:
            for b, diag in enumerate(diagnostics):
                diag.solve_start(
                    SolveStartContext(
                        telemetry=lane_teles[b],
                        grid=self.lane_grids[b],
                        config=self.configs[b],
                        fpk=self.fpk.lane_solvers[b],
                        hjb=self.hjb.lane_solvers[b],
                    )
                )
        with tele.span("bootstrap"):
            self.fpk.solve(policy, density0, out=density_paths)
            mean_fields = [
                est.estimate(density_paths[b], policy[b])
                for b, est in enumerate(self.estimators)
            ]

        histories: List[List[IterationRecord]] = [[] for _ in range(n_lanes)]
        converged = np.zeros(n_lanes, dtype=bool)
        policy_changes = np.full(n_lanes, np.inf)
        n = n_lanes  # active rows

        for iteration in range(1, cfg0.max_iterations + 1):
            if n == 0:
                break
            lanes = order[:n]
            with tele.span("iteration"):
                with tele.span("hjb") as sp_hjb:
                    self.hjb.solve(
                        [mean_fields[b] for b in lanes],
                        lanes=lanes,
                        out=(value_paths[:n], new_tables[:n]),
                    )
                # The active density rows are spent (their mean fields
                # are estimated) until the FPK below refills them, so
                # they hold the policy change and the damping term.
                scratch = density_paths[:n]
                np.subtract(new_tables[:n], policy[:n], out=scratch)
                np.abs(scratch, out=scratch)
                pc = scratch.max(axis=(1, 2, 3))
                policy_changes[lanes] = pc

                # Damped best-response update (1 - beta) x + beta x_new.
                policy[:n] *= 1.0 - cfg0.damping
                np.multiply(new_tables[:n], cfg0.damping, out=scratch)
                policy[:n] += scratch
                with tele.span("fpk") as sp_fpk:
                    self.fpk.solve(
                        policy[:n], density0[:n], lanes=lanes,
                        out=density_paths[:n],
                    )
                with tele.span("mean_field") as sp_mf:
                    mf_changes = np.empty(n)
                    for j, b in enumerate(lanes):
                        new_mf = self.estimators[b].estimate(
                            density_paths[j], policy[j]
                        )
                        mf_changes[j] = mean_fields[b].distance(new_mf)
                        mean_fields[b] = new_mf

            # Per-lane records go out in ascending content order.
            rows = np.argsort(lanes)
            for j in rows:
                b = lanes[j]
                histories[b].append(
                    IterationRecord(
                        iteration=iteration,
                        policy_change=float(pc[j]),
                        mean_field_change=float(mf_changes[j]),
                        mean_price=float(mean_fields[b].price.mean()),
                        mean_control=float(mean_fields[b].mean_control.mean()),
                    )
                )
            if tele.enabled:
                tele.inc("solver.iterations")
                tele.observe("solver.hjb_seconds", sp_hjb.duration)
                tele.observe("solver.fpk_seconds", sp_fpk.duration)
                tele.event(
                    "iteration",
                    iteration=iteration,
                    n_active=int(n),
                    policy_change=float(pc.max()),
                    mean_field_change=float(mf_changes.max()),
                    hjb_s=sp_hjb.duration,
                    fpk_s=sp_fpk.duration,
                    mean_field_s=sp_mf.duration,
                )
            if diagnostics is not None:
                residuals = self.hjb.residual_norms(
                    value_paths[:n],
                    [mean_fields[b] for b in lanes],
                    lanes=lanes,
                    max_samples=MAX_RESIDUAL_SAMPLES,
                )
                for j in rows:
                    b = lanes[j]
                    lane_grid = self.lane_grids[b]
                    solution = HJBSolution(
                        grid=lane_grid,
                        value=value_paths[j],
                        policy=CachingPolicy(grid=lane_grid, table=new_tables[j]),
                    )
                    diagnostics[b].iteration(
                        IterationContext(
                            telemetry=lane_teles[b],
                            grid=lane_grid,
                            config=self.configs[b],
                            hjb=self.hjb.lane_solvers[b],
                            iteration=iteration,
                            density_path=density_paths[j],
                            solution=solution,
                            mean_field=mean_fields[b],
                            policy_change=float(pc[j]),
                            hjb_residual=float(residuals[j]),
                        )
                    )
            # Convergence mask: lanes below tolerance freeze after this
            # iteration's FPK/estimator refresh — exactly where the
            # scalar loop stops — and swap behind the active rows.
            done = np.flatnonzero(pc < cfg0.tolerance)
            converged[lanes[done]] = True
            for j in done[::-1]:
                n -= 1
                if j != n:
                    for arr in (order, policy, value_paths, density_paths, density0):
                        arr[[j, n]] = arr[[n, j]]

        # Free the HJB policy buffer before CachingPolicy copies the
        # final tables, so the copies never coexist with it.
        del new_tables
        row_of = np.empty(n_lanes, dtype=int)
        row_of[order] = np.arange(n_lanes)
        results: List[EquilibriumResult] = []
        for b in range(n_lanes):
            report = ConvergenceReport(
                converged=bool(converged[b]),
                n_iterations=len(histories[b]),
                final_policy_change=float(policy_changes[b]),
                history=histories[b],
            )
            if diagnostics is not None:
                diagnostics[b].solve_end(
                    SolveEndContext(
                        telemetry=lane_teles[b],
                        config=self.configs[b],
                        report=report,
                    )
                )
            row = row_of[b]
            results.append(
                EquilibriumResult(
                    config=self.configs[b],
                    grid=self.lane_grids[b],
                    value=value_paths[row],
                    policy=CachingPolicy(grid=self.lane_grids[b], table=policy[row]),
                    density=density_paths[row],
                    mean_field=mean_fields[b],
                    report=report,
                )
            )
        solve_span.__exit__(None, None, None)
        if tele.enabled:
            tele.gauge(
                "solver.final_policy_change", float(policy_changes.max())
            )
            tele.gauge(
                "solver.n_iterations",
                float(max(len(h) for h in histories)),
            )
            tele.event(
                "solve_end",
                converged=bool(converged.all()),
                n_converged=int(converged.sum()),
                n_lanes=n_lanes,
                n_iterations=max(len(h) for h in histories),
                final_policy_change=float(policy_changes.max()),
                solve_s=solve_span.duration,
            )
        return results
