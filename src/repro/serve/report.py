"""Serving outcome containers and CSV/JSON export.

:class:`EDPServingStats` accumulates one EDP's request-level counters;
:class:`ServingReport` aggregates a whole replay and derives the
headline serving metrics — hit ratio, staleness-violation rate, mean
retrieval latency, backhaul volume, trading revenue and the net income
once backhaul cost (Eq. (9)'s ``eta2`` rate) is charged against it.

Reports are plain data, ordered per EDP, and independent of the
execution backend, so the JSON/CSV artifacts written by
:func:`export_serving_reports` (built on the
:mod:`repro.analysis.export` primitives) are bit-identical across
``serial`` and ``process:N`` replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.analysis.export import write_json, write_rows_csv

REPORT_HEADERS = (
    "policy", "requests", "hit_ratio", "staleness_violation_rate",
    "backhaul_mb", "mean_latency_s", "revenue", "net_income",
)


@dataclass
class EDPServingStats:
    """Request-level counters for one EDP over one replay."""

    edp: int
    requests: int = 0
    hits: int = 0
    staleness_violations: int = 0
    refreshes: int = 0
    backhaul_mb: float = 0.0
    revenue: float = 0.0
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.edp < 0:
            raise ValueError(f"edp index must be non-negative, got {self.edp}")

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.latency_s / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class ServingReport:
    """Aggregate serving outcome of one policy's replay.

    Attributes
    ----------
    policy:
        The serving policy's name.
    n_slots, dt, seed:
        Replay shape (the EDP count is ``len(per_edp)``).
    eta2, backhaul_rate:
        Backhaul cost constants used to derive ``net_income``.
    per_edp:
        Per-EDP counters in ascending EDP order.
    """

    policy: str
    n_slots: int
    dt: float
    seed: int
    eta2: float
    backhaul_rate: float
    per_edp: Tuple[EDPServingStats, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.backhaul_rate <= 0:
            raise ValueError(
                f"backhaul_rate must be positive, got {self.backhaul_rate}"
            )
        # Ascending, not contiguous: a shard a skip fault policy
        # dropped leaves a gap.
        edps = [stats.edp for stats in self.per_edp]
        if edps != sorted(set(edps)):
            raise ValueError(f"per-EDP stats must be in EDP order, got {edps}")

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def n_edps(self) -> int:
        return len(self.per_edp)

    @property
    def requests(self) -> int:
        return sum(s.requests for s in self.per_edp)

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.per_edp)

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def staleness_violations(self) -> int:
        return sum(s.staleness_violations for s in self.per_edp)

    @property
    def staleness_violation_rate(self) -> float:
        return self.staleness_violations / self.requests if self.requests else 0.0

    @property
    def refreshes(self) -> int:
        return sum(s.refreshes for s in self.per_edp)

    @property
    def backhaul_mb(self) -> float:
        return sum(s.backhaul_mb for s in self.per_edp)

    @property
    def revenue(self) -> float:
        return sum(s.revenue for s in self.per_edp)

    @property
    def backhaul_cost(self) -> float:
        """Backhaul charge ``eta2 * bytes / H_c`` (the Eq. (9) rate)."""
        return self.eta2 * self.backhaul_mb / self.backhaul_rate

    @property
    def net_income(self) -> float:
        """Trading revenue net of backhaul cost."""
        return self.revenue - self.backhaul_cost

    @property
    def mean_latency_s(self) -> float:
        total = sum(s.latency_s for s in self.per_edp)
        return total / self.requests if self.requests else 0.0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Union[str, int, float]]:
        """The aggregate metrics as one JSON-friendly record."""
        return {
            "policy": self.policy,
            "n_edps": self.n_edps,
            "n_slots": self.n_slots,
            "dt": self.dt,
            "seed": self.seed,
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "staleness_violations": self.staleness_violations,
            "staleness_violation_rate": self.staleness_violation_rate,
            "refreshes": self.refreshes,
            "backhaul_mb": self.backhaul_mb,
            "backhaul_cost": self.backhaul_cost,
            "revenue": self.revenue,
            "net_income": self.net_income,
            "mean_latency_s": self.mean_latency_s,
        }

    def to_row(self) -> Tuple[Union[str, int, float], ...]:
        """One comparison-table row (matches :data:`REPORT_HEADERS`)."""
        return (
            self.policy, self.requests, self.hit_ratio,
            self.staleness_violation_rate, self.backhaul_mb,
            self.mean_latency_s, self.revenue, self.net_income,
        )

    def per_edp_rows(self) -> List[Tuple[Union[int, float], ...]]:
        """Per-EDP breakdown rows for CSV export."""
        return [
            (
                s.edp, s.requests, s.hits, s.hit_ratio,
                s.staleness_violations, s.refreshes, s.backhaul_mb,
                s.revenue, s.mean_latency_s,
            )
            for s in self.per_edp
        ]


def comparison_rows(
    reports: Sequence[ServingReport],
) -> List[Tuple[Union[str, int, float], ...]]:
    """Comparison-table rows, best hit ratio first."""
    return [r.to_row() for r in sorted(reports, key=lambda r: -r.hit_ratio)]


def export_serving_reports(
    reports: Sequence[ServingReport], directory: Union[str, Path]
) -> List[Path]:
    """Dump replay outcomes to a directory of CSV/JSON artifacts.

    Produces ``serving_comparison.csv`` (one row per policy, the
    acceptance table), ``serving_summary.json`` (full aggregates per
    policy), and one ``per_edp_<policy>.csv`` breakdown per report.
    Returns the files written.
    """
    if not reports:
        raise ValueError("no serving reports to export")
    directory = Path(directory)
    written: List[Path] = []
    written.append(
        write_rows_csv(
            directory / "serving_comparison.csv",
            list(REPORT_HEADERS),
            comparison_rows(reports),
        )
    )
    written.append(
        write_json(
            directory / "serving_summary.json",
            {report.policy: report.summary() for report in reports},
        )
    )
    for report in reports:
        slug = report.policy.replace("/", "-").replace(" ", "-")
        written.append(
            write_rows_csv(
                directory / f"per_edp_{slug}.csv",
                ["edp", "requests", "hits", "hit_ratio",
                 "staleness_violations", "refreshes", "backhaul_mb",
                 "revenue", "mean_latency_s"],
                report.per_edp_rows(),
            )
        )
    return written
