"""Canned workload scenarios.

Three ready-made scenarios mirroring the paper's motivating use cases,
each bundling a catalog, a popularity prior, a timeliness law, and a
request process so examples, tests, and user experiments can spin up a
realistic market in one line:

* :func:`video_marketplace` — trending videos (Zipf demand from a
  synthetic YouTube trace, relaxed timeliness);
* :func:`traffic_information` — live traffic data (flat-ish demand,
  urgent timeliness, small contents updated often);
* :func:`news_cycle` — breaking-news demand that drifts across epochs
  (returns per-window popularity vectors from a drifting trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.content.catalog import Content, ContentCatalog
from repro.content.popularity import PopularityTracker, ZipfPopularity
from repro.content.requests import RequestProcess
from repro.content.timeliness import TimelinessModel
from repro.content.trace import SyntheticYouTubeTrace, trace_to_popularity, trace_windows


@dataclass(frozen=True)
class Workload:
    """A fully specified demand scenario.

    Attributes
    ----------
    name:
        Scenario label.
    catalog:
        The contents on offer.
    popularity:
        Initial per-content demand share (a distribution).
    timeliness_model:
        Law of per-request urgency.
    requests:
        The arrival process (rates split by popularity).
    """

    name: str
    catalog: ContentCatalog
    popularity: np.ndarray
    timeliness_model: TimelinessModel
    requests: RequestProcess

    def __post_init__(self) -> None:
        pop = np.asarray(self.popularity, dtype=float)
        if pop.shape != (len(self.catalog),):
            raise ValueError(
                f"popularity shape {pop.shape} does not match "
                f"{len(self.catalog)} contents"
            )
        if np.any(pop < 0) or not np.isclose(pop.sum(), 1.0):
            raise ValueError("popularity must be a distribution over contents")
        object.__setattr__(self, "popularity", pop)

    def tracker(self, forgetting: float = 1.0) -> PopularityTracker:
        """A popularity tracker seeded with this workload's demand."""
        tracker = PopularityTracker(
            prior=ZipfPopularity(n_contents=len(self.catalog)),
            forgetting=forgetting,
        )
        tracker.observe(self.popularity * 1000.0)
        return tracker


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def zipf_workload(
    n_contents: int = 12,
    alpha: float = 1.0,
    content_size_mb: float = 50.0,
    rate_per_edp: float = 40.0,
    seed: int = 0,
) -> Workload:
    """A bare Zipf(``alpha``) catalog — the classical cache benchmark.

    The workload cache-network experiments run on: ``n_contents``
    equally sized contents whose demand shares follow
    ``rank^(-alpha)``, with the relaxed video-style timeliness law.
    Rank 1 is content 0 (no permutation), so hit-ratio comparisons
    across runs and seeds talk about the same head and tail.
    """
    rng = _seeded_rng(seed)
    popularity = ZipfPopularity(n_contents=n_contents, exponent=alpha).initial()
    catalog = ContentCatalog.uniform(n_contents, size_mb=content_size_mb)
    timeliness = TimelinessModel(l_max=3.0, shape_a=1.5, shape_b=4.0)  # lax
    return Workload(
        name=f"zipf-{alpha:g}",
        catalog=catalog,
        popularity=popularity,
        timeliness_model=timeliness,
        requests=RequestProcess(
            n_contents=n_contents,
            rate_per_edp=rate_per_edp,
            timeliness_model=timeliness,
            rng=rng,
        ),
    )


def video_marketplace(
    n_contents: int = 8,
    content_size_mb: float = 100.0,
    rate_per_edp: float = 30.0,
    seed: int = 0,
) -> Workload:
    """Trending-video trading: Zipf demand, relaxed urgency."""
    rng = _seeded_rng(seed)
    trace = SyntheticYouTubeTrace(n_videos=1500, rng=rng)
    labels, shares = trace_to_popularity(trace.generate(), n_contents=n_contents)
    catalog = ContentCatalog.uniform(
        len(labels), size_mb=content_size_mb, names=labels
    )
    timeliness = TimelinessModel(l_max=3.0, shape_a=1.5, shape_b=4.0)  # lax
    return Workload(
        name="video-marketplace",
        catalog=catalog,
        popularity=shares,
        timeliness_model=timeliness,
        requests=RequestProcess(
            n_contents=len(labels),
            rate_per_edp=rate_per_edp,
            timeliness_model=timeliness,
            rng=rng,
        ),
    )


def traffic_information(
    n_roads: int = 6,
    content_size_mb: float = 20.0,
    rate_per_edp: float = 50.0,
    seed: int = 0,
) -> Workload:
    """Live traffic data: near-uniform demand, urgent timeliness.

    Small contents ("traffic flow data of several important roads")
    that the centre updates hourly; drivers want them immediately.
    """
    rng = _seeded_rng(seed)
    catalog = ContentCatalog(
        contents=[
            # Hourly-updated road segments (the paper's own example).
            Content(
                content_id=k,
                size_mb=content_size_mb,
                name=f"road-{k}",
                update_period=1.0,
            )
            for k in range(n_roads)
        ]
    )
    # Demand is nearly uniform with mild hotspots.
    weights = 1.0 + 0.3 * rng.uniform(0, 1, n_roads)
    popularity = weights / weights.sum()
    timeliness = TimelinessModel(l_max=3.0, shape_a=6.0, shape_b=1.5)  # urgent
    return Workload(
        name="traffic-information",
        catalog=catalog,
        popularity=popularity,
        timeliness_model=timeliness,
        requests=RequestProcess(
            n_contents=n_roads,
            rate_per_edp=rate_per_edp,
            timeliness_model=timeliness,
            rng=rng,
        ),
    )


def news_cycle(
    n_contents: int = 6,
    n_windows: int = 3,
    content_size_mb: float = 100.0,
    rate_per_edp: float = 40.0,
    seed: int = 0,
) -> Tuple[Workload, List[np.ndarray]]:
    """Breaking-news demand: a workload plus per-window drift vectors.

    Returns the initial workload and the sequence of per-window demand
    shares (on the workload's content axis) to feed epoch by epoch into
    ``Workload.tracker().observe``.
    """
    rng = _seeded_rng(seed)
    trace = SyntheticYouTubeTrace(n_videos=2000, zipf_exponent=0.7, rng=rng)
    records = trace.generate()
    windows = trace_windows(records, n_windows=n_windows, n_contents=n_contents)
    labels = windows[0][0]
    catalog = ContentCatalog.uniform(
        len(labels), size_mb=content_size_mb, names=labels
    )
    timeliness = TimelinessModel(l_max=3.0, shape_a=4.0, shape_b=2.0)  # newsy
    workload = Workload(
        name="news-cycle",
        catalog=catalog,
        popularity=windows[0][1],
        timeliness_model=timeliness,
        requests=RequestProcess(
            n_contents=len(labels),
            rate_per_edp=rate_per_edp,
            timeliness_model=timeliness,
            rng=rng,
        ),
    )
    return workload, [share for _, share in windows]
