"""Content substrate for MFG-CP.

Implements the paper's Section II-B content model and the Section V
trace-driven workload:

* the content catalog (:mod:`repro.content.catalog`),
* Zipf popularity with the request-driven update of Eq. (3)
  (:mod:`repro.content.popularity`),
* content timeliness, Def. 2 (:mod:`repro.content.timeliness`),
* the requester demand process (:mod:`repro.content.requests`), and
* the YouTube-trending-style trace generator and loader
  (:mod:`repro.content.trace`).
"""

from repro.content.catalog import Content, ContentCatalog
from repro.content.popularity import ZipfPopularity, PopularityTracker, zipf_distribution
from repro.content.timeliness import TimelinessModel, TimelinessTracker
from repro.content.requests import RequestProcess, RequestBatch
from repro.content.trace import (
    TraceLoadResult,
    SyntheticYouTubeTrace,
    TraceRecord,
    load_trace_csv,
    trace_to_popularity,
    trace_windows,
)
from repro.content.workloads import (
    Workload,
    news_cycle,
    traffic_information,
    video_marketplace,
    zipf_workload,
)

__all__ = [
    "Content",
    "ContentCatalog",
    "ZipfPopularity",
    "PopularityTracker",
    "zipf_distribution",
    "TimelinessModel",
    "TimelinessTracker",
    "RequestProcess",
    "RequestBatch",
    "SyntheticYouTubeTrace",
    "TraceRecord",
    "TraceLoadResult",
    "load_trace_csv",
    "trace_to_popularity",
    "trace_windows",
    "Workload",
    "news_cycle",
    "traffic_information",
    "video_marketplace",
    "zipf_workload",
]
