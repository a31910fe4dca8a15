"""Pluggable execution backends for :class:`~repro.runtime.plan.ExecutionPlan`.

Two backends ship:

* :class:`SerialExecutor` — runs items in-process, in order.  The
  default everywhere; zero overhead, trivially deterministic.
* :class:`ParallelExecutor` — fans items out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with a configurable
  worker count and map chunk size.  Results and telemetry are merged
  in *item* order, so output is bit-identical to the serial backend.

Pick one with :func:`make_executor`, which parses the CLI-style specs
``"serial"``, ``"process"``, and ``"process:4"``.

No fan-out site outside this module touches ``concurrent.futures`` or
``multiprocessing`` directly — the solver, the experiment harness,
the replication module, and the benchmarks all submit plans through
this API.
"""

from __future__ import annotations

import abc
import os
from functools import partial
from typing import Any, Callable, List, Optional, Union

from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry
from repro.runtime.plan import ExecutionPlan, ItemOutcome, execute_item
from repro.runtime.runinfo import note_plan

ProgressCallback = Callable[[ItemOutcome], None]
"""Invoked once per completed work item, as completions happen.

Purely a live-observability hook (heartbeats, status files): callbacks
may fire in completion order on parallel backends and must never
influence results — outcomes still merge in item order regardless.
"""


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def live_progress(
    plan: ExecutionPlan,
    telemetry: SolverTelemetry,
    progress: Optional[ProgressCallback] = None,
) -> Optional[ProgressCallback]:
    """Compose a caller callback with the telemetry's live-status hook.

    Registers the plan's labels as heartbeat lanes and returns a
    callback that notes each completion on the attached
    :class:`~repro.obs.live.LiveStatusWriter` (None when there is
    neither a live writer nor a caller callback).
    """
    live = getattr(telemetry, "live", None)
    if live is None:
        return progress
    live.register_lanes([item.label for item in plan])

    def _callback(outcome: ItemOutcome) -> None:
        if progress is not None:
            progress(outcome)
        live.note_item(plan[outcome.index].label, index=outcome.index)

    return _callback


class Executor(abc.ABC):
    """A strategy for running every item of an execution plan."""

    #: Items the backend runs at once; callers size work shards by it.
    workers: int = 1

    @property
    @abc.abstractmethod
    def spec(self) -> str:
        """The ``make_executor`` spec string that reproduces this backend."""

    @abc.abstractmethod
    def execute(
        self,
        plan: ExecutionPlan,
        capture: bool = False,
        profile: bool = False,
        strict_numerics: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> List[ItemOutcome]:
        """Run every item; outcomes returned in item order.

        ``capture`` turns on per-item buffered telemetry (the caller
        absorbs the snapshots); ``profile`` and ``strict_numerics``
        configure that buffered observer to match the parent's.
        ``progress`` is called once per completed item as completions
        happen (completion order on parallel backends) — a live-status
        hook that must never affect results.
        """

    def run(
        self,
        plan: ExecutionPlan,
        telemetry: Optional[SolverTelemetry] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[Any]:
        """Run a plan and return the results in item order.

        When an enabled ``telemetry`` is given, each item records into
        a buffered per-worker observer and the snapshots are absorbed
        here, in item order — the merged stream does not depend on the
        backend or on worker completion order.  Absorbed events are
        tagged with the item's label as their ``lane`` (the Chrome
        trace exporter's thread rows).

        When the telemetry carries a live-status writer, item
        completions additionally heartbeat the status file (composed
        with any caller-supplied ``progress``).
        """
        # Lineage side channel for the run-manifest registry: a pure
        # parent-process observer, no-op outside an activated CLI run.
        note_plan(plan)
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        outcomes = self.execute(
            plan,
            capture=tele.enabled,
            profile=tele.profile,
            strict_numerics=tele.strict_numerics,
            progress=live_progress(plan, tele, progress),
        )
        results = []
        for outcome in outcomes:
            tele.absorb(outcome.telemetry, lane=plan[outcome.index].label)
            results.append(outcome.result)
        return results

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class SerialExecutor(Executor):
    """Run items one after another in the calling process."""

    @property
    def spec(self) -> str:
        return "serial"

    def execute(
        self,
        plan: ExecutionPlan,
        capture: bool = False,
        profile: bool = False,
        strict_numerics: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> List[ItemOutcome]:
        outcomes = []
        for item in plan:
            outcome = execute_item(
                item, capture, profile=profile, strict_numerics=strict_numerics
            )
            if progress is not None:
                progress(outcome)
            outcomes.append(outcome)
        return outcomes


class ParallelExecutor(Executor):
    """Fan items out over a process pool.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    chunksize:
        Items handed to a worker per dispatch (the
        ``ProcessPoolExecutor.map`` chunk size).  Larger chunks
        amortise pickling overhead when items are many and cheap.

    Work items must be picklable: module-level functions closing over
    configs and seeds, never bound methods holding live trackers or
    open telemetry sinks.  Determinism is preserved because every item
    owns its RNG stream (spawned per item) and outcomes are re-ordered
    by item index before results or telemetry reach the caller.
    """

    def __init__(self, workers: Optional[int] = None, chunksize: int = 1) -> None:
        self.workers = _default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.chunksize = int(chunksize)
        if self.chunksize < 1:
            raise ValueError(f"chunksize must be positive, got {chunksize}")

    @property
    def spec(self) -> str:
        return f"process:{self.workers}"

    def execute(
        self,
        plan: ExecutionPlan,
        capture: bool = False,
        profile: bool = False,
        strict_numerics: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> List[ItemOutcome]:
        if len(plan) <= 1 or self.workers == 1:
            # Nothing to overlap; skip the pool spin-up entirely.
            outcomes = []
            for item in plan:
                outcome = execute_item(
                    item, capture, profile=profile, strict_numerics=strict_numerics
                )
                if progress is not None:
                    progress(outcome)
                outcomes.append(outcome)
            return outcomes
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(self.workers, len(plan))) as pool:
            outcomes = []
            # ``map`` yields in input order but *incrementally*, so the
            # progress hook fires while later chunks are still running.
            for outcome in pool.map(
                partial(
                    execute_item,
                    capture=capture,
                    profile=profile,
                    strict_numerics=strict_numerics,
                ),
                plan.items,
                chunksize=self.chunksize,
            ):
                if progress is not None:
                    progress(outcome)
                outcomes.append(outcome)
        # `map` preserves input order already; sort defensively so the
        # deterministic-merge contract never rests on pool internals.
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes


ExecutorLike = Union[Executor, str, None]


def make_executor(spec: str = "serial", workers: Optional[int] = None) -> Executor:
    """Build an executor from a CLI-style spec string.

    Accepted specs: ``"serial"``, ``"process"`` (one worker per CPU),
    ``"process:N"`` (N workers).  An explicit ``workers`` argument
    overrides a count embedded in the spec — this is how the CLI's
    ``--workers`` flag composes with ``--backend``.
    """
    text = str(spec).strip().lower()
    if text in ("", "serial"):
        return SerialExecutor()
    if text == "process" or text.startswith("process:"):
        embedded: Optional[int] = None
        if ":" in text:
            _, _, count = text.partition(":")
            try:
                embedded = int(count)
            except ValueError:
                raise ValueError(
                    f"invalid worker count in executor spec {spec!r}"
                ) from None
        n = workers if workers is not None else embedded
        return ParallelExecutor(workers=n)
    raise ValueError(
        f"unknown executor spec {spec!r}; expected 'serial', 'process', "
        f"or 'process:N'"
    )


def as_executor(executor: ExecutorLike) -> Executor:
    """Normalise ``None`` / spec string / executor to an executor.

    The convenience every fan-out site uses so an ``executor``
    parameter accepts ``None`` (serial), ``"process:4"``, or a
    ready-made instance.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    return make_executor(executor)
