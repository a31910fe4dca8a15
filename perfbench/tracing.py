"""Layer hooks for the traced run: spans on coarse calls, counts on hot ones.

Every hook wraps a public entry point of one layer from outside the
program; nothing under ``src/`` knows it is being traced.  Coarse calls
(at most about 10^4 per run) get a span: name, start, end and the
index of the enclosing span, kept in memory and handed back by
:meth:`Tracer.dump`.  Per-cell methods get count-only wrappers, so
the traced timings stay close to the untraced ones.

Span nesting::

    command
      core.solve -> core.hjb | core.fpk | core.mean_field
      serve.replay.<policy> -> serve.policies.build
                            -> serve.replay_shard -> serve.stream.chunk
      net.replay.<strategy> -> net.replay_shard -> serve.stream.chunk
      serve.report.fold | net.report.fold
      obs.registry
"""

import functools
import time
from collections import Counter

import numpy as np


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        seen.append(c)
        todo.extend(c.__subclasses__())
    return seen


class Tracer:
    """In-memory span recorder plus exact work counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.context = "none"  # "serve" or "net" while a replay runs

    # -- recording -----------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a callable of the args.

        ``after(result, args)`` runs outside the span, so bookkeeping on
        the result is never charged to the wrapped layer.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if self._stack and self.spans[self._stack[-1]][0] == label:
                # A layer calling itself (export calling the row fold)
                # stays one span, so totals never count time twice.
                return fn(*args, **kwargs)
            self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def count(self, key, fn, true_key=None):
        """Count calls of ``fn`` (and truthy results under ``true_key``)."""
        counts = self.counts
        if true_key is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                if result:
                    counts[true_key] += 1
                return result

        return wrapper

    def run_command(self, main, argv):
        """Run ``main(argv)`` as the root ``command`` span."""
        self._open("command")
        try:
            return main(argv)
        finally:
            self._close()

    def command_seconds(self):
        name, start, end, _ = self.spans[0]
        assert name == "command" and end is not None
        return end - start

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}

    # -- hooks -------------------------------------------------------------
    def install(self):
        self._install_core()
        self._install_runtime()
        self._install_serve()
        self._install_net()
        self._install_obs()

    def _install_core(self):
        from repro.core.best_response import (
            BatchedBestResponseIterator,
            BestResponseIterator,
        )
        from repro.core.fpk import BatchedFPKSolver, FPKSolver
        from repro.core.hjb import BatchedHJBSolver, HJBSolver
        from repro.core.mean_field import MeanFieldEstimator

        counts = self.counts

        def solved(results, _args):
            if not isinstance(results, list):
                results = [results]
            counts["core.solves"] += len(results)
            counts["core.iterations"] += sum(
                r.report.n_iterations for r in results
            )

        def cells(key, array_of):
            def after(result, _args):
                counts[key] += int(np.size(array_of(result)))

            return after

        for cls in (BestResponseIterator, BatchedBestResponseIterator):
            cls.solve = self.span("core.solve", cls.solve, after=solved)
        HJBSolver.solve = self.span(
            "core.hjb", HJBSolver.solve,
            after=cells("core.hjb.cells", lambda r: r.value),
        )
        BatchedHJBSolver.solve = self.span(
            "core.hjb", BatchedHJBSolver.solve,
            after=cells("core.hjb.cells", lambda r: r[0]),
        )
        for cls in (FPKSolver, BatchedFPKSolver):
            cls.solve = self.span(
                "core.fpk", cls.solve,
                after=cells("core.fpk.cells", lambda r: r),
            )
        MeanFieldEstimator.estimate = self.span(
            "core.mean_field", MeanFieldEstimator.estimate
        )

    def _install_runtime(self):
        from repro.runtime.executors import Executor

        counts = self.counts
        run = Executor.run

        @functools.wraps(run)
        def counted_run(executor, plan, *args, **kwargs):
            counts["runtime.items"] += len(plan)
            return run(executor, plan, *args, **kwargs)

        Executor.run = counted_run

    def _install_serve(self):
        import repro.serve.engine as engine_mod
        import repro.serve.report as report_mod
        from repro.serve.cache import EdgeCache
        from repro.serve.policies import ServingPolicy
        from repro.serve.stream import RequestStream

        counts = self.counts

        def replay_name(_engine, policy, *args, **kwargs):
            name = policy if isinstance(policy, str) else policy.name
            return f"serve.replay.{name.strip().lower()}"

        def serve_report(report, _args):
            counts["serve.policies.refreshes"] += int(report.refreshes)

        engine_mod.ServingEngine.replay = self._in_context(
            "serve",
            self.span(replay_name, engine_mod.ServingEngine.replay,
                      after=serve_report),
        )
        engine_mod.ServingEngine.build_policy = self.span(
            "serve.policies.build", engine_mod.ServingEngine.build_policy
        )
        engine_mod.replay_shard = self.span(
            "serve.replay_shard", engine_mod.replay_shard
        )

        def chunked(chunk, _args):
            counts[f"{self.context}.cells"] += int(
                np.count_nonzero(chunk.counts)
            )
            counts["serve.stream.chunks"] += 1
            counts["serve.stream.requests"] += int(chunk.counts.sum())

        RequestStream.chunk = self.span(
            "serve.stream.chunk", RequestStream.chunk, after=chunked
        )
        for name in ("comparison_rows", "export_serving_reports"):
            setattr(report_mod, name,
                    self.span("serve.report.fold", getattr(report_mod, name)))

        EdgeCache.lookup = self.count(
            "serve.cache.lookups", EdgeCache.lookup,
            true_key="serve.cache.lookup_hits",
        )
        EdgeCache.store = self.count("serve.cache.stores", EdgeCache.store)
        EdgeCache.evict = self.count("serve.cache.evictions", EdgeCache.evict)
        EdgeCache.has_room = self.count(
            "serve.cache.has_room_calls", EdgeCache.has_room
        )
        EdgeCache.used_mb = property(
            self.count("serve.cache.used_mb_calls", EdgeCache.used_mb.fget)
        )
        for cls in _subclasses(ServingPolicy):
            own = vars(cls)
            if "admit" in own:
                cls.admit = self.count(
                    "serve.policies.admit_calls", own["admit"],
                    true_key="serve.policies.admitted",
                )
            if "victim" in own and not getattr(
                own["victim"], "__isabstractmethod__", False
            ):
                cls.victim = self.count(
                    "serve.policies.victim_calls", own["victim"]
                )

    def _install_net(self):
        import repro.serve.net as net_pkg
        import repro.serve.net.engine as net_engine
        from repro.serve.net.strategies import PlacementStrategy

        counts = self.counts

        def replay_name(_engine, strategy, *args, **kwargs):
            name = strategy if isinstance(strategy, str) else strategy.name
            return f"net.replay.{name.strip().lower()}"

        def net_report(report, _args):
            totals = report.totals
            counts["net.hops"] += int(totals.hops)
            counts["net.placements"] += int(report.placements)
            counts["net.evictions"] += int(report.evictions)
            counts["net.queue_rejections"] += int(report.queue_rejected)

        net_engine.NetworkReplayEngine.replay = self._in_context(
            "net",
            self.span(replay_name, net_engine.NetworkReplayEngine.replay,
                      after=net_report),
        )
        net_engine.replay_network_shard = self.span(
            "net.replay_shard", net_engine.replay_network_shard
        )
        for name in ("network_comparison_rows", "export_network_reports"):
            setattr(net_pkg, name,
                    self.span("net.report.fold", getattr(net_pkg, name)))
        for cls in _subclasses(PlacementStrategy):
            own = vars(cls)
            if "should_place" in own and not getattr(
                own["should_place"], "__isabstractmethod__", False
            ):
                cls.should_place = self.count(
                    "net.placement_attempts", own["should_place"]
                )

    def _install_obs(self):
        import repro.obs.registry as registry_mod

        registry_mod.build_manifest = self.span(
            "obs.registry", registry_mod.build_manifest
        )
        registry_mod.RunRegistry.append = self.span(
            "obs.registry", registry_mod.RunRegistry.append
        )

    def _in_context(self, context, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self.context = self.context, context
            try:
                return fn(*args, **kwargs)
            finally:
                self.context = outer

        return wrapper
