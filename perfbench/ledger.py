"""Fold a traced run into per-layer metrics and a span tree.

A span's self time is its duration minus the time its child spans
cover; in the serial, single-threaded run child spans never overlap,
so that cover is the sum of their durations.
"""

from collections import defaultdict


def self_seconds(spans):
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_stats(spans):
    """Per-span-name call counts, total and self seconds."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_seconds(spans)):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own
    return calls, total, self_s


def top_level_seconds(spans):
    """Seconds covered by the direct children of the root span."""
    return sum(end - start for _, start, end, parent in spans if parent == 0)


def span_tree(spans):
    """Text lines of the span tree, spans merged by path."""
    paths = []
    for name, _, _, parent in spans:
        paths.append((paths[parent] if parent >= 0 else ()) + (name,))
    rows = {}
    for path, (_, start, end, _), own in zip(paths, spans, self_seconds(spans)):
        row = rows.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    lines = [f"{'span':<48} {'calls':>7} {'total_s':>10} {'self_s':>10}"]
    for path, (calls, total, own) in rows.items():
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<48} {calls:>7} {total:>10.4f} {own:>10.4f}")
    return lines


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer(trace, untraced_run_s, telemetry_run_s, scipy_s, modules):
    """Every per-layer metric of one traced run, by name.

    Metrics of a layer the workload does not run read 0.
    """
    spans, c = trace["spans"], defaultdict(int, trace["counts"])
    calls, total, self_s = span_stats(spans)
    run_s = total["command"]
    m = {
        "import.scipy_s": scipy_s,
        "import.modules": modules,
        "core.solves": c["core.solves"],
        "core.iterations": c["core.iterations"],
        "core.solve_s": total["core.solve"],
        "core.hjb.calls": calls["core.hjb"],
        "core.hjb.s": total["core.hjb"],
        "core.hjb.cell_updates_per_s": _ratio(c["core.hjb.cells"], total["core.hjb"]),
        "core.fpk.calls": calls["core.fpk"],
        "core.fpk.s": total["core.fpk"],
        "core.fpk.cell_updates_per_s": _ratio(c["core.fpk.cells"], total["core.fpk"]),
        "core.mean_field.calls": calls["core.mean_field"],
        "core.mean_field.s": total["core.mean_field"],
        "core.best_response.self_s": self_s["core.solve"],
        "runtime.items": c["runtime.items"],
        "serve.stream.chunks": c["serve.stream.chunks"],
        "serve.stream.s": total["serve.stream.chunk"],
        "serve.stream.requests_per_s": _ratio(
            c["serve.stream.requests"], total["serve.stream.chunk"]
        ),
        "serve.cells": c["serve.cells"],
        "serve.kernel_s": self_s["serve.replay_shard"],
        "serve.cells_per_s": _ratio(c["serve.cells"], self_s["serve.replay_shard"]),
        "serve.cache.lookups": c["serve.cache.lookups"],
        "serve.cache.lookup_hit_ratio": _ratio(
            c["serve.cache.lookup_hits"], c["serve.cache.lookups"]
        ),
        "serve.cache.stores": c["serve.cache.stores"],
        "serve.cache.evictions": c["serve.cache.evictions"],
        "serve.cache.has_room_calls": c["serve.cache.has_room_calls"],
        "serve.cache.used_mb_calls": c["serve.cache.used_mb_calls"],
        "serve.policies.admit_calls": c["serve.policies.admit_calls"],
        "serve.policies.admitted_ratio": _ratio(
            c["serve.policies.admitted"], c["serve.policies.admit_calls"]
        ),
        "serve.policies.refreshes": c["serve.policies.refreshes"],
        "serve.policies.build_s": total["serve.policies.build"],
        "serve.report.fold_s": total["serve.report.fold"],
        "net.cells": c["net.cells"],
        "net.cells_per_s": _ratio(c["net.cells"], self_s["net.replay_shard"]),
        "net.hops": c["net.hops"],
        "net.placement_attempts": c["net.placement_attempts"],
        "net.placements": c["net.placements"],
        "net.placement_accept_ratio": _ratio(
            c["net.placements"], c["net.placement_attempts"]
        ),
        "net.evictions": c["net.evictions"],
        "net.queue_rejections": c["net.queue_rejections"],
        "net.report.fold_s": total["net.report.fold"],
        "obs.registry_s": total["obs.registry"],
        "obs.telemetry_overhead_ratio": _ratio(telemetry_run_s, untraced_run_s),
        "trace.overhead_s": run_s - untraced_run_s,
        "trace.unattributed_s": run_s - top_level_seconds(spans),
    }
    for policy in ("mfg", "lru", "most-popular"):
        m[f"serve.replay.{policy}_s"] = total[f"serve.replay.{policy}"]
    for strategy in ("lce", "lcd", "probcache"):
        m[f"net.replay.{strategy}_s"] = total[f"net.replay.{strategy}"]
    return m


#: Count metrics that must repeat exactly between two runs of the same
#: code and seed (the ledger's "more work" versus "slower work" split).
EXACT_COUNTERS = (
    "import.modules",
    "core.solves",
    "core.iterations",
    "core.hjb.calls",
    "core.fpk.calls",
    "core.mean_field.calls",
    "runtime.items",
    "serve.stream.chunks",
    "serve.cells",
    "serve.cache.lookups",
    "serve.cache.stores",
    "serve.cache.evictions",
    "serve.cache.has_room_calls",
    "serve.cache.used_mb_calls",
    "serve.policies.admit_calls",
    "serve.policies.refreshes",
    "net.cells",
    "net.hops",
    "net.placement_attempts",
    "net.placements",
    "net.evictions",
    "net.queue_rejections",
)
