"""One timed ``repro`` command line in a fresh interpreter.

Spawned by ``perfbench/run.py``; not meant to be run by hand::

    python3 perfbench/child.py RESULT.json [--trace] -- ARGV...

The clock for ``setup_s`` starts in the parent right before the spawn
and stops here, right after ``import repro.cli``; nothing but the
interpreter's own start-up and the start of the host-speed sampler
(:mod:`hostspeed`) runs before that import.  The child then runs
``repro.cli.main(ARGV)`` and writes one JSON result file, with the
host's slowdown over the cold start, the command and the replay calls.

Untraced, the only timers are one around each ``ServingEngine.replay``
/ ``NetworkReplayEngine.replay`` call; a few once-per-run pass-through
hooks capture the engine and its equilibria for verification.  With
``--trace`` the layer hooks of :mod:`tracing` are installed as well.
"""

import sys
import time

import hostspeed

SAMPLER = hostspeed.Sampler()
SAMPLER.start()

import repro.cli  # noqa: E402  (the measured cold start)

T_IMPORTED = time.perf_counter()
N_MODULES = len(sys.modules)

import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402


def _parse(argv):
    split = argv.index("--")
    return argv[0], "--trace" in argv[1:split], argv[split + 1:]


class Capture:
    """Untraced hooks: replay timers plus once-per-run captures."""

    def __init__(self):
        self.replay_s = 0.0
        self.replay_windows = []
        self.replayed_requests = 0
        self.engines = []
        self.equilibria = {}

    def install(self):
        from repro.serve.engine import ServingEngine
        from repro.serve.net.engine import NetworkReplayEngine

        for cls in (ServingEngine, NetworkReplayEngine):
            cls.replay = self._timed_replay(cls.replay)
            cls.compare = self._keep_engine(cls.compare)
            cls.solve_equilibria = self._keep_equilibria(cls.solve_equilibria)

    def _timed_replay(self, fn):
        @functools.wraps(fn)
        def replay(engine, *args, **kwargs):
            t0 = time.perf_counter()
            report = fn(engine, *args, **kwargs)
            t1 = time.perf_counter()
            self.replay_s += t1 - t0
            self.replay_windows.append((t0, t1))
            self.replayed_requests += int(report.requests)
            return report

        return replay

    def _keep_engine(self, fn):
        @functools.wraps(fn)
        def compare(engine, *args, **kwargs):
            self.engines.append(engine)
            return fn(engine, *args, **kwargs)

        return compare

    def _keep_equilibria(self, fn):
        @functools.wraps(fn)
        def solve_equilibria(engine, *args, **kwargs):
            result = fn(engine, *args, **kwargs)
            self.equilibria.update(result)
            return result

        return solve_equilibria

    def facts(self):
        """What the parent's invariant checks need from this process."""
        expected = [
            float(engine.stream.expected_total_requests())
            for engine in self.engines
            if engine.stream is not None
        ]
        equilibria = []
        for content, eq in sorted(self.equilibria.items()):
            arrays = (
                eq.value, eq.policy.table, eq.density, eq.mean_field.price
            )
            equilibria.append({
                "content": int(content),
                "converged": bool(eq.report.converged),
                "n_iterations": int(eq.report.n_iterations),
                "finite": bool(
                    all(np.isfinite(a).all() for a in arrays)
                    and math.isfinite(eq.report.final_policy_change)
                ),
            })
        return {
            "expected_requests": expected,
            "equilibria": equilibria,
        }


def main(argv):
    result_path, trace, command = _parse(argv)
    result = {"t_imported": T_IMPORTED, "modules": N_MODULES}
    capture = Capture()
    capture.install()
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        exit_code = tracer.run_command(repro.cli.main, command)
        result["run_s"] = tracer.command_seconds()
        result["trace"] = tracer.dump()
    else:
        t0 = time.perf_counter()
        exit_code = repro.cli.main(command)
        result["run_s"] = time.perf_counter() - t0
    t_end = time.perf_counter()
    SAMPLER.stop()
    replay_samples = []
    for window in capture.replay_windows:
        replay_samples += SAMPLER.between(*window)
    result.update(
        setup_slowdown=hostspeed.slowdown(SAMPLER.between(0.0, T_IMPORTED)),
        run_slowdown=hostspeed.slowdown(SAMPLER.between(T_IMPORTED, t_end)),
        replay_slowdown=hostspeed.slowdown(replay_samples),
        exit_code=exit_code,
        replay_s=capture.replay_s,
        replayed_requests=capture.replayed_requests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        repro_file=repro.cli.__file__,
        **capture.facts(),
    )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
