"""Repository benchmark: three ``repro`` command lines, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mfg --seed 0 --seconds 40 --trace 0

Each pass runs one workload's real command line in a fresh,
single-process interpreter (serial backend, one BLAS thread), with a fresh ``--out`` and ``--registry-dir`` under
``.perfbench/`` in the checkout, and verifies the exported reports
(see ``verify.py``).

``--trace 0`` repeats the command for ``--seconds`` (at least
``MIN_PASSES`` times) and reports medians of the end-to-end metrics,
its timings normalised to the reference host speed of ``hostspeed.py``.
``--trace 1`` makes one ``-X importtime`` pass, ``TRACE_REFERENCE_PASSES``
untraced passes, one pass with ``--telemetry`` and one traced pass, and
reports the per-layer metrics; the span tree goes to stdout and to
``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every operation passed verification.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import ledger
import verify

HERE = os.path.dirname(os.path.abspath(__file__))

#: Verification against reference.json happens at this seed only; any
#: other seed gets the invariant checks alone.
REFERENCE_SEED = 0
MIN_PASSES = 3
TRACE_REFERENCE_PASSES = 2
CHILD_TIMEOUT_S = 150
#: One BLAS thread, below the CPU count: a second one spins between
#: calls, which measured slower and noisier (NOTES.md, finding (c)).
BLAS_THREADS = "1"


class Workload:
    """One benchmark workload: a ``repro`` subcommand and its flags."""

    def __init__(self, name, command, flags, list_flag, summary_file, small):
        self.name = name
        self.command = command
        self.flags = flags
        self.list_flag = list_flag
        self.summary_file = summary_file
        self.small = small

    def report_names(self):
        return self.flags[self.list_flag].split(",")

    def argv(self, seed, out_dir, registry_dir, small=False):
        flags = dict(self.flags, **(self.small if small else {}))
        argv = [self.command]
        for key, value in flags.items():
            argv += [key, value]
        return argv + [
            "--seed", str(seed),
            "--backend", "serial",
            "--out", out_dir,
            "--registry-dir", registry_dir,
        ]


# Why these three: see NOTES.md.  ``small`` is the down-scaled copy the
# benchmark's own test runs; it keeps the requests per EDP.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-mfg", "serve",
            {"--policy": "mfg", "--stream": "zipf", "--requests": "2e6",
             "--edps": "128", "--contents": "16"},
            "--policy", "serving_summary.json",
            {"--requests": "1.25e5", "--edps": "8", "--contents": "4"},
        ),
        Workload(
            "stream-replay", "serve",
            {"--policy": "lru,most-popular", "--stream": "zipf",
             "--requests": "2.56e6", "--edps": "256", "--contents": "16"},
            "--policy", "serving_summary.json",
            {"--requests": "1.6e5", "--edps": "16"},
        ),
        Workload(
            "net-replay", "serve-net",
            {"--stream": "zipf", "--strategy": "lce,lcd,probcache",
             "--replicas": "4", "--slots": "50", "--contents": "32",
             "--rate": "600"},
            "--strategy", "network_summary.json",
            {"--replicas": "2", "--slots": "10"},
        ),
    )
}


class Bench:
    """Spawns passes inside one checkout and collects their results."""

    def __init__(self, root, workload, seed, small=False, record=False):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.small = small
        self.record = record
        self.work = os.path.join(root, ".perfbench")
        os.makedirs(self.work, exist_ok=True)
        self.recorded = None
        reference = verify.load_reference() if not (small or record) else None
        self.reference = (
            reference["workloads"].get(workload.name)
            if reference and seed == reference["seed"]
            else None
        )
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env.update(
            PYTHONPATH=self.src,
            OMP_NUM_THREADS=BLAS_THREADS,
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _spawn(self, args, tmp):
        """Run a child interpreter; returns (returncode, spawn time)."""
        with open(os.path.join(tmp, "stdout"), "w") as out, \
                open(os.path.join(tmp, "stderr"), "w") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + args, cwd=tmp, env=self.env,
                stdout=out, stderr=err,
            )
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = -9
        return code, t_spawn

    def import_repro(self, *flags):
        """Spawn ``python FLAGS -c 'import repro.cli'``; returns its stderr.

        Without flags this only fills the bytecode and file caches.
        """
        tmp = tempfile.mkdtemp(dir=self.work)
        try:
            code, _ = self._spawn([*flags, "-c", "import repro.cli"], tmp)
            with open(os.path.join(tmp, "stderr")) as fh:
                stderr = fh.read()
            if code != 0:
                raise RuntimeError("cannot import repro.cli: " + stderr[-2000:])
            return stderr
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def run_pass(self, trace=False, telemetry=False):
        """One verified command run; returns the child's result or None."""
        tmp = tempfile.mkdtemp(dir=self.work)
        try:
            out_dir = os.path.join(tmp, "out")
            registry_dir = os.path.join(tmp, "registry")
            result_path = os.path.join(tmp, "result.json")
            argv = self.workload.argv(
                self.seed, out_dir, registry_dir, small=self.small
            )
            if telemetry:
                argv += ["--telemetry", os.path.join(tmp, "telemetry.jsonl")]
            child = [os.path.join(HERE, "child.py"), result_path]
            if trace:
                child.append("--trace")
            code, t_spawn = self._spawn(child + ["--"] + argv, tmp)
            result = None
            if code == 0 and os.path.exists(result_path):
                with open(result_path) as fh:
                    result = json.load(fh)
                result["setup_s"] = result["t_imported"] - t_spawn
            attempted, failed, problems = verify.verify_pass(
                self.workload, result, out_dir, registry_dir, self.src,
                self.reference,
            )
            if result is None:
                with open(os.path.join(tmp, "stderr")) as fh:
                    problems.append(fh.read()[-2000:])
            elif self.record and not problems:
                self.recorded = verify.load_json_strict(
                    os.path.join(out_dir, self.workload.summary_file)
                )
            self.attempted += attempted
            self.failed += failed
            self.problems.extend(problems)
            return result if not problems else None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def parse_scipy_importtime(stderr_text):
    """Sum the cumulative time of scipy imports not nested in another.

    ``-X importtime`` prints post-order lines ``self | cumulative |
    <indent>module``; reversed they are pre-order, so a stack of scipy
    ancestors' depths tells which scipy lines are outermost.
    """
    rows = []
    for line in stderr_text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), int(m.group(2)), m.group(4)))
    total_us = 0
    scipy_depths = []
    for depth, cumulative, module in reversed(rows):
        while scipy_depths and scipy_depths[-1] >= depth:
            scipy_depths.pop()
        if module == "scipy" or module.startswith("scipy."):
            if not scipy_depths:
                total_us += cumulative
            scipy_depths.append(depth)
    return total_us / 1e6


def untraced_metrics(bench, seconds):
    """Median end-to-end metrics over the passes filling ``seconds``.

    Timings are reported normalised to the reference host speed of
    :mod:`hostspeed`: each pass's timing divided by the host's slowdown
    over that very interval.  The wall-clock values are printed too.
    """
    passes = []
    n_runs = 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if n_runs >= MIN_PASSES and elapsed + elapsed / n_runs > seconds:
            break
        n_runs += 1
        result = bench.run_pass()
        if result is not None:
            passes.append(result)
    if not passes:
        return None
    raw = {
        "run_s": [p["run_s"] for p in passes],
        "requests_per_s": [p["replayed_requests"] / p["replay_s"]
                           for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
    }
    normalised = {
        "run_s": [p["run_s"] / p["run_slowdown"] for p in passes],
        "requests_per_s": [p["replayed_requests"] / p["replay_s"]
                           * p["replay_slowdown"] for p in passes],
        "setup_s": [p["setup_s"] / p["setup_slowdown"] for p in passes],
    }
    for name in raw:
        for kind, values in (("wall", raw[name]),
                             ("normalised", normalised[name])):
            print(f"{name} {kind}: n={len(values)} min={min(values):.6g} "
                  f"median={statistics.median(values):.6g} "
                  f"max={max(values):.6g}")
    slowdowns = [p["run_slowdown"] for p in passes]
    print(f"host slowdown: min={min(slowdowns):.4g} "
          f"median={statistics.median(slowdowns):.4g} "
          f"max={max(slowdowns):.4g}")
    ok = bench.attempted - bench.failed
    return {
        "setup_s": statistics.median(normalised["setup_s"]),
        "run_s": statistics.median(normalised["run_s"]),
        "requests_per_s": statistics.median(normalised["requests_per_s"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "success_fraction": ok / bench.attempted,
    }


def traced_metrics(bench):
    """Per-layer metrics from one traced pass plus its reference passes."""
    scipy_s = parse_scipy_importtime(bench.import_repro("-X", "importtime"))
    reference = []
    for _ in range(TRACE_REFERENCE_PASSES):
        result = bench.run_pass()
        if result is None:
            return None, None
        reference.append(result["run_s"])
    with_telemetry = bench.run_pass(telemetry=True)
    traced = bench.run_pass(trace=True)
    if with_telemetry is None or traced is None:
        return None, None
    metrics = ledger.per_layer(
        traced["trace"],
        untraced_run_s=statistics.median(reference),
        telemetry_run_s=with_telemetry["run_s"],
        scipy_s=scipy_s,
        modules=traced["modules"],
    )
    return metrics, traced["trace"]


def record_reference(bench):
    if bench.run_pass() is None:
        print("\n".join(bench.problems), file=sys.stderr)
        return 1
    reference = verify.load_reference() or {"workloads": {}}
    if reference.get("seed", bench.seed) != bench.seed:
        reference["workloads"] = {}
    reference["seed"] = bench.seed
    reference["rel_tol"] = verify.REL_TOL
    reference["workloads"][bench.workload.name] = bench.recorded
    with open(verify.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {bench.workload.name} at seed {bench.seed} "
          f"-> {verify.REFERENCE_PATH}")
    return 0


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run one pass and store its exported summary "
                             "in reference.json as this seed's reference")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print(f"error: {root} has no src/repro/cli.py; run from the root "
              "of a repro checkout", file=sys.stderr)
        return 2
    spec = load_spec(root)
    bench = Bench(root, WORKLOADS[args.workload], args.seed,
                  record=args.record_reference)
    if args.record_reference:
        return record_reference(bench)
    print(f"workload={args.workload} seed={args.seed} "
          f"blas_threads={BLAS_THREADS} backend=serial")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = trace = None
    try:
        bench.import_repro()
        if args.trace:
            values, trace = traced_metrics(bench)
        else:
            values = untraced_metrics(bench, args.seconds)
    except RuntimeError as err:
        bench.attempted += 1
        bench.failed += 1
        bench.problems.append(str(err))
    if trace is not None:
        for line in ledger.span_tree(trace["spans"]):
            print(line)
        path = os.path.join(
            bench.work, f"trace-{args.workload}-seed{args.seed}.json"
        )
        with open(path, "w") as fh:
            json.dump(trace, fh)

    for problem in bench.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = values is not None and bench.failed == 0
    metrics = {}
    if values is not None:
        for metric in wanted:
            metrics[metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            print(f"{metric['name']:<32} {values[metric['name']]:>16.6g} "
                  f"{metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
