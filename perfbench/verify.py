"""Output verification for one benchmark pass.

Every pass counts operations and failures:

* the command itself: it must exit 0, run this checkout's ``repro``,
  and record one run manifest with status ``ok`` and no error-severity
  ``diag.*`` finding.  The program's own ``serve.occupancy`` /
  ``net.occupancy`` checks raise such a finding when a cache ends over
  capacity, so this is also the occupancy invariant;
* each equilibrium solved: converged, every array finite;
* each exported report: no NaN or inf in any exported file, total
  requests within Poisson bounds of ``expected_total_requests()``,
  sane counters and, at the reference seed, a match against
  ``reference.json``: integers exactly, floats within ``REL_TOL``.
"""

import csv
import glob
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Relative tolerance for float fields against the stored reference.
#: The replay is deterministic, so on one platform floats match
#: exactly; the tolerance only absorbs last-digit differences between
#: numpy builds.
REL_TOL = 1e-9

#: Allowed distance of total requests from their Poisson mean, in
#: standard deviations (plus one request).
POISSON_SIGMAS = 6.0


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def load_json_strict(path):
    """Load JSON, failing on NaN / Infinity literals."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def load_reference():
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _csv_problems(path):
    problems = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    problems.append(f"{os.path.basename(path)}: {cell}")
                    return problems
    return problems


def compare(reference, actual, path=""):
    """Differences between a reference JSON tree and an actual one."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict) or set(reference) != set(actual):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(reference):
            out.extend(compare(reference[key], actual[key], f"{path}.{key}"))
        return out
    if isinstance(reference, bool) or isinstance(reference, str):
        return [] if reference == actual else [f"{path}: {actual!r} != {reference!r}"]
    if isinstance(reference, int):
        if isinstance(actual, int) and actual == reference:
            return []
        return [f"{path}: {actual!r} != {reference!r} (exact)"]
    if isinstance(reference, float):
        if isinstance(actual, (int, float)) and math.isclose(
            actual, reference, rel_tol=REL_TOL, abs_tol=1e-12
        ):
            return []
        return [f"{path}: {actual!r} != {reference!r} (rel {REL_TOL})"]
    return [] if reference == actual else [f"{path}: {actual!r} != {reference!r}"]


def _report_problems(report, expected_requests):
    problems = []
    requests = report["requests"]
    for key, value in report.items():
        if isinstance(value, int) and not isinstance(value, bool) and value < 0:
            problems.append(f"{key} = {value} < 0")
    hits = report.get("hits", report.get("cache_hits"))
    if hits is not None and hits > requests:
        problems.append(f"hits {hits} > requests {requests}")
    if expected_requests is not None:
        slack = POISSON_SIGMAS * math.sqrt(expected_requests) + 1.0
        if abs(requests - expected_requests) > slack:
            problems.append(
                f"requests {requests} outside {expected_requests:.1f} "
                f"+- {slack:.1f}"
            )
    return problems


def verify_pass(workload, result, out_dir, registry_dir, src_dir, reference):
    """Check one pass; returns ``(attempted, failed, problems)``.

    ``result`` is the child's result dict, or ``None`` when the child
    died before writing one.  ``reference`` is this workload's stored
    summary when the pass ran at the reference seed, else ``None``.
    """
    if result is None:
        return 1, 1, ["command: no result (child process failed)"]
    problems = []
    if result.get("exit_code") != 0:
        return 1, 1, [f"command: exit code {result.get('exit_code')}"]
    if not os.path.realpath(result["repro_file"]).startswith(
        os.path.realpath(src_dir) + os.sep
    ):
        problems.append(f"command: ran {result['repro_file']}, not {src_dir}")
    manifests = glob.glob(os.path.join(registry_dir, "*.json"))
    if len(manifests) != 1:
        problems.append(f"command: {len(manifests)} run manifests, expected 1")
    else:
        manifest = load_json_strict(manifests[0])
        if manifest.get("status") != "ok":
            problems.append(f"command: manifest status {manifest.get('status')}")
        if manifest.get("metrics", {}).get("diag_error", 0):
            problems.append("command: error-severity diag findings recorded")
    attempted, failed = 1, int(bool(problems))

    for eq in result["equilibria"]:
        attempted += 1
        if not (eq["converged"] and eq["finite"]):
            failed += 1
            problems.append(f"equilibrium {eq['content']}: {eq}")

    summary_path = os.path.join(out_dir, workload.summary_file)
    names = workload.report_names()
    attempted += len(names)
    try:
        summary = load_json_strict(summary_path)
        csv_problems = [
            p for path in sorted(glob.glob(os.path.join(out_dir, "*.csv")))
            for p in _csv_problems(path)
        ]
    except (OSError, ValueError) as err:
        return attempted, failed + len(names), problems + [f"reports: {err}"]
    if csv_problems:
        return attempted, failed + len(names), problems + csv_problems
    expected = result["expected_requests"]
    expected_requests = sum(expected) if expected else None
    for name in names:
        report = summary.get(name)
        if report is None:
            failed += 1
            problems.append(f"report {name}: missing")
            continue
        bad = _report_problems(report, expected_requests)
        if reference is not None:
            bad += compare(reference.get(name), report, name)
        if bad:
            failed += 1
            problems.extend(f"report {name}: {p}" for p in bad)
    return attempted, failed, problems
