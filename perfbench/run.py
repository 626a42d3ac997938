"""The qkahler benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation runs in a fresh
interpreter (`perfbench/child.py`) with `src` on PYTHONPATH, so the program
is measured from source, as a user of the CLI meets it.  Workloads:

  verify-n3-hq  `qkahler verify -n 3 --suite all --mode hq --json`, repeated
  relations-n4  `qkahler verify -n 4 --suite relations --json`, repeated
  queries-n3    seeded single operator queries on warm caches, n = 3

With `--trace 0` the end-to-end metrics of BENCHMARK.json are measured with
tracing off; with `--trace 1` the same work runs untraced and then traced,
in pairs while the time lasts, giving the per-layer metrics and the tracing
overhead.  Human-readable lines
come first; the last line of standard output is the JSON result.
`--record-reference` rewrites the expected verify reports under
perfbench/reference from the current program.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import REPORT_TAG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150
# setup_s is the median of at least this many launches
MIN_SETUP_SAMPLES = 5
# queries-n3 splits its loop over this many processes, each with its own setup
QUERY_PARTS = 3
# Times are reported in reference seconds: each measured interval, less the
# time of the reference samples taken inside it, is scaled by
# REF_NOMINAL_S / ref_s, where ref_s is the median time of the reference loop
# (`child.reference_s`) sampled in the same process while it worked.  The
# machine's speed drifts by up to 40% over minutes; within one process the
# reference tracks the engine's speed with a correlation of about 0.9.
# REF_NOMINAL_S is about the loop's time in a verify process on the machine
# the baseline was taken on.
REF_NOMINAL_S = 0.010

VERIFY_WORKLOADS = {
    "verify-n3-hq": ["verify", "-n", "3", "--suite", "all", "--mode", "hq", "--json"],
    "relations-n4": ["verify", "-n", "4", "--suite", "relations", "--json"],
}
WORKLOADS = (*VERIFY_WORKLOADS, "queries-n3")
SUITES = ("relations", "hodge", "metric", "lids", "strings", "posdef",
          "cp1-laplacian")
ELIMINATION = ("rank", "determinant", "kernel_basis", "solve", "inverse")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Launch:
    """One finished child process: its output, report and clock stamps."""

    def __init__(self, args):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.t_launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=ROOT, env=env)
        try:
            self.stdout, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            self.stdout, err = proc.communicate()
        self.t_exit = time.monotonic()
        self.returncode = proc.returncode
        self.stderr = err.decode(errors="replace")
        self.report = None
        lines = self.stderr.splitlines()
        if lines and lines[-1].startswith(REPORT_TAG):
            self.report = json.loads(lines[-1][len(REPORT_TAG):])

    @property
    def wall_s(self):
        return self.t_exit - self.t_launch

    @property
    def scale(self):
        """Factor from this process's seconds to reference seconds."""
        return REF_NOMINAL_S / self.report["ref_s"]

    @property
    def setup_s(self):
        """Reference seconds from launch until the process was ready."""
        return (self.report["t_ready"] - self.t_launch) * self.scale

    @property
    def main_s(self):
        """Reference seconds of the command's `main()` call."""
        return self.report["main_s"] * self.scale

    @property
    def run_s(self):
        """Reference seconds from ready until exit, less reference samples."""
        return (self.t_exit - self.report["t_ready"] - self.report["ref_total_s"]) * self.scale

    @property
    def rss_mib(self):
        return self.report["maxrss_kib"] / 1024

    def problems(self):
        out = []
        if self.returncode != 0:
            out.append(f"exit code {self.returncode}")
        if self.report is None:
            out.append("no report: " + self.stderr.strip()[-800:])
        return out


def import_probe():
    """Reference seconds from launch until `import qkahler.cli` returns."""
    launch = Launch(["import"])
    if launch.problems():
        raise RuntimeError("import probe failed: " + "; ".join(launch.problems()))
    return launch.setup_s


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def report_triples(stdout: bytes):
    """Sorted (suite, name, status) triples of a `verify --json` report."""
    doc = json.loads(stdout)
    return sorted([e["suite"], e["name"], e["status"]]
                  for e in doc["results"]["results"])


def verify_problems(launch, reference):
    """Every reason a verify operation counts as failed; empty if it passed."""
    out = launch.problems()
    if launch.report is not None and launch.report.get("rc") != 0:
        out.append(f"command returned {launch.report.get('rc')}")
    try:
        triples = report_triples(launch.stdout)
    except (ValueError, KeyError, TypeError) as e:
        return out + [f"unreadable report: {e!r}"]
    fails = [t for t in triples if t[2] == "fail"]
    if fails:
        out.append(f"{len(fails)} failing checks, first {fails[0]}")
    if triples != reference["triples"]:
        got = {tuple(t) for t in triples}
        want = {tuple(t) for t in reference["triples"]}
        out.append(f"checks differ from the reference: missing "
                   f"{sorted(want - got)[:3]}, unexpected {sorted(got - want)[:3]}")
    return out


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def record_reference(workload):
    argv = VERIFY_WORKLOADS[workload]
    launch = Launch(["verify", "--", *argv])
    if launch.problems() or launch.report.get("rc") != 0:
        raise RuntimeError(f"{workload}: {launch.problems()} rc={launch.report}")
    doc = {
        "command": ["qkahler", *argv],
        "triples": report_triples(launch.stdout),
        "sha256": hashlib.sha256(launch.stdout).hexdigest(),
        "sha256_note": "digest of the canonical JSON, for information only; "
                       "operations are judged by the triples",
    }
    # one triple a line, so a deliberate change shows as a readable diff
    text = json.dumps(doc, indent=1).replace(
        json.dumps(doc["triples"], indent=1),
        "[\n" + ",\n".join("  " + json.dumps(t) for t in doc["triples"]) + "\n ]")
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{workload}.json").write_text(text + "\n")
    print(f"recorded {len(doc['triples'])} checks for {workload}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Linear interpolation between closest ranks; p in [0, 1]."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems[:2])

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


def latency_metrics(times_s, setups, rss_mib, run_s):
    """End-to-end metrics; for the verify workloads one command is one
    operation, so query_p50_ms is 1000 * run_s there."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mib": (max(rss_mib), "MiB"),
        "query_p50_ms": (1e3 * statistics.median(times_s), "ms"),
        "query_p99_ms": (1e3 * percentile(times_s, 0.99), "ms"),
        "queries_per_s": (len(times_s) / sum(times_s), "1/s"),
    }


def measure_verify(workload, deadline, tally, notes):
    argv = VERIFY_WORKLOADS[workload]
    reference = load_reference(workload)
    runs, setups, rss, scales = [], [], [], []
    while True:
        launch = Launch(["verify", "--", *argv])
        tally.add(verify_problems(launch, reference))
        if launch.report is not None:
            setups.append(launch.setup_s)
            runs.append(launch.run_s)
            rss.append(launch.rss_mib)
            scales.append(launch.scale)
            same = hashlib.sha256(launch.stdout).hexdigest() == reference["sha256"]
            notes["digest_matches_reference"] = notes.get("digest_matches_reference", True) and same
        # stop before an operation like the last would overrun the run
        if time.monotonic() + launch.wall_s > deadline:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(import_probe())
    notes["samples"] = f"{len(runs)} commands, {len(setups)} setups"
    if not runs:
        raise RuntimeError("no verify command completed: " + "; ".join(tally.reasons))
    notes["scale"] = statistics.median(scales)
    return latency_metrics(runs, setups, rss, statistics.median(runs))


def query_launch(seed, part, tally, limit):
    launch = Launch(["queries", "--seed", str(seed), "--part", str(part), *limit])
    problems = launch.problems()
    if launch.report is None:
        tally.add(problems)
        return launch, []
    lat = launch.report["latencies_s"]
    failures = launch.report["failures"]
    tally.attempted += len(lat)
    tally.failed += len(failures)
    tally.reasons.extend(failures[:2])
    if problems:
        tally.add(problems)
    return launch, lat


def share_of(deadline, parts_left):
    """`--until` for a process that gets an equal share of the time left,
    its launch and warm-up included."""
    now = time.monotonic()
    return ["--until", repr(now + (deadline - now) / parts_left)]


def measure_queries(seed, deadline, tally, notes):
    times, setups, rss, scales = [], [], [], []
    loop_s = 0.0
    for part in range(QUERY_PARTS):
        launch, lat = query_launch(seed, part, tally,
                                   share_of(deadline, QUERY_PARTS - part))
        if launch.report is not None:
            times.extend(t * launch.scale for t in lat)
            loop_s += launch.report["loop_s"] * launch.scale
            setups.append(launch.setup_s)
            rss.append(launch.rss_mib)
            scales.append(launch.scale)
    notes["samples"] = f"{len(times)} queries, {len(setups)} setups"
    if not times:
        raise RuntimeError("no query completed: " + "; ".join(tally.reasons))
    notes["scale"] = statistics.median(scales)
    # run_s of the query workload: seconds of the client's loop per 1000
    # queries, building each query's inputs and checking its answer included
    return latency_metrics(times, setups, rss, 1e3 * loop_s / len(times))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def layer_metrics(trace, overhead_ratio, output_bytes):
    """The per-layer metrics of BENCHMARK.json from a tracer summary."""
    calls = trace["calls"]
    self_s, incl_s = trace["self_s"], trace["incl_s"]

    def total(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    def ratio(key, name):
        n = calls.get(name, 0)
        return trace["distinct"][key] / n if n else 0.0

    m = {
        "scalars.self_s": (self_s["scalars"], "s"),
        "scalars.scalar_ops": (total("scalars.Scalar."), "count"),
        "scalars.scalar_divs": (calls.get("scalars.Scalar.__truediv__", 0)
                                + calls.get("scalars.Scalar.__rtruediv__", 0), "count"),
        "scalars.laurent_ops": (total("scalars.LaurentPoly."), "count"),
        "scalars.gaussian_ops": (total("scalars.GaussianRational."), "count"),
        "fiber.self_s": (self_s["fiber"], "s"),
        "fiber.wedge_calls": (calls.get("fiber.FiberForm.wedge", 0), "count"),
        "fiber.star_calls": (calls.get("fiber.FiberForm.star", 0), "count"),
        "fiber.monomial_pairs": (trace["monomial_pairs"], "count"),
        "linalg.self_s": (self_s["linalg"], "s"),
        "linalg.elim_calls": (sum(calls.get(f"linalg.{f}", 0) for f in ELIMINATION), "count"),
        "linalg.elim_cells": (trace["elim_cells"], "count"),
        "linalg.matmul_calls": (calls.get("linalg.ScalarMatrix.__matmul__", 0), "count"),
        "linalg.ldl_calls": (calls.get("linalg.hermitian_ldl", 0), "count"),
        "lefschetz.self_s": (self_s["lefschetz"], "s"),
        "lefschetz.incl_s": (incl_s["lefschetz"], "s"),
        "lefschetz.primitive_calls": (calls.get("lefschetz.primitive_basis", 0), "count"),
        "lefschetz.primitive_useful_ratio": (ratio("primitive_basis", "lefschetz.primitive_basis"), "ratio"),
        "hodge.self_s": (self_s["hodge"], "s"),
        "hodge.incl_s": (incl_s["hodge"], "s"),
        "hodge.gram_calls": (calls.get("hodge.gram", 0), "count"),
        "hodge.gram_useful_ratio": (ratio("gram", "hodge.gram"), "ratio"),
        "hodge.hodge_block_calls": (calls.get("hodge.hodge_block", 0), "count"),
        "hodge.metric_calls": (calls.get("hodge.metric", 0), "count"),
        "hodge.adjoint_calls": (calls.get("hodge.adjoint", 0), "count"),
        "uqsl2.self_s": (self_s["uqsl2"], "s"),
        "uqsl2.incl_s": (incl_s["uqsl2"], "s"),
        "su2.incl_s": (incl_s["su2"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.run_s": (trace["wall_s"], "s"),
        "trace.outside_s": (self_s["outside"], "s"),
    }
    for suite in SUITES:
        m[f"verify.suite.{suite}_s"] = (trace["timed_s"].get(f"verify.suite.{suite}", 0.0), "s")
    return m


def alternate(pair, deadline, notes):
    """Call `pair()`, which runs the same work untraced and then traced and
    returns (traced launch, overhead ratio), until another pair like the
    last would overrun (at least once).  Returns the last traced launch and
    the median ratio: one pair's ratio still carries the machine's drift."""
    ratios = []
    while True:
        t0 = time.monotonic()
        traced, ratio = pair()
        ratios.append(ratio)
        now = time.monotonic()
        if now + (now - t0) > deadline:
            break
    notes["overhead_ratios"] = ratios
    return traced, statistics.median(ratios)


def trace_verify(workload, deadline, tally, notes):
    argv = VERIFY_WORKLOADS[workload]
    reference = load_reference(workload)
    path = WORK_DIR / f"trace-{workload}.json"

    def pair():
        plain = Launch(["verify", "--", *argv])
        tally.add(verify_problems(plain, reference))
        traced = Launch(["verify", "--trace", str(path), "--", *argv])
        tally.add(verify_problems(traced, reference))
        if plain.report is None or traced.report is None:
            raise RuntimeError("a verify command failed: " + "; ".join(tally.reasons))
        return traced, traced.main_s / plain.main_s

    traced, ratio = alternate(pair, deadline, notes)
    notes["spans"] = f"{traced.report['trace']['spans']} spans written to {path.relative_to(ROOT)}"
    return layer_metrics(traced.report["trace"], ratio, len(traced.stdout))


def trace_queries(seed, deadline, tally, notes):
    path = WORK_DIR / "trace-queries-n3.json"
    count = None

    def pair():
        nonlocal count
        # the first untraced process gets an eighth of the time left, so
        # that about three pairs fit: a traced process takes longer
        limit = share_of(deadline, 8) if count is None else ["--count", str(count)]
        plain, lat = query_launch(seed, 0, tally, limit)
        if not lat:
            raise RuntimeError("no query completed: " + "; ".join(tally.reasons))
        count = len(lat)
        traced, lat_t = query_launch(seed, 0, tally,
                                     ["--count", str(count), "--trace", str(path)])
        if traced.report is None:
            raise RuntimeError("traced queries failed: " + "; ".join(tally.reasons))
        return traced, (sum(lat_t) * traced.scale) / (sum(lat) * plain.scale)

    traced, ratio = alternate(pair, deadline, notes)
    notes["spans"] = f"{traced.report['trace']['spans']} spans written to {path.relative_to(ROOT)}"
    notes["samples"] = f"{count} queries a process"
    return layer_metrics(traced.report["trace"], ratio, 0)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg())}


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="qkahler benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the expected verify reports and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qkahler" / "__init__.py").is_file():
        print("error: qkahler sources not found under src/; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        for workload in VERIFY_WORKLOADS:
            record_reference(workload)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = expected_metrics(args.trace)
    deadline = time.monotonic() + args.seconds
    WORK_DIR.mkdir(exist_ok=True)
    import_probe()  # compiles the bytecode and warms the file cache, untimed
    start = machine()
    tally, notes = Tally(), {}
    if args.workload == "queries-n3":
        measure = trace_queries if args.trace else measure_queries
        metrics = measure(args.seed, deadline, tally, notes)
    elif args.trace:
        metrics = trace_verify(args.workload, deadline, tally, notes)
    else:
        metrics = measure_verify(args.workload, deadline, tally, notes)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine_start": start, "machine_end": machine(), **notes,
            "error_rate": tally.error_rate}
    print("info: " + json.dumps(info))
    for name in names:
        value, unit = metrics[name]
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for reason in tally.reasons[:5]:
        print(f"  failure: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
