"""Steadiness record: run the benchmark repeatedly and report the spread.

    python3 perfbench/steady.py [--workload NAME ...] [--out FILE]

Runs `run.py` once per seed (1..RUNS) on each workload, one run at a time,
with BENCHMARK.json's run_seconds, and prints for every end-to-end metric
its median and its spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median,
next to the metric's bound.  It exits 1 if any spread, `setup_s` included,
exceeds its bound.  `--out` writes every run's result, with the
machine lines run.py prints (nproc, Python version, load average at start
and end), to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def one_run(workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(x[len("info: "):]) for x in lines if x.startswith("info: ")), None)
    return {"seed": seed, "exit": proc.returncode, "wall_s": time.monotonic() - t0,
            "info": info, "result": json.loads(lines[-1]) if lines else None,
            "stderr": proc.stderr[-2000:]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark steadiness record")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(1, RUNS + 1):
            run = one_run(workload, seed, spec["run_seconds"])
            runs.append(run)
            res = run["result"] or {}
            print(f"{workload} seed {seed}: exit {run['exit']} wall {run['wall_s']:.1f}s "
                  f"correct {res.get('correct')} load {run['info'] and run['info']['machine_start']['loadavg']}",
                  flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in runs if r["result"]]
            s, med = spread(values)
            summary[m["name"]] = {"median": med, "spread": s, "bound": m["bound"],
                                  "values": values}
            flag = "" if s < m["bound"] / 3 else ("  above bound/3" if s <= m["bound"] else "  ABOVE BOUND")
            if s > m["bound"]:
                ok = False
            print(f"  {m['name']:<16} median {med:<12.6g} spread {s:.4f} bound {m['bound']}{flag}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
