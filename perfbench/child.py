"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py import
    python3 perfbench/child.py verify [--trace FILE] -- CLI-ARGS...
    python3 perfbench/child.py queries --seed S --part P (--until T | --count N) [--trace FILE]

`run.py` launches this with `src` on PYTHONPATH and reads the report that
the last line of standard error carries after REPORT_TAG.  Standard output
belongs to the command: for `verify` it is exactly what `qkahler verify`
prints.  Times that must be compared with the launcher's clock are read
from time.monotonic, which is shared by all processes of the machine; the
`--until` deadline of `queries` is such a time.

Every process also times a fixed reference loop (`reference_s`) a few times
when ready and a few times at the end.  Untraced processes also time it
every REF_INTERVAL_S of wall time from a SIGALRM handler, interleaved with
the measured work; traced ones take only the samples at the ends, before the
tracer is installed and after it has stopped, so that no sample is charged
to a layer.  The report carries their median (`ref_s`) and their total
(`ref_total_s`); the time spent in them is taken out of every measured
interval.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from math import gcd

REPORT_TAG = "PERFBENCH-REPORT "
REF_INTERVAL_S = 0.5
REF_AT_ENDS = 3


def reference_s():
    """Time of one pass of a fixed loop of small-rational arithmetic (about
    10 ms), the kind of work the engine's scalar layer does, in code of its
    own so that nothing the engine runs changes how fast it goes."""
    t0 = time.perf_counter()
    table = {}
    for k in range(30000):
        n1, d1 = k % 7 + 1, k % 5 + 2
        n2, d2 = k % 3 - 1, 4
        num = n1 * d2 + n2 * d1
        den = d1 * d2
        g = gcd(num, den)
        table[k & 63] = (num // g, den // g)
    return time.perf_counter() - t0


class Reference:
    """Reference samples of this process, some interleaved with the work."""

    def __init__(self):
        self.samples = []

    def take(self, count=REF_AT_ENDS):
        self.samples.extend(reference_s() for _ in range(count))

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.take(1))
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def since(self, index):
        """Seconds spent in samples taken after the first `index`."""
        return sum(self.samples[index:])

    def into(self, doc):
        doc["ref_s"] = statistics.median(self.samples)
        doc["ref_total_s"] = sum(self.samples)
        return doc


def _report(doc):
    doc["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write(REPORT_TAG + json.dumps(doc) + "\n")
    sys.stderr.flush()


def _tracer():
    from tracer import Tracer  # beside this script, so first on sys.path
    return Tracer().install()


def _finish_traced(doc, ref, tracer, trace_path):
    """Report with the tracer's totals, then write the spans, which can take
    a while."""
    tracer.stop()
    ref.take()
    doc["trace"] = tracer.summary()
    _report(ref.into(doc))
    tracer.dump(trace_path)
    return 0


def _nothing():
    pass


def cmd_import(args):
    import qkahler.cli  # noqa: F401  (the console script imports this module)
    t_ready = time.monotonic()
    ref = Reference()
    ref.take()
    _report(ref.into({"t_ready": t_ready}))
    return 0


def cmd_verify(args):
    import qkahler.cli
    t_ready = time.monotonic()
    ref = Reference()
    ref.take()
    if args.trace:
        tracer = _tracer()
        t0 = time.perf_counter()
        rc = qkahler.cli.main(args.cli)
        sys.stdout.flush()
        main_s = time.perf_counter() - t0
        return _finish_traced({"t_ready": t_ready, "main_s": main_s, "rc": rc},
                              ref, tracer, args.trace)
    with ref:
        first = len(ref.samples)
        t0 = time.perf_counter()
        rc = qkahler.cli.main(args.cli)
        sys.stdout.flush()
        main_s = time.perf_counter() - t0 - ref.since(first)
    ref.take()
    _report(ref.into({"t_ready": t_ready, "main_s": main_s, "rc": rc}))
    return 0


def cmd_queries(args):
    from queries import QueryEngine, query_stream
    ref = Reference()
    if args.trace:
        ref.take()
    tracer = _tracer() if args.trace else None
    engine = QueryEngine()
    engine.warm_up()
    t_ready = time.monotonic()
    # the tracer sees set-up and the timed calls, not building the inputs or
    # checking the answers
    pause = tracer.pause if tracer else _nothing
    resume = tracer.resume if tracer else _nothing
    pause()
    if tracer is None:
        ref.take()
    latencies = []
    failures = []
    clock = time.perf_counter
    with ref if tracer is None else contextlib.nullcontext():
        first_loop = len(ref.samples)
        t_loop = clock()
        for query in query_stream(args.seed, args.part):
            if args.count is not None:
                if len(latencies) >= args.count:
                    break
            elif latencies and time.monotonic() >= args.until:
                break
            fn, call_args, context = engine.materialize(query)
            resume()
            first = len(ref.samples)
            t0 = clock()
            try:
                answer, error = fn(*call_args), None
            except Exception as e:
                answer, error = None, e
            latencies.append(clock() - t0 - ref.since(first))
            pause()
            if error is not None:
                failures.append(f"{query!r}: {''.join(traceback.format_exception(error))}")
            elif not engine.check(query, call_args, context, answer):
                failures.append(f"{query!r}: identity check is false")
        loop_s = clock() - t_loop - ref.since(first_loop)
    doc = {"t_ready": t_ready, "latencies_s": latencies, "loop_s": loop_s,
           "failures": failures}
    if tracer is not None:
        return _finish_traced(doc, ref, tracer, args.trace)
    ref.take()
    _report(ref.into(doc))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("import")
    p = sub.add_parser("verify")
    p.add_argument("--trace", metavar="FILE")
    p.add_argument("cli", nargs=argparse.REMAINDER)
    p = sub.add_parser("queries")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--until", type=float, help="time.monotonic() at which to stop")
    p.add_argument("--count", type=int)
    p.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)
    if args.cmd == "verify" and args.cli[:1] == ["--"]:
        args.cli = args.cli[1:]
    if args.cmd == "queries" and (args.until is None) == (args.count is None):
        parser.error("queries needs exactly one of --until and --count")
    return {"import": cmd_import, "verify": cmd_verify,
            "queries": cmd_queries}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
