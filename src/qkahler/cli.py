"""Command-line front end: listings, tables, and verification reports.

Every command can emit either a human-readable text report or canonical
JSON ({"schema": "qkahler/1"}, sorted keys, exact scalar strings), so the
same invocation is usable interactively and as a regression artifact.

Exit codes: 0 all requested checks pass, 1 at least one identity failed,
2 configuration error, 3 the report could not be written to --out or to
stdout, or the command raised an unexpected exception (one `error:` line,
no traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .scalars import HodgeMode, H_EQ_Q, H_EQ_ONE, ONE
from .fiber import FiberForm, basis_bidegree, basis_degree, weight
from .lefschetz import primitive_basis
from .hodge import hodge, gram_to_json, gram, certify_posdef
from .verify import run_suites, SUITES, DEFAULT_Q_SAMPLES
from .su2 import (
    laplacian0_cp1, projective_coordinate, verify_cp1_laplacian,
)

SCHEMA = "qkahler/1"


class ConfigError(Exception):
    pass


def parse_mode(text: str) -> HodgeMode:
    if text == "hq":
        return H_EQ_Q
    if text == "h1":
        return H_EQ_ONE
    if text.startswith("numeric:"):
        parts = text.split(":")[1:]
        if len(parts) not in (1, 2):
            raise ConfigError(f"bad mode {text!r}: use numeric:Q0 or numeric:Q0:H0")
        try:
            return HodgeMode.numeric(Fraction(parts[0]),
                                     Fraction(parts[1]) if len(parts) == 2 else None)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"bad mode {text!r}: {e}") from None
    raise ConfigError(f"unknown mode {text!r}: choose hq, h1, or numeric:Q0[:H0]")


def parse_q_samples(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            q0 = Fraction(part)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad q sample {part!r}") from None
        if q0 <= 0:
            raise ConfigError(f"q samples must be positive, got {part}")
        out.append(q0)
    return out


def _check_rank(n: int) -> int:
    if not 1 <= n <= 6:
        raise ConfigError(f"rank must lie in 1..6, got {n}")
    return n


def _config(args, mode) -> dict:
    cfg = {"n": args.rank, "mode": args.mode}
    if mode.kind == "numeric":
        cfg["q0"] = str(mode.q0)
        cfg["h0"] = str(mode.h0)
    if hasattr(args, "q_samples"):
        cfg["q_samples"] = [str(q) for q in parse_q_samples(args.q_samples)]
    if getattr(args, "suite", None):
        cfg["suite"] = args.suite
    if getattr(args, "degree", None) is not None:
        cfg["k"] = args.degree
    if getattr(args, "bidegree", None):
        cfg["bidegree"] = args.bidegree
    return cfg


def cmd_basis(args, mode) -> tuple:
    n = _check_rank(args.rank)
    if args.bidegree:
        try:
            a, b = (int(x) for x in args.bidegree.split(","))
        except ValueError:
            raise ConfigError(f"bad bidegree {args.bidegree!r}: use A,B") from None
        if not (0 <= a <= n and 0 <= b <= n):
            raise ConfigError(f"bidegree ({a},{b}) outside 0..{n}")
        mons = basis_bidegree(n, a, b)
        head = f"basis of the ({a},{b}) component, rank {n}"
    else:
        k = args.degree if args.degree is not None else n
        if not 0 <= k <= 2 * n:
            raise ConfigError(f"degree {k} outside 0..{2 * n}")
        mons = basis_degree(n, k)
        head = f"basis of degree {k}, rank {n}"
    results = [{"monomial": str(m), "bidegree": list(m.bidegree),
                "weight": list(weight(m, n))} for m in mons]
    lines = [head, f"dimension {len(mons)}"]
    lines += [f"  {r['monomial']:<28} bidegree {tuple(r['bidegree'])} "
              f"weight {tuple(r['weight'])}" for r in results]
    return {"dimension": len(mons), "monomials": results}, [], lines


def cmd_hodge(args, mode) -> tuple:
    n = _check_rank(args.rank)
    results = []
    lines = [f"Hodge map on the rank-{n} fiber, {mode.label()}"]
    for k in range(2 * n + 1):
        for m in basis_degree(n, k):
            img = hodge(FiberForm(n, {m: ONE}), mode)
            results.append({"input": str(m), "degree": k, "image": str(img)})
            lines.append(f"  *({m}) = {img}")
    return {"table": results}, [], lines


def cmd_primitive(args, mode) -> tuple:
    n = _check_rank(args.rank)
    results = []
    lines = [f"primitive components, rank {n}"]
    for k in range(n + 1):
        for b in range(k + 1):
            a = k - b
            seeds = primitive_basis(n, a, b)
            entry = {"bidegree": [a, b],
                     "dimension": len(seeds),
                     "basis": [str(p) for p in seeds]}
            results.append(entry)
            lines.append(f"  P^({a},{b}): dimension {len(seeds)}")
            lines += [f"    {p}" for p in seeds]
    return {"components": results}, [], lines


def cmd_gram(args, mode) -> tuple:
    n = _check_rank(args.rank)
    q_samples = parse_q_samples(args.q_samples)
    blocks = []
    failures = []
    lines = [f"Gram blocks, rank {n}, {mode.label()}"]
    for a in range(n + 1):
        for b in range(n + 1):
            block = gram_to_json(n, a, b, mode)
            certs = []
            for q0 in q_samples:
                cert = certify_posdef(gram(n, a, b, mode), q0).to_json()
                certs.append(cert)
                if cert["verdict"] != "positive-definite":
                    failures.append({"suite": "posdef",
                                     "name": f"block ({a},{b}) at q0={q0}",
                                     "status": "fail"})
            block["certificates"] = certs
            blocks.append(block)
            verdicts = ", ".join(f"q0={c['q0']}: {c['verdict']}" for c in certs)
            lines.append(f"  block ({a},{b}) dim {len(block['basis'])}: {verdicts}")
    return {"blocks": blocks}, failures, lines


def cmd_verify(args, mode) -> tuple:
    n = _check_rank(args.rank)
    q_samples = parse_q_samples(args.q_samples)
    if args.suite != "all" and args.suite not in SUITES:
        raise ConfigError(f"unknown suite {args.suite!r}: "
                          f"choose from {', '.join(SUITES)} or all")
    results, failures = run_suites(args.suite, n, mode, q_samples)
    lines = [f"verify suite={args.suite} rank={n} {mode.label()}"]
    for e in results:
        tag = {"pass": "PASS", "fail": "FAIL", "note": "note"}[e["status"]]
        lines.append(f"  [{tag}] {e['suite']}: {e['name']}")
        if e["status"] != "pass" and e.get("detail"):
            lines.append(f"         {e['detail']}")
        if e["status"] == "fail" and e.get("witness"):
            lines.append(f"         witness: {e['witness']}")
    lines.append(f"{len(results)} checks, {len(failures)} failures")
    return {"results": results}, failures, lines


def cmd_laplacian_cp1(args, mode) -> tuple:
    _check_rank(args.rank)
    rep = verify_cp1_laplacian()
    failures = [{"suite": "cp1-laplacian", "name": c["name"], "status": "fail"}
                for c in rep["checks"] if not c["holds"]]
    lines = ["zero-form Laplacian on the projective line"]
    for i, j in ((1, 2), (2, 1)):
        z = projective_coordinate(i, j)
        lines.append(f"  z_{i}{j} = {z}")
        lines.append(f"  laplacian0({i},{j}) = {laplacian0_cp1(i, j)}")
    for c in rep["checks"]:
        lines.append(f"  [{'PASS' if c['holds'] else 'FAIL'}] {c['name']}")
    lines.append(f"  eigenvalue q[2]_q = {rep['eigenvalue']}")
    return rep, failures, lines


COMMANDS = {
    "basis": cmd_basis,
    "hodge": cmd_hodge,
    "primitive": cmd_primitive,
    "gram": cmd_gram,
    "verify": cmd_verify,
    "laplacian-cp1": cmd_laplacian_cp1,
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qkahler",
        description="exact fiber calculus for quantum projective space: "
                    "bases, Hodge tables, Gram blocks, verification suites")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, samples=False):
        p.add_argument("-n", "--rank", type=int, default=2,
                       help="rank of the fiber (default 2)")
        p.add_argument("--mode", default="hq",
                       help="Hodge parameter: hq, h1, or numeric:Q0[:H0]")
        p.add_argument("--json", action="store_true",
                       help="emit canonical JSON instead of text")
        p.add_argument("--out", metavar="FILE",
                       help="write the report to FILE instead of stdout")
        if samples:
            p.add_argument("--q-samples", default=",".join(DEFAULT_Q_SAMPLES),
                           help="comma-separated rational sample points "
                                "(default 9/10,1,11/10)")

    p = sub.add_parser("basis", help="list basis monomials with weights")
    common(p)
    p.add_argument("-k", "--degree", type=int, default=None,
                   help="total degree (default: rank)")
    p.add_argument("--bidegree", metavar="A,B",
                   help="restrict to one (a,b) component")

    p = sub.add_parser("hodge", help="tabulate the Hodge map on the basis")
    common(p)

    p = sub.add_parser("primitive", help="list primitive component bases")
    common(p)

    p = sub.add_parser("gram", help="Gram blocks with positivity certificates")
    common(p, samples=True)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, samples=True)
    p.add_argument("--suite", default="all",
                   help=f"one of {', '.join(SUITES)}, or all (default)")

    p = sub.add_parser("laplacian-cp1",
                       help="zero-form Laplacian eigenvalue on the projective line")
    common(p)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        mode = parse_mode(args.mode)
        payload, failures, lines = COMMANDS[args.command](args, mode)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command,
               "config": _config(args, mode),
               "results": payload, "failures": failures}
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write --out file: {e}", file=sys.stderr)
            return 3
    else:
        try:
            print(text, flush=True)
        except OSError as e:
            # The interpreter flushes stdout again at exit; point it at
            # devnull so a closed pipe is not reported a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: cannot write to stdout: {e}", file=sys.stderr)
            return 3
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
