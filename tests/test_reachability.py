"""Every function in the package is run by a command, a suite or the
benchmark's queries; code that only tests call lives in tests/.

A fresh interpreter imports the package under `sys.setprofile`, so that
import-time calls count and every cache starts empty.  In that one process
it runs every CLI command at n = 1 and 2 in the hq, h1 and numeric modes,
and calls at n = 2 the Python API that `perfbench/queries.py` calls.  Every
named function and method defined in src/qkahler/*.py, dunders included,
must have been entered, or be listed with its reason in ALLOWED_UNREACHED.
"""

from __future__ import annotations

import glob
import inspect
import json
import os
import subprocess
import sys
import textwrap
import types

import qkahler

PACKAGE = os.path.dirname(os.path.realpath(qkahler.__file__))

# qualified name -> the reason no command, suite or query reaches it
ALLOWED_UNREACHED: dict = {
    "fiber.FiberForm.__rmul__": "reflected arithmetic: scalar * form",
    "linalg.ScalarMatrix.__str__": "str and repr for debugging",
    "scalars.GaussianRational.__rsub__": "reflected arithmetic",
    "scalars.GaussianRational.__rtruediv__": "reflected arithmetic",
    "scalars.GaussianRational.__str__": "str and repr for debugging",
    "scalars.LaurentPoly.__str__": "str and repr for debugging",
    "scalars.LaurentPoly.__sub__": "completes the ring operations",
    "scalars.Scalar.__rsub__": "reflected arithmetic",
    "scalars.Scalar.__rtruediv__": "reflected arithmetic",
    "su2.SU2Element.__bool__": "truthiness",
    "su2.SU2Element.__neg__": "completes the ring operations",
}

_RUN = textwrap.dedent("""
    import contextlib, io, json, sys
    from fractions import Fraction

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    import qkahler as qk
    from qkahler import cli

    for n in ("1", "2"):
        for mode in ("hq", "h1", "numeric:9/10:7/8"):
            for command in cli.COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([command, "-n", n, "--mode", mode, "--json"])
                assert rc == 0, (command, n, mode, rc)

    # the calls of the benchmark's queries and of their answer checks
    for mode in (qk.H_EQ_Q, qk.H_EQ_ONE):
        for k in range(5):
            basis = qk.basis_degree(2, k)
            u = (qk.FiberForm(2, {basis[0]: qk.parse_scalar("1 + q^2")})
                 + qk.FiberForm(2, {basis[-1]: qk.parse_scalar("-i*q")}))
            assert qk.hodge_inverse(qk.hodge(u, mode), mode) == u
            qk.metric(u, u, mode).conjugate()
            qk.lambda_apply(u, mode)
            for j, alpha in qk.lefschetz_decompose(u, mode):
                qk.L_power(alpha, j)
            qk.L(u)
        qk.certify_posdef(qk.gram(2, 1, 1, mode), Fraction(9, 10))

    # cached values refuse to be rebound, a promise of the Python API
    try:
        qk.gram(2, 1, 1).rows = ()
    except AttributeError:
        pass
    sys.setprofile(None)
    json.dump(sorted(reached), sys.stdout)
""")


def _defined_functions() -> dict:
    """(file, first line, name) -> qualified name of every function and
    method in the package sources, dunders included, anonymous code aside."""
    out = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            stack = [(compile(fh.read(), path, "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                name = const.co_name
                stack.append((const, f"{prefix}{name}."))
                # class bodies run once at import and have no new locals
                if (const.co_flags & inspect.CO_NEWLOCALS
                        and not name.startswith("<")):
                    out[path, const.co_firstlineno, name] = \
                        f"{os.path.basename(path)[:-3]}.{prefix}{name}"
    return out


def test_every_package_function_is_reached():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.dirname(PACKAGE), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, "-c", _RUN], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    reached = {(os.path.realpath(f), line, name)
               for f, line, name in json.loads(proc.stdout)}
    defined = _defined_functions()
    assert len(defined) > 150
    missing = sorted(qual for key, qual in defined.items()
                     if key not in reached and qual not in ALLOWED_UNREACHED)
    assert not missing, "unreached: " + ", ".join(missing)
    stale = sorted(set(ALLOWED_UNREACHED) - set(defined.values()))
    assert not stale, stale
