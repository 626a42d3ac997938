"""Acceptance gate: twelve end-to-end criteria, one reported line each.

Every criterion prints exactly one line

    ACCEPTANCE nn [PASS|FAIL] description (elapsed, budget)

directly to the terminal (bypassing capture) and then asserts.  A criterion
passes only if its mathematical content holds exactly and the wall-clock
budget is met.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from math import comb

from qkahler import linalg
from qkahler.fiber import (
    FiberForm, basis_bidegree, basis_degree, e_minus, e_plus,
)
from qkahler.hodge import (
    certify_posdef, gram, hodge, hodge_operator, lambda_operator, metric,
)
from qkahler.lefschetz import (
    L_power, kappa, kappa_power, primitive_basis, to_coords,
)
from qkahler.linalg import ScalarMatrix
from qkahler.scalars import (
    H_EQ_ONE, H_EQ_Q, I, ONE, Q, Scalar, i_power, parse_scalar, qfact, qint,
)
from qkahler.uqsl2 import relation_defect, sl2_relations
from qkahler.su2 import (
    A, B, C, D, antipode_u_entry, laplacian0_cp1, projective_coordinate,
    u_entry,
)
from qkahler.verify import run_suites

from oracles import (
    combination_defect, operator_relations, verify_lefschetz_iso,
)


def _criterion(capsys, idx, desc, budget, fn):
    t0 = time.monotonic()
    try:
        ok = bool(fn())
        err = None
    except Exception as exc:  # a crash is a failure, but still gets its line
        ok = False
        err = exc
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {idx:02d} [{status}] {desc} "
              f"({elapsed:.2f}s, budget {budget:.0f}s)")
    if err is not None:
        raise err
    assert ok, f"criterion {idx} failed"
    assert elapsed < budget, f"criterion {idx} exceeded {budget}s"


def test_01_dimension_tables(capsys):
    def check():
        for n in (1, 2, 3, 4):
            for k in range(2 * n + 1):
                if len(basis_degree(n, k)) != comb(2 * n, k):
                    return False
            if sum(len(basis_degree(n, k)) for k in range(2 * n + 1)) != 4 ** n:
                return False
        return True
    _criterion(capsys, 1, "graded dimensions are C(2n,k) for n <= 4", 5, check)


def test_02_fundamental_form_powers(capsys):
    def check():
        for n in (1, 2, 3, 4):
            for l in range(n + 1):
                got = kappa_power(n, l)
                if got != L_power(FiberForm.unit(n), l):
                    return False
                want = FiberForm.zero(n)
                for idx in combinations(range(1, n + 1), l):
                    want = want + FiberForm.monomial(n, list(idx), list(idx))
                coef = qfact(l) * i_power(l % 2)
                if got != want.scale(coef):
                    return False
        return True
    _criterion(capsys, 2, "l-th power of the fundamental form expands as "
               "i^(l mod 2) [l]_q! sum of balanced monomials, n <= 4", 30, check)


def test_03_hodge_tables(capsys):
    def check():
        ok = hodge(FiberForm.unit(1)) == kappa(1)
        ok &= hodge(e_plus(1, 1)) == e_plus(1, 1).scale(-I)
        ok &= hodge(e_minus(1, 1)) == e_minus(1, 1).scale(I)
        ok &= hodge(e_plus(2, 1)) == FiberForm.monomial(2, [1, 2], [2])
        ok &= hodge(e_plus(2, 2)) == FiberForm.monomial(2, [1, 2], [1]).scale(-Q)
        ok &= hodge(e_minus(2, 1)) == \
            FiberForm.monomial(2, [2], [1, 2]).scale(Scalar.q_power(-1))
        ok &= hodge(e_minus(2, 2)) == -FiberForm.monomial(2, [1], [1, 2])
        for (a, b), sign in (((2, 0), ONE), ((1, 1), -ONE), ((0, 2), ONE)):
            ok &= all(hodge(p) == p.scale(sign)
                      for p in primitive_basis(2, a, b))
        return ok
    _criterion(capsys, 3, "rank-1 and rank-2 Hodge tables, including the "
               "three middle primitive signs", 5, check)


def test_04_rank2_middle_primitives(capsys):
    def check():
        basis = basis_bidegree(2, 1, 1)
        computed = primitive_basis(2, 1, 1)
        stated = [
            FiberForm.monomial(2, [1], [2]),
            FiberForm.monomial(2, [2], [1]),
            FiberForm.monomial(2, [1], [1])
            - FiberForm.monomial(2, [2], [2]).scale(Scalar.q_power(-2)),
        ]
        def span(forms):
            return ScalarMatrix.from_columns(
                [to_coords(f, basis) for f in forms], len(basis))
        return len(computed) == 3 and linalg.rank(span(computed)) == 3 \
            and linalg.rank(span(stated)) == 3 \
            and linalg.rank(span([*computed, *stated])) == 3
    _criterion(capsys, 4, "rank-2 (1,1) primitive space spans the three "
               "stated forms exactly", 5, check)


def test_05_metric_tables_with_flag(capsys):
    def check():
        third = FiberForm.monomial(2, [1], [1]) \
            - FiberForm.monomial(2, [2], [2]).scale(Scalar.q_power(-2))
        table2 = [
            (FiberForm.monomial(2, [1], []), "q^-5"),
            (FiberForm.monomial(2, [2], []), "q^-5"),
            (FiberForm.monomial(2, [], [1]), "q^7"),
            (FiberForm.monomial(2, [], [2]), "q^9"),
            (FiberForm.monomial(2, [1, 2], []), "q^-11"),
            (FiberForm.monomial(2, [], [1, 2]), "q^17"),
            (FiberForm.monomial(2, [1], [2]), "q^3"),
            (FiberForm.monomial(2, [2], [1]), "q"),
            (third, "q + q^-1"),
        ]
        ok = all(metric(u, u) == parse_scalar(w) for u, w in table2)
        ok &= metric(e_minus(1, 1), e_minus(1, 1)) == Scalar.q_power(6)
        ok &= metric(e_plus(1, 1), e_plus(1, 1)) == Scalar.q_power(-4)
        # the reciprocal convention must be flagged in the report
        entries, _ = run_suites(["metric"], 1, H_EQ_Q)
        flagged = [e for e in entries if e["status"] == "note"
                   and "q^4" in e.get("detail", "")
                   and "rejected" in e.get("detail", "")]
        return ok and len(flagged) == 1
    _criterion(capsys, 5, "rank-2 metric table, rank-1 values q^6/q^-4, and "
               "the reciprocal-value flag in the report", 10, check)


def test_06_hodge_properties(capsys):
    def check():
        for n in (1, 2, 3):
            for mode in (H_EQ_Q, H_EQ_ONE):
                star_op = hodge_operator(n, mode)
                for (a, b), ((ta, tb), blk) in star_op.blocks.items():
                    if (ta, tb) != (n - b, n - a):
                        return False
                    gs, gt = gram(n, a, b, mode), gram(n, ta, tb, mode)
                    if blk.transpose() @ gt @ blk.conjugate() != gs:
                        return False
                for k in range(2 * n + 1):
                    sign = ONE if k % 2 == 0 else -ONE
                    for m in basis_degree(n, k):
                        u = FiberForm(n, {m: ONE})
                        if hodge(hodge(u, mode), mode) != u.scale(sign):
                            return False
                        if hodge(u.star(), mode) != hodge(u, mode).star():
                            return False
        return True
    _criterion(capsys, 6, "Hodge square, bidegree swap, star compatibility "
               "and unitarity for n <= 3 in both modes", 120, check)


def test_07_deformed_commutation_identities(capsys):
    def check():
        for n in (1, 2, 3):
            for mode in (H_EQ_Q, H_EQ_ONE):
                relations, _ = sl2_relations(n, mode)
                ops = operator_relations(n, mode, lambda_operator(n, mode))
                if any((relation_defect(n, terms) is None) != expected
                       or (combination_defect(ops[name]) is None) != expected
                       for name, terms, expected in relations):
                    return False
                lit = [expected for name, _, expected in relations
                       if name.startswith("literal")]
                if lit != [mode is H_EQ_ONE]:
                    return False
        return True
    _criterion(capsys, 7, "raising/middle/lowering commutation identities "
               "and group-like relations for n <= 3, both modes (lowering "
               "written with the bracket the metric adjoint forces; the "
               "step-2 variant is checked and differs except at h^4 = 1)",
               120, check)


def test_08_lowering_factors_and_kernel(capsys):
    wanted = ("lowering factor [j]_h [n-j-k+1]_h along every string",
              "primitives are exactly the lowering kernel, by rank")

    def check():
        for n in (1, 2, 3):
            entries, _ = run_suites(["strings"], n, H_EQ_Q)
            status = {e["name"]: e["status"] for e in entries}
            if any(status.get(name) != "pass" for name in wanted):
                return False
        return True
    _criterion(capsys, 8, "lowering acts on strings by [j]_h [n-j-k+1]_h and "
               "primitives are exactly its kernel, by exact rank, n <= 3",
               60, check)


def test_09_positive_definiteness(capsys):
    def check():
        for n in (1, 2, 3):
            for a in range(n + 1):
                for b in range(n + 1):
                    if not basis_bidegree(n, a, b):
                        continue
                    block = gram(n, a, b, H_EQ_Q)
                    for q0 in (Fraction(9, 10), Fraction(1), Fraction(11, 10)):
                        cert = certify_posdef(block, q0)
                        if not cert.positive_definite:
                            return False
                        if any(p <= 0 for p in cert.pivots):
                            return False
        return True
    _criterion(capsys, 9, "every Gram block certified positive definite at "
               "q0 in {9/10, 1, 11/10} with exact rational pivots, n <= 3",
               120, check)


def test_10_lefschetz_isomorphism(capsys):
    def check():
        return all(verify_lefschetz_iso(n, k)["full_rank"]
                   for n in (1, 2, 3) for k in range(n))
    _criterion(capsys, 10, "the (n-k)-th raising power is a degree k to "
               "2n-k isomorphism by exact rank, n <= 3", 60, check)


def test_11_projective_line_laplacian(capsys):
    def check():
        eig = Q * qint(2)
        for i, j in ((1, 2), (2, 1)):
            lap = laplacian0_cp1(i, j)
            two_terms = (u_entry(i, 1) * antipode_u_entry(1, j)) \
                .scale(Scalar.q_power(2)) - u_entry(i, 2) * antipode_u_entry(2, j)
            if lap != two_terms:
                return False
            if lap != projective_coordinate(i, j).scale(eig):
                return False
        return projective_coordinate(1, 2) == \
            (A * B).scale(-Scalar.q_power(-1)) \
            and projective_coordinate(2, 1) == C * D
    _criterion(capsys, 11, "zero-form Laplacian fixes the off-diagonal "
               "projective coordinates up to q[2]_q, including the two-term "
               "intermediate expansion", 5, check)


def test_12_string_rescaling_constant(capsys):
    def check():
        n = 2
        for mode in (H_EQ_Q, H_EQ_ONE):
            for kp in range(n + 1):
                prims = [p for b in range(kp + 1)
                         if kp - b <= n
                         for p in primitive_basis(n, kp - b, b)]
                for j in range(1, n - kp + 1):
                    factor = qfact(j, mode) * qfact(n - kp, mode) \
                        / qfact(n - j - kp, mode)
                    for alpha in prims:
                        for beta in prims:
                            lhs = metric(L_power(alpha, j), L_power(beta, j),
                                         mode)
                            if lhs != factor * metric(alpha, beta, mode):
                                return False
        entries, _ = run_suites(["metric"], 2, H_EQ_Q)
        noted = [e for e in entries if e["status"] == "note"
                 and "binomial" in e.get("detail", "")]
        return len(noted) == 1
    _criterion(capsys, 12, "exhaustive rank-2 check of the level rescaling "
               "constant [j]_h![n-k]_h!/[n-j-k]_h! plus the report entry on "
               "the binomial-form discrepancy", 30, check)
