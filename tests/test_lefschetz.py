"""Lefschetz operator, primitive spaces, string bases."""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from qkahler import linalg
from qkahler.fiber import FiberForm, basis_bidegree, basis_degree, e_plus
from qkahler.hodge import lambda_apply
from qkahler.lefschetz import (
    L, L_power, bidegree_levels, from_coords, kappa, kappa_power,
    l_matrix, l_power_matrix, lambda_string_factor, lefschetz_decompose,
    primitive_basis,
    string_basis_matrix, string_columns, to_coords,
)
from qkahler.linalg import ScalarMatrix
from qkahler.scalars import (
    H_EQ_ONE, H_EQ_Q, HodgeMode, I, ONE, Q, Scalar, qfact, qint,
)

from oracles import (
    C_ZERO, c_matmul, eval_matrix, gauss_rank, verify_lefschetz_iso,
)

MODES = (H_EQ_Q, H_EQ_ONE, HodgeMode.numeric(Fraction(9, 10), Fraction(7, 8)))


def _random_form(rng, n, k):
    pool = [ONE, -ONE, Q, Scalar.q_power(-2), I, Q + ONE]
    acc = FiberForm.zero(n)
    for m in basis_degree(n, k):
        acc = acc + FiberForm(n, {m: rng.choice(pool)})
    return acc


def test_kappa_is_the_fundamental_form():
    for n in (1, 2, 3):
        want = FiberForm.zero(n)
        for a in range(1, n + 1):
            want = want + FiberForm.monomial(n, [a], [a])
        assert kappa(n) == want.scale(I)
        assert L(FiberForm.unit(n)) == kappa(n)


def test_kappa_powers_expand_with_quantum_factorials():
    for n in (1, 2, 3):
        for l in range(n + 2):
            got = kappa_power(n, l)
            rhs = FiberForm.zero(n)
            for idx in combinations(range(1, n + 1), l):
                rhs = rhs + FiberForm.monomial(n, list(idx), list(idx))
            coef = qfact(l) if l % 2 == 0 else qfact(l) * I
            assert got == rhs.scale(coef)
        assert not kappa_power(n, n + 1)


def test_kappa_power_equals_iterated_wedge():
    for n in (2, 3):
        acc = FiberForm.unit(n)
        for l in range(1, n + 1):
            acc = acc.wedge(kappa(n))
            assert acc == kappa_power(n, l)


def test_l_matrix_realises_the_wedge():
    for n in (1, 2, 3):
        for a in range(n):
            for b in range(n):
                src = basis_bidegree(n, a, b)
                tgt = basis_bidegree(n, a + 1, b + 1)
                if not src or not tgt:
                    continue
                mat = l_matrix(n, a, b)
                assert (mat.nrows, mat.ncols) == (len(tgt), len(src))
                for jdx, m in enumerate(src):
                    want = to_coords(L(FiberForm(n, {m: ONE})), tgt)
                    assert [r[jdx] for r in mat.rows] == want


def test_l_power_matrix_composes():
    n = 3
    assert l_power_matrix(n, 1, 0, 2) == \
        l_matrix(n, 2, 1) @ l_matrix(n, 1, 0)
    assert l_power_matrix(n, 0, 0, 0) == ScalarMatrix.identity(1)


def test_coordinate_round_trip():
    rng = random.Random(3)
    n = 2
    for k in range(2 * n + 1):
        basis = basis_degree(n, k)
        u = _random_form(rng, n, k)
        assert from_coords(n, to_coords(u, basis), basis) == u


def test_primitive_dimensions():
    for n in (1, 2, 3):
        for k in range(n + 1):
            got = sum(len(primitive_basis(n, k - b, b)) for b in range(k + 1))
            below = comb(2 * n, k - 2) if k >= 2 else 0
            assert got == comb(2 * n, k) - below
        for a in range(n + 1):
            for b in range(n + 1):
                if a + b <= n:
                    lower = comb(n, a - 1) * comb(n, b - 1) \
                        if min(a, b) >= 1 else 0
                    want = comb(n, a) * comb(n, b) - lower
                    assert len(primitive_basis(n, a, b)) == want
                else:
                    assert len(primitive_basis(n, a, b)) == 0


def test_primitive_forms_are_killed_by_the_right_power():
    """At n <= 4, on forms, in hq and h1: every seed p of degree k has
    L^(n-k)(p) != 0 and L^(n-k+1)(p) = 0, and Lambda kills it.  The strings
    suite derives its seed entry from the basis, lowering and raising
    identities instead."""
    for n in range(1, 5):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                k = a + b
                for p in primitive_basis(n, a, b):
                    top = L_power(p, n - k)
                    assert top and not L(top), (n, a, b)
                    for mode in (H_EQ_Q, H_EQ_ONE):
                        assert not lambda_apply(p, mode), (n, a, b, mode)


def test_primitive_bases_span_the_kernels_at_a_point():
    """At n = 4 and q0 = 17/13, for each (a, b) with k = a + b <= n, the
    evaluated power L^(n-k+1) out of (a, b) kills every evaluated vector of
    `primitive_basis(n, a, b)`, and those vectors are independent and as
    many as dim V^(a,b) minus the rank of the evaluated power, so they span
    its kernel at q0.  Evaluation is a ring map, so the exact identities
    hold at q0 too: this is a necessary check, not a proof."""
    n, q0 = 4, Fraction(17, 13)
    for a in range(n + 1):
        for b in range(n + 1 - a):
            power = eval_matrix(l_power_matrix(n, a, b, n - a - b + 1), q0)
            src = basis_bidegree(n, a, b)
            seeds = eval_matrix(ScalarMatrix(
                [to_coords(p, src) for p in primitive_basis(n, a, b)],
                ncols=len(src)), q0)
            images = c_matmul(power, [list(col) for col in zip(*seeds)])
            assert all(x == C_ZERO for row in images for x in row), (a, b)
            assert gauss_rank(seeds) == len(seeds) \
                == len(src) - gauss_rank(power), (a, b)


def _span_matrix(n, forms, basis):
    return ScalarMatrix.from_columns([to_coords(f, basis) for f in forms],
                                     len(basis))


def test_rank2_middle_primitive_span():
    n = 2
    basis = basis_bidegree(n, 1, 1)
    computed = primitive_basis(n, 1, 1)
    stated = [
        FiberForm.monomial(n, [1], [2]),
        FiberForm.monomial(n, [2], [1]),
        FiberForm.monomial(n, [1], [1])
        - FiberForm.monomial(n, [2], [2]).scale(Scalar.q_power(-2)),
    ]
    a = _span_matrix(n, computed, basis)
    b = _span_matrix(n, stated, basis)
    joint = _span_matrix(n, [*computed, *stated], basis)
    assert linalg.rank(a) == linalg.rank(b) == linalg.rank(joint) == 3


def test_bidegree_levels_bookkeeping():
    for n in (1, 2, 3):
        for a in range(n + 1):
            for b in range(n + 1):
                levels = bidegree_levels(n, a, b)
                k = a + b
                assert [j for j, _ in levels] == \
                    list(range(max(0, k - n), min(a, b) + 1))
                for j, (ap, bp) in levels:
                    assert (ap + j, bp + j) == (a, b)
                total = sum(len(primitive_basis(n, ap, bp))
                            for _, (ap, bp) in levels)
                assert total == len(basis_bidegree(n, a, b))


def test_string_basis_is_a_basis():
    for n in (1, 2, 3):
        for a in range(n + 1):
            for b in range(n + 1):
                dim = len(basis_bidegree(n, a, b))
                if dim == 0:
                    continue
                mat = string_basis_matrix(n, a, b)
                assert (mat.nrows, mat.ncols) == (dim, dim)
                assert linalg.rank(mat) == dim
                for j, (ap, bp), idx, form in string_columns(n, a, b):
                    assert form == L_power(primitive_basis(n, ap, bp)[idx], j)
                    assert form


def test_lambda_lowers_strings_by_the_stated_factor():
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    k = a + b
                    for p in primitive_basis(n, a, b):
                        cur = p
                        for j in range(1, n - k + 1):
                            cur = L(cur)
                            want = L_power(p, j - 1).scale(
                                lambda_string_factor(n, k, j, mode))
                            assert lambda_apply(cur, mode) == want


def test_lambda_string_factor_values():
    assert lambda_string_factor(2, 0, 1) == qint(1) * qint(2)
    assert lambda_string_factor(2, 0, 1, H_EQ_ONE) == Scalar.from_int(2)
    assert lambda_string_factor(3, 0, 1) == qint(3)
    assert lambda_string_factor(3, 1, 1) == qint(2)
    assert not lambda_string_factor(2, 2, 1)  # [n-j-k+1] = [0] kills it


def test_lefschetz_decompose_round_trip():
    rng = random.Random(13)
    for n in (2, 3):
        for k in range(n + 1):
            u = _random_form(rng, n, k)
            parts = lefschetz_decompose(u)
            rebuilt = FiberForm.zero(n)
            for j, alpha in parts:
                assert not L_power(alpha, n - (k - 2 * j) + 1)
                rebuilt = rebuilt + L_power(alpha, j)
            assert rebuilt == u


def test_lefschetz_decompose_above_middle_degree():
    n = 2
    u = kappa_power(n, 2)
    parts = lefschetz_decompose(u)
    assert [j for j, _ in parts] == [2]
    assert L_power(parts[0][1], 2) == u
    v = _random_form(random.Random(7), n, 3)
    rebuilt = FiberForm.zero(n)
    for j, alpha in lefschetz_decompose(v):
        rebuilt = rebuilt + L_power(alpha, j)
    assert rebuilt == v


def test_lefschetz_decompose_of_a_pure_string_form():
    n = 3
    p = primitive_basis(n, 1, 0)[0]
    parts = lefschetz_decompose(L_power(p, 2))
    assert len(parts) == 1
    j, alpha = parts[0]
    assert j == 2 and alpha == p


def _decompose_by_lowering(u, mode):
    """Oracle for lefschetz_decompose: read the top level off through the
    lowering operator, whose j-fold action on L^j(alpha) with alpha
    primitive of degree k' multiplies by prod_t [t]_h [n-t-k'+1]_h, subtract
    its string, and peel the levels top down."""
    n, (k,) = u.n, u.degrees()
    out = []
    rem = u
    for m in range(k // 2, 0, -1):
        kp = k - 2 * m
        if kp > n:
            continue
        lowered = rem
        scale = ONE
        for t in range(1, m + 1):
            lowered = lambda_apply(lowered, mode)
            scale = scale * lambda_string_factor(n, kp, t, mode)
        if lowered:
            alpha = lowered.scale(ONE / scale)
            out.append((m, alpha))
            rem = rem - L_power(alpha, m)
    if rem:
        out.append((0, rem))
    return sorted(out, key=lambda t: t[0])


def test_lefschetz_decompose_matches_lowering_in_every_mode():
    """String coordinates and Lambda peeling agree on every degree; the
    peeling uses the mode and the string coordinates do not, so the split
    is the same in every mode."""
    rng = random.Random(17)
    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            u = _random_form(rng, n, k)
            parts = lefschetz_decompose(u)
            assert parts and all(alpha for _, alpha in parts)
            for mode in MODES:
                assert lefschetz_decompose(u, mode) == parts
                assert _decompose_by_lowering(u, mode) == parts, (n, k, mode)
    assert lefschetz_decompose(FiberForm.zero(2)) == []


def test_string_basis_is_inverted_once_per_bidegree():
    """The Hodge blocks of both modes come from one elimination of
    H . S = C each and invert nothing; the decomposition inverts S once
    per (a, b), 16 at n = 3, shared by both modes.  A fresh interpreter
    starts with empty caches."""
    script = textwrap.dedent("""
        from qkahler import linalg
        from qkahler.fiber import FiberForm, basis_degree
        from qkahler.hodge import hodge_operator
        from qkahler.lefschetz import lefschetz_decompose
        from qkahler.scalars import H_EQ_ONE, H_EQ_Q, ONE

        calls = []
        inverse = linalg.inverse

        def counting(matrix):
            calls.append(matrix)
            return inverse(matrix)

        linalg.inverse = counting
        hodge_operator(3, H_EQ_Q)
        hodge_operator(3, H_EQ_ONE)
        print(len(calls))
        for k in range(7):
            u = FiberForm(3, {m: ONE for m in basis_degree(3, k)})
            lefschetz_decompose(u, H_EQ_Q)
            lefschetz_decompose(u, H_EQ_ONE)
        print(len(calls))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "16"]


def test_elimination_sees_one_component_at_a_time():
    """At n = 3 no component of a string-basis or Lefschetz-power pattern
    has more than 3 rows, while the largest of those matrices has 9.  A
    fresh interpreter starts with empty caches."""
    script = textwrap.dedent("""
        from qkahler import linalg
        from qkahler.hodge import hodge_operator
        from qkahler.lefschetz import primitive_basis
        from qkahler.scalars import H_EQ_Q

        heights = []
        rref = linalg._rref

        def recording(matrix):
            heights.append(matrix.nrows)
            return rref(matrix)

        linalg._rref = recording
        hodge_operator(3, H_EQ_Q)
        for a in range(4):
            for b in range(4):
                primitive_basis(3, a, b)
        print(max(heights))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3"]


def test_lefschetz_decompose_rejects_mixed_degree():
    n = 2
    u = FiberForm.unit(n) + e_plus(n, 1)
    with pytest.raises(ValueError):
        lefschetz_decompose(u)


def test_lefschetz_isomorphism_reports():
    for n in (1, 2, 3):
        for k in range(n):
            rep = verify_lefschetz_iso(n, k)
            assert rep["full_rank"]
            assert rep["rank"] == rep["dimension"] == comb(2 * n, k)
    with pytest.raises(ValueError):
        verify_lefschetz_iso(2, 2)
