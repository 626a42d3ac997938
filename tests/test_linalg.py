"""Exact linear algebra over the scalar field, cross-checked against naive
Gaussian elimination on evaluated matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qkahler.hodge import gram, hodge_block
from qkahler.lefschetz import l_matrix
from qkahler.linalg import (
    LDLCertificate, ScalarMatrix, hermitian_ldl, inverse, kernel_basis, rank,
    solve,
)
from qkahler.scalars import (
    GaussianRational, H_EQ_ONE, H_EQ_Q, I, ONE, Q, Scalar, ZERO,
)

from oracles import (
    C_ZERO, c_add, c_mul, eval_matrix, eval_scalar, gauss_rank,
    sylvester_positive,
)

POINTS = [Fraction(17, 13), Fraction(23, 7)]

_POOL = [
    ZERO, ZERO, ZERO, ONE, -ONE, Q, Scalar.q_power(-1), Q + ONE, I,
    Q - Scalar.q_power(-1), I * Q + ONE, Scalar.from_int(2),
    (Q + ONE) / (Q - I),
]


def _random_matrix(rng, nr, nc):
    return ScalarMatrix([[rng.choice(_POOL) for _ in range(nc)]
                         for _ in range(nr)])


def test_matrix_ring_axioms():
    rng = random.Random(9)
    for _ in range(20):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 2)
        c = _random_matrix(rng, 2, 3)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ ScalarMatrix.identity(4) == a
        assert (a + a).scale(Scalar.from_int(1) / Scalar.from_int(2)) == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
        assert (a @ b).conjugate() == a.conjugate() @ b.conjugate()


def _eval_product(x, y):
    """Product of evaluated matrices in complex rational arithmetic."""
    out = []
    for r in x:
        row = []
        for col in zip(*y):
            acc = C_ZERO
            for a, b in zip(r, col):
                acc = c_add(acc, c_mul(a, b))
            row.append(acc)
        out.append(row)
    return out


def test_block_products_match_evaluated_products():
    q0 = Fraction(17, 13)
    rng = random.Random(67)
    for n in (1, 2, 3):
        for a in range(n):
            for b in range(n):
                lm = l_matrix(n, a, b)
                hb = hodge_block(n, a + 1, b + 1)
                hv, lv = eval_matrix(hb, q0), eval_matrix(lm, q0)
                assert eval_matrix(hb @ lm, q0) == _eval_product(hv, lv)
                vec = [rng.choice(_POOL) for _ in range(hb.ncols)]
                want = _eval_product(hv, [[eval_scalar(v, q0)] for v in vec])
                assert [[eval_scalar(x, q0)] for x in hb.apply(vec)] == want


def test_rank_matches_evaluation_oracle():
    rng = random.Random(19)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        sym = rank(m)
        evals = []
        for q0 in POINTS:
            try:
                evals.append(gauss_rank(eval_matrix(m, q0)))
            except ArithmeticError:
                continue
        assert evals, "both sample points hit poles"
        # specialisation can only lose rank, and generically loses none
        assert all(e <= sym for e in evals)
        assert max(evals) == sym


def test_kernel_basis_spans_the_kernel():
    rng = random.Random(39)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        cols = kernel_basis(m)
        assert len(cols) == m.ncols - rank(m)
        for vec in cols:
            assert all(not entry for entry in m.apply(vec))
        if cols:
            kmat = ScalarMatrix.from_columns(cols, m.ncols)
            assert rank(kmat) == len(cols)


def test_solve_and_inverse():
    rng = random.Random(49)
    done = 0
    while done < 15:
        m = _random_matrix(rng, 3, 3)
        if rank(m) < 3:
            continue
        done += 1
        b = _random_matrix(rng, 3, 2)
        x = solve(m, b)
        assert m @ x == b
        minv = inverse(m)
        assert m @ minv == ScalarMatrix.identity(3)
        assert minv @ m == ScalarMatrix.identity(3)


def test_solve_rejects_bad_systems():
    singular = ScalarMatrix([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(ValueError):
        inverse(singular)
    with pytest.raises(ValueError):
        solve(ScalarMatrix([[ONE, ZERO], [ZERO, ZERO]]),
              ScalarMatrix([[ZERO], [ONE]]))


def test_elimination_handles_rows_missed_by_early_pivots():
    """Regression: fraction-free elimination must keep scaling rows whose
    entry in the pivot column is zero, or later exact divisions break."""
    m = ScalarMatrix([
        [ONE, Q, ZERO],
        [ZERO, Q + ONE, I],
        [Q, ZERO, Q - Scalar.q_power(-1)],
    ])
    minv = inverse(m)
    assert m @ minv == ScalarMatrix.identity(3)
    # the historical failure: a rank 3 Hodge block at h = 1
    blk = hodge_block(3, 1, 1, H_EQ_ONE)
    assert blk @ inverse(blk) == ScalarMatrix.identity(blk.nrows)


def test_zero_sized_matrices():
    empty = ScalarMatrix([], ncols=0)
    assert rank(empty) == 0
    assert kernel_basis(ScalarMatrix([[ZERO, ZERO]])) != []


def _gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_hermitian_ldl_matches_sylvester():
    rng = random.Random(59)
    q0 = Fraction(9, 10)
    for _ in range(30):
        size = rng.randint(1, 4)
        p = [[_gr(rng.randint(-3, 3), rng.randint(-3, 3))
              for _ in range(size)] for _ in range(size)]
        # p* p + t*id is Hermitian; vary t to hit both verdicts
        shift = _gr(rng.choice([0, 0, 1, -2, -5]))
        a = [[sum((p[k][i].conjugate() * p[k][j] for k in range(size)),
                  start=_gr(0)) + (shift if i == j else _gr(0))
              for j in range(size)] for i in range(size)]
        cert = hermitian_ldl(a, q0)
        want = sylvester_positive([[(x.re, x.im) for x in row] for row in a])
        assert cert.positive_definite == want
        if cert.positive_definite:
            assert len(cert.pivots) == size
            assert all(pv > 0 for pv in cert.pivots)
            doc = cert.to_json()
            assert doc["verdict"] == "positive-definite"


def test_hermitian_ldl_rejects_non_hermitian_input():
    bad = [[_gr(1), _gr(2)], [_gr(3), _gr(1)]]
    cert = hermitian_ldl(bad, Fraction(1))
    assert not cert.positive_definite
    assert "Hermitian" in cert.reason or "diagonal" in cert.reason


def _ldl_full_square(entries, q0):
    """hermitian_ldl with the whole remaining square updated per pivot and
    no use of symmetry: the reference for the triangle-and-mirror update."""
    m = len(entries)
    a = [list(row) for row in entries]
    remaining = list(range(m))
    perm, pivots = [], []
    while remaining:
        pick = next((i for i in remaining if a[i][i].re > 0), None)
        if pick is None:
            return LDLCertificate(q0, pivots, perm, False,
                                  "no positive pivot available")
        d = a[pick][pick]
        perm.append(pick)
        pivots.append(d.re)
        remaining.remove(pick)
        for i in remaining:
            for j in remaining:
                a[i][j] = a[i][j] - a[i][pick] * a[pick][j] / d
    return LDLCertificate(q0, pivots, perm, True)


def _random_hermitian(rng, size):
    a = [[None] * size for _ in range(size)]
    for i in range(size):
        a[i][i] = _gr(Fraction(rng.randint(-2, 6), rng.randint(1, 3)))
        for j in range(i + 1, size):
            a[i][j] = _gr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                          rng.randint(-2, 2))
            a[j][i] = a[i][j].conjugate()
    return a


def test_hermitian_ldl_matches_the_full_square_update():
    rng = random.Random(71)
    q0 = Fraction(9, 10)
    late_failures = 0
    for _ in range(200):
        a = _random_hermitian(rng, rng.randint(1, 6))
        got, want = hermitian_ldl(a, q0), _ldl_full_square(a, q0)
        assert got == want
        late_failures += not got.positive_definite and len(got.pivots) > 1
    assert late_failures >= 10
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            for a in range(n + 1):
                for b in range(n + 1):
                    block = gram(n, a, b, mode)
                    for q0 in (Fraction(9, 10), Fraction(11, 10)):
                        entries = [[x.evaluate(q0) for x in row]
                                   for row in block.rows]
                        got = hermitian_ldl(entries, q0)
                        assert got == _ldl_full_square(entries, q0)
                        assert got.positive_definite
