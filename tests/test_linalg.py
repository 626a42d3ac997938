"""Exact linear algebra over the scalar field, cross-checked against naive
Gaussian elimination on evaluated matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qkahler.hodge import gram, hodge_block
from qkahler.lefschetz import l_matrix, string_basis_matrix
from qkahler.linalg import (
    LDLCertificate, ScalarMatrix, _rref, hermitian_ldl,
    inverse, kernel_basis, rank, solve,
)
from qkahler.scalars import (
    GaussianRational, H_EQ_ONE, H_EQ_Q, I, ONE, PoleError, Q, Scalar, ZERO,
)

from oracles import (
    C_ZERO, c_add, c_mul, eval_matrix, eval_scalar, gauss_inverse, gauss_rank,
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
        assert a.scale(Scalar.from_int(2)).scale(
            Scalar.from_int(1) / Scalar.from_int(2)) == a
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


def test_string_basis_inverses_match_evaluated_inverses():
    """Every string-basis inverse, evaluated, is the textbook inverse of the
    evaluated string-basis matrix, away from poles."""
    checked = 0
    for n in (1, 2, 3):
        for a in range(n + 1):
            for b in range(n + 1):
                s = string_basis_matrix(n, a, b)
                s_inv = inverse(s)
                for q0 in POINTS:
                    try:
                        got = eval_matrix(s_inv, q0)
                    except PoleError:
                        continue
                    assert got == gauss_inverse(eval_matrix(s, q0))
                    checked += 1
    assert checked >= 40


def test_solve_rejects_bad_systems():
    singular = ScalarMatrix([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(ValueError):
        inverse(singular)
    with pytest.raises(ValueError):
        solve(ScalarMatrix([[ONE, ZERO], [ZERO, ZERO]]),
              ScalarMatrix([[ZERO], [ONE]]))


def test_elimination_handles_rows_missed_by_early_pivots():
    """Regression: elimination must reach rows whose entry in an early
    pivot column is zero; they still hold later pivots."""
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


# rational functions as well as Laurent polynomials, so cleared rows differ
# between a component and the whole matrix
_BLOCK_POOL = _POOL + [
    ONE / (Q + ONE), Q / (Q * Q + ONE), (Q - I) / (Q + Scalar.from_int(3)),
    Scalar.q_power(-2) + I / (Q - ONE),
]


def _scrambled_blocks(rng, shapes, zero_rows=0, zero_cols=0):
    """Block-diagonal matrix with blocks of the given (rows, cols) shapes,
    extra zero rows and columns, under random row and column permutations.
    A block may repeat a row, so some blocks are singular."""
    nr = sum(r for r, _ in shapes) + zero_rows
    nc = sum(c for _, c in shapes) + zero_cols
    dense = [[ZERO] * nc for _ in range(nr)]
    r0 = c0 = 0
    for h, w in shapes:
        block = [[rng.choice(_BLOCK_POOL) for _ in range(w)] for _ in range(h)]
        if h > 1 and rng.random() < 0.3:
            block[-1] = [x * Q for x in block[0]]
        for i in range(h):
            dense[r0 + i][c0:c0 + w] = block[i]
        r0, c0 = r0 + h, c0 + w
    row_order, col_order = list(range(nr)), list(range(nc))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return ScalarMatrix([[dense[i][j] for j in col_order] for i in row_order],
                        ncols=nc)


def _whole_rank(matrix):
    """The pivots of the whole matrix, with no split into components."""
    return len(_rref(matrix)[1])


def _whole_kernel(matrix):
    """The kernel read off the reduced echelon form of the whole matrix."""
    srows, pivots = _rref(matrix)
    pivot_of = {c: r for r, c in pivots}
    out = []
    for f in range(matrix.ncols):
        if f in pivot_of:
            continue
        vec = [ZERO] * matrix.ncols
        vec[f] = ONE
        for c, r in pivot_of.items():
            vec[c] = -srows[r][f]
        out.append(vec)
    return out


def test_split_elimination_matches_the_whole_matrix():
    rng = random.Random(83)
    several = 0
    for _ in range(60):
        shapes = [(rng.randint(1, 3), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 4))]
        m = _scrambled_blocks(rng, shapes, rng.randint(0, 2),
                              rng.randint(0, 2))
        several += len(shapes) > 1
        assert rank(m) == _whole_rank(m)
        got, want = kernel_basis(m), _whole_kernel(m)
        assert [[str(x) for x in v] for v in got] == \
            [[str(x) for x in v] for v in want]
    assert several >= 30


def test_split_inverse_is_the_whole_inverse():
    rng = random.Random(89)
    done = 0
    while done < 15:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        m = _scrambled_blocks(rng, [(k, k) for k in sizes])
        if _whole_rank(m) < m.nrows:
            with pytest.raises(ValueError):
                inverse(m)
            continue
        done += 1
        minv = inverse(m)
        size = m.nrows
        assert m @ minv == ScalarMatrix.identity(size)
        aug = ScalarMatrix([r + i for r, i in
                            zip(m.rows, ScalarMatrix.identity(size).rows)])
        srows, _ = _rref(aug)
        assert minv == ScalarMatrix([r[size:] for r in srows])
    # singular through a zero row and column, or through blocks that are
    # not square although the whole matrix is
    for shapes, zr, zc in (([(2, 2)], 1, 1), ([(1, 2), (2, 1)], 0, 0)):
        with pytest.raises(ValueError):
            inverse(_scrambled_blocks(rng, shapes, zr, zc))


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


def _random_hermitian(rng, size, blocks=1):
    """A random Hermitian matrix.  With blocks > 1 every index joins one of
    that many blocks at random and entries between blocks are zero: a
    block-diagonal matrix under a random permutation."""
    block = [rng.randrange(blocks) for _ in range(size)] if blocks > 1 \
        else [0] * size
    a = [[_gr(0)] * size for _ in range(size)]
    for i in range(size):
        a[i][i] = _gr(Fraction(rng.randint(-2, 6), rng.randint(1, 3)))
        for j in range(i + 1, size):
            if block[i] != block[j]:
                continue
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
    sparse = {True: 0, False: 0}
    for _ in range(200):
        a = _random_hermitian(rng, rng.randint(3, 8), rng.randint(2, 4))
        got, want = hermitian_ldl(a, q0), _ldl_full_square(a, q0)
        assert got == want
        sparse[got.positive_definite] += len(got.pivots) > 1
    assert min(sparse.values()) >= 10
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
