"""Hodge map, fiber metric, graded operators, positivity certificates."""

from __future__ import annotations

import importlib
import os
import pkgutil
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import reduce

import pytest

import qkahler
from qkahler import linalg
from qkahler.fiber import (
    FiberForm, basis_bidegree, basis_degree, e_minus, e_plus, weight,
)
from qkahler.hodge import (
    GradedOperator, certify_posdef, gram, gram_to_json,
    hodge, hodge_block, hodge_factor, hodge_inverse, hodge_operator,
    l_operator, lambda_apply, lambda_operator, metric, seed_block,
    serre_pairing, star_matrix, vol,
)
from qkahler.lefschetz import (
    L_power, from_coords, kappa, kappa_power, l_matrix, primitive_basis,
    string_basis_matrix, string_columns, to_coords,
)
from qkahler.scalars import (
    H_EQ_ONE, H_EQ_Q, HodgeMode, I, ONE, PoleError, Q, Scalar, ZERO,
    i_power, parse_scalar, qfact, qint,
)

from oracles import (
    C_ONE, C_ZERO, adjoint_defect, c_add, c_matmul, c_mul, combination_defect,
    compose, diagonal, dict_add, dict_mul, eval_matrix, eval_scalar,
    form_metric, gauss_inverse, gauss_rank, h_operator, k_operator,
    naive_qfact, scale, serre_pairing_all_pairs,
)

MODES = (H_EQ_Q, H_EQ_ONE, HodgeMode.numeric(Fraction(9, 10), Fraction(7, 8)))
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def _random_form(rng, n, k):
    pool = [ONE, -ONE, Q, Scalar.q_power(-2), I, Q + ONE]
    acc = FiberForm.zero(n)
    for m in basis_degree(n, k):
        acc = acc + FiberForm(n, {m: rng.choice(pool)})
    return acc


# ---------------------------------------------------------------------------
# volume functional
# ---------------------------------------------------------------------------

def test_vol_normalisation():
    assert vol(FiberForm.monomial(1, [1], [1])) == -I
    assert vol(FiberForm.monomial(2, [1, 2], [1, 2])) == ONE
    assert vol(FiberForm.monomial(3, [1, 2, 3], [1, 2, 3])) == -I


def test_vol_of_top_fundamental_power_is_the_quantum_factorial():
    for n in (1, 2, 3):
        assert vol(kappa_power(n, n)) == qfact(n)


def test_vol_rejects_lower_degree():
    with pytest.raises(ValueError):
        vol(e_plus(2, 1))
    assert vol(FiberForm.zero(2)) == ZERO


# ---------------------------------------------------------------------------
# the Hodge map
# ---------------------------------------------------------------------------

def test_rank1_hodge_table():
    for mode in MODES:
        assert hodge(FiberForm.unit(1), mode) == kappa(1)
        assert hodge(e_plus(1, 1), mode) == e_plus(1, 1).scale(-I)
        assert hodge(e_minus(1, 1), mode) == e_minus(1, 1).scale(I)
        assert hodge(kappa(1), mode) == FiberForm.unit(1)


def test_rank2_hodge_table_on_one_forms():
    assert hodge(e_plus(2, 1)) == FiberForm.monomial(2, [1, 2], [2])
    assert hodge(e_plus(2, 2)) == FiberForm.monomial(2, [1, 2], [1]).scale(-Q)
    assert hodge(e_minus(2, 1)) == \
        FiberForm.monomial(2, [2], [1, 2]).scale(Scalar.q_power(-1))
    assert hodge(e_minus(2, 2)) == -FiberForm.monomial(2, [1], [1, 2])


def test_rank2_primitive_signs():
    for (a, b), sign in (((2, 0), ONE), ((1, 1), -ONE), ((0, 2), ONE)):
        for p in primitive_basis(2, a, b):
            assert hodge(p) == p.scale(sign)


def test_hodge_square_is_degree_parity():
    for n in (1, 2, 3):
        for mode in MODES:
            for k in range(2 * n + 1):
                sign = ONE if k % 2 == 0 else -ONE
                for m in basis_degree(n, k):
                    u = FiberForm(n, {m: ONE})
                    assert hodge(hodge(u, mode), mode) == u.scale(sign)


@pytest.mark.parametrize("mode", [H_EQ_Q, H_EQ_ONE], ids=["hq", "h1"])
def test_hodge_blocks_square_to_the_degree_sign(mode):
    """At n <= 4, H . H = (-1)^k on k-forms over the Hodge blocks, one zero
    test per entry through the oracle `combination_defect`.  The hodge
    suite derives this entry from H . S = C and the square factors
    c_j c_(m-j) = (-1)^k' instead, and multiplies no two Hodge blocks."""
    for n in range(1, 5):
        h = hodge_operator(n, mode)
        sign = diagonal(n, lambda a, b: -ONE if (a + b) % 2 else ONE)
        assert combination_defect([(ONE, [h, h]), (-ONE, [sign])]) is None, n


def test_hodge_swaps_bidegrees():
    for n in (2, 3):
        for a in range(n + 1):
            for b in range(n + 1):
                for m in basis_bidegree(n, a, b):
                    img = hodge(FiberForm(n, {m: ONE}))
                    if img:
                        assert img.bidegree_split().keys() == {(n - b, n - a)}


def test_hodge_inverse_round_trip():
    rng = random.Random(61)
    for n in (1, 2, 3):
        for mode in MODES:
            for k in range(2 * n + 1):
                u = _random_form(rng, n, k)
                assert hodge_inverse(hodge(u, mode), mode) == u
                assert hodge(hodge_inverse(u, mode), mode) == u


def test_hodge_commutes_with_star():
    rng = random.Random(67)
    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            u = _random_form(rng, n, k)
            assert hodge(u.star()) == hodge(u).star()


def test_hodge_weil_formula_on_strings():
    """The defining formula: on L^j(p) with p primitive of degree k' the map
    acts by the sign, the phase and the factorial ratio, sending the level-j
    string member to the complementary level."""
    for n in (2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    kp = a + b
                    sign = -ONE if (kp * (kp + 1) // 2) % 2 else ONE
                    for p in primitive_basis(n, a, b):
                        for j in range(n - kp + 1):
                            coeff = sign * i_power(a - b) \
                                * qfact(j, mode) / qfact(n - j - kp, mode)
                            assert hodge(L_power(p, j), mode) == \
                                L_power(p, n - j - kp).scale(coeff)


# ---------------------------------------------------------------------------
# metric and Gram blocks
# ---------------------------------------------------------------------------

def test_rank1_metric_table():
    unit = FiberForm.unit(1)
    ep, em = e_plus(1, 1), e_minus(1, 1)
    two = FiberForm.monomial(1, [1], [1])
    assert metric(unit, unit) == ONE
    assert metric(ep, ep) == Scalar.q_power(-4)
    assert metric(em, em) == Scalar.q_power(6)
    assert metric(two, two) == ONE
    assert metric(kappa(1), kappa(1)) == ONE


def test_rank2_metric_table():
    vals = [
        (FiberForm.monomial(2, [1], []), "q^-5"),
        (FiberForm.monomial(2, [2], []), "q^-5"),
        (FiberForm.monomial(2, [], [1]), "q^7"),
        (FiberForm.monomial(2, [], [2]), "q^9"),
        (FiberForm.monomial(2, [1, 2], []), "q^-11"),
        (FiberForm.monomial(2, [], [1, 2]), "q^17"),
        (FiberForm.monomial(2, [1], [2]), "q^3"),
        (FiberForm.monomial(2, [2], [1]), "q"),
        (FiberForm.monomial(2, [1], [1])
         - FiberForm.monomial(2, [2], [2]).scale(Scalar.q_power(-2)),
         "q + q^-1"),
        (kappa(2), "q + q^-1"),
    ]
    for u, want in vals:
        assert metric(u, u) == parse_scalar(want)


def test_metric_is_hermitian_and_graded():
    rng = random.Random(71)
    for n in (1, 2):
        forms = [_random_form(rng, n, k) for k in range(2 * n + 1)]
        for u in forms:
            for v in forms:
                assert metric(u, v) == metric(v, u).conjugate()
                if u.degrees() != v.degrees():
                    assert metric(u, v) == ZERO
        c = Q + I
        u, v = forms[1], forms[1] + forms[2]
        assert metric(u.scale(c), v) == c * metric(u, v)
        assert metric(u, v.scale(c)) == c.conjugate() * metric(u, v)


def test_metric_matches_the_form_level_oracle():
    """metric reads the Gram blocks; the oracle wedges u with the Hodge image
    of star(v).  Pairs of one degree span several bidegrees, and pairs of
    two different bidegrees of one degree must both give zero."""
    rng = random.Random(97)
    for n in (1, 2, 3):
        for mode in MODES:
            for k in range(2 * n + 1):
                u, v = _random_form(rng, n, k), _random_form(rng, n, k)
                w = u + _random_form(rng, n, (k + 1) % (2 * n + 1))
                for x, y in ((u, v), (v, u), (w, v), (w, w)):
                    assert metric(x, y, mode) == form_metric(x, y, mode), \
                        (n, mode, k)
                parts = list(_random_form(rng, n, k).bidegree_split().values())
                for x in parts:
                    for y in parts:
                        assert metric(x, y, mode) == form_metric(x, y, mode)


def test_hodge_is_a_metric_isometry():
    rng = random.Random(73)
    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            u = _random_form(rng, n, k)
            v = _random_form(rng, n, k)
            assert metric(hodge(u), hodge(v)) == metric(u, v)


def test_gram_agrees_with_metric_entries():
    # gram assembles P . H . S from matrices; the oracle wedges forms.  The
    # h1 cases run after hq on the same blocks, so a cache that ignored the
    # mode would hand back the hq block and fail here.
    for n, mode in ((1, H_EQ_Q), (2, H_EQ_Q), (3, H_EQ_Q),
                    (1, H_EQ_ONE), (2, H_EQ_ONE)):
        for a in range(n + 1):
            for b in range(n + 1):
                basis = basis_bidegree(n, a, b)
                if not basis:
                    continue
                g = gram(n, a, b, mode)
                assert g == g.transpose().conjugate()
                for i, mi in enumerate(basis):
                    for j, mj in enumerate(basis):
                        assert g.rows[i][j] == form_metric(
                            FiberForm(n, {mi: ONE}), FiberForm(n, {mj: ONE}),
                            mode)
    assert gram(2, 0, 0, H_EQ_ONE) != gram(2, 0, 0, H_EQ_Q)


def test_string_rescaling_law():
    for n in (2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            for kp in range(n):
                prims = [p for bb in range(kp + 1)
                         for p in primitive_basis(n, kp - bb, bb)]
                for p in prims:
                    for other in prims:
                        base = metric(p, other, mode)
                        for j in range(1, n - kp + 1):
                            factor = qfact(j, mode) * qfact(n - kp, mode) \
                                / qfact(n - j - kp, mode)
                            assert metric(L_power(p, j), L_power(other, j),
                                          mode) == factor * base


def test_serre_pairing_is_nondegenerate():
    for n in (1, 2, 3):
        for a in range(n + 1):
            for b in range(n + 1):
                dim = len(basis_bidegree(n, a, b))
                if dim:
                    assert linalg.rank(serre_pairing(n, a, b)) == dim


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_serre_pairing_matches_the_all_pairs_wedge(n):
    """The pairing wedges only pairs of opposite torus weight; every other
    pair of basis monomials wedges to a form with no top term."""
    for a in range(n + 1):
        for b in range(n + 1):
            assert serre_pairing(n, a, b) == serre_pairing_all_pairs(n, a, b)


def test_serre_pairing_wedges_only_opposite_weights(monkeypatch):
    """At n = 3 the Serre pairings take sum over (a, b) of the pairs of
    opposite weight in (a, b) x (3-a, 3-b) wedges, not all 20^2 = 400."""
    opposite = sum(
        sum(1 for ml in basis_bidegree(3, a, b)
            for mr in basis_bidegree(3, 3 - a, 3 - b)
            if all(x + y == 0 for x, y in zip(weight(ml, 3), weight(mr, 3))))
        for a in range(4) for b in range(4))
    calls = []
    wedge = FiberForm.wedge

    def counting(self, other):
        calls.append(1)
        return wedge(self, other)

    serre_pairing.cache_clear()
    monkeypatch.setattr(FiberForm, "wedge", counting)
    try:
        for a in range(4):
            for b in range(4):
                serre_pairing(3, a, b)
    finally:
        serre_pairing.cache_clear()
    assert len(calls) == opposite < 400


def test_gram_json_and_posdef_certificates():
    doc = gram_to_json(2, 1, 1)
    assert doc["bidegree"] == [1, 1]
    assert len(doc["entries"]) == 4
    for q0 in (Fraction(9, 10), Fraction(1), Fraction(11, 10)):
        cert = certify_posdef(gram(2, 1, 1), q0)
        assert cert.positive_definite
        assert cert.to_json()["verdict"] == "positive-definite"


def test_posdef_certificate_hits_poles_honestly():
    blk = linalg.ScalarMatrix([[ONE / (Q - Scalar.q_power(-1))]])
    with pytest.raises(PoleError):
        certify_posdef(blk, Fraction(1))


# ---------------------------------------------------------------------------
# graded operators and adjoints
# ---------------------------------------------------------------------------

def _same_map(x, y):
    return x.n == y.n and x.blocks == y.blocks


def test_graded_operator_algebra():
    n = 2
    lop = l_operator(n)
    ident = diagonal(n, lambda a, b: ONE)
    assert _same_map(compose(lop, ident), lop)
    assert _same_map(compose(ident, lop), lop)
    assert _same_map(scale(lop, ZERO), GradedOperator(n, {}))
    assert combination_defect([(Scalar.from_int(3), [lop]), (-ONE, [lop]),
                               (-ONE, [lop]), (-ONE, [lop])]) is None
    rng = random.Random(79)
    u = _random_form(rng, n, 1)
    assert lop.apply(u) == kappa(n).wedge(u)


def _inverse_by_elimination(u, mode):
    """Oracle for hodge_inverse: each (c, d) component pulls back to
    (n-d, n-c) through the Hodge block inverted by elimination."""
    n = u.n
    out = FiberForm.zero(n)
    for (c, d), comp in u.bidegree_split().items():
        a, b = n - d, n - c
        inv = linalg.inverse(hodge_block(n, a, b, mode))
        vec = inv.apply(to_coords(comp, basis_bidegree(n, c, d)))
        out = out + from_coords(n, vec, basis_bidegree(n, a, b))
    return out


def test_hodge_inverse_matches_elimination():
    """hodge_inverse negates odd degrees and applies the Hodge map; on each
    component that must be the inverse of the Hodge block."""
    for n in (1, 2, 3):
        for mode in MODES:
            for a in range(n + 1):
                for b in range(n + 1):
                    src = basis_bidegree(n, a, b)
                    cols = [to_coords(hodge_inverse(FiberForm(n, {m: ONE}), mode), src)
                            for m in basis_bidegree(n, n - b, n - a)]
                    engine = linalg.ScalarMatrix.from_columns(cols, len(src))
                    assert engine == linalg.inverse(hodge_block(n, a, b, mode)), \
                        (n, mode, a, b)


def _hodge_block_at(n, a, b, h0, q0):
    """Oracle for hodge_block at q = q0: C(q0) . S(q0)^-1 over the complex
    rationals, with S the string members of (a, b) and C their Hodge images
    (a real sign, a power of i and a ratio of quantum factorials at base
    h0, times a string member of (n-b, n-a))."""
    tgt = basis_bidegree(n, n - b, n - a)
    members = {(j, seed, idx): form
               for j, seed, idx, form in string_columns(n, n - b, n - a)}
    units = [C_ONE, (Fraction(0), Fraction(1)),
             (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))]
    c_cols = []
    for j, (ap, bp), idx, _form in string_columns(n, a, b):
        kp = ap + bp
        unit = units[((ap - bp) + 2 * (kp * (kp + 1) // 2)) % 4]
        ratio = naive_qfact(j, h0) / naive_qfact(n - j - kp, h0)
        coeff = c_mul(unit, (ratio, Fraction(0)))
        image = members[n - j - kp, (ap, bp), idx]
        c_cols.append([c_mul(coeff, eval_scalar(x, q0))
                       for x in to_coords(image, tgt)])
    s_inv = gauss_inverse(eval_matrix(string_basis_matrix(n, a, b), q0))
    return [[reduce(c_add, (c_mul(c_col[r], s_row[col])
                            for c_col, s_row in zip(c_cols, s_inv)
                            if c_col[r] != C_ZERO), C_ZERO)
             for col in range(len(s_inv))]
            for r in range(len(tgt))]


Q0 = Fraction(17, 13)


@pytest.mark.parametrize("mode, h0", [(H_EQ_Q, Q0), (H_EQ_ONE, Fraction(1))],
                         ids=["hq", "h1"])
def test_hodge_blocks_match_inverted_string_basis_at_a_point(mode, h0):
    """At n = 4 and q0 = 17/13, every Hodge block evaluated entry by entry
    equals C(q0) . S(q0)^-1, built by textbook elimination over the complex
    rationals.  Agreement at one point is a necessary check, not a proof:
    two rational functions can meet at q0 and differ elsewhere."""
    n = 4
    for a in range(n + 1):
        for b in range(n + 1):
            want = _hodge_block_at(n, a, b, h0, Q0)
            assert eval_matrix(hodge_block(n, a, b, mode), Q0) == want, (a, b)


@pytest.mark.parametrize("mode", [H_EQ_Q, H_EQ_ONE], ids=["hq", "h1"])
def test_gram_blocks_match_the_evaluated_product(mode):
    """At n = 4 and q0 = 17/13, every Gram block evaluated entry by entry
    equals P(q0) . H(q0) . S(q0) multiplied out over the complex rationals:
    P the Serre pairing, H the (b, a) Hodge block, S the star matrix.  The
    verify suites take G = P . H . S as given.  Agreement at one point is a
    necessary check, not a proof."""
    n = 4
    for a in range(n + 1):
        for b in range(n + 1):
            want = c_matmul(c_matmul(eval_matrix(serre_pairing(n, a, b), Q0),
                                     eval_matrix(hodge_block(n, b, a, mode), Q0)),
                            eval_matrix(star_matrix(n, a, b), Q0))
            assert eval_matrix(gram(n, a, b, mode), Q0) == want, (a, b)


@pytest.mark.parametrize("mode", [H_EQ_Q, H_EQ_ONE], ids=["hq", "h1"])
def test_lambda_blocks_match_conjugated_raising_at_a_point(mode):
    """At n = 4 and q0 = 17/13, the Lambda block of each (a, b), evaluated,
    satisfies H_(a-1,b-1)(q0) . Lambda(q0) = L_(n-b,n-a)(q0) . H_(a,b)(q0),
    both sides multiplied out over the complex rationals.  The Hodge block
    H_(a-1,b-1) is invertible (its square is +-1), so this is
    Lambda = H^-1 . L . H at q0, the construction the verify suites take as
    given.  Agreement at one point is a necessary check, not a proof."""
    n = 4
    lam = lambda_operator(n, mode)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            tgt, mat = lam.blocks[a, b]
            assert tgt == (a - 1, b - 1)
            got = c_matmul(eval_matrix(hodge_block(n, a - 1, b - 1, mode), Q0),
                           eval_matrix(mat, Q0))
            want = c_matmul(eval_matrix(l_matrix(n, n - b, n - a), Q0),
                            eval_matrix(hodge_block(n, a, b, mode), Q0))
            assert got == want, (a, b)


@pytest.mark.parametrize("mode", [H_EQ_Q, H_EQ_ONE], ids=["hq", "h1"])
def test_lambda_ranks_count_the_members_above_level_zero_at_a_point(mode):
    """At n <= 4 and q0 = 17/13, every Lambda block evaluated entry by entry
    has rank, by textbook elimination, equal to its number of string
    members above level 0, and dim V^k minus the summed ranks of degree k
    equals the number of seeds of degree k.  The strings suite derives its
    kernel entry from the basis and lowering identities instead of taking
    these ranks.  Evaluation can only lower a rank, so agreement at one
    point is a necessary check, not a proof."""
    for n in range(1, 5):
        lam = lambda_operator(n, mode)
        for k in range(2 * n + 1):
            bidegrees = [(k - b, b) for b in range(k + 1)
                         if k - b <= n and b <= n]
            ranks = 0
            for bd in bidegrees:
                above = sum(1 for j, _, _, _ in string_columns(n, *bd) if j)
                blk = lam.blocks.get(bd)
                r = gauss_rank(eval_matrix(blk[1], Q0)) if blk else 0
                assert r == above, (n, bd)
                ranks += r
            seeds = sum(len(primitive_basis(n, *bd)) for bd in bidegrees)
            assert len(basis_degree(n, k)) - ranks == seeds, (n, k)


@pytest.mark.parametrize("mode", [H_EQ_Q, H_EQ_ONE], ids=["hq", "h1"])
def test_string_members_of_different_levels_are_metric_orthogonal(mode):
    """At n <= 4, vol(f1 ^ hodge(star(f2))) = 0 for every two string
    members f1, f2 of one bidegree at different levels, with one Hodge
    image per member and one wedge per pair.  The strings suite derives
    this entry from the basis and raising identities and the premises on
    L instead, and reads no image of a form."""
    for n in range(1, 5):
        for a in range(n + 1):
            for b in range(n + 1):
                cols = string_columns(n, a, b)
                images = [hodge(f.star(), mode) for _, _, _, f in cols]
                for j1, _, _, f1 in cols:
                    for (j2, _, _, _), w in zip(cols, images):
                        if j1 != j2:
                            assert not vol(f1.wedge(w)), (n, a, b, j1, j2)


def test_lambda_operator_is_conjugated_raising():
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            lam = lambda_operator(n, mode)
            rng = random.Random(89)
            for k in range(2 * n + 1):
                u = _random_form(rng, n, k)
                want = _inverse_by_elimination(kappa(n).wedge(hodge(u, mode)), mode)
                assert lam.apply(u) == want
                assert lambda_apply(u, mode) == want


def test_lambda_operator_is_built_once_per_rank_and_mode():
    modes = (H_EQ_Q, H_EQ_ONE,
             HodgeMode.numeric(Fraction(9, 10), Fraction(7, 8)),
             HodgeMode.numeric(Fraction(9, 10), Fraction(5, 4)))
    ops = [lambda_operator(2, mode) for mode in modes]
    for mode, op in zip(modes, ops):
        assert lambda_operator(2, mode) is op
    same = HodgeMode.numeric(Fraction(9, 10), Fraction(7, 8))
    assert lambda_operator(2, same) is ops[2]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert ops[i] != ops[j], (modes[i], modes[j])
    assert lambda_operator(1, H_EQ_Q) is not ops[0]


def test_memo_keys_fill_in_defaults_and_keywords():
    assert gram(2, 0, 0) is gram(2, 0, 0, H_EQ_Q)
    assert seed_block(2, 1, 0) is seed_block(2, 1, 0, H_EQ_Q)
    assert hodge_factor(3, (1, 0), 1) is hodge_factor(3, (1, 0), 1, H_EQ_Q)
    assert qfact(3) is qfact(3, H_EQ_Q)
    assert qint(3, mode=H_EQ_Q) is qint(3, H_EQ_Q)
    for _ in range(2):
        with pytest.raises(ValueError):
            kappa_power(2, -1)


def test_no_module_keeps_its_own_cache():
    for info in pkgutil.iter_modules(qkahler.__path__):
        mod = importlib.import_module(f"qkahler.{info.name}")
        caches = [name for name, val in vars(mod).items()
                  if name.endswith("_cache") and isinstance(val, dict)]
        assert not caches, (info.name, caches)


def test_cached_blocks_cannot_be_mutated():
    for block in (gram(2, 0, 0), hodge_block(2, 1, 0), l_matrix(2, 0, 0)):
        with pytest.raises(TypeError):
            block.rows[0][0] = ZERO
        with pytest.raises(TypeError):
            block.rows[0] = ()
    assert isinstance(primitive_basis(2, 1, 1), tuple)
    assert isinstance(string_columns(2, 1, 1), tuple)
    basis = basis_bidegree(2, 0, 0)
    g = gram(2, 0, 0)
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            assert g.rows[i][j] == form_metric(FiberForm(2, {mi: ONE}),
                                               FiberForm(2, {mj: ONE}), H_EQ_Q)


def test_cached_operators_and_forms_cannot_be_mutated():
    for op in (lambda_operator(2), hodge_operator(2)):
        with pytest.raises(TypeError):
            op.blocks[(1, 1)] = op.blocks[(1, 1)]
        with pytest.raises(AttributeError):
            op.blocks.clear()
    seed = primitive_basis(2, 1, 1)[0]
    with pytest.raises(TypeError):
        seed.terms[next(iter(seed.terms))] = ZERO
    with pytest.raises(AttributeError):
        seed.terms.clear()
    assert lambda_apply(kappa(2)) == FiberForm.unit(2).scale(qint(2))
    assert not lambda_apply(seed)


def test_cached_values_cannot_be_rebound():
    seed = primitive_basis(2, 1, 1)[0]
    text = str(seed)
    product = e_plus(2, 1).wedge(e_minus(2, 1))
    op = hodge_operator(2)
    block = gram(2, 0, 0)
    for obj, names in ((seed, ("n", "terms")), (product, ("n", "terms")),
                       (op, ("n", "blocks")), (block, ("rows", "_ncols"))):
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(obj, name, {})
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert str(primitive_basis(2, 1, 1)[0]) == text
    assert hodge_operator(2).blocks and gram(2, 0, 0).nrows == 1
    assert lambda_operator(2).apply(seed) == FiberForm.zero(2)


def test_lambda_kills_primitives_and_lowers_kappa():
    for n in (1, 2, 3):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                for p in primitive_basis(n, a, b):
                    assert not lambda_apply(p)
        assert lambda_apply(kappa(n)) == FiberForm.unit(n).scale(qint(n))


def _adjoint_by_elimination(op, mode):
    """Oracle for adjoint_defect: the metric adjoint block by block,
    W = conj(G_src^-1 . M^T . G_tgt), solved by elimination on the Gram
    blocks."""
    n = op.n
    blocks = {}
    for src, (tgt, mat) in op.blocks.items():
        w = linalg.solve(gram(n, *src, mode), mat.transpose() @ gram(n, *tgt, mode))
        assert tgt not in blocks, "operator blocks collide under adjoint"
        blocks[tgt] = (src, w.conjugate())
    return GradedOperator(n, blocks)


def _with_entry_bumped(op, src):
    """op with entry (0, 0) of its block at src increased by one."""
    blocks = dict(op.blocks)
    tgt, mat = blocks[src]
    rows = [list(r) for r in mat.rows]
    rows[0][0] = rows[0][0] + ONE
    blocks[src] = (tgt, linalg.ScalarMatrix(rows))
    return GradedOperator(op.n, blocks)


def test_adjoint_against_the_metric():
    rng = random.Random(97)
    for n in (1, 2):
        for mode in MODES:
            lop = l_operator(n)
            lam = lambda_operator(n, mode)
            hop = h_operator(n, mode)
            kop = k_operator(n, mode)
            star = hodge_operator(n, mode)
            star_inv = GradedOperator(n, {
                src: (tgt, -mat if sum(src) % 2 else mat)
                for src, (tgt, mat) in star.blocks.items()})
            ops = (lop, lam, hop, kop, star)
            candidates = ops + (star_inv, scale(lam, -ONE), scale(lam, Q),
                                scale(kop, Q))
            for op in ops:
                want = _adjoint_by_elimination(op, mode)
                assert adjoint_defect(op, want, mode) is None
                for other in candidates:
                    assert (adjoint_defect(op, other, mode) is None) == \
                        _same_map(other, want)
            assert adjoint_defect(lam, lop, mode) is None
            assert adjoint_defect(star, star_inv, mode) is None
            for k in range(2 * n - 1):
                u = _random_form(rng, n, k)
                v = _random_form(rng, n, k + 2)
                assert metric(lop.apply(u), v, mode) == \
                    metric(u, lam.apply(v), mode)


def test_adjoint_defect_names_the_failing_bidegree():
    for n in (1, 2, 3):
        for mode in MODES:
            lop = l_operator(n)
            lam = lambda_operator(n, mode)
            kop = k_operator(n, mode)
            assert adjoint_defect(lop, lam, mode) is None
            assert adjoint_defect(kop, kop, mode) is None
            for op, other in ((lop, scale(lam, -ONE)), (lop, scale(lam, Q)),
                              (lop, lop), (kop, scale(kop, Q))):
                assert adjoint_defect(op, other, mode)["bidegree"] == [0, 0]
            # a wrong entry in the block of (a, b) fails at (a-1, b-1), the
            # source of the L block that meets it
            for a, b in (min(lam.blocks), max(lam.blocks)):
                wit = adjoint_defect(lop, _with_entry_bumped(lam, (a, b)), mode)
                assert wit["bidegree"] == [a - 1, b - 1]
                assert wit["target"] == [a, b]
            # a mistargeted back block, or a block nothing maps into, is
            # named by its bidegree alone
            assert adjoint_defect(lop, lop, mode) == {"bidegree": [0, 0]}
            extra = diagonal(
                n, lambda a, b: ONE if a == b == 0 else ZERO)
            assert adjoint_defect(lop, GradedOperator(
                n, {**lam.blocks, **extra.blocks}), mode) == {"bidegree": [0, 0]}
    with pytest.raises(ValueError):
        adjoint_defect(l_operator(1), l_operator(2))


def test_adjoint_defect_takes_no_gcd():
    """With the Gram blocks warm, the oracle's direct unitarity check of the
    Hodge map at n = 3 is one zero test per entry and canonicalises
    nothing.  A fresh interpreter starts with empty caches."""
    script = f"import sys; sys.path.insert(0, {TESTS_DIR!r})" + textwrap.dedent("""
        from oracles import adjoint_defect, compose, diagonal
        from qkahler import scalars
        from qkahler.hodge import gram, hodge_operator
        from qkahler.scalars import H_EQ_Q, ONE

        star = hodge_operator(3, H_EQ_Q)
        sign = diagonal(3, lambda a, b: -ONE if (a + b) % 2 else ONE)
        inverse = compose(star, sign)
        for a in range(4):
            for b in range(4):
                gram(3, a, b, H_EQ_Q)
        calls = []
        gcd = scalars._laurent_gcd

        def counting(p, r):
            calls.append(p)
            return gcd(p, r)

        scalars._laurent_gcd = counting
        assert adjoint_defect(star, inverse, H_EQ_Q) is None
        print(len(calls))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_one_pair_entries_with_a_signed_q_power_take_no_gcd():
    """A product entry with one pair, one of whose factors is +-q^k, is a
    shift of the other factor.  At n = 3, with the Hodge blocks warm:
    H . sign (sign the +-1 diagonal) takes no gcd, and the 16 Gram blocks
    P . H . S take one per entry of P . H with a denominator and none in
    the product with the star matrix S, one +-q^k per column.  A fresh
    interpreter starts with empty caches."""
    script = f"import sys; sys.path.insert(0, {TESTS_DIR!r})" + textwrap.dedent("""
        from oracles import compose, diagonal
        from qkahler import scalars
        from qkahler.hodge import gram, hodge_operator
        from qkahler.scalars import H_EQ_Q, ONE

        star = hodge_operator(3, H_EQ_Q)
        sign = diagonal(3, lambda a, b: -ONE if (a + b) % 2 else ONE)
        calls = []
        gcd = scalars._laurent_gcd

        def counting(p, r):
            calls.append(p)
            return gcd(p, r)

        scalars._laurent_gcd = counting
        compose(star, sign)
        print(len(calls))
        for a in range(4):
            for b in range(4):
                gram(3, a, b, H_EQ_Q)
        print(len(calls))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "42"]


# ---------------------------------------------------------------------------
# combination_defect: one zero test per entry
# ---------------------------------------------------------------------------

_SPARSE_POOL = [
    ZERO, ZERO, ZERO, ZERO, ONE, -ONE, Q, Scalar.q_power(-1), I, Q + ONE,
    Q - I, Scalar.from_int(2) * Q - ONE, ONE / (Q + ONE), Q / (Q * Q + ONE),
    (Q - I) / (Q + Scalar.from_int(3)), I / (Q + ONE),
    Scalar.q_power(-2) + ONE / (Q - ONE),
]


def _scrambled_operator(rng, n, target):
    """A random sparse operator with one block src -> target(src) for each
    src that target maps into the fiber."""
    blocks = {}
    for a in range(n + 1):
        for b in range(n + 1):
            tgt = target(a, b)
            if not all(0 <= x <= n for x in tgt):
                continue
            rows = [[rng.choice(_SPARSE_POOL)
                     for _ in basis_bidegree(n, a, b)]
                    for _ in basis_bidegree(n, *tgt)]
            blocks[(a, b)] = (tgt, linalg.ScalarMatrix(rows))
    return GradedOperator(n, blocks)


def _bumped(op, src, rng):
    """op with one random entry of its block at src moved by a nonzero."""
    blocks = dict(op.blocks)
    tgt, mat = blocks[src]
    rows = [list(r) for r in mat.rows]
    i, j = rng.randrange(mat.nrows), rng.randrange(mat.ncols)
    rows[i][j] = rows[i][j] + rng.choice([ONE, Q, ONE / (Q + I)])
    blocks[src] = (tgt, linalg.ScalarMatrix(rows))
    return GradedOperator(op.n, blocks)


def _frac(s):
    return ({e: (c.re, c.im) for e, c in s.num.terms.items()},
            {e: (c.re, c.im) for e, c in s.den.terms.items()})


_FRAC_ZERO = ({}, {0: (Fraction(1), Fraction(0))})


def _frac_add(x, y):
    if not x[0]:
        return y
    if not y[0]:
        return x
    return (dict_add(dict_mul(x[0], y[1]), dict_mul(y[0], x[1])),
            dict_mul(x[1], y[1]))


def _frac_mul(x, y):
    if not x[0] or not y[0]:
        return _FRAC_ZERO
    return dict_mul(x[0], y[0]), dict_mul(x[1], y[1])


def _sum_of(fracs):
    acc = _FRAC_ZERO
    for x in fracs:
        acc = _frac_add(acc, x)
    return acc


def _frac_equal(x, y):
    """Whether two dict fractions are equal, by cross-multiplication."""
    neg = {0: (Fraction(-1), Fraction(0))}
    return not dict_add(dict_mul(x[0], y[1]), dict_mul(dict_mul(y[0], x[1]), neg))


def _dict_defect(terms):
    """The oracle for combination_defect: every chain multiplied out in the
    dict fractions of tests/oracles.py, summed per (source, target).  The
    first nonzero entry, by source, target, row and column, is returned as
    ((source, target, row, col), value), else None."""
    groups = {}
    for c, factors in terms:
        for src, (tgt, mat) in factors[-1].blocks.items():
            acc = [[_frac(x) for x in r] for r in mat.rows]
            for op in reversed(factors[:-1]):
                if tgt not in op.blocks:
                    break
                tgt, left = op.blocks[tgt]
                acc = [[_sum_of(_frac_mul(_frac(r[k]), acc[k][j])
                                for k in range(len(acc)))
                        for j in range(len(acc[0]))] for r in left.rows]
            else:
                acc = [[_frac_mul(_frac(c), x) for x in r] for r in acc]
                old = groups.get((src, tgt))
                groups[(src, tgt)] = acc if old is None else [
                    [_frac_add(x, y) for x, y in zip(r0, r1)]
                    for r0, r1 in zip(old, acc)]
    return min((((src, tgt, i, j), x) for (src, tgt), acc in groups.items()
                for i, r in enumerate(acc) for j, x in enumerate(r) if x[0]),
               key=lambda found: found[0], default=None)


def _matches_oracle(witness, terms):
    """Whether a combination_defect witness names the oracle's first
    nonzero entry, with that entry's value."""
    want = _dict_defect(terms)
    if witness is None or want is None:
        return witness is None and want is None
    where, value = want
    return (where == (tuple(witness["bidegree"]), tuple(witness["target"]),
                      witness["row"], witness["col"])
            and _frac_equal(_frac(parse_scalar(witness["defect"])), value))


def _first_unequal(lhs, rhs):
    return min((src for src in set(lhs.blocks) | set(rhs.blocks)
                if lhs.blocks.get(src) != rhs.blocks.get(src)), default=None)


def test_combination_defect_matches_canonical_products_and_the_oracle():
    """A B - C D with C = A x and D = B / x, over scrambled sparse blocks of
    Laurent polynomials and rational functions with shared and distinct
    denominators, then with one entry of D bumped: the witness names the
    oracle's first nonzero entry and its value."""
    n = 2
    maps = (lambda a, b: (a, b), lambda a, b: (n - b, n - a),
            lambda a, b: (a + 1, b + 1))
    rng = random.Random(101)
    found = 0
    for trial in range(12):
        ta, tb = maps[trial % 3], maps[trial // 3 % 3]
        a_op = _scrambled_operator(rng, n, ta)
        b_op = _scrambled_operator(rng, n, tb)
        x = rng.choice([Q + ONE, ONE / (Q - I), Scalar.from_int(3)])
        c_op, d_op = scale(a_op, x), scale(b_op, ONE / x)
        bump = rng.choice(sorted(d_op.blocks))
        for d in (d_op, _bumped(d_op, bump, rng)):
            terms = [(ONE, [a_op, b_op]), (-ONE, [c_op, d])]
            got = combination_defect(terms)
            where = None if got is None else tuple(got["bidegree"])
            assert where == _first_unequal(compose(a_op, b_op), compose(c_op, d))
            assert _matches_oracle(got, terms)
            assert got is None or (d is not d_op and where == bump)
            found += where == bump
    assert found >= 6
    # three factors, a scalar term, and a prefix scaled by a fraction
    a_op = _scrambled_operator(rng, n, maps[0])
    b_op = _scrambled_operator(rng, n, maps[1])
    y = ONE / (Q * Q + ONE)
    terms = [(y, [a_op, b_op, a_op]), (-ONE, [scale(a_op, y), b_op, a_op]),
             (Q, [a_op]), (-Q, [a_op])]
    assert combination_defect(terms) is None
    assert _dict_defect(terms) is None
    terms[2] = (Q + ONE, [a_op])
    got = combination_defect(terms)
    assert got["bidegree"] == list(min(a_op.blocks))
    assert _matches_oracle(got, terms)


def test_combination_defect_groups_terms_by_source_and_target():
    n = 2
    lop = l_operator(n)
    # a chain that meets an absent block adds nothing at that source
    missing = diagonal(
        n, lambda a, b: ZERO if (a, b) == (1, 1) else ONE)
    assert combination_defect([(ONE, [missing, lop]),
                               (-ONE, [lop])])["bidegree"] == [0, 0]
    rest = GradedOperator(n, {s: blk for s, blk in lop.blocks.items()
                              if s != (0, 0)})
    assert combination_defect([(ONE, [missing, lop]), (-ONE, [rest])]) is None
    assert _same_map(compose(missing, lop), rest)
    # equal matrices into different targets do not cancel
    eye = linalg.ScalarMatrix.identity(2)
    to_self = GradedOperator(n, {(1, 0): ((1, 0), eye)})
    to_swap = GradedOperator(n, {(1, 0): ((0, 1), eye)})
    assert combination_defect([(ONE, [to_self]), (-ONE, [to_swap])]) == {
        "bidegree": [1, 0], "target": [0, 1], "row": 0, "col": 0,
        "defect": "-1"}
    assert combination_defect([(ONE, [to_self]), (-ONE, [to_self]),
                               (ONE, [to_swap]), (-ONE, [to_swap])]) is None
    with pytest.raises(ValueError):
        combination_defect([(ONE, [l_operator(1)]), (ONE, [lop])])
