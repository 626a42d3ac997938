"""Quantum SU(2) coordinate ring: normal form, Hopf structure, Laplacian.

The coproduct and counit are the reference implementations in
`tests/oracles.py`; the engine implements the antipode alone."""

from __future__ import annotations

import random
from math import comb

import pytest

from qkahler.scalars import I, ONE, Q, Scalar, ZERO, qint
from qkahler.su2 import (
    A, B, C, D, E_ONE, SU2Element, XY_TABLE, antipode_u_entry,
    laplacian0_cp1, projective_coordinate, u_entry, verify_cp1_laplacian,
)

from oracles import (
    TensorElement, coproduct, coproduct2, counit, su2_reduce_word,
)

_GEN = {"a": A, "b": B, "c": C, "d": D}


def _word_product(word: str) -> SU2Element:
    acc = E_ONE
    for letter in word:
        acc = acc * _GEN[letter]
    return acc


def _random_element(rng, max_words=3, max_len=3) -> SU2Element:
    pool = [ONE, -ONE, Q, Scalar.q_power(-1), Q + ONE]
    acc = SU2Element.zero()
    for _ in range(rng.randint(1, max_words)):
        word = "".join(rng.choice("abcd") for _ in range(rng.randint(0, max_len)))
        acc = acc + _word_product(word).scale(rng.choice(pool))
    return acc


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

def test_render_of_elements():
    x = SU2Element({(0, 0, 0, 0): Q + ONE, (1, 0, 0, 0): ONE,
                    (0, 1, 0, 0): -ONE, (0, 0, 1, 0): Q / (Q + ONE),
                    (0, 1, 1, 0): I * Q, (0, 0, 0, 2): Scalar.q_power(-1) - I})
    assert str(x) == ("(q + 1) + ((q)/(q + 1))*c + -b + a + (-i + q^-1)*d^2"
                      " + (i)*q*b c")
    assert str(SU2Element({(0, 0, 0, 0): I * Q})) == "(i)*q"
    assert str(SU2Element.zero()) == "0"


def test_frt_relations():
    assert A * B == (B * A).scale(Q)
    assert A * C == (C * A).scale(Q)
    assert B * D == (D * B).scale(Q)
    assert C * D == (D * C).scale(Q)
    assert B * C == C * B
    assert A * D - D * A == (B * C).scale(Q - Scalar.q_power(-1))
    assert A * D - (B * C).scale(Q) == E_ONE


def test_quantum_determinant_is_grouplike_and_central():
    det = A * D - (B * C).scale(Q)
    assert det == E_ONE
    alt = D * A - (B * C).scale(Scalar.q_power(-1))
    assert alt == E_ONE
    for g in (A, B, C, D):
        assert det * g == g * det


def test_normal_form_matches_word_oracle():
    rng = random.Random(311)
    for _ in range(50):
        word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 5)))
        got = _word_product(word)
        want = su2_reduce_word(word)
        assert got.terms == want, word


def test_pbw_invariant_no_mixed_ad_monomials():
    rng = random.Random(313)
    for _ in range(30):
        x = _random_element(rng)
        for (al, be, ga, de) in x.terms:
            assert al == 0 or de == 0
    with pytest.raises(ValueError):
        SU2Element.monomial(1, 0, 0, 1)


def test_multiplication_is_associative():
    rng = random.Random(317)
    for _ in range(10):
        x = _random_element(rng, 2, 2)
        y = _random_element(rng, 2, 2)
        z = _random_element(rng, 2, 2)
        assert (x * y) * z == x * (y * z)


def test_degree_m_monomial_count():
    # Hilbert series of the quantum coordinate ring matches the classical one
    for m in range(6):
        count = 0
        for al in range(m + 1):
            for be in range(m + 1 - al):
                for ga in range(m + 1 - al - be):
                    de = m - al - be - ga
                    if al * de == 0:
                        count += 1
        assert count == comb(m + 2, 2) + (comb(m + 1, 2) if m else 0)


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------

def test_coproduct_on_generators():
    assert coproduct(A) == TensorElement.of(A, A) + TensorElement.of(B, C)
    assert coproduct(B) == TensorElement.of(A, B) + TensorElement.of(B, D)
    assert coproduct(C) == TensorElement.of(C, A) + TensorElement.of(D, C)
    assert coproduct(D) == TensorElement.of(C, B) + TensorElement.of(D, D)


def test_coproduct_is_an_algebra_map():
    rng = random.Random(331)
    for _ in range(8):
        x = _random_element(rng, 2, 2)
        y = _random_element(rng, 2, 2)
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_coassociativity():
    rng = random.Random(337)
    for _ in range(6):
        x = _random_element(rng, 2, 2)
        assert coproduct2(x, side="left") == coproduct2(x, side="right")


def test_counit_axioms():
    rng = random.Random(347)
    assert counit(E_ONE) == ONE
    assert counit(A) == ONE and counit(D) == ONE
    assert counit(B) == ZERO and counit(C) == ZERO
    for _ in range(8):
        x = _random_element(rng)
        y = _random_element(rng)
        assert counit(x * y) == counit(x) * counit(y)
        # (eps (x) id) Delta = id = (id (x) eps) Delta
        left = coproduct(x).contract(lambda u, v: v.scale(counit(u)))
        right = coproduct(x).contract(lambda u, v: u.scale(counit(v)))
        assert left == x and right == x


def test_antipode_on_generators():
    assert A.antipode() == D
    assert D.antipode() == A
    assert B.antipode() == B.scale(-Scalar.q_power(-1))
    assert C.antipode() == C.scale(-Q)


def test_antipode_convolution_axiom():
    rng = random.Random(353)
    for x in [A, B, C, D, E_ONE] + [_random_element(rng, 2, 2)
                                    for _ in range(6)]:
        want = E_ONE.scale(counit(x))
        left = coproduct(x).contract(lambda u, v: u.antipode() * v)
        right = coproduct(x).contract(lambda u, v: u * v.antipode())
        assert left == want
        assert right == want


def test_antipode_is_antimultiplicative():
    rng = random.Random(359)
    for _ in range(8):
        x = _random_element(rng, 2, 2)
        y = _random_element(rng, 2, 2)
        assert (x * y).antipode() == y.antipode() * x.antipode()


def test_antipode_square_scales_the_off_diagonal():
    assert A.antipode().antipode() == A
    assert D.antipode().antipode() == D
    assert B.antipode().antipode() == B.scale(Scalar.q_power(-2))
    assert C.antipode().antipode() == C.scale(Scalar.q_power(2))


def test_matrix_counit_and_antipode_tables():
    for i in (1, 2):
        for j in (1, 2):
            u = u_entry(i, j)
            assert counit(u) == (ONE if i == j else ZERO)
            assert antipode_u_entry(i, j) == u_entry(i, j).antipode()


# ---------------------------------------------------------------------------
# the projective-line Laplacian
# ---------------------------------------------------------------------------

def test_projective_coordinates():
    assert projective_coordinate(1, 2) == (A * B).scale(-Scalar.q_power(-1))
    assert projective_coordinate(2, 1) == C * D
    assert projective_coordinate(1, 1) == A * D
    # the plain trace of the projector picks up the deformation
    diag_sum = projective_coordinate(1, 1) + projective_coordinate(2, 2)
    assert diag_sum == E_ONE + (B * C).scale(Q - Scalar.q_power(-1))


def test_second_orthogonality_identity():
    for i in (1, 2):
        for j in (1, 2):
            acc = SU2Element.zero()
            for k in (1, 2):
                acc = acc + antipode_u_entry(i, k) * u_entry(k, j)
            assert acc == (E_ONE if i == j else SU2Element.zero())


def test_xy_table_shape():
    assert set(XY_TABLE) == {(1, 1, 1, 2), (2, 1, 2, 2)}
    assert XY_TABLE[(1, 1, 1, 2)] == -Scalar.q_power(2)
    assert XY_TABLE[(2, 1, 2, 2)] == ONE


def test_laplacian_values():
    eig = Q * qint(2)
    assert laplacian0_cp1(1, 2) == (A * B).scale(-Q - Scalar.q_power(-1))
    assert laplacian0_cp1(2, 1) == (C * D).scale(Scalar.q_power(2) + ONE)
    for i, j in ((1, 2), (2, 1)):
        z = projective_coordinate(i, j)
        assert laplacian0_cp1(i, j) == z.scale(eig)
        inter = (u_entry(i, 1) * antipode_u_entry(1, j)).scale(Scalar.q_power(2)) \
            - u_entry(i, 2) * antipode_u_entry(2, j)
        assert laplacian0_cp1(i, j) == inter
    with pytest.raises(ValueError):
        laplacian0_cp1(0, 1)


def test_inverse_orthogonality_identity():
    for i in (1, 2):
        for j in (1, 2):
            acc = SU2Element.zero()
            for k in (1, 2):
                acc = acc + u_entry(i, k) * antipode_u_entry(k, j)
            assert acc == (E_ONE if i == j else SU2Element.zero())


def test_laplacian_report():
    rep = verify_cp1_laplacian()
    assert rep["all_hold"]
    assert rep["eigenvalue"] == "q^2 + 1"
    assert len(rep["checks"]) == 8
    assert all(c["holds"] for c in rep["checks"])
