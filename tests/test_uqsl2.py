"""Deformed sl2 action on the fiber: commutation identities and strings.

The suites check each relation as one scalar identity per string member
(`uqsl2.relation_defect`).  The tests here also check every relation on the
operators themselves: the real `lambda_operator`, the engine's L, and the H
and K of tests/oracles.py, through `combination_defect`.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

from qkahler.fiber import FiberForm, basis_bidegree
from qkahler.lefschetz import string_columns
from qkahler.scalars import (
    H_EQ_ONE, H_EQ_Q, HodgeMode, I, ONE, Q, qint_signed,
)
from qkahler.uqsl2 import h_weight, k_weight, relation_defect, sl2_relations
from qkahler.verify import run_suites

from oracles import (
    combination_defect, h_operator, k_operator, operator_relations,
    shift_relation_defect,
)

# the package exports a function named hodge, which hides the module
hodge = importlib.import_module("qkahler.hodge")

NUMERIC = HodgeMode.numeric(Fraction(9, 10), Fraction(7, 8))
MODES = (H_EQ_Q, H_EQ_ONE, NUMERIC)


def test_h_and_k_are_diagonal_in_the_grading():
    """The oracle H and K, and the degree weights of every string member."""
    for n in (1, 2):
        for mode in MODES:
            h = h_operator(n, mode)
            k = k_operator(n, mode)
            kinv = k_operator(n, mode, inverse=True)
            for a in range(n + 1):
                for b in range(n + 1):
                    for m in basis_bidegree(n, a, b):
                        u = FiberForm(n, {m: ONE})
                        assert h.apply(u) == u.scale(
                            qint_signed(a + b - n, mode))
                        assert k.apply(u) == u.scale(mode.h_power(a + b - n))
                        assert kinv.apply(u) == u.scale(
                            mode.h_power(n - a - b))
                    for j, seed, _, f in string_columns(n, a, b):
                        m = n - sum(seed)
                        assert h.apply(f) == f.scale(h_weight(m, j, mode))
                        assert k.apply(f) == f.scale(k_weight(m, j, mode))
                        assert kinv.apply(f) == f.scale(
                            k_weight(m, j, mode, inverse=True))


def test_identity_reports_hold_in_every_mode():
    for n in (1, 2, 3):
        for mode in MODES:
            relations, notes = sl2_relations(n, mode)
            for name, terms, expected in relations:
                assert (relation_defect(n, terms) is None) == expected, name
            names = [name for name, _, _ in relations]
            assert any("[H,L]" in s for s in names)
            assert any("[L,Lambda]" in s for s in names)
            assert any("[H,Lambda]" in s for s in names)
            assert any("K L K^-1" in s for s in names)
            assert notes


@pytest.mark.parametrize("mode", [H_EQ_Q, H_EQ_ONE], ids=["hq", "h1"])
def test_every_relation_holds_on_the_operators(mode):
    """At n <= 4, each relation of `sl2_relations` holds on the operators
    exactly when it is expected to: one zero test per entry of lhs - rhs
    over the real Lambda, the engine's L and the oracle H and K.  This is
    the direct check the lids suite's string identities stand in for."""
    for n in range(1, 5):
        relations, _ = sl2_relations(n, mode)
        terms = operator_relations(n, mode, hodge.lambda_operator(n, mode))
        assert sorted(terms) == sorted(name for name, _, _ in relations)
        for name, _, expected in relations:
            assert (combination_defect(terms[name]) is None) == expected, \
                (n, name)


def test_raising_commutator_identity_directly():
    # [H, L]_{h^-2} = H L - h^-2 L H = [2]_h L K
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            terms = operator_relations(n, mode, hodge.lambda_operator(n, mode))
            assert combination_defect(terms["[H,L]_{h^-2} = [2]_h L K"]) \
                is None


def test_middle_commutator_is_h():
    for n in (1, 2, 3):
        for mode in MODES:
            terms = operator_relations(n, mode, hodge.lambda_operator(n, mode))
            assert combination_defect(terms["[L,Lambda] = H"]) is None


def test_lowering_commutator_takes_the_adjoint_form():
    """[H, Lambda]_{h^2} equals -[2]_h Lambda K (= -h^2 [2]_h K Lambda);
    the K-on-the-left variant with a step-2 bracket only coincides when
    h^4 = 1, and the relation is expected to say so."""
    for n in (1, 2):
        for mode in MODES:
            h = h_operator(n, mode)
            lam = hodge.lambda_operator(n, mode)
            k = k_operator(n, mode)
            two = qint_signed(2, mode)
            h2 = mode.h_power(2)
            lhs = [(ONE, [h, lam]), (-h2, [lam, h])]
            assert combination_defect(lhs + [(two, [lam, k])]) is None
            assert combination_defect(lhs + [(two * h2, [k, lam])]) is None
            # Lambda K = h^2 K Lambda
            assert combination_defect(
                [(ONE, [lam, k]), (-h2, [k, lam])]) is None
            literal = lhs + [(h2 + mode.h_power(-2), [k, lam])]
            assert (combination_defect(literal) is None) == \
                (mode.h_power(4) == ONE)


def test_literal_form_check_is_reported_with_expectations():
    for mode, should_match in ((H_EQ_Q, False), (H_EQ_ONE, True),
                               (NUMERIC, False)):
        relations, _ = sl2_relations(2, mode)
        lit = [r for r in relations if r[0].startswith("literal")]
        assert len(lit) == 1
        _, terms, expected = lit[0]
        assert expected == should_match
        wit = relation_defect(2, terms)
        assert (wit is None) == should_match
        if not should_match:
            assert wit["defect"] != "0"


def test_group_like_relations():
    for n in (1, 2):
        for mode in MODES:
            relations, _ = sl2_relations(n, mode)
            terms = operator_relations(n, mode, hodge.lambda_operator(n, mode))
            for name, _, _ in relations:
                if not name.startswith("literal"):
                    assert combination_defect(terms[name]) is None, name


def test_casimir_style_relation_at_generic_h():
    # [L, Lambda] = (K - K^-1)/(h - h^-1) away from h = 1
    for n in (1, 2):
        for mode in (H_EQ_Q, NUMERIC):
            terms = operator_relations(n, mode, hodge.lambda_operator(n, mode))
            assert combination_defect(
                terms["[L,Lambda] = (K - K^-1)/(h - h^-1)"]) is None


def test_relation_defect_matches_dense_products():
    """Every relation, and every relation with its first coefficient
    moved, in each mode at n <= 3: `relation_defect` names the member where
    the dense product of shift matrices first fails, with its value."""
    for n in (1, 2, 3):
        for mode in MODES:
            relations, _ = sl2_relations(n, mode)
            for name, terms, _ in relations:
                (c, factors), *rest = terms
                for variant in (terms, [(c + Q * I, factors), *rest]):
                    assert relation_defect(n, variant) == \
                        shift_relation_defect(n, variant), (n, name)


STRING_ENTRIES = (
    "string members count the whole fiber",
    "every seed is killed by the lowering operator",
    "string members form a basis per bidegree",
    "lowering factor [j]_h [n-j-k+1]_h along every string",
    "primitives are exactly the lowering kernel, by rank",
)


def test_strings_suite_passes_for_small_ranks():
    """The strings suite checks the string model itself: members counted,
    seeds killed by Lambda with strings of length n-k+1, a basis per
    bidegree, the lowering factor as a scalar identity on the premises,
    and the primitive forms as the exact kernel of Lambda."""
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            entries, failures = run_suites(["strings"], n, mode)
            assert failures == [], failures
            passed = [e["name"] for e in entries if e["status"] == "pass"]
            for name in STRING_ENTRIES:
                assert any(p.startswith(name) for p in passed), name
