"""Deformed sl2 action on the fiber: commutation identities and strings."""

from __future__ import annotations

from fractions import Fraction


from qkahler.fiber import FiberForm, basis_bidegree
from qkahler.hodge import combination_defect, l_operator, lambda_operator
from qkahler.scalars import H_EQ_ONE, H_EQ_Q, HodgeMode, ONE, qint_signed
from qkahler.uqsl2 import h_operator, k_operator, sl2_relations
from qkahler.verify import run_suites

NUMERIC = HodgeMode.numeric(Fraction(9, 10), Fraction(7, 8))
MODES = (H_EQ_Q, H_EQ_ONE, NUMERIC)


def test_h_and_k_are_diagonal_in_the_grading():
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


def test_identity_reports_hold_in_every_mode():
    for n in (1, 2):
        for mode in MODES:
            relations, notes = sl2_relations(n, mode)
            for name, terms, expected in relations:
                assert (combination_defect(terms) is None) == expected, name
            names = [name for name, _, _ in relations]
            assert any("[H,L]" in s for s in names)
            assert any("[L,Lambda]" in s for s in names)
            assert any("[H,Lambda]" in s for s in names)
            assert any("K L K^-1" in s for s in names)
            assert notes


def test_raising_commutator_identity_directly():
    # [H, L]_{h^-2} = H L - h^-2 L H = [2]_h L K
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            h = h_operator(n, mode)
            lop = l_operator(n)
            k = k_operator(n, mode)
            two = qint_signed(2, mode)
            assert combination_defect([
                (ONE, [h, lop]), (-mode.h_power(-2), [lop, h]),
                (-two, [lop, k])]) is None


def test_middle_commutator_is_h():
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            lop = l_operator(n)
            lam = lambda_operator(n, mode)
            assert combination_defect([
                (ONE, [lop, lam]), (-ONE, [lam, lop]),
                (-ONE, [h_operator(n, mode)])]) is None


def test_lowering_commutator_takes_the_adjoint_form():
    """[H, Lambda]_{h^2} equals -[2]_h Lambda K (= -h^2 [2]_h K Lambda);
    the K-on-the-left variant with a step-2 bracket only coincides when
    h^4 = 1, and the relation is expected to say so."""
    for n in (1, 2):
        for mode in MODES:
            h = h_operator(n, mode)
            lam = lambda_operator(n, mode)
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
        wit = combination_defect(terms)
        assert (wit is None) == should_match
        if not should_match:
            assert wit["defect"] != "0"


def test_group_like_relations():
    for n in (1, 2):
        for mode in MODES:
            relations, _ = sl2_relations(n, mode)
            for name, terms, _ in relations:
                if not name.startswith("literal"):
                    assert combination_defect(terms) is None, name


def test_casimir_style_relation_at_generic_h():
    # [L, Lambda] = (K - K^-1)/(h - h^-1) away from h = 1
    for n in (1, 2):
        for mode in (H_EQ_Q, NUMERIC):
            lop = l_operator(n)
            lam = lambda_operator(n, mode)
            k = k_operator(n, mode)
            kinv = k_operator(n, mode, inverse=True)
            denom = mode.h_power(1) - mode.h_power(-1)
            assert combination_defect([
                (ONE, [lop, lam]), (-ONE, [lam, lop]),
                (-ONE / denom, [k]), (ONE / denom, [kinv])]) is None


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
    bidegree, the lowering factor as a block identity, and the primitive
    forms as the exact kernel of Lambda."""
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            entries, failures = run_suites(["strings"], n, mode)
            assert failures == [], failures
            passed = [e["name"] for e in entries if e["status"] == "pass"]
            for name in STRING_ENTRIES:
                assert any(p.startswith(name) for p in passed), name
