"""Deformed sl2 action on the fiber: commutation identities and strings."""

from __future__ import annotations

from fractions import Fraction


from qkahler.fiber import FiberForm, basis_bidegree
from qkahler.hodge import l_operator, lambda_operator
from qkahler.scalars import H_EQ_ONE, H_EQ_Q, HodgeMode, ONE, qint_signed
from qkahler.uqsl2 import (
    deformed_commutator, h_operator, k_operator, verify_lefschetz_identities,
)
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
            rep = verify_lefschetz_identities(n, mode)
            assert rep["all_hold"], rep
            names = [c["relation"] for c in rep["checks"]]
            assert any("[H,L]" in s for s in names)
            assert any("[L,Lambda]" in s for s in names)
            assert any("[H,Lambda]" in s for s in names)
            assert any("K L K^-1" in s for s in names)


def test_raising_commutator_identity_directly():
    # [H, L]_{h^-2} = H L - h^-2 L H = [2]_h L K
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            h = h_operator(n, mode)
            lop = l_operator(n)
            k = k_operator(n, mode)
            two = qint_signed(2, mode)
            lhs = deformed_commutator(h, lop, mode.h_power(-2))
            assert lhs == (lop @ k).scale(two)


def test_middle_commutator_is_h():
    for n in (1, 2, 3):
        for mode in (H_EQ_Q, H_EQ_ONE):
            lop = l_operator(n)
            lam = lambda_operator(n, mode)
            assert lop @ lam - lam @ lop == h_operator(n, mode)


def test_lowering_commutator_takes_the_adjoint_form():
    """[H, Lambda]_{h^2} equals -[2]_h Lambda K (= -h^2 [2]_h K Lambda);
    the K-on-the-left variant with a step-2 bracket only coincides when
    h^4 = 1, and the report is expected to say so."""
    for n in (1, 2):
        for mode in MODES:
            h = h_operator(n, mode)
            lam = lambda_operator(n, mode)
            k = k_operator(n, mode)
            two = qint_signed(2, mode)
            lhs = deformed_commutator(h, lam, mode.h_power(2))
            assert lhs == (lam @ k).scale(-two)
            assert lhs == (k @ lam).scale(-two * mode.h_power(2))
            literal = (k @ lam).scale(
                -(mode.h_power(2) + mode.h_power(-2)))
            assert (lhs == literal) == (mode.h_power(4) == ONE)


def test_literal_form_check_is_reported_with_expectations():
    for mode, should_match in ((H_EQ_Q, False), (H_EQ_ONE, True),
                               (NUMERIC, False)):
        rep = verify_lefschetz_identities(2, mode)
        lit = [c for c in rep["checks"] if c["relation"].startswith("literal")]
        assert len(lit) == 1
        assert lit[0]["expected"] == should_match
        assert lit[0]["holds"] == should_match
        if not should_match:
            assert lit[0]["witness"]


def test_group_like_relations():
    for n in (1, 2):
        for mode in MODES:
            rep = verify_lefschetz_identities(n, mode)
            byname = {c["relation"]: c for c in rep["checks"]}
            for name, c in byname.items():
                if not name.startswith("literal"):
                    assert c["holds"], name


def test_casimir_style_relation_at_generic_h():
    # [L, Lambda] = (K - K^-1)/(h - h^-1) away from h = 1
    for n in (1, 2):
        for mode in (H_EQ_Q, NUMERIC):
            lop = l_operator(n)
            lam = lambda_operator(n, mode)
            k = k_operator(n, mode)
            kinv = k_operator(n, mode, inverse=True)
            denom = mode.h_power(1) - mode.h_power(-1)
            lhs = lop @ lam - lam @ lop
            assert lhs == (k - kinv).scale(ONE / denom)


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
