"""Deformed sl2 action on the fiber: commutation identities and strings."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qkahler.fiber import FiberForm, basis_bidegree
from qkahler.hodge import l_operator, lambda_operator
from qkahler.lefschetz import L_power, primitive_basis
from qkahler.scalars import H_EQ_ONE, H_EQ_Q, HodgeMode, ONE, qint_signed
from qkahler.uqsl2 import (
    deformed_commutator, h_operator, k_operator, string_decomposition,
    string_inventory, verify_lefschetz_identities, verify_lowering_factors,
    verify_primitive_is_lambda_kernel, verify_string_basis,
)

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


def test_string_inventory_counts():
    want_lengths = {
        1: {2: 1, 1: 2},
        2: {3: 1, 2: 4, 1: 5},
    }
    for n, lengths in want_lengths.items():
        inv = string_inventory(n)
        assert inv["total_dimension"] == 4 ** n
        assert inv["spans_fiber"]
        got: dict = {}
        for s in inv["strings"]:
            got[s["length"]] = got.get(s["length"], 0) + 1
        assert got == lengths


def test_string_objects_are_genuine_strings():
    for n in (1, 2):
        for s in string_decomposition(n):
            k = sum(s.seed_bidegree)
            assert s.length == n - k + 1
            assert len(s.members) == s.length
            assert s.seed == s.members[0]
            seed = primitive_basis(n, *s.seed_bidegree)[s.seed_index]
            assert s.seed == seed
            for j, member in enumerate(s.members):
                assert member == L_power(seed, j)
            assert not L_power(seed, s.length)
            summary = s.summary()
            assert summary["length"] == s.length
            assert summary["seed_bidegree"] == list(s.seed_bidegree)


def test_string_reports():
    for n in (1, 2, 3):
        assert verify_string_basis(n)["all_full_rank"]
        for mode in (H_EQ_Q, H_EQ_ONE):
            assert verify_lowering_factors(n, mode)["all_hold"]
            rep = verify_primitive_is_lambda_kernel(n, mode)
            assert rep["all_match"]
            for row in rep["degrees"]:
                assert row["match"]
                assert row["lambda_kernel_dim"] == row["primitive_dim"]


def test_strings_are_frozen():
    s = string_decomposition(1)[0]
    with pytest.raises(Exception):
        s.length = 5
