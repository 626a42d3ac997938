"""End-to-end verification suites: structure, notes, zero failures."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path

import pytest

import oracles
from qkahler import cli, lefschetz, linalg, uqsl2, verify
from qkahler.fiber import FiberForm, basis_bidegree
from qkahler.hodge import GradedOperator
from qkahler.lefschetz import L_power, primitive_basis, string_columns, to_coords
from qkahler.scalars import (
    H_EQ_ONE, H_EQ_Q, HodgeMode, I, ONE, Q, ZERO, i_power, qfact,
    render_scalar,
)
from qkahler.verify import DEFAULT_Q_SAMPLES, SUITES, run_suites

from oracles import (
    adjoint_defect, combination_defect, compose, conjugate, diagonal,
    level_rescaling_failure, operator_relations, scale, shift_relation_defect,
    verify_lefschetz_iso,
)

MODES = (H_EQ_Q, H_EQ_ONE, HodgeMode.numeric(Fraction(9, 10)))
TESTS = Path(__file__).parent


def test_every_suite_passes_for_small_ranks():
    for n in (1, 2):
        for mode in MODES:
            entries, failures = run_suites("all", n, mode)
            assert failures == [], failures
            assert {e["suite"] for e in entries} == set(SUITES)
            for entry in entries:
                assert entry["status"] in ("pass", "note")
                assert entry["name"]


def test_suite_selection_and_order():
    entries, failures = run_suites(["hodge", "relations"], 1, H_EQ_Q)
    assert not failures
    suites_seen = [e["suite"] for e in entries]
    assert set(suites_seen) == {"hodge", "relations"}
    # hodge entries come before relations entries, in request order
    assert suites_seen.index("relations") > suites_seen.index("hodge")
    assert suites_seen == sorted(suites_seen,
                                 key=["hodge", "relations"].index)
    with pytest.raises(KeyError):
        run_suites(["nonsense"], 1, H_EQ_Q)


def test_default_q_samples():
    assert tuple(str(Fraction(s)) for s in DEFAULT_Q_SAMPLES) == \
        ("9/10", "1", "11/10")


def test_flag_note_for_the_rank1_holomorphic_norm():
    entries, _ = run_suites(["metric"], 1, H_EQ_Q)
    notes = [e for e in entries if e["status"] == "note"]
    assert any("q^4" in e.get("detail", "") and "rejected" in e["detail"]
               for e in notes)


def test_factorial_constant_note_in_metric_suite():
    entries, _ = run_suites(["metric"], 2, H_EQ_Q)
    notes = [e for e in entries if e["status"] == "note"]
    assert any("binomial" in e.get("detail", "") for e in notes)
    # the law itself must also be checked and pass
    law = [e for e in entries if "L^j" in e["name"]]
    assert law and all(e["status"] == "pass" for e in law)


def test_identity_suite_carries_convention_notes():
    entries, _ = run_suites(["lids"], 2, H_EQ_Q)
    notes = [e for e in entries if e["status"] == "note"]
    assert any("adjoint" in e.get("detail", "").lower() for e in notes)
    literal = [e for e in entries if "literal" in e["name"]]
    assert len(literal) == 1
    assert literal[0]["status"] == "pass"  # expected-to-differ, and it did


def test_posdef_suite_emits_certificates_per_sample():
    entries, failures = run_suites(["posdef"], 2, H_EQ_Q)
    assert not failures
    passed = [e for e in entries if e["status"] == "pass"]
    for s in ("9/10", "1", "11/10"):
        assert any(s in e["name"] for e in passed)


def test_posdef_suite_certifies_the_requested_mode(monkeypatch):
    asked = set()
    real_gram = verify.gram

    def recording_gram(n, a, b, mode):
        asked.add(mode)
        return real_gram(n, a, b, mode)

    monkeypatch.setattr(verify, "gram", recording_gram)
    for mode in MODES:
        asked.clear()
        _, failures = run_suites(["posdef"], 2, mode)
        assert not failures
        assert asked == {mode}


def test_posdef_witness_names_the_first_failing_block(monkeypatch):
    real_certify = verify.certify_posdef

    def reject_2x2(block, q0):
        cert = real_certify(block, q0)
        if len(block.rows) != 2:
            return cert
        return dataclasses.replace(cert, positive_definite=False,
                                   reason="rejected")

    # At n = 2 the 2x2 blocks are (0,1), (1,0), (1,2) and (2,1).
    monkeypatch.setattr(verify, "certify_posdef", reject_2x2)
    entries, failures = run_suites(["posdef"], 2, H_EQ_Q)
    assert len(failures) == len(entries) == len(DEFAULT_Q_SAMPLES)
    for entry, q0 in zip(entries, DEFAULT_Q_SAMPLES):
        assert entry["status"] == "fail"
        assert entry["witness"] == {"bidegree": [0, 1], "q0": q0,
                                    "reason": "rejected"}


def test_cp1_suite_reports_the_eigenvalue():
    entries, failures = run_suites(["cp1-laplacian"], 1, H_EQ_Q)
    assert not failures
    assert any("q^2 + 1" in e.get("detail", "") for e in entries)


def test_strings_suite_cross_level_orthogonality():
    entries, failures = run_suites(["strings"], 2, H_EQ_Q)
    assert not failures
    names = [e["name"] for e in entries]
    assert any("level" in s for s in names)


def _strings_report_with_first_seed(seed, suite="strings"):
    """Exit code and {name: entry} of `verify -n 2 --suite <suite> --json`
    run in a fresh interpreter where, before any cache is built, the first
    (1,1) seed is replaced by the expression seed of `seeds` and `kappa`.
    The string basis, the Hodge blocks and Lambda are then built from it."""
    script = textwrap.dedent(f"""
        from qkahler import cli, lefschetz, verify
        from qkahler.lefschetz import kappa

        true = lefschetz.primitive_basis

        def patched(n, a, b):
            seeds = true(n, a, b)
            if (a, b) != (1, 1):
                return seeds
            return ({seed},) + seeds[1:]

        lefschetz.primitive_basis = verify.primitive_basis = patched
        raise SystemExit(cli.main(["verify", "-n", "2", "--suite", {suite!r},
                                   "--json"]))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert not proc.stderr
    doc = json.loads(proc.stdout)
    return proc.returncode, {e["name"]: e for e in doc["results"]["results"]}


def test_strings_suite_names_a_seed_that_is_not_primitive():
    """seed + kappa keeps the string basis a basis, but L does not kill
    its one-member string: the seed entry names the raising identity at
    (1,1)."""
    code, entries = _strings_report_with_first_seed("seeds[0] + kappa(n)")
    assert code == 1
    assert entries[KILLED]["status"] == "fail"
    assert entries[KILLED]["witness"] == {
        "premise": RAISING, "bidegree": [1, 1]}


def test_singular_string_basis_fails_its_entries_without_building_lambda():
    """kappa alone as a seed repeats L(1), so the string basis is singular
    at (1,1).  Lambda's Hodge blocks would invert it; instead the lowering
    identity and the entries derived from the basis name that premise, and
    the command prints its report and exits 1."""
    code, entries = _strings_report_with_first_seed("kappa(n)")
    assert code == 1
    assert entries[BASIS]["witness"] == {"bidegree": [1, 1]}
    named = {"premise": BASIS, "bidegree": [1, 1]}
    assert {name: e["witness"] for name, e in entries.items()
            if e["status"] == "fail" and name != BASIS} == {
        LOWERING: named, KILLED: named, KERNEL: named, ISO: named,
        LEVELS: named}


def test_singular_string_basis_fails_the_lids_entries_without_a_hodge_block():
    """With the same singular basis the lids suite solves no Hodge block
    from it: every relation and the adjoint of L name the basis premise,
    which each lists first, and the command exits 1.  The literal form is
    expected to differ for h != 1, but only as derived from its premises,
    so it fails on the basis too; H and K read only their weights."""
    code, entries = _strings_report_with_first_seed("kappa(n)", "lids")
    assert code == 1
    named = {"premise": BASIS, "bidegree": [1, 1]}
    assert {name: e["witness"] for name, e in entries.items()
            if e["status"] == "fail"} == dict.fromkeys(
        (HL, LLAM, HLAM, KK, KL, KLAM, LITERAL, CASIMIR, ADJ_L), named)


@pytest.mark.parametrize("suite, passing", [
    ("hodge", set()),
    ("metric", {"top-degree wedge pairing is nondegenerate"}),
    ("posdef", set()),
])
def test_singular_string_basis_fails_the_block_entries_without_a_block(
        suite, passing):
    """With the same singular basis every entry that reads a Hodge or Gram
    block fails on the basis premise, and the command exits 1 rather than
    crashing on a block solved from that basis.  Only the Serre pairing,
    which reads no Hodge block, is still checked."""
    code, entries = _strings_report_with_first_seed("kappa(n)", suite)
    assert code == 1
    named = {"premise": BASIS, "bidegree": [1, 1]}
    checked = {name: e for name, e in entries.items() if e["status"] != "note"}
    assert {name for name, e in checked.items()
            if e["status"] == "pass"} == passing
    assert len(checked) > len(passing)
    assert all(e["witness"] == named for name, e in checked.items()
               if name not in passing)


# ---------------------------------------------------------------------------
# faults: each identity entry fails when one operator is wrong
# ---------------------------------------------------------------------------

# the package exports a function named hodge, which hides the module
hodge = importlib.import_module("qkahler.hodge")


def _with_block(op, src, change):
    """op with its block at src replaced by change(rows), rows as lists."""
    blocks = dict(op.blocks)
    tgt, mat = blocks[src]
    rows = [list(r) for r in mat.rows]
    change(rows)
    blocks[src] = (tgt, linalg.ScalarMatrix(rows))
    return GradedOperator(op.n, blocks)


def _negate(rows):
    rows[:] = [[-x for x in r] for r in rows]


def _times(c):
    def change(rows):
        i, j = next((i, j) for i, r in enumerate(rows)
                    for j, x in enumerate(r) if x)
        rows[i][j] = rows[i][j] * c
    return change


def _hodge_sign_fault(monkeypatch):
    true = hodge.hodge_operator

    def faulted(n, mode=H_EQ_Q):
        return _with_block(true(n, mode), (1, 0), _negate)

    monkeypatch.setattr(hodge, "hodge_operator", faulted)
    monkeypatch.setattr(verify, "hodge_operator", faulted)


def _l_entry_fault(monkeypatch):
    true = hodge.l_operator

    def faulted(n):
        return _with_block(true(n), (0, 0), _times(Q))

    monkeypatch.setattr(verify, "l_operator", faulted)


def _gram_entry_fault(monkeypatch):
    true = hodge.gram

    def faulted(n, a, b, mode=H_EQ_Q):
        g = true(n, a, b, mode)
        if (a, b) != (1, 0):
            return g
        rows = [list(r) for r in g.rows]
        rows[0][0] = rows[0][0] + ONE
        return linalg.ScalarMatrix(rows)

    monkeypatch.setattr(hodge, "gram", faulted)
    monkeypatch.setattr(verify, "gram", faulted)


def _lambda_entry_fault(src):
    """Lambda's block at src with its first nonzero entry times q.  No
    suite builds Lambda, so only `lambda_apply` and the tests see it."""
    def install(monkeypatch):
        true = hodge.lambda_operator

        def faulted(n, mode=H_EQ_Q):
            return _with_block(true(n, mode), src, _times(Q))

        monkeypatch.setattr(hodge, "lambda_operator", faulted)
    return install


def _bump_first_nonzero(mat):
    """mat with its first nonzero entry, by row then column, plus one."""
    rows = [list(r) for r in mat.rows]
    i, j = next((i, j) for i, r in enumerate(rows)
                for j, x in enumerate(r) if x)
    rows[i][j] = rows[i][j] + ONE
    return linalg.ScalarMatrix(rows)


def _serre_entry_fault(monkeypatch):
    true = hodge.serre_pairing

    def faulted(n, a, b):
        p = true(n, a, b)
        return _bump_first_nonzero(p) if (a, b) == (1, 0) else p

    monkeypatch.setattr(hodge, "serre_pairing", faulted)
    monkeypatch.setattr(verify, "serre_pairing", faulted)


def _star_entry_fault(monkeypatch):
    true = hodge.star_matrix

    def faulted(n, a, b):
        s = true(n, a, b)
        return _bump_first_nonzero(s) if (a, b) == (1, 0) else s

    monkeypatch.setattr(hodge, "star_matrix", faulted)
    monkeypatch.setattr(verify, "star_matrix", faulted)


def _h_eigenvalue_fault(monkeypatch):
    """H's weight on the seed of the strings of length 3 times i: at n = 2
    that is H on degree 0."""
    true = uqsl2.h_weight

    def faulted(m, j, mode=H_EQ_Q):
        w = true(m, j, mode)
        return w * I if (m, j) == (2, 0) else w

    monkeypatch.setattr(uqsl2, "h_weight", faulted)
    monkeypatch.setattr(verify, "h_weight", faulted)


def _k_eigenvalue_fault(monkeypatch):
    """K's weight on the middle member of every odd-length string times i,
    K^-1 unchanged: at n = 2 that is K on degree 2."""
    true = uqsl2.k_weight

    def faulted(m, j, mode=H_EQ_Q, inverse=False):
        w = true(m, j, mode, inverse)
        return w * I if not inverse and 2 * j == m else w

    monkeypatch.setattr(uqsl2, "k_weight", faulted)
    monkeypatch.setattr(verify, "k_weight", faulted)


def _hodge_entry_fault(monkeypatch):
    """The first nonzero entry of the Hodge block of (1,0) plus one."""
    true = hodge.hodge_operator

    def faulted(n, mode=H_EQ_Q):
        op = true(n, mode)
        blocks = dict(op.blocks)
        tgt, mat = blocks[1, 0]
        blocks[1, 0] = (tgt, _bump_first_nonzero(mat))
        return GradedOperator(n, blocks)

    monkeypatch.setattr(hodge, "hodge_operator", faulted)
    monkeypatch.setattr(verify, "hodge_operator", faulted)


def _qint_fault(monkeypatch):
    """[2]_h plus one, as the sl2 module and the lowering factors read it;
    the Hodge factors' q-factorials keep the true [2]_h."""
    true = uqsl2.qint

    def faulted(m, mode=H_EQ_Q):
        return true(m, mode) + ONE if m == 2 else true(m, mode)

    monkeypatch.setattr(uqsl2, "qint", faulted)
    monkeypatch.setattr(lefschetz, "qint", faulted)


SQUARE = "square is (-1)^degree"
STAR = "commutes with star on the basis"
UNITARY = "unitary for the fiber metric, blockwise"
HL = "[H,L]_{h^-2} = [2]_h L K"
LLAM = "[L,Lambda] = H"
HLAM = "[H,Lambda]_{h^2} = -[2]_h Lambda K"
KK = "K K^-1 = id"
KL = "K L K^-1 = h^2 L"
KLAM = "K Lambda K^-1 = h^-2 Lambda"
LITERAL = "literal form -[2]_{h^2} K Lambda (expected to differ for h != 1)"
CASIMIR = "[L,Lambda] = (K - K^-1)/(h - h^-1)"
ADJ_L = "adjoint of L is the dual Lefschetz operator"
ADJ_H = "H is self-adjoint"
ADJ_K = "K is self-adjoint"
# premises that appear only in the witnesses of the derived entries
H_SERRE = "H is (-1)^k-symmetric for the Serre pairing"
L_SERRE = "L is symmetric for the Serre pairing"
L_STAR = "L commutes with star"
HODGE_STRINGS = verify.HODGE_STRINGS
LOWERING_FACTORS = verify.LOWERING_FACTORS


@pytest.fixture
def clear_premises():
    """A call that empties the one premise cache, made again after the
    test: a fault installed after a clean run is then checked, and its
    premise results are not kept for later tests."""
    clear = verify._premise.cache_clear
    yield clear
    clear()


# Each sl2 relation rests on the string basis, on raising if it holds L or
# Lambda, and on H . S = C and the lowering factors if it holds Lambda, so
# a fault in L or in the Hodge blocks fails the relations that hold them,
# naming that premise, and a fault in the H or K weights fails the
# relations that hold H or K.  No suite reads Lambda, so a fault in Lambda
# fails nothing; the direct tests of tests/test_uqsl2.py catch it
# (`test_direct_relation_tests_catch_a_lambda_fault`).  UNITARY and ADJ_L
# are derived from the square's premises and from block premises on H, L,
# the Serre pairing and the star matrices, and read no Gram block: a fault
# in one of those fails them, a fault in `gram` does not.  The qint fault
# moves [2]_h as the sl2 module reads it: [H,L] fails its own identity, and
# the relations that hold Lambda fail the lowering factors.  The literal
# form, expected to differ for h != 1, fails in hq too when a premise of
# its relation fails: the difference is then no longer derived.
FAULTS = [
    (_hodge_sign_fault, H_EQ_Q,
     {SQUARE, STAR, UNITARY, ADJ_L, "rank-2 table: *(e+[1])",
      "rank-2 table: *(e+[2])", LLAM, HLAM, KLAM, LITERAL, CASIMIR}),
    (_l_entry_fault, H_EQ_Q,
     {HL, LLAM, HLAM, KL, KLAM, LITERAL, CASIMIR, ADJ_L}),
    (_gram_entry_fault, H_EQ_Q, set()),
    (_h_eigenvalue_fault, H_EQ_Q, {HL, LLAM, HLAM, ADJ_H}),
    (_h_eigenvalue_fault, H_EQ_ONE, {HL, LLAM, HLAM, LITERAL, ADJ_H}),
    (_k_eigenvalue_fault, H_EQ_Q,
     {HL, HLAM, KK, KL, KLAM, CASIMIR, ADJ_K}),
    (_serre_entry_fault, H_EQ_Q, {UNITARY, ADJ_L}),
    (_serre_entry_fault, H_EQ_ONE, {UNITARY, ADJ_L}),
    (_star_entry_fault, H_EQ_Q, {STAR, UNITARY, ADJ_L}),
    (_l_entry_fault, H_EQ_ONE, {HL, LLAM, HLAM, KL, KLAM, LITERAL, ADJ_L}),
    (_lambda_entry_fault((1, 1)), H_EQ_Q, set()),
    (_hodge_entry_fault, H_EQ_Q,
     {SQUARE, STAR, UNITARY, ADJ_L, "rank-2 table: *(e+[2])", LLAM, HLAM,
      KLAM, LITERAL, CASIMIR}),
    (_qint_fault, H_EQ_Q, {HL, LLAM, HLAM, KLAM, LITERAL, CASIMIR}),
    (_qint_fault, H_EQ_ONE, {HL, LLAM, HLAM, KLAM, LITERAL}),
]


def _first_entry(blocks):
    """The witness of the first nonzero entry of {(src, tgt): matrix}, by
    source, target, row and column, else None."""
    for (src, tgt), mat in sorted(blocks.items()):
        for r, row in enumerate(mat.rows):
            for c, x in enumerate(row):
                if x:
                    return {"bidegree": list(src), "target": list(tgt),
                            "row": r, "col": c, "defect": render_scalar(x)}
    return None


def _sum(x, y):
    """Entrywise sum of two matrices of one shape."""
    return linalg.ScalarMatrix([[a + b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(x.rows, y.rows)],
                               ncols=x.ncols)


def _canonical_defect(terms):
    """The first nonzero entry of the sum of c . X1 ... Xr over the terms,
    every chain multiplied out canonically and summed per (src, tgt)."""
    blocks = {}
    for c, factors in terms:
        op = scale(reduce(compose, factors), c)
        for src, (tgt, mat) in op.blocks.items():
            old = blocks.get((src, tgt))
            blocks[src, tgt] = mat if old is None else _sum(old, mat)
    return _first_entry(blocks)


def _canonical_premise_failure(premises):
    """{"premise": name} with the witness of the first failing premise."""
    return next(({"premise": name, **wit} for name, wit in premises
                 if wit is not None), None)


def _canonical_string_premises(n, mode):
    """{name: witness} of the premises on the string basis, each from
    canonical products: the L and H blocks times the string basis against
    the image of each member built form by form, and the factor identities
    from the formula for c_j."""
    def c(seed, j):
        kp = sum(seed)
        return ((-ONE if kp * (kp + 1) // 2 % 2 else ONE)
                * i_power(seed[0] - seed[1]) * qfact(j, mode)
                / qfact(n - kp - j, mode))

    def sign(seed):
        return -ONE if sum(seed) % 2 else ONE

    def images(a, b, tgt, move):
        basis = basis_bidegree(n, *tgt)
        cols = []
        for j, seed, idx, _ in string_columns(n, a, b):
            jp, f = move(j, seed)
            form = (L_power(primitive_basis(n, *seed)[idx], jp).scale(f)
                    if jp <= n - sum(seed) else FiberForm.zero(n))
            cols.append(to_coords(form, basis))
        return linalg.ScalarMatrix.from_columns(cols, len(basis))

    def first_block(op, sources, target, move):
        return next(({"bidegree": [a, b]} for a, b in sources
                     if op.blocks[a, b][1] @ verify.string_basis_matrix(n, a, b)
                     != images(a, b, target(a, b), move)), None)

    def first_factor(holds):
        return next(({"bidegree": [k - b, b], "level": j}
                     for k in range(n + 1) for b in range(k + 1)
                     for j in range(n - k + 1)
                     if not holds((k - b, b), n - k, j)), None)

    every = list(product(range(n + 1), repeat=2))
    return {
        verify.BASIS: next(({"bidegree": [a, b]} for a, b in every
                            if linalg.rank(verify.string_basis_matrix(n, a, b))
                            != len(basis_bidegree(n, a, b))), None),
        verify.RAISING: first_block(
            verify.l_operator(n), product(range(n), repeat=2),
            lambda a, b: (a + 1, b + 1), lambda j, seed: (j + 1, ONE)),
        HODGE_STRINGS: first_block(
            verify.hodge_operator(n, mode), every, lambda a, b: (n - b, n - a),
            lambda j, seed: (n - sum(seed) - j, c(seed, j))),
        verify.SQUARE_FACTORS: first_factor(
            lambda seed, m, j: c(seed, j) * c(seed, m - j) == sign(seed)),
        LOWERING_FACTORS: first_factor(lambda seed, m, j: j == 0 or (
            sign(seed) * c(seed, j) * c(seed, m - j + 1)
            == lefschetz.qint(j, mode) * lefschetz.qint(m - j + 1, mode))),
    }


def _canonical_weight_failure(n, weight):
    """The first degree k where weight(m, j) differs between two string
    members of degree k, or is not real, read member by member."""
    for k in range(2 * n + 1):
        lams = [weight(n - sum(seed), j)
                for b in range(k + 1) if k - b <= n and b <= n
                for j, seed, _, _ in string_columns(n, k - b, b)]
        if any(x != lams[0] or x != x.conjugate() for x in lams):
            return {"degree": k}
    return None


def _canonical_witnesses(n, mode):
    """The witness of every hodge and lids identity entry, from lhs - rhs
    built as canonical operators or dense shift matrices out of what the
    suites read, a derived entry's from its canonical premises."""
    strings = _canonical_string_premises(n, mode)

    def premises(*names):
        return [(name, strings[name]) for name in names]

    sign = diagonal(n, lambda a, b: -ONE if (a + b) % 2 else ONE)
    star_op = verify.hodge_operator(n, mode)
    star = GradedOperator(n, {(a, b): ((b, a), verify.star_matrix(n, a, b))
                              for a in range(n + 1) for b in range(n + 1)})
    l_op = verify.l_operator(n)
    out = {
        STAR: _canonical_defect([(ONE, [star_op, star]),
                                 (-ONE, [star, conjugate(star_op)])]),
        L_STAR: _canonical_defect([(ONE, [l_op, star]),
                                   (-ONE, [star, conjugate(l_op)])]),
    }
    relations, _ = uqsl2.sl2_relations(n, mode)
    for name, terms, _ in relations:
        out[name] = (_canonical_premise_failure(
            premises(*verify._relation_premises(terms)))
            or shift_relation_defect(n, terms))
    p = verify.serre_pairing
    out[H_SERRE] = _first_entry({
        (src, tgt): _sum(mat.transpose() @ p(n, *tgt),
                         -p(n, *src).scale(sign.blocks[src][1].rows[0][0])
                         @ star_op.blocks[src[::-1]][1])
        for src, (tgt, mat) in star_op.blocks.items()})
    lower = {src: mat for src, (_, mat) in l_op.blocks.items()}
    out[L_SERRE] = _first_entry({
        ((a, b), (a + 1, b + 1)): _sum(
            lower[a, b].transpose() @ p(n, a + 1, b + 1),
            -p(n, a, b) @ lower[n - a - 1, n - b - 1])
        for a, b in product(range(n), repeat=2)})
    square = premises(*verify.SQUARE_PREMISES)
    out[SQUARE] = _canonical_premise_failure(square)
    unitary = square + [(name, out[name]) for name in (STAR, H_SERRE)]
    out[UNITARY] = _canonical_premise_failure(unitary)
    out[ADJ_L] = _canonical_premise_failure(
        unitary + [(name, out[name]) for name in (L_SERRE, L_STAR)])
    out[ADJ_H] = _canonical_weight_failure(
        n, lambda m, j: uqsl2.h_weight(m, j, mode))
    out[ADJ_K] = _canonical_weight_failure(
        n, lambda m, j: uqsl2.k_weight(m, j, mode))
    return out


@pytest.mark.parametrize("fault, mode, failing", FAULTS)
def test_each_identity_entry_fails_under_its_fault(monkeypatch, clear_premises,
                                                   fault, mode, failing):
    """Under each fault exactly the listed hodge and lids entries fail, and
    each identity entry names the first nonzero entry of lhs - rhs built
    canonically, a derived entry with its first failing premise; the
    rank-2 tables carry no witness."""
    n = 2
    entries, failures = run_suites(["hodge", "lids"], n, mode)
    assert not failures
    fault(monkeypatch)
    clear_premises()
    entries, failures = run_suites(["hodge", "lids"], n, mode)
    assert {e["name"] for e in failures} == failing
    witnesses = _canonical_witnesses(n, mode)
    for e in failures:
        want = witnesses.get(e["name"])
        assert want is not None or e["name"].startswith("rank-2 table")
        assert e.get("witness") == want, e["name"]


# Each fault bumps one entry of one block that the premises read.  The
# derived entries name the first premise it breaks, in the order basis,
# H . S = C, square factors, star commutation, the Serre symmetry of H,
# then the two premises on L; the last column is the set of the block
# premises, the Serre and star laws applied to H and to L, that fail.
BLOCK_PREMISES = (STAR, H_SERRE, L_SERRE, L_STAR)
PREMISE_FAULTS = [
    (_serre_entry_fault, {UNITARY: H_SERRE, ADJ_L: H_SERRE},
     {H_SERRE, L_SERRE}),
    (_l_entry_fault, {ADJ_L: L_SERRE}, {L_SERRE}),
    (_star_entry_fault, {UNITARY: STAR, ADJ_L: STAR}, {STAR, L_STAR}),
    (_hodge_entry_fault, {SQUARE: HODGE_STRINGS, UNITARY: HODGE_STRINGS,
                          ADJ_L: HODGE_STRINGS}, {STAR, H_SERRE}),
]


@pytest.mark.parametrize("fault, derived, block, mode", [
    pytest.param(*row, mode, id=name + suffix)
    for row, name in zip(PREMISE_FAULTS, ["serre-block-1-0", "l-block-0-0",
                                          "star-block-1-0", "hodge-block-1-0"])
    for mode, suffix in ((H_EQ_Q, ""), (H_EQ_ONE, "-h1"))])
def test_derived_entries_name_the_premise_a_fault_breaks(
        monkeypatch, clear_premises, fault, derived, block, mode):
    """Each block premise's witness is the first nonzero entry of its lhs -
    rhs built canonically, so the Serre law's sign is checked in both
    modes."""
    n = 2
    fault(monkeypatch)
    clear_premises()
    _, failures = run_suites(["hodge", "lids"], n, mode)
    assert {e["name"]: e["witness"]["premise"] for e in failures
            if e["name"] in (SQUARE, UNITARY, ADJ_L)} == derived
    got = {name: verify._premise(name, n, mode) for name in BLOCK_PREMISES}
    assert {name for name, wit in got.items() if wit is not None} == block
    witnesses = _canonical_witnesses(n, mode)
    assert got == {name: witnesses[name] for name in BLOCK_PREMISES}


def test_each_premise_is_evaluated_once_per_rank_or_per_mode(
        monkeypatch, clear_premises):
    """With every check of the table counted: the hodge suite alone at n = 3
    evaluates neither raising nor the lowering factors, and `--suite all`
    in hq and then h1, in one process, evaluates each mode-free premise
    once in total and each other premise once per mode."""
    calls = {}

    def counting(name, check):
        def counted(n, mode):
            calls[name, mode] = calls.get((name, mode), 0) + 1
            return check(n, mode)
        return counted

    for name, check in list(verify.PREMISES.items()):
        monkeypatch.setitem(verify.PREMISES, name, counting(name, check))
    clear_premises()
    assert run_suites(["hodge"], 3, H_EQ_Q)[1] == []
    assert calls and not {name for name, _ in calls} & {
        verify.RAISING, verify.LOWERING_FACTORS}
    for mode in (H_EQ_Q, H_EQ_ONE):
        assert run_suites("all", 3, mode)[1] == []
    assert calls == {
        **{(name, None): 1 for name in verify.MODE_FREE},
        **{(name, mode): 1 for name in verify.PREMISES
           if name not in verify.MODE_FREE for mode in (H_EQ_Q, H_EQ_ONE)}}


def _weight_operator(n, weight):
    """The diagonal operator of a degree weight: on degree k, weight(m, j)
    of the member L^j of degree k on the longest string through k, whose
    seed has degree k mod 2."""
    return diagonal(n, lambda a, b: weight(n - (a + b) % 2, (a + b) // 2))


def _adjoint_claims(n, mode):
    """The (entry, op, other) of each entry that claims `other` is the
    metric adjoint of `op`, read through the names the suites read."""
    star_op = verify.hodge_operator(n, mode)
    sign = diagonal(n, lambda a, b: -ONE if (a + b) % 2 else ONE)
    h_op = _weight_operator(n, lambda m, j: verify.h_weight(m, j, mode))
    k_op = _weight_operator(n, lambda m, j: verify.k_weight(m, j, mode))
    return [(UNITARY, star_op, compose(star_op, sign)),
            (ADJ_L, verify.l_operator(n), hodge.lambda_operator(n, mode)),
            (ADJ_H, h_op, h_op), (ADJ_K, k_op, k_op)]


@pytest.mark.parametrize("mode", [H_EQ_Q, H_EQ_ONE], ids=["hq", "h1"])
def test_direct_adjoint_check_accepts_where_the_derived_entries_pass(mode):
    """At n <= 4 the direct block check M^T . G_tgt = G_src . conj(W) of
    tests/oracles.py accepts each adjoint claim, and each derived entry
    passes.  This is necessary for the derivation, not a proof of it: the
    derivation also rests on G = P . H . S and Lambda = H^-1 . L . H,
    which test_hodge checks at one point only."""
    for n in range(1, 5):
        status = {e["name"]: e["status"]
                  for e in run_suites(["hodge", "lids"], n, mode)[0]}
        for name, op, other in _adjoint_claims(n, mode):
            assert adjoint_defect(op, other, mode) is None, (n, name)
            assert status[name] == "pass", (n, name)


@pytest.mark.parametrize("fault, name", [
    (_hodge_sign_fault, UNITARY), (_l_entry_fault, ADJ_L),
    (_h_eigenvalue_fault, ADJ_H), (_k_eigenvalue_fault, ADJ_K),
], ids=["hodge", "l", "h", "k"])
def test_direct_adjoint_check_rejects_where_a_fault_fails_the_derived_entry(
        monkeypatch, clear_premises, fault, name):
    """At n = 2, under a fault in the operator a claim is about, the direct
    block check rejects the claim and the derived entry fails.  A necessary
    check, not a proof: one fault per claim, at one rank."""
    n = 2
    fault(monkeypatch)
    clear_premises()
    (_, op, other), = [c for c in _adjoint_claims(n, H_EQ_Q) if c[0] == name]
    assert adjoint_defect(op, other, H_EQ_Q) is not None
    entry, = [e for e in run_suites(["hodge", "lids"], n, H_EQ_Q)[0]
              if e["name"] == name]
    assert entry["status"] == "fail"


def test_direct_relation_tests_catch_a_lambda_fault(monkeypatch,
                                                    clear_premises):
    """Lambda's (1,1) block with one entry times q fails no entry of the
    hodge, lids or strings suites at n = 2, which never build Lambda.  The
    direct tests see it: [L,Lambda] = H and its K form fail on the
    operators, and the direct adjoint check rejects Lambda as the adjoint
    of L."""
    n = 2
    _lambda_entry_fault((1, 1))(monkeypatch)
    clear_premises()
    assert run_suites(["hodge", "lids", "strings"], n, H_EQ_Q)[1] == []
    lam = hodge.lambda_operator(n, H_EQ_Q)
    terms = operator_relations(n, H_EQ_Q, lam)
    relations, _ = uqsl2.sl2_relations(n, H_EQ_Q)
    assert {name for name, _, expected in relations
            if (combination_defect(terms[name]) is None) != expected} == \
        {LLAM, CASIMIR}
    assert adjoint_defect(verify.l_operator(n), lam, H_EQ_Q) is not None


def _recorded_n3_digest(mode):
    """The recorded sha256 of `verify -n 3 --suite all --mode <mode> --json`."""
    if mode == "hq":
        reference = TESTS.parent / "perfbench" / "reference" / "verify-n3-hq.json"
        return json.loads(reference.read_text())["sha256"]
    name = "verify-n3-h1" if mode == "h1" else "verify-n3-numeric"
    return (TESTS / "golden" / f"{name}.sha256").read_text().split()[0]


def _refused_n3_run(mode, refused):
    """[exit code, sha256 of the JSON, products with a Hodge block on both
    sides, products with a Gram block as a factor, whether any product was
    formed] of `verify -n 3 --suite all --mode <mode> --json`, run in a fresh
    interpreter with each `module.name` of refused patched to raise and
    every block product recorded."""
    script = textwrap.dedent(f"""
        import contextlib, hashlib, io, json, sys
        from qkahler import cli, linalg
        from qkahler.cli import parse_mode

        hodge = sys.modules["qkahler.hodge"]

        def refuse(*args):
            raise AssertionError("a refused function was called")

        for target in {refused!r}:
            module, name = target.rsplit(".", 1)
            setattr(sys.modules["qkahler." + module], name, refuse)
        pairs = []
        product_pairs, matmul = linalg.product_pairs, linalg.ScalarMatrix.__matmul__

        def recording_pairs(products):
            pairs.extend(products)
            return product_pairs(products)

        def recording_matmul(x, y):
            pairs.append((x, y))
            return matmul(x, y)

        linalg.product_pairs = recording_pairs
        linalg.ScalarMatrix.__matmul__ = recording_matmul
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "-n", "3", "--suite", "all", "--mode",
                           {mode!r}, "--json"])
        mode = parse_mode({mode!r})
        blocks = {{id(hodge.hodge_block(3, a, b, mode))
                   for a in range(4) for b in range(4)}}
        grams = {{id(hodge.gram(3, a, b, mode))
                  for a in range(4) for b in range(4)}}
        print(json.dumps([
            rc, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            sum(id(x) in blocks and id(y) in blocks for x, y in pairs),
            sum(id(x) in grams or id(y) in grams for x, y in pairs),
            len(pairs) > 0]))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("mode", ["hq", "h1", "numeric:9/10:7/8"])
def test_no_suite_builds_lambda_or_multiplies_two_hodge_blocks(mode):
    """In a fresh interpreter, with `lambda_operator` patched to raise and
    every block product recorded, `verify -n 3 --suite all` exits 0, its
    JSON has the recorded digest of the unpatched command, and no product
    has a Hodge block on both sides."""
    rc, digest, both, _, formed = _refused_n3_run(
        mode, ["hodge.lambda_operator"])
    assert [rc, digest, both, formed] == [0, _recorded_n3_digest(mode), 0, True]


@pytest.mark.parametrize("mode", ["hq", "h1"])
def test_no_suite_takes_a_hodge_image_or_a_product_with_a_gram_block(mode):
    """In a fresh interpreter, with `verify.hodge` patched to raise and every
    block product recorded, `verify -n 3 --suite all` exits 0 with the
    recorded digest of the unpatched command, and no product has a Gram
    block as a factor: the grading entries read the Hodge block targets and
    the star cache, and the rescaling entry forms no S_j^T . G."""
    rc, digest, _, with_gram, formed = _refused_n3_run(mode, ["verify.hodge"])
    assert [rc, digest, with_gram, formed] == [
        0, _recorded_n3_digest(mode), 0, True]


@pytest.mark.parametrize("mode", ["hq", "h1"])
def test_hodge_and_lids_suites_read_no_gram_block(mode):
    """In a fresh interpreter, with `gram` patched to raise, `--suite lids`
    alone and then the hodge and lids suites pass at n = 3.  The strings
    suite then passes too with `verify.hodge` and `hodge.vol` also patched
    to raise: it takes no Hodge image of a form and no volume beyond the
    Serre blocks the lids suite built.  With all three restored, `--suite
    all` reports the same lids entries."""
    script = textwrap.dedent(f"""
        import json
        import sys
        from qkahler import verify
        from qkahler.cli import parse_mode

        hodge = sys.modules["qkahler.hodge"]
        mode = parse_mode({mode!r})
        real = hodge.gram

        def refuse(*args):
            raise AssertionError("a refused function was called")

        hodge.gram = verify.gram = refuse
        alone, alone_failures = verify.run_suites(["lids"], 3, mode)
        _, failures = verify.run_suites(["hodge", "lids"], 3, mode)
        image, vol = verify.hodge, hodge.vol
        verify.hodge = hodge.vol = refuse
        _, strings_failures = verify.run_suites(["strings"], 3, mode)
        hodge.gram = verify.gram = real
        verify.hodge, hodge.vol = image, vol
        every = [e for e in verify.run_suites("all", 3, mode)[0]
                 if e["suite"] == "lids"]
        print(json.dumps([alone_failures + failures + strings_failures,
                          alone == every]))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True]


KILLED = ("every seed is killed by the lowering operator and lives for "
          "exactly n-k+1 steps")
BASIS = "string members form a basis per bidegree"
LOWERING = "lowering factor [j]_h [n-j-k+1]_h along every string"
KERNEL = "primitives are exactly the lowering kernel, by rank"
ISO = "L^(n-k) is an isomorphism from degree k to 2n-k"
LEVELS = "members over different levels are metric-orthogonal"
RESCALING = ("level rescaling <L^j a, L^j b> = [j]_h! [n-k]_h! / [n-j-k]_h! "
             "<a,b>")
BIDEGREES = "distinct bidegrees are orthogonal"
DEGREES = "distinct degrees pair to zero"
SYMMETRIC = "Gram blocks are conjugate-symmetric"
NONDEGENERATE = "top-degree wedge pairing is nondegenerate"
RANK2_VALUES = tuple(f"rank-2 value {v}" for v in (
    "<e+[1],e+[1]> = q^-5", "<e+[2],e+[2]> = q^-5", "<e-[1],e-[1]> = q^7",
    "<e-[2],e-[2]> = q^9", "<e+[1,2],e+[1,2]> = q^-11",
    "<e-[1,2],e-[1,2]> = q^17", "<e+[1]^e-[2],same> = q^3",
    "<e+[2]^e-[1],same> = q",
    "<e+[1]^e-[1] - q^-2 e+[2]^e-[2], same> = q + q^-1",
    "<kappa,kappa> = q + q^-1"))
# a premise that appears only in the witnesses of the derived strings entries
RAISING = "L raises every string by one level"


def _zero_lowering_fault(monkeypatch):
    monkeypatch.setattr(verify, "lambda_string_factor",
                        lambda n, k, j, mode=H_EQ_Q: ZERO)


def _string_basis_fault(monkeypatch):
    true = verify.string_basis_matrix

    def faulted(n, a, b):
        mat = true(n, a, b)
        if (a, b) != (1, 1):
            return mat
        return linalg.ScalarMatrix([[ZERO, *r[1:]] for r in mat.rows])

    monkeypatch.setattr(verify, "string_basis_matrix", faulted)


def _lefschetz_power_fault(monkeypatch):
    """The matrix of L^2 out of the (0,0) component at n = 2 is zero; no
    other power or component changes."""
    true = lefschetz.l_power_matrix

    def faulted(n, a, b, j):
        mat = true(n, a, b, j)
        return mat.scale(ZERO) if (n, a, b, j) == (2, 0, 0, 2) else mat

    monkeypatch.setattr(lefschetz, "l_power_matrix", faulted)


def _qfact_fault(monkeypatch):
    """[2]_h! plus one, as the level-rescaling factor reads it; the Hodge
    factors and the sl2 module keep the true q-factorials."""
    true = verify.qfact

    def faulted(m, mode=H_EQ_Q):
        return true(m, mode) + ONE if m == 2 else true(m, mode)

    monkeypatch.setattr(verify, "qfact", faulted)


# The failing strings and metric entries at n = 2, hq, with their witnesses.
# The lowering and seed entries are derived from the basis, raising, H . S
# = C and the lowering factors, the kernel entry from the basis, nonzero
# lowering factors and then the lowering premises, the isomorphism entry
# from the basis and raising, the level entry from the basis, raising, H .
# S = C and the premises on L, and the rescaling entry from the level
# entry's premises and the level factors; each names its first failing
# premise.  No suite builds Lambda, so a fault in its blocks fails nothing
# here.  Zero lowering factors break the lowering factor identity, and the
# kernel entry names its own premise first.  Zeroing the string member of
# seed 0 in the (1,1) basis breaks the basis, which every derived entry
# names, as does every metric entry that reads a Hodge or Gram block.  L's
# (0,0) block scaled by q breaks raising, and a bumped Hodge block breaks H
# . S = C, premises of every derived entry but the isomorphism, which H
# does not enter; [2]_h plus one breaks the lowering factors, and [2]_h!
# plus one the level factors.  The Serre and star faults break the premises
# on L, which the level and rescaling entries alone read.  The rescaling
# entry takes `gram`'s construction as given, so a Gram fault fails only the
# pinned value that reads it, and the isomorphism entry reads no matrix of
# L^(n-k), so zeroing one fails nothing: the direct checks of
# tests/oracles.py see both
# (`test_direct_checks_catch_the_gram_and_l_power_faults_no_entry_sees`).
LOWERED = {"premise": LOWERING_FACTORS, "bidegree": [0, 0], "level": 1}
HODGE_BLOCK = {"premise": HODGE_STRINGS, "bidegree": [1, 0]}
STRING_FAULTS = [
    (_lambda_entry_fault((2, 1)), {}),
    (_lambda_entry_fault((1, 1)), {}),
    (_zero_lowering_fault, {
        KILLED: LOWERED, LOWERING: LOWERED,
        KERNEL: {"premise": "lowering factors are nonzero",
                 "bidegree": [0, 0], "level": 1},
    }),
    (_string_basis_fault, {
        BASIS: {"bidegree": [1, 1]},
        **dict.fromkeys(
            (KILLED, LOWERING, KERNEL, ISO, LEVELS, SYMMETRIC, BIDEGREES,
             DEGREES, RESCALING, *RANK2_VALUES),
            {"premise": BASIS, "bidegree": [1, 1]}),
    }),
    (_gram_entry_fault, {"rank-2 value <e+[1],e+[1]> = q^-5": None}),
    (_l_entry_fault, dict.fromkeys(
        (KILLED, LOWERING, KERNEL, ISO, LEVELS, RESCALING),
        {"premise": RAISING, "bidegree": [0, 0]})),
    (_serre_entry_fault, dict.fromkeys(
        (LEVELS, RESCALING),
        {"premise": L_SERRE, "bidegree": [1, 0], "target": [2, 1],
         "row": 0, "col": 0, "defect": "(i)*q^-1"})),
    (_star_entry_fault, dict.fromkeys(
        (LEVELS, RESCALING),
        {"premise": L_STAR, "bidegree": [1, 0], "target": [1, 2],
         "row": 1, "col": 0, "defect": "(-i)*q^-1"})),
    (_lefschetz_power_fault, {}),
    (_hodge_entry_fault, dict.fromkeys(
        (KILLED, LOWERING, KERNEL, LEVELS, RESCALING), HODGE_BLOCK)),
    (_qint_fault, dict.fromkeys((KILLED, LOWERING, KERNEL), LOWERED)),
    (_qfact_fault, {RESCALING: {"premise": verify.LEVEL_FACTORS,
                                "bidegree": [0, 0], "level": 1}}),
]


@pytest.mark.parametrize("fault, failing", STRING_FAULTS,
                         ids=["lambda-block-2-1", "lambda-block-1-1",
                              "zero-lowering", "string-basis-1-1",
                              "gram-block-1-0", "l-block-0-0",
                              "serre-block-1-0", "star-block-1-0",
                              "l-power-0-0", "hodge-block-1-0", "qint-2",
                              "qfact-2"])
def test_each_string_and_metric_entry_fails_under_its_fault(
        monkeypatch, clear_premises, fault, failing):
    entries, failures = run_suites(["strings", "metric"], 2, H_EQ_Q)
    assert not failures
    fault(monkeypatch)
    clear_premises()
    entries, failures = run_suites(["strings", "metric"], 2, H_EQ_Q)
    assert {e["name"]: e.get("witness") for e in failures} == failing


@pytest.mark.parametrize("mode", [H_EQ_Q, H_EQ_ONE], ids=["hq", "h1"])
def test_direct_level_and_isomorphism_checks_agree_with_the_derived_entries(
        mode):
    """At n <= 4 the direct checks of tests/oracles.py, the Gram matrices of
    the seeds against those of their L^j images and the exact rank of each
    L^(n-k), accept where the derived rescaling and isomorphism entries
    pass.  Necessary for the derivation, not a proof of it: the rescaling
    entry also rests on G = P . H . S, which test_hodge checks at one point
    only."""
    for n in range(1, 5):
        status = {e["name"]: e["status"]
                  for e in run_suites(["strings", "metric"], n, mode)[0]}
        assert level_rescaling_failure(n, mode) is None, n
        assert all(verify_lefschetz_iso(n, k)["full_rank"] for k in range(n))
        assert status[RESCALING] == status[ISO] == "pass", n


def test_direct_checks_catch_the_gram_and_l_power_faults_no_entry_sees(
        monkeypatch, clear_premises):
    """At n = 2 a Gram entry of (1,0) plus one and a zero L^2 out of (0,0)
    fail neither derived entry, which read no Gram block and no power of L;
    the direct checks reject both."""
    _gram_entry_fault(monkeypatch)
    _lefschetz_power_fault(monkeypatch)
    monkeypatch.setattr(oracles, "gram", hodge.gram)
    monkeypatch.setattr(oracles, "l_power_matrix", lefschetz.l_power_matrix)
    clear_premises()
    status = {e["name"]: e["status"]
              for e in run_suites(["strings", "metric"], 2, H_EQ_Q)[0]}
    assert status[RESCALING] == status[ISO] == "pass"
    assert level_rescaling_failure(2, H_EQ_Q) == {"bidegree": [1, 0],
                                                  "level": 1}
    assert [verify_lefschetz_iso(2, k)["full_rank"] for k in (0, 1)] == \
        [False, True]


def test_strings_suite_takes_no_rank_of_a_lambda_block(monkeypatch):
    """The kernel entry is derived from the basis and lowering entries, so
    no Lambda block reaches `linalg.rank`."""
    true, ranked = linalg.rank, []

    def recording(matrix):
        ranked.append(matrix)
        return true(matrix)

    monkeypatch.setattr(linalg, "rank", recording)
    assert not [e for e in verify.suite_strings(3, H_EQ_ONE)
                if e["status"] == "fail"]
    blocks = [mat for _, mat
              in hodge.lambda_operator(3, H_EQ_ONE).blocks.values()]
    assert ranked
    assert not any(m == blk for m in ranked for blk in blocks)


def _retargeted_hodge_block(target):
    """The Hodge block of (0,1) with its target bidegree replaced."""
    def install(monkeypatch):
        true = verify.hodge_operator

        def faulted(n, mode=H_EQ_Q):
            blocks = dict(true(n, mode).blocks)
            blocks[0, 1] = (target, blocks[0, 1][1])
            return GradedOperator(n, blocks)

        monkeypatch.setattr(verify, "hodge_operator", faulted)
    return install


def _unswapped_star(monkeypatch):
    """star(e+[1]) read off the star cache as a monomial of (1,0) itself."""
    true, source = verify._star_monomial, verify.e_plus(2, 1)

    def faulted(n, m):
        mono, k, negate = true(n, m)
        return (m if m in source.terms else mono), k, negate

    monkeypatch.setattr(verify, "_star_monomial", faulted)


# At n = 2 star sends e+[1], the first monomial of degree 1, into (0,1),
# whose Hodge block targets (1,2).  A block retargeted to (2,1) keeps the
# degree; one retargeted to (1,1) does not.  A star that leaves e+[1] in
# (1,0) lands in that block's target (2,1), of the right degree.  The
# matrices stay true, so `metric`, which reads the Gram blocks, and the
# premises of the other metric entries see none of these; the hodge suite's
# component map names the retargeted block, and the premises on H, which
# take H's targets from its formula, pass.
COMPONENTS = "component map (a,b) -> (n-b,n-a)"
GRADING_FAULTS = [
    (_retargeted_hodge_block((2, 1)), {BIDEGREES}, [2, 1]),
    (_retargeted_hodge_block((1, 1)), {BIDEGREES, DEGREES}, [1, 1]),
    (_unswapped_star, {BIDEGREES}, None),
]


@pytest.mark.parametrize("fault, failing, target", GRADING_FAULTS,
                         ids=["same-degree", "other-degree", "star-unswapped"])
def test_grading_entries_name_the_monomial_whose_image_strays(
        monkeypatch, clear_premises, fault, failing, target):
    fault(monkeypatch)
    clear_premises()
    failures = [e for e in verify.suite_metric(2) + verify.suite_hodge(2)
                if e["status"] == "fail"]
    want = dict.fromkeys(failing, {"monomial": "e+[1]"})
    if target is not None:
        want[COMPONENTS] = {"bidegree": [0, 1], "target": target}
    assert {e["name"]: e.get("witness") for e in failures} == want


def _gram_off_diagonal_fault(monkeypatch):
    true = verify.gram

    def faulted(n, a, b, mode=H_EQ_Q):
        g = true(n, a, b, mode)
        if (a, b) != (1, 0):
            return g
        rows = [list(r) for r in g.rows]
        rows[0][1] = rows[0][1] + ONE
        return linalg.ScalarMatrix(rows)

    monkeypatch.setattr(verify, "gram", faulted)


def _serre_pairing_fault(monkeypatch):
    true = verify.serre_pairing

    def faulted(n, a, b):
        p = true(n, a, b)
        return p.scale(ZERO) if (a, b) == (1, 0) else p

    monkeypatch.setattr(verify, "serre_pairing", faulted)


@pytest.mark.parametrize("fault, name", [
    (_gram_off_diagonal_fault, SYMMETRIC),
    (_serre_pairing_fault, NONDEGENERATE),
], ids=["gram-entry-0-1", "serre-block-1-0"])
def test_metric_block_entries_name_their_first_failing_block(monkeypatch,
                                                             fault, name):
    """At n = 2 the blocks of (0,0) and (0,1) come before (1,0), and pass."""
    fault(monkeypatch)
    entry, = [e for e in verify.suite_metric(2) if e["name"] == name]
    assert entry["status"] == "fail"
    assert entry["witness"] == {"bidegree": [1, 0]}


def test_metric_suite_pairs_no_forms_beyond_the_serre_pairing(monkeypatch):
    """With every cache warm, the metric suite at n = 3 calls no `metric`
    and makes no wedge: its only wedges are those of the Serre pairings,
    sum over (a, b) of dim V^(a,b) . dim V^(3-a,3-b) = 20^2 = 400, and
    `serre_pairing` is cached with the Gram blocks that built it."""
    n = 3
    assert not [e for e in verify.suite_metric(n) if e["status"] == "fail"]
    calls = {"metric": 0, "wedge": 0}
    metric, wedge = verify.metric, FiberForm.wedge

    def counting_metric(*args):
        calls["metric"] += 1
        return metric(*args)

    def counting_wedge(self, other):
        calls["wedge"] += 1
        return wedge(self, other)

    monkeypatch.setattr(verify, "metric", counting_metric)
    monkeypatch.setattr(FiberForm, "wedge", counting_wedge)
    assert not [e for e in verify.suite_metric(n) if e["status"] == "fail"]
    assert calls["metric"] == 0
    assert calls["wedge"] == 0


def test_generator_relations_name_their_first_failure(monkeypatch,
                                                      clear_premises):
    """With e+[i] replaced by e+[i] + e-[i], the square of every generator
    is nonzero; the entry names the first of the broken relations."""
    clear_premises()
    true = verify.e_plus
    monkeypatch.setattr(verify, "e_plus",
                        lambda n, i: true(n, i) + verify.e_minus(n, i))
    broken = list(verify._generator_relation_failures(2))
    assert broken[0] == "square of index 1 generator nonzero"
    assert "square of index 2 generator nonzero" in broken
    entry, = [e for e in verify.suite_relations(2)
              if e["name"] == "defining q-commutation relations on generators"]
    assert entry["status"] == "fail"
    assert entry["witness"] == broken[0]


# ---------------------------------------------------------------------------
# relations: star reversal and centrality, derived from generator premises
# ---------------------------------------------------------------------------

def _star_reversal_oracle(forms, stars):
    """The ordered pairs (u, v) with star(u ^ v) != (-1)^(kl) star(v) ^
    star(u), two wedges per pair."""
    for u, fu in forms.items():
        for v, fv in forms.items():
            w = fu * fv
            rev = stars[v] * stars[u]
            if u.degree * v.degree % 2:
                rev = -rev
            if w.star() != rev:
                yield u, v


def _basis_forms(n):
    forms = {m: verify._mono_form(n, m)
             for k in range(2 * n + 1) for m in verify.basis_degree(n, k)}
    return forms, {m: f.star() for m, f in forms.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_star_reverses_products_on_every_basis_pair(n):
    assert next(_star_reversal_oracle(*_basis_forms(n)), None) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fundamental_form_commutes_with_every_basis_monomial(n):
    kap = verify.kappa(n)
    forms, _ = _basis_forms(n)
    assert all(u * kap == kap * u for u in forms.values())


def test_relations_suite_takes_fewer_than_2000_wedges(monkeypatch,
                                                      clear_premises):
    """The per-pair star check makes 2 * 16^4 = 131,072 wedges at n = 4."""
    clear_premises()
    calls = []
    wedge = FiberForm.wedge

    def counting(self, other):
        calls.append(1)
        return wedge(self, other)

    monkeypatch.setattr(FiberForm, "wedge", counting)
    assert not [e for e in verify.suite_relations(4) if e["status"] == "fail"]
    assert len(calls) < 2000


STAR_INVOLUTION = "star is an involution on the basis"
STAR_REVERSES = "star reverses products with the graded sign (-1)^(kl)"
CENTRAL = "fundamental form is central"
ASSOCIATIVE = "wedge associativity on seeded random triples"
KAPPA_POWERS = \
    "power formula kappa^l = i^(l mod 2) [l]_q! sum e+_I^e-_I"
TARGET_WITNESS = {"premise": verify.STAR_GENERATORS, "monomial": "e+[1]^e-[2]"}

# Each fault is installed before anything is cached: _middle, _star_monomial,
# kappa and the relations premises memoise what they see.  The star faults
# touch star(e+[1]^e-[2]) alone, so rank 1 is unaffected by them.  Values:
# the installing code, the failing entries at n = 2 and 3, and the star
# entry's witness there.
_RELATIONS_FAULTS = {
    "clean": ("", set(), None),
    "star unit sign flipped": ("""
        star_monomial = fiber._star_monomial

        def faulty(n, m):
            mono, k, negate = star_monomial(n, m)
            return mono, k, negate != (m == TARGET)

        fiber._star_monomial = faulty
    """, {STAR_INVOLUTION, STAR_REVERSES}, TARGET_WITNESS),
    "star exponent plus one": ("""
        star_monomial = fiber._star_monomial

        def faulty(n, m):
            mono, k, negate = star_monomial(n, m)
            return mono, k + (m == TARGET), negate

        fiber._star_monomial = faulty
    """, {STAR_INVOLUTION, STAR_REVERSES}, TARGET_WITNESS),
    # the wedge is no longer bilinear, which the derivation takes as given;
    # the reversed product of e+[1,2] is the first to show it
    "wedge ignores the right coefficients": ("""
        wedge = FiberForm.wedge

        def faulty(self, other):
            return wedge(self, FiberForm(other.n, dict.fromkeys(other.terms, ONE)))

        FiberForm.wedge = faulty
    """, {CENTRAL, STAR_REVERSES, ASSOCIATIVE, KAPPA_POWERS},
        {"premise": verify.STAR_GENERATORS, "monomial": "e+[1,2]"}),
}


def _run_fresh(script):
    """Standard output lines of script run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("fault", sorted(_RELATIONS_FAULTS))
def test_relations_faults_fail_the_same_entries_as_the_per_pair_check(fault):
    """In a fresh interpreter, under one fault: the failing relations
    entries at n = 2 and 3 and the star entry's witness, and, at n <= 3,
    the star entry's verdict against that of the per-pair oracle."""
    install, failing, witness = _RELATIONS_FAULTS[fault]
    lines = _run_fresh("\n".join([
        "import json",
        "from qkahler import fiber, verify",
        "from qkahler.fiber import BasisMonomial, FiberForm",
        "from qkahler.scalars import ONE",
        "TARGET = BasisMonomial((1,), (2,))",
        textwrap.dedent(install),
        textwrap.dedent(inspect.getsource(_star_reversal_oracle)),
        textwrap.dedent(inspect.getsource(_basis_forms)),
        f"STAR_REVERSES = {STAR_REVERSES!r}",
        textwrap.dedent("""
            for n in (1, 2, 3):
                entries = verify.suite_relations(n)
                entry, = (e for e in entries if e["name"] == STAR_REVERSES)
                oracle = next(_star_reversal_oracle(*_basis_forms(n)), None)
                print(json.dumps([
                    sorted(e["name"] for e in entries if e["status"] == "fail"),
                    entry.get("witness"), entry["status"] == "pass",
                    oracle is None]))
        """),
    ]))
    assert len(lines) == 3
    for n, line in zip((1, 2, 3), lines):
        names, wit, derived, oracle = json.loads(line)
        assert derived == oracle
        if n > 1:
            assert names == sorted(failing)
            assert wit == witness


def test_unresolved_overlap_fails_the_derived_entries():
    """The mixed rule e-_i e+_i -> -q^3 e+_i e-_i - ..., installed in the
    rule table before any cache is built, leaves overlaps unresolved.  The
    star and central entries name the first, while the per-pair star check
    finds no failing pair and, at n = 3, the sampled associativity entry
    passes."""
    lines = _run_fresh("\n".join([
        textwrap.dedent("""
            import json
            from qkahler import fiber, verify
            from qkahler.scalars import Scalar

            rules = fiber.rewrite_rules

            def faulty(n):
                table = dict(rules(n))
                for i in range(1, n + 1):
                    (word, _), *rest = table[(-1, i), (+1, i)]
                    table[(-1, i), (+1, i)] = ((word, -Scalar.q_power(3)), *rest)
                return table

            fiber.rewrite_rules = verify.rewrite_rules = faulty
        """),
        textwrap.dedent(inspect.getsource(_star_reversal_oracle)),
        textwrap.dedent(inspect.getsource(_basis_forms)),
        f"NAMES = {(STAR_REVERSES, CENTRAL, ASSOCIATIVE)!r}",
        textwrap.dedent("""
            for n in (2, 3):
                words, gens = fiber.overlaps(n), verify._generators(n)
                entries = {e["name"]: e for e in verify.suite_relations(n)}
                print(json.dumps([
                    len(words),
                    ["^".join(str(gens[g]) for g in w) for w in words
                     if not fiber.overlap_resolves(n, w)],
                    [[entries[name]["status"], entries[name].get("witness")]
                     for name in NAMES],
                    next(_star_reversal_oracle(*_basis_forms(n)), None) is None]))
        """),
    ]))
    unresolved = {2: ["e-[1]^e-[1]^e+[1]", "e-[1]^e+[1]^e+[1]"]}
    unresolved[3] = unresolved[2] + ["e-[2]^e-[2]^e+[2]", "e-[2]^e+[2]^e+[2]"]
    for n, line in zip((2, 3), lines):
        count, words, (star, central, associative), oracle = json.loads(line)
        assert count == {2: 20, 3: 56}[n]
        assert words == unresolved[n]
        named = {"premise": verify.OVERLAPS, "overlap": words[0]}
        assert star == central == ["fail", named]
        assert oracle
        assert associative == ["pass", None] or n == 2
