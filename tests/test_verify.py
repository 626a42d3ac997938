"""End-to-end verification suites: structure, notes, zero failures."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from qkahler import cli, uqsl2, verify
from qkahler.lefschetz import kappa, primitive_basis
from qkahler.scalars import H_EQ_ONE, H_EQ_Q, HodgeMode
from qkahler.verify import DEFAULT_Q_SAMPLES, SUITES, run_suites

MODES = (H_EQ_Q, H_EQ_ONE, HodgeMode.numeric(Fraction(9, 10)))


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


def test_cp1_suite_reports_the_eigenvalue():
    entries, failures = run_suites(["cp1-laplacian"], 1, H_EQ_Q)
    assert not failures
    assert any("q^2 + 1" in e.get("detail", "") for e in entries)


def test_strings_suite_cross_level_orthogonality():
    entries, failures = run_suites(["strings"], 2, H_EQ_Q)
    assert not failures
    names = [e["name"] for e in entries]
    assert any("level" in s for s in names)


def test_strings_suite_names_a_seed_that_is_not_primitive(monkeypatch, capsys):
    def with_kappa_first(n, a, b):
        seeds = primitive_basis(n, a, b)
        return (kappa(n),) + seeds[1:] if (a, b) == (1, 1) else seeds

    monkeypatch.setattr(uqsl2, "primitive_basis", with_kappa_first)
    code = cli.main(["verify", "-n", "2", "--suite", "strings", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    entry, = [e for e in doc["results"]["results"]
              if e["name"].startswith("every seed is killed")]
    assert entry["status"] == "fail"
    assert entry["witness"] == {"bidegree": [1, 1], "seed_index": 0,
                                "condition": "killed by the lowering operator"}
