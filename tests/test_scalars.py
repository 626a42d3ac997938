"""Exact scalar field: Laurent arithmetic, quantum integers, rendering."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

from qkahler.scalars import (
    GaussianRational, HodgeMode, H_EQ_ONE, H_EQ_Q, I, LaurentPoly, ONE,
    PoleError, Q, Scalar, ZERO, _LP_ONE, _signed_q_power, dot, dot_is_zero,
    i_power,
    parse_scalar, qfact, qint, qint_signed, render_scalar,
)
from qkahler.hodge import gram

from oracles import (
    c_add, c_div, c_mul, dict_add, dict_eval, dict_mul, eval_scalar,
    laurent_evaluate, naive_qfact, naive_qint,
)

RNG = random.Random(17)
SAMPLE_POINTS = [Fraction(9, 10), Fraction(11, 10), Fraction(17, 13)]


def _random_gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )


def _random_laurent(rng, max_terms=4):
    p = LaurentPoly()
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        e = rng.randint(-5, 5)
        c = _random_gaussian(rng)
        p = p + LaurentPoly.q_power(e, c)
        d = dict_add(d, {e: (c.re, c.im)})
    return p, d


def _random_scalar(rng):
    num, _ = _random_laurent(rng)
    den, _ = _random_laurent(rng)
    while not den:
        den, _ = _random_laurent(rng)
    return Scalar(num, den)


def test_gaussian_rational_field_laws():
    rng = random.Random(5)
    for _ in range(200):
        x, y, z = (_random_gaussian(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        if y:
            assert (x / y) * y == x
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_laurent_arithmetic_matches_dict_oracle():
    rng = random.Random(11)
    for _ in range(120):
        p1, d1 = _random_laurent(rng)
        p2, d2 = _random_laurent(rng)
        s = p1 + p2
        m = p1 * p2
        ds = dict_add(d1, d2)
        dm = dict_mul(d1, d2)
        for q0 in SAMPLE_POINTS:
            assert (s.evaluate(q0).re, s.evaluate(q0).im) == dict_eval(ds, q0)
            assert (m.evaluate(q0).re, m.evaluate(q0).im) == dict_eval(dm, q0)


def test_laurent_exact_division_round_trip():
    rng = random.Random(23)
    for _ in range(80):
        p1, _ = _random_laurent(rng)
        p2, _ = _random_laurent(rng)
        if not p1 or not p2:
            continue
        assert (p1 * p2).exact_div(p2) == p1


def test_laurent_exact_division_rejects_non_multiples():
    p = LaurentPoly.q_power(2) + LaurentPoly.q_power(0)
    r = LaurentPoly.q_power(1) + LaurentPoly.q_power(0)
    with pytest.raises(ValueError):
        p.exact_div(r)


def test_scalar_field_laws():
    rng = random.Random(31)
    for _ in range(60):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        if y:
            assert (x / y) * y == x
        assert x - x == ZERO
        assert x * ONE == x


def test_scalar_fraction_canonicalisation():
    rng = random.Random(37)
    for _ in range(40):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        if not y:
            continue
        # dividing and re-multiplying by the same junk cannot change identity
        assert (x * y) / y == x
    q = Scalar.q_power(1)
    assert (q * q - ONE) / (q - Scalar.q_power(-1)) == q
    # polynomial scalars carry a trivial denominator
    assert ((q + ONE) * (q - ONE)).den is _LP_ONE


def test_scalar_evaluate_is_a_homomorphism():
    rng = random.Random(41)
    for _ in range(60):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        for q0 in SAMPLE_POINTS:
            try:
                ex, ey = eval_scalar(x, q0), eval_scalar(y, q0)
            except PoleError:
                continue
            assert eval_scalar(x + y, q0) == c_add(ex, ey)
            assert eval_scalar(x * y, q0) == c_mul(ex, ey)
            if ey != (0, 0):
                assert eval_scalar(x / y, q0) == c_div(ex, ey)


def test_scalar_evaluate_raises_at_poles():
    q = Scalar.q_power(1)
    s = ONE / (q - Scalar.q_power(-1))
    with pytest.raises(PoleError):
        s.evaluate(Fraction(1))
    assert s.evaluate(Fraction(2)) == GaussianRational(Fraction(2, 3))


def test_laurent_evaluate_matches_the_per_term_sum():
    """The Horner pass of `LaurentPoly.evaluate` against the per-term sum of
    tests/oracles.py, on seeded polynomials with negative exponents, gaps,
    real and Gaussian coefficients with 30-digit numerators and
    denominators, and the zero polynomial, at rational points on both
    sides of 1."""
    rng = random.Random(29)
    big = 10 ** 30

    def rational():
        return Fraction(rng.randint(-big, big), rng.randint(1, big))

    for _ in range(300):
        p = LaurentPoly({
            rng.randint(-12, 12): GaussianRational(
                rational(), rational() if rng.random() < 0.5 else 0)
            for _ in range(rng.randint(0, 8))})
        q0 = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        assert p.evaluate(q0) == laurent_evaluate(p, q0)
    assert LaurentPoly().evaluate(Fraction(7, 3)) == GaussianRational(0)


def test_scalar_evaluate_keeps_its_pole_and_domain_errors():
    """A pole raises PoleError and q0 <= 0 raises ValueError, before any
    Laurent polynomial is evaluated."""
    q = Scalar.q_power(1)
    s = (q + I) / (q * q - Scalar.q_power(-2))
    with pytest.raises(PoleError, match="pole at q = 1"):
        s.evaluate(Fraction(1))
    for q0 in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="positive rational"):
            s.evaluate(q0)
    assert s.evaluate(2) == GaussianRational(Fraction(8, 15), Fraction(4, 15))


def test_scalar_conjugation():
    rng = random.Random(43)
    for _ in range(60):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    # conjugation fixes q and flips the imaginary unit
    assert Scalar.q_power(3).conjugate() == Scalar.q_power(3)
    assert I.conjugate() == -I


def test_conjugate_of_real_coefficients_is_the_same_object():
    half = GaussianRational(Fraction(1, 2))
    poly = (ONE + Q * Scalar.from_int(3)).num
    real = (ONE - Q) / (Scalar.from_int(2) + Q * Q)
    for x in (half, poly, real, ONE, ZERO, Q, -Scalar.q_power(-4)):
        assert x.conjugate() is x
    for x in (I, I + Q, ONE / (Q - I), (Q - I) / (ONE + Q)):
        c = x.conjugate()
        assert c is not x and c != x and c.conjugate() == x
    assert GaussianRational(1, 2).conjugate() == GaussianRational(1, -2)
    assert (Q - I).num.conjugate() == (Q + I).num


def test_conjugate_is_canonical_as_built():
    rng = random.Random(47)
    checked = 0
    while checked < 40:
        s = _random_scalar(rng)
        if s.den.is_unit() or all(c.is_real() for c in s.num.terms.values()):
            continue
        checked += 1
        c = s.conjugate()
        ref = Scalar(s.num.conjugate(), s.den.conjugate())
        assert c.num == ref.num and c.den == ref.den
    # a polynomial keeps the shared unit denominator, so the Scalar
    # __add__/__mul__ fast paths still apply to its conjugate
    one_plus_q = ONE + Q
    cancelled = Scalar((I + Q).num * one_plus_q.num, one_plus_q.num)
    for s in (ONE, I, Q + I, Scalar.q_power(-3) * (ONE - I), ZERO, cancelled):
        assert s.conjugate().den is _LP_ONE
    assert cancelled.conjugate() == Q - I


def test_unit_denominators_are_the_shared_one():
    # a denominator that cancels to 1 is the singleton, so later sums and
    # products take the polynomial fast paths
    s = (ONE / (ONE + Q)) * (ONE + Q)
    assert s == ONE and s.den is _LP_ONE
    rng = random.Random(53)
    units = 0
    for _ in range(25):
        x, y = _random_scalar(rng), _random_scalar(rng)
        if not y:
            continue
        for s in (x * y, x + y, x / y, (x / y) * y, y / y):
            if s.den == _LP_ONE:
                units += 1
                assert s.den is _LP_ONE
    assert units >= 25


def _same_pair(got, want):
    """Equal canonical pairs, with a unit denominator as the shared one."""
    return (got.num == want.num and got.den == want.den
            and (got.den is _LP_ONE) == (want.den is _LP_ONE))


def test_equal_denominator_addition_matches_cross_multiplication():
    g = gram(3, 1, 1)
    shared = [x for row in g.rows for x in row if x.den is not _LP_ONE]
    rng = random.Random(59)
    checked = 0
    for _ in range(60):
        a = rng.choice(shared)
        b = rng.choice(shared) * rng.choice([ONE, -ONE, I, Scalar.from_int(2)])
        if a.den != b.den:
            continue
        checked += 1
        cross = Scalar(a.num * b.den + b.num * a.den, a.den * b.den)
        assert _same_pair(a + b, cross)
        assert _same_pair(a - a, ZERO)
    assert checked >= 40


def _fold(pairs):
    acc = ZERO
    for a, b in pairs:
        acc = acc + a * b
    return acc


def test_dot_matches_the_addition_fold():
    # unit, equal non-unit and distinct non-unit denominators, so the
    # products fall into several groups, some with a shared denominator
    dens = [ONE, ONE, ONE + Q, ONE + Q, ONE + Q, Q * Q - Q + ONE, Q - I]
    rng = random.Random(61)
    pool = [ZERO]
    while len(pool) < 24:
        num, _ = _random_laurent(rng, max_terms=3)
        pool.append(Scalar(num) / rng.choice(dens))
    for _ in range(150):
        pairs = [(rng.choice(pool), rng.choice(pool))
                 for _ in range(rng.randint(0, 6))]
        want = _fold(pairs)
        assert _same_pair(dot(pairs), want)
        # a sum that cancels to 0, and one whose denominator cancels to 1
        assert _same_pair(dot(pairs + [(-a, b) for a, b in pairs]), ZERO)
        assert _same_pair(dot(pairs + [(-want, ONE), (Q, I)]), I * Q)
    assert _same_pair(dot([]), ZERO)
    # distinct denominator products (1+q)(1+2q) and 1+2q whose sum is 1
    two_q = Scalar.from_int(2) * Q
    r = ONE / (ONE + two_q)
    one = dot([(ONE / (ONE + Q), (ONE + Q) * r), (two_q * r, ONE)])
    assert one == ONE and one.den is _LP_ONE


def _dict_laurent(p):
    return {e: (c.re, c.im) for e, c in p.terms.items()}


def _dict_sum_is_zero(pairs):
    """Whether the sum of a * b vanishes, by cross-multiplying the dict
    numerators and denominators of the oracle, with no gcd."""
    num, den = {}, {0: (Fraction(1), Fraction(0))}
    for a, b in pairs:
        n = dict_mul(_dict_laurent(a.num), _dict_laurent(b.num))
        d = dict_mul(_dict_laurent(a.den), _dict_laurent(b.den))
        num = dict_add(dict_mul(num, d), dict_mul(n, den))
        den = dict_mul(den, d)
    return not num


def test_dot_is_zero_matches_the_dict_oracle():
    # Laurent polynomials, and rational functions over shared and over
    # distinct denominators, so the products fall into several groups
    dens = [ONE, ONE + Q, ONE + Q, Q * Q - Q + ONE, Q - I,
            Scalar.from_int(2) * Q + ONE]
    rng = random.Random(71)
    pool = [ZERO]
    while len(pool) < 24:
        num, _ = _random_laurent(rng, max_terms=3)
        if num:
            pool.append(Scalar(num) / rng.choice(dens))
    zeros = nonzeros = 0
    for _ in range(60):
        pairs = [(rng.choice(pool), rng.choice(pool))
                 for _ in range(rng.randint(0, 4))]
        total = dot(pairs)
        x = rng.choice(pool[1:])
        cases = [
            pairs,
            # cancels pair by pair, in scrambled order
            pairs + [(-a, b) for a, b in pairs],
            # cancels only over the common denominator: -total = (-total x) / x
            pairs + [(-total * x, ONE / x)],
            # one bumped product, alone in its denominator group
            pairs + [(-total * x, ONE / x), (Q, ONE / rng.choice(dens[1:]))],
        ]
        for case in cases:
            case = list(case)
            rng.shuffle(case)
            want = _dict_sum_is_zero(case)
            assert dot_is_zero(case) == want == (not dot(case))
            zeros += want
            nonzeros += not want
    assert dot_is_zero([])
    assert zeros >= 120 and nonzeros >= 60


def test_i_power_cycle():
    assert [i_power(k) for k in range(4)] == [ONE, I, -ONE, -I]
    for k in range(-8, 9):
        assert i_power(k) == i_power(k % 4)


def test_qint_balanced_form():
    # [m]_q = q^(m-1) + q^(m-3) + ... + q^(1-m)
    for m in range(7):
        want = ZERO
        for j in range(m):
            want = want + Scalar.q_power(m - 1 - 2 * j)
        assert qint(m) == want
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == Scalar.q_power(1) + Scalar.q_power(-1)


def test_qint_modes_and_numeric_oracle():
    for m in range(8):
        assert qint(m, H_EQ_ONE) == Scalar.from_int(m)
    for h0 in (Fraction(9, 10), Fraction(1), Fraction(7, 8)):
        mode = HodgeMode.numeric(Fraction(1), h0)
        for m in range(8):
            got = qint(m, mode)
            assert got == Scalar.from_gaussian(
                GaussianRational(naive_qint(m, h0)))


def test_qint_addition_identity():
    # [a+b] = h^b [a] + h^-a [b] in every mode
    modes = [H_EQ_Q, H_EQ_ONE, HodgeMode.numeric(Fraction(1), Fraction(9, 10))]
    for mode in modes:
        for a in range(6):
            for b in range(6):
                lhs = qint(a + b, mode)
                rhs = mode.h_power(b) * qint(a, mode) \
                    + mode.h_power(-a) * qint(b, mode)
                assert lhs == rhs


def test_qint_signed_is_odd():
    for m in range(-6, 7):
        assert qint_signed(m) == (qint(m) if m >= 0 else -qint(-m))
        assert qint_signed(m, H_EQ_ONE) == Scalar.from_int(m)


def test_qfact_and_qbinom():
    for h0 in (Fraction(9, 10), Fraction(11, 10)):
        mode = HodgeMode.numeric(Fraction(1), h0)
        for m in range(6):
            assert qfact(m, mode) == Scalar.from_gaussian(
                GaussianRational(naive_qfact(m, h0)))
    # the Gaussian binomials [m]! / ([r]! [m-r]!) are Laurent polynomials
    def binom(m, r):
        return qfact(m) / (qfact(r) * qfact(m - r))

    for m in range(7):
        for r in range(m + 1):
            assert binom(m, r) == binom(m, m - r)
            assert binom(m, r).den is _LP_ONE
    assert binom(4, 2) == qint(5) + ONE


def test_render_parse_round_trip():
    rng = random.Random(47)
    for _ in range(80):
        x = _random_scalar(rng)
        assert parse_scalar(render_scalar(x)) == x
    for text, want in [
        ("q + q^-1", qint(2)),
        ("q^-4", Scalar.q_power(-4)),
        ("1", ONE),
        ("q^2 + 1 + q^-2", qint(3)),
        ("1/2*q^3", Scalar.q_power(3) / Scalar.from_int(2)),
    ]:
        assert parse_scalar(text) == want


@pytest.mark.parametrize("text", [
    "", "q q", "2q", "1.5", "x", "q**2", "q^q", "q^1.5", "(q", "q)",
    "abs(q)", "q.real", "i^2^2", "1_000", "2j", "[q]", "'q'", "1e3",
    "q // 2", "~q", "lambda: q", "__import__('os')", "007", "0^-1^+3",
    "2(q)", "()", "qi",
])
def test_parse_scalar_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_parse_scalar_spacing_signs_and_division_by_zero():
    assert parse_scalar(" q\n+\t1 ") == Q + ONE
    assert parse_scalar("q^(2)") == parse_scalar("q^--2") == Q * Q
    assert parse_scalar("-q^2") == -(Q * Q)
    assert parse_scalar("2*-i") == -(I + I)
    for text in ("1/0", "0^-1", "q/(q - q)", "(1/0)^q"):
        with pytest.raises(ZeroDivisionError):
            parse_scalar(text)


# Precedence of a printed subexpression, loosest first.
SUM, PRODUCT, SIGNED, POWER, ATOM = range(5)


def _random_expression(rng, depth):
    """(text, precedence, value) of a random expression tree, printed with
    the parentheses its precedence needs plus some redundant ones and
    redundant signs; the value is computed with Scalar arithmetic."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        k = rng.randrange(13)
        text, prec, value = rng.choice(
            [("q", ATOM, Q), ("i", ATOM, I), (str(k), ATOM, Scalar.from_int(k))])
    elif r < 0.75:
        op = rng.choice("+-*/")
        left, right = (_random_expression(rng, depth - 1) for _ in range(2))
        if op == "/" and not right[2]:
            op = "*"
        prec = SUM if op in "+-" else PRODUCT
        lt = _wrap(left, prec)
        rt = _wrap(right, prec + 1 if op in "+-" else SIGNED)
        text = f"{lt} {op} {rt}" if rng.random() < 0.5 else f"{lt}{op}{rt}"
        value = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "/": operator.truediv}[op](left[2], right[2])
    elif r < 0.85:
        inner = _random_expression(rng, depth - 1)
        text, prec, value = f"-{_wrap(inner, SIGNED)}", SIGNED, -inner[2]
    else:
        base = _random_expression(rng, depth - 1)
        e = rng.randint(-3, 3) if base[2] else rng.randint(0, 3)
        power = ONE
        for _ in range(abs(e)):
            power = power * base[2]
        value = power if e >= 0 else ONE / power
        exponent = rng.choice(["", "+", "--"]) + str(e)
        text, prec = f"{_wrap(base, ATOM)}^{exponent}", POWER
    if rng.random() < 0.1:
        text, prec = f"({text})", ATOM
    elif rng.random() < 0.1 and prec >= SIGNED:
        text, prec = rng.choice(["+", "--", "+-+-"]) + text, SIGNED
    return text, prec, value


def _wrap(expr, need):
    text, prec, _ = expr
    return text if prec >= need else f"({text})"


def test_parse_scalar_matches_scalar_arithmetic_on_random_trees():
    rng = random.Random(2026)
    for _ in range(300):
        text, _, value = _random_expression(rng, rng.randint(1, 4))
        assert parse_scalar(text) == value, text


def test_parse_scalar_edge_sizes():
    assert parse_scalar(" + ".join(["1"] * 1500)) == Scalar.from_int(1500)
    assert parse_scalar("*".join(["q"] * 1500)) == Scalar.q_power(1500)
    with pytest.raises(ValueError):
        parse_scalar(" + ".join(["1"] * 10000))
    with pytest.raises(ValueError):
        parse_scalar("(" * 300 + "q" + ")" * 300)


def test_hodge_mode_powers_and_labels():
    assert H_EQ_Q.h_power(3) == Scalar.q_power(3)
    assert H_EQ_ONE.h_power(3) == ONE
    numeric = HodgeMode.numeric(Fraction(9, 10), Fraction(7, 8))
    assert numeric.h_power(2) == Scalar.from_gaussian(
        GaussianRational(Fraction(49, 64)))
    assert numeric.h_power(-1) == Scalar.from_gaussian(
        GaussianRational(Fraction(8, 7)))
    labels = {H_EQ_Q.label(), H_EQ_ONE.label(), numeric.label()}
    assert len(labels) == 3


def _as_dict(p):
    return {e: (c.re, c.im) for e, c in p.terms.items()}


# (c, whether c q^k takes the +-q^k shortcut)
_UNITS = ((GaussianRational(1), True), (GaussianRational(-1), True),
          (GaussianRational(0, 1), False), (GaussianRational(0, -1), False),
          (GaussianRational(2), False))


def test_multiplying_by_a_signed_q_power_matches_dict_oracle():
    # dict_mul shares no code with Scalar multiplication, so it also checks
    # the +-q^k shortcut; any unit c q^k leaves a canonical den as it is
    rng = random.Random(67)
    pool = [ZERO, ONE, Q]
    while len(pool) < 40:
        num, _ = _random_laurent(rng)
        den = rng.choice([ONE, ONE + Q, Q * Q - I])
        pool.append(Scalar(num) / den)
    for x in pool:
        for k in range(-3, 4):
            for c, signed in _UNITS:
                u = Scalar._raw(LaurentPoly.q_power(k, c))
                assert (_signed_q_power(u) is not None) == signed
                want = dict_mul(_as_dict(x.num), {k: (c.re, c.im)})
                for got in (x * u, u * x):
                    assert _as_dict(got.num) == want
                    assert got.den == x.den
                    assert (got.den is _LP_ONE) == (x.den is _LP_ONE)
    # a product of two polynomials keeps the shared unit denominator
    for x in pool:
        for y in (Q + I, Q * Q, -Scalar.q_power(-2)):
            if x.den is _LP_ONE:
                assert (x * y).den is _LP_ONE and (y * x).den is _LP_ONE
