"""The rank-n fiber exterior algebra carrying the quantum projective space
calculus.

Basis monomials are ordered wedge words e+[i1] ^ ... ^ e+[ia] ^ e-[j1] ^ ...
^ e-[jb] with ascending distinct indices drawn from {1..n}: every plus
generator precedes every minus generator.  Products of arbitrary words are
brought to this normal form by `_reduce` with the rewrite rules of the one
table `rewrite_rules(n)`

    e-_i e+_j  ->  -q e+_j e-_i                     (i != j)
    e-_i e+_i  ->  -q^2 e+_i e-_i - (q^2-1) * sum_{a>i} e+_a e-_a
    e-_i e-_h  ->  -q^-1 e-_h e-_i                  (h < i)
    e+_i e+_h  ->  -q e+_h e+_i                     (h < i)
    e+_i e+_i  =   e-_i e-_i  =  0

applied leftmost first.  Their left-hand sides are exactly the adjacent
letter pairs of a non-normal word, so the irreducible words are the normal
ones.  The mixed rule with matching indices is the only branching rule;
all coefficients live in Q(i)(q).

A rule keeps a word's length and its multiset of signs, or gives 0.  Among
words of one length and sign multiset, one word is below another when it
has fewer minus-before-plus pairs (positions p < r, a minus letter at p and
a plus letter at r), or, for words of the same letters, as many such pairs
and fewer same-sign index inversions (same-sign positions p < r, the larger
index at p).  A mixed rule removes one minus-before-plus pair from each of
its words, and a swap keeps the letters and removes one inversion.  The
order is compatible with concatenation and each of its classes is finite,
so every reduction terminates: this is the order Bergman's diamond lemma
needs.  By the lemma, when every overlap x y z of two left-hand sides
(`overlaps`, C(2n+2, 3) of them) reduces to one normal form whether x y or
y z is rewritten first (`overlap_resolves`), the normal words are a basis
of the algebra the relations present, and the wedge, by construction the
normal form of the concatenated word, is its associative product.

In the wedge of two basis monomials e+_P1 e-_M1 and e+_P2 e-_M2 only the
middle word e-_M1 e+_P2 meets the mixed rules; its normal form is cached per
(n, M1, P2), at most 4^n entries.  Each middle term c e+_P e-_M then gives
the single monomial e+_(P1 u P) e-_(M u M2) with coefficient
c (-q)^inv(P1, P) (-q^-1)^inv(M, M2), where inv(A, B) counts the pairs
x in A, y in B with x > y, or 0 when either union repeats an index: the
outer letters only need the same-sign swaps.  The coefficient product of
the two factors' terms is formed only when some middle term survives both
unions, so a pair of terms whose product vanishes costs no scalar product.
No cache is kept per monomial pair.

The star sends each basis monomial e+_P e-_M of degree d to +-q^k e+_M e-_P,
cached per monomial as (monomial, k, negate).  The graded reversal of the
generator images is (-1)^(d(d-1)/2) q^(2 sum_M (a+1) - 2 sum_P (a+1)) times
e+_M e-_P with both runs descending, sorted by C(|M|, 2) plus swaps (-q) and
C(|P|, 2) minus swaps (-q^-1) and no mixed rule, so k = C(|M|, 2) - C(|P|, 2)
+ 2 sum_M (a+1) - 2 sum_P (a+1), the sign - when d(d-1)/2 + C(|M|, 2) +
C(|P|, 2) is odd.  Starring a form conjugates each coefficient and shifts
it by that signed q-power.
Conjugation returns a coefficient whose Q(i) coefficients are all real as
it is, so starring a form with real coefficients copies no polynomial.  A
product with +-q^k is itself a shift of the numerator (Scalar.__mul__), so
the wedge of such coefficients needs no Laurent product either.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from types import MappingProxyType

from .scalars import (
    ZERO, ONE, Q, Scalar, GaussianRational, memoize,
    refuse_assignment, render_terms,
)

_NEG_Q = -Q
_NEG_QINV = -Scalar.q_power(-1)
_NEG_Q2 = -Scalar.q_power(2)
_ONE_MINUS_Q2 = ONE - Scalar.q_power(2)


@dataclass(frozen=True)
class BasisMonomial:
    """Normal-form wedge monomial, identified by its index sets."""

    plus: tuple
    minus: tuple

    @property
    def degree(self) -> int:
        return len(self.plus) + len(self.minus)

    @property
    def bidegree(self) -> tuple:
        return (len(self.plus), len(self.minus))

    def sort_key(self):
        return (self.degree, len(self.minus), self.plus, self.minus)

    def word(self) -> tuple:
        return tuple((+1, i) for i in self.plus) + tuple((-1, j) for j in self.minus)

    def __str__(self):
        if not self.plus and not self.minus:
            return "1"
        parts = []
        if self.plus:
            parts.append("e+[" + ",".join(map(str, self.plus)) + "]")
        if self.minus:
            parts.append("e-[" + ",".join(map(str, self.minus)) + "]")
        return "^".join(parts)

    __repr__ = __str__


UNIT_MONOMIAL = BasisMonomial((), ())


def _check_indices(idx, n: int, label: str):
    prev = 0
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"{label} index {i} outside 1..{n}")
        if i <= prev:
            raise ValueError(f"{label} indices must be strictly ascending")
        prev = i


@memoize
def rewrite_rules(n: int):
    """The rewrite rules of the rank-n fiber as a read-only table: the
    letter pair (x, y), letters (sign, index), maps to the ((word, c), ...)
    of its right-hand side sum c * word over two-letter words, () for a
    square.  Its keys are exactly the adjacent pairs of a non-normal word."""
    rules = {}
    for i in range(1, n + 1):
        rules[(+1, i), (+1, i)] = rules[(-1, i), (-1, i)] = ()
        for h in range(1, i):
            rules[(+1, i), (+1, h)] = ((((+1, h), (+1, i)), _NEG_Q),)
            rules[(-1, i), (-1, h)] = ((((-1, h), (-1, i)), _NEG_QINV),)
        for j in range(1, n + 1):
            if j != i:
                rules[(-1, i), (+1, j)] = ((((+1, j), (-1, i)), _NEG_Q),)
        rules[(-1, i), (+1, i)] = ((((+1, i), (-1, i)), _NEG_Q2),) + tuple(
            (((+1, a), (-1, a)), _ONE_MINUS_Q2) for a in range(i + 1, n + 1))
    return MappingProxyType(rules)


def _reduce(n: int, terms) -> dict:
    """Normal form of the sum c * word over the (word, c) of terms, as
    {BasisMonomial: Scalar}."""
    rules = rewrite_rules(n)
    out: dict = {}
    stack = list(terms)
    while stack:
        w, c = stack.pop()
        for p in range(len(w) - 1):
            rhs = rules.get(w[p:p + 2])
            if rhs is not None:
                break
        else:
            mono = BasisMonomial(
                tuple(i for s, i in w if s == +1),
                tuple(i for s, i in w if s == -1),
            )
            acc = out.get(mono)
            out[mono] = c if acc is None else acc + c
            continue
        head, tail = w[:p], w[p + 2:]
        for pair, f in rhs:
            stack.append((head + pair + tail, c * f))
    return {m: s for m, s in out.items() if s}


def overlaps(n: int) -> list:
    """The overlap ambiguities of the rewrite rules: the words x y z with
    both x y and y z a left-hand side, C(2n+2, 3) of them."""
    rules = rewrite_rules(n)
    return [(x, y, z) for x, y in rules for y2, z in rules if y2 == y]


def overlap_resolves(n: int, word: tuple) -> bool:
    """Whether the overlap x y z rewritten at x y and at y z reduces to one
    normal form."""
    x, y, z = word
    rules = rewrite_rules(n)
    return (_reduce(n, [(w + (z,), c) for w, c in rules[x, y]])
            == _reduce(n, [((x,) + w, c) for w, c in rules[y, z]]))


@memoize
def _middle(n: int, minus: tuple, plus: tuple) -> tuple:
    """Normal form of the word e-_minus e+_plus as (plus', minus', c) triples."""
    word = tuple((-1, j) for j in minus) + tuple((+1, i) for i in plus)
    return tuple((m.plus, m.minus, c)
                 for m, c in _reduce(n, [(word, ONE)]).items())


@memoize
def _merge(a: tuple, b: tuple):
    """(ascending union, inv(a, b)) of two ascending index tuples, or None
    when they share an index: the sort of the word a b, one transposition
    per inverted pair."""
    if not a or not b:
        return a + b, 0
    if not set(a).isdisjoint(b):
        return None
    return tuple(sorted(a + b)), sum(x > y for x in a for y in b)


# star on generators: e+_a -> q^(-2(a+1)) e-_a and e-_a -> q^(2(a+1)) e+_a.
# The exponent pattern is pinned by requiring an involution that fixes the
# fundamental 2-form and reproduces the rank 1 and rank 2 pairing tables;
# see the exponent-fit test in the test suite.  Flipping the sign of both
# images together amounts to relabelling every minus generator by -1, an
# equivalent presentation, so the positive choice is used.

@memoize
def _star_monomial(n: int, m: BasisMonomial) -> tuple:
    """star(m) as (monomial, k, negate), the image +-q^k times one basis
    monomial; k and the sign are those of the module docstring."""
    sp, sm = comb(len(m.plus), 2), comb(len(m.minus), 2)
    k = sm - sp + 2 * (sum(m.minus) - sum(m.plus) + len(m.minus) - len(m.plus))
    return (BasisMonomial(m.minus, m.plus), k,
            (comb(m.degree, 2) + sm + sp) % 2 == 1)


class FiberForm:
    """Element of the rank-n fiber algebra: a Scalar combination of
    normal-form monomials.  terms is a read-only {monomial: nonzero Scalar}
    view and neither attribute can be rebound, so cached forms can be
    shared."""

    __slots__ = ("n", "terms")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, n: int, terms=None):
        _set_n(self, n)
        _set_terms(self, MappingProxyType(
            {m: c for m, c in terms.items() if c} if terms else {}))

    @staticmethod
    def _own(n: int, terms: dict) -> "FiberForm":
        """Wrap a fresh dict of nonzero terms without copying it."""
        r = object.__new__(FiberForm)
        _set_n(r, n)
        _set_terms(r, MappingProxyType(terms))
        return r

    @staticmethod
    def zero(n: int) -> "FiberForm":
        return FiberForm(n)

    @staticmethod
    def unit(n: int) -> "FiberForm":
        return FiberForm(n, {UNIT_MONOMIAL: ONE})

    @staticmethod
    def monomial(n: int, plus, minus, coeff=ONE) -> "FiberForm":
        plus = tuple(plus)
        minus = tuple(minus)
        _check_indices(plus, n, "plus")
        _check_indices(minus, n, "minus")
        return FiberForm(n, {BasisMonomial(plus, minus): coeff})

    def _compatible(self, other: "FiberForm"):
        if self.n != other.n:
            raise ValueError(f"mixed ranks {self.n} and {other.n}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FiberForm):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return FiberForm._own(self.n, out)

    def __neg__(self):
        return FiberForm._own(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "FiberForm":
        if isinstance(c, (int, GaussianRational)):
            c = Scalar.from_int(c) if isinstance(c, int) else Scalar.from_gaussian(c)
        if not c:
            return FiberForm(self.n)
        return FiberForm._own(self.n, {m: cc * c for m, cc in self.terms.items()})

    def wedge(self, other: "FiberForm") -> "FiberForm":
        self._compatible(other)
        n = self.n
        out: dict = {}
        for m1, c1 in self.terms.items():
            p1 = m1.plus
            for m2, c2 in other.terms.items():
                c12 = None  # formed once a middle term survives
                for plus, minus, c in _middle(n, m1.minus, m2.plus):
                    hp = _merge(p1, plus)
                    if hp is None:
                        continue
                    hm = _merge(minus, m2.minus)
                    if hm is None:
                        continue
                    if c12 is None:
                        c12 = c1 * c2
                    # (-q)^inv(P1, P) (-q^-1)^inv(M, M2)
                    f = c12 * c.q_shift(hp[1] - hm[1], (hp[1] + hm[1]) & 1)
                    m = BasisMonomial(hp[0], hm[0])
                    s = out.get(m)
                    s = f if s is None else s + f
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
        return FiberForm._own(n, out)

    def __mul__(self, other):
        if isinstance(other, FiberForm):
            return self.wedge(other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with forms, so left scaling equals right scaling
        return self.scale(other)

    def star(self) -> "FiberForm":
        """Graded conjugate-linear involution of the algebra.  It permutes
        the basis up to signed q-powers, so each term maps to one term."""
        out = {}
        for m, c in self.terms.items():
            mono, k, negate = _star_monomial(self.n, m)
            out[mono] = c.conjugate().q_shift(k, negate)
        return FiberForm._own(self.n, out)

    def degrees(self):
        return sorted({m.degree for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def bidegree_split(self) -> dict:
        out: dict = {}
        for m, c in self.terms.items():
            out.setdefault(m.bidegree, {})[m] = c
        return {bd: FiberForm(self.n, t) for bd, t in sorted(out.items())}

    def coefficient(self, mono: BasisMonomial) -> Scalar:
        return self.terms.get(mono, ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __str__(self):
        return render_terms((c, str(m)) for m, c in self.sorted_terms())

    __repr__ = __str__


# the slots' own setters, cheaper than object.__setattr__ on the wedge path
_set_n = FiberForm.n.__set__
_set_terms = FiberForm.terms.__set__


def e_plus(n: int, i: int) -> FiberForm:
    return FiberForm.monomial(n, (i,), ())


def e_minus(n: int, i: int) -> FiberForm:
    return FiberForm.monomial(n, (), (i,))


def basis_bidegree(n: int, a: int, b: int) -> list:
    """Canonically ordered monomial basis of the (a, b) component."""
    if not (0 <= a <= n and 0 <= b <= n):
        return []
    return [BasisMonomial(p, m)
            for p in combinations(range(1, n + 1), a)
            for m in combinations(range(1, n + 1), b)]


def basis_degree(n: int, k: int) -> list:
    """Canonically ordered monomial basis of the degree-k component."""
    out = []
    for b in range(k + 1):
        a = k - b
        out.extend(basis_bidegree(n, a, b))
    return out


def weight(m: BasisMonomial, n: int) -> tuple:
    """Torus weight in Z^n: each e+_i contributes unit_i plus the all-ones
    vector, each e-_j the negative of that."""
    w = [0] * n
    for i in m.plus:
        w[i - 1] += 1
        for t in range(n):
            w[t] += 1
    for j in m.minus:
        w[j - 1] -= 1
        for t in range(n):
            w[t] -= 1
    return tuple(w)
