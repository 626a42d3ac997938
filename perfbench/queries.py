"""Seeded operator queries for the `queries-n3` workload.

A query is one call into the operator layers on warm caches: `hodge(u)`,
`metric(u, v)`, `lambda_apply(u)`, `lefschetz_decompose(u)` or
`certify_posdef(G, q0)`.  The stream is plain data drawn from a seed, so the
same seed gives the same queries; `materialize` turns one into the call to
time, and `check` tests its answer by an exact identity outside the timed
region.

The mix is stratified: every block of 70 queries holds, in a seeded order,
each of the four form queries once per mode and form degree 0..2n, and seven
certificates per mode.  Cost depends mostly on kind, mode and degree (a
top-degree decomposition in h1 mode costs about 400 times a low-degree Hodge
image), so every run has the same share of each whatever the seed.  Without
this the per-run throughput spread about 20% between seeds; with it, and
with the even walks of `query_stream`, about 6%.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

RANK = 3
MODES = ("hq", "h1")
KINDS = ("hodge", "metric", "lambda", "decompose", "certify")
# coefficients of the random forms, as the engine's own scalar syntax
COEFFS = ("1", "-1", "i", "-i", "q", "q^-1", "q^2", "1 + q^2", "-i*q")
MAX_TERMS = 3


def query_stream(seed: int, part: int = 0):
    """Yield an endless sequence of queries as plain data, determined by
    the seed and by which part of a run it feeds.

    Each query is (kind, mode, args).  Forms are (degree, ((basis index,
    coefficient index), ...)) against `basis_degree(RANK, degree)`.
    Within each (kind, mode, degree) stratum the leading monomial, its
    coefficient and the term count each walk through all their values in
    seeded order before repeating, and the certificates walk through the
    bidegrees the same way, so a run of a few thousand queries covers the
    inputs evenly; the other terms are drawn at random.
    """
    rng = random.Random(f"{seed}/{part}")
    sizes = [comb(2 * RANK, k) for k in range(2 * RANK + 1)]
    bidegrees = [(a, b) for a in range(RANK + 1) for b in range(RANK + 1)]
    walks = {}

    def walk(key, n):
        if key not in walks:
            walks[key] = _walk(rng, n)
        return next(walks[key])

    def form(stratum, k):
        lead = walk((stratum, "lead"), sizes[k])
        coeff = walk((stratum, "coeff"), len(COEFFS))
        nterms = 1 + walk((stratum, "nterms"), min(MAX_TERMS, sizes[k]))
        rest = rng.sample([p for p in range(sizes[k]) if p != lead], nterms - 1)
        return (k, ((lead, coeff),) + tuple((p, rng.randrange(len(COEFFS)))
                                           for p in rest))

    while True:
        block = [(kind, mode, k) for kind in KINDS for mode in MODES
                 for k in range(2 * RANK + 1)]
        rng.shuffle(block)
        for stratum in block:
            kind, mode, k = stratum
            if kind == "certify":
                den = rng.randint(2, 9)
                q0 = Fraction(rng.randint(den // 2 + 1, 2 * den), den)
                bd = bidegrees[walk((kind, mode), len(bidegrees))]
                yield (kind, mode, (bd, q0))
            elif kind == "metric":
                yield (kind, mode, (form(stratum, k), form((stratum, "v"), k)))
            elif kind == "lambda":
                # v is the test form of the adjointness check g(Λu, v) = g(u, Lv)
                v = form((stratum, "v"), k - 2) if k >= 2 else None
                yield (kind, mode, (form(stratum, k), v))
            else:
                yield (kind, mode, (form(stratum, k),))


def _walk(rng, n):
    """Endless seeded walk through range(n), one shuffled pass at a time."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


class QueryEngine:
    """Warm caches for the operator queries and the calls that answer them."""

    def __init__(self):
        import qkahler
        from qkahler import FiberForm, basis_degree, parse_scalar
        self.qk = qkahler
        self.modes = {"hq": qkahler.H_EQ_Q, "h1": qkahler.H_EQ_ONE}
        self.coeffs = [parse_scalar(c) for c in COEFFS]
        self.bases = [basis_degree(RANK, k) for k in range(2 * RANK + 1)]
        self.FiberForm = FiberForm
        self.grams = {}

    def warm_up(self):
        """Build every cache the queries read: Hodge blocks and inverses,
        Lefschetz matrices, primitive bases, and the Gram blocks that the
        certificates are drawn on."""
        qk = self.qk
        for name, mode in self.modes.items():
            qk.hodge_operator(RANK, mode)
            qk.lambda_operator(RANK, mode)
            for a in range(RANK + 1):
                for b in range(RANK + 1):
                    qk.primitive_basis(RANK, a, b)
                    self.grams[(name, a, b)] = qk.gram(RANK, a, b, mode)

    def form(self, spec):
        k, terms = spec
        basis = self.bases[k]
        acc = self.FiberForm.zero(RANK)
        for idx, c in terms:
            acc = acc + self.FiberForm(RANK, {basis[idx]: self.coeffs[c]})
        return acc

    def materialize(self, query):
        """Return (fn, args, context) for one query; fn(*args) is the call
        to time, context what `check` needs besides the answer."""
        qk = self.qk
        kind, mode_name, args = query
        mode = self.modes[mode_name]
        if kind == "certify":
            (a, b), q0 = args
            block = self.grams[(mode_name, a, b)]
            return qk.certify_posdef, (block, q0), (block,)
        forms = [None if spec is None else self.form(spec) for spec in args]
        if kind == "hodge":
            return qk.hodge, (forms[0], mode), (mode,)
        if kind == "metric":
            return qk.metric, (forms[0], forms[1], mode), (mode,)
        if kind == "lambda":
            return qk.lambda_apply, (forms[0], mode), (mode, forms[1])
        return qk.lefschetz_decompose, (forms[0], mode), (mode,)

    def check(self, query, call_args, context, answer) -> bool:
        """Exact identity the answer of one query must satisfy."""
        qk = self.qk
        kind = query[0]
        if kind == "certify":
            block, = context
            return (answer.positive_definite
                    and len(answer.pivots) == block.nrows
                    and all(p > 0 for p in answer.pivots))
        mode = context[0]
        u = call_args[0]
        if kind == "hodge":
            return qk.hodge_inverse(answer, mode) == u
        if kind == "metric":
            v = call_args[1]
            return qk.metric(v, u, mode) == answer.conjugate()
        if kind == "lambda":
            v = context[1]
            if v is None:
                return not answer
            # the lowering operator is the metric adjoint of raising
            return qk.metric(answer, v, mode) == qk.metric(u, qk.L(v), mode)
        total = self.FiberForm.zero(RANK)
        for j, alpha in answer:
            if qk.lambda_apply(alpha, mode):
                return False
            total = total + qk.L_power(alpha, j)
        return total == u
