"""Verification suites: every structural identity the engine is built on,
checked exactly and reported uniformly.

Each suite returns a list of entries {suite, name, status, detail, witness?}
with status "pass", "fail", or "note" (notes carry flags and conventions and
never fail a run).  Suites are keyed by name in SUITES; run_suites drives a
selection and aggregates the failures.

A derived entry rests on a tuple of named premises and, when it fails,
names the first that fails.  PREMISES maps each name to its check, run by
the one memoised `_premise`: once per rank for the MODE_FREE premises,
which read no Hodge parameter, and once per rank and mode for the rest.
`_premise_failure` runs a tuple in order up to its first failure, so a
suite runs only the premises its entries reach.  Each derived entry names
its tuple once, as a *_PREMISES constant or, for an sl2 relation, through
`_relation_premises`.  L meets the Serre law and the star law as block
identities; the entries that read a Hodge block directly check BASIS
first, and fail naming it, so no block is solved from a singular string
basis.  On the string basis H, L, Lambda and the counting operators are
weighted shifts, so the square of H, its star and Serre symmetries, the
lowering identity and every sl2 relation are scalar identities, and no
suite builds Lambda or multiplies a Hodge block by anything but the
string basis.  Conjugate symmetry and positivity of the Gram blocks rest
on the seed blocks of `seed_block`, so only the pinned rank-1 and rank-2
metric values read a Gram block.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

from .scalars import (
    H_EQ_Q, ONE, I, Scalar, qfact, memoize, parse_scalar,
)
from .fiber import (
    FiberForm, basis_bidegree, basis_degree, weight, e_plus, e_minus,
    overlap_resolves, overlaps, rewrite_rules, _star_monomial,
)
from .lefschetz import (
    kappa, kappa_power, lambda_string_factor, primitive_basis,
    string_basis_matrix, string_images,
)
from . import linalg
from .linalg import ScalarMatrix
# `gram` is read through this module by perfbench's self-test; no suite
# reads a Gram block but through `metric`, for the pinned rank-1 and
# rank-2 values
from .hodge import (
    hodge, hodge_factor, hodge_operator, hodge_rule, metric, gram,
    seed_block, certify_posdef, serre_pairing, l_operator, star_matrix,
    _first_block_failure, _first_nonzero, _targeted,
)
from .uqsl2 import h_weight, k_weight, relation_defect, sl2_relations
from .su2 import verify_cp1_laplacian

DEFAULT_Q_SAMPLES = ("9/10", "1", "11/10")

_Q = Scalar.q_power


def _entry(suite, name, ok=True, detail="", witness=None, note=False):
    e = {"suite": suite, "name": name,
         "status": "note" if note else ("pass" if ok else "fail")}
    if detail:
        e["detail"] = detail
    if witness is not None:
        e["witness"] = witness
    return e


def _mono_form(n, m):
    return FiberForm(n, {m: ONE})


def _random_form(rng, n, k, nterms=3):
    basis = basis_degree(n, k)
    coeffs = [ONE, -ONE, I, _Q(1), _Q(-2), ONE + _Q(2), I * _Q(1) - ONE]
    acc = FiberForm.zero(n)
    for _ in range(nterms):
        acc = acc + FiberForm(n, {rng.choice(basis): rng.choice(coeffs)})
    return acc


# ---------------------------------------------------------------------------
# premises: the facts the derived entries rest on
# ---------------------------------------------------------------------------

OVERLAPS = "every overlap of the rewrite rules resolves"
STAR_GENERATORS = "star is the graded reversal of its generator images"
STAR_RULES = ("the anti-automorphism of star's generator images keeps every "
              "rewrite rule")
KAPPA_GENERATORS = "fundamental form commutes with every generator"
BASIS = "string members form a basis per bidegree"
RAISING = "L raises every string by one level"
HODGE_STRINGS = "H sends every string member L^j(a) to c_j L^(m-j)(a)"
SQUARE_FACTORS = "c_j c_(m-j) = (-1)^k' on every string"
LOWERING_FACTORS = "(-1)^k' c_j c_(m-j+1) = [j]_h [m-j+1]_h on every string"
LEVEL_FACTORS = "c_j / c_0 = [j]_h! [m]_h! / [m-j]_h! on every string"
NONZERO_FACTORS = "lowering factors are nonzero"
REAL_FACTORS = "c_j / c_0 is real on every string"
POSITIVE_FACTORS = "c_j / c_0 > 0 at q0 on every string"
SEEDS_HERMITIAN = "every seed block G0 is Hermitian"
STAR_COMMUTES = "commutes with star on the basis"
H_SERRE = "H is (-1)^k-symmetric for the Serre pairing"
L_SERRE = "L is symmetric for the Serre pairing"
L_STAR = "L commutes with star"


def _generators(n):
    """{letter: generator form}, letters (sign, index), plus before minus."""
    return {**{(+1, i): e_plus(n, i) for i in range(1, n + 1)},
            **{(-1, i): e_minus(n, i) for i in range(1, n + 1)}}


def _overlap_failure(n, mode):
    """{"overlap": word} of the first overlap x y z of two rewrite rules
    that does not resolve, named as the wedge of its letters, else None."""
    gens = _generators(n)
    return next(({"overlap": "^".join(str(gens[g]) for g in w)}
                 for w in overlaps(n) if not overlap_resolves(n, w)), None)


def _generator_reversal_failure(n, mode):
    """{"monomial": m} of the first basis monomial m = g1 ... gk, by degree,
    with star(m) != (-1)^(k(k-1)/2) star(gk) ^ ... ^ star(g1), else None.
    The reversed product of m is one wedge onto that of m less its last
    letter, a basis monomial of degree k-1."""
    stars = {g: f.star() for g, f in _generators(n).items()}
    rev = {(): FiberForm.unit(n)}
    for k in range(1, 2 * n + 1):
        for m in basis_degree(n, k):
            w = m.word()
            r = stars[w[-1]] * rev[w[:-1]]
            rev[w] = -r if k % 2 == 0 else r
            if _mono_form(n, m).star() != rev[w]:
                return {"monomial": str(m)}
    return None


def _star_rule_failure(n, mode):
    """{"rule": x^y} of the first rewrite rule x y -> sum c w1 w2 whose two
    sides the conjugate-linear anti-automorphism phi, phi(g) = star(g), maps
    to different forms: star(y) ^ star(x) against sum conj(c) star(w2) ^
    star(w1), the graded sign -1 of both sides dropped.  Else None."""
    gens = _generators(n)
    stars = {g: f.star() for g, f in gens.items()}
    for (x, y), rhs in rewrite_rules(n).items():
        image = FiberForm.zero(n)
        for (w1, w2), c in rhs:
            image = image + (stars[w2] * stars[w1]).scale(c.conjugate())
        if stars[y] * stars[x] != image:
            return {"rule": f"{gens[x]}^{gens[y]}"}
    return None


def _kappa_generator_failure(n, mode):
    """{"generator": g} of the first generator g with g ^ kappa != kappa ^ g,
    else None."""
    kap = kappa(n)
    return next(({"generator": str(f)} for f in _generators(n).values()
                 if f * kap != kap * f), None)


def _invertible_failure(n, matrix):
    """{"bidegree": [a, b]} of the first (a, b) where matrix(n, a, b) is not
    square, of the size of the (a, b) basis and of full rank, else None."""
    def holds(a, b):
        s = matrix(n, a, b)
        return (s.nrows == s.ncols == len(basis_bidegree(n, a, b))
                == linalg.rank(s))
    return _first_bidegree(n, holds)


def _string_map_failure(n, op, target, rule):
    """{"bidegree": [a, b]} of the first (a, b) with a target in the fiber
    where op . S_(a,b) is not `string_images(n, a, b, target(a, b), rule)`,
    S the string basis matrix, else None; an absent op block is zero."""
    def holds(a, b):
        images = string_images(n, a, b, target(a, b), rule)
        products = [(ScalarMatrix.identity(images.nrows).scale(-ONE), images)]
        if (a, b) in op.blocks:
            products.append((op.blocks[a, b][1],
                             string_basis_matrix(n, a, b)))
        return _first_nonzero(products) is None
    return next(({"bidegree": [a, b]} for a, b in _targeted(n, target)
                 if not holds(a, b)), None)


def _seeds(n):
    """The seed bidegrees (a', b'), a'+b' <= n, by degree, then by b'."""
    return [(k - b, b) for k in range(n + 1) for b in range(k + 1)]


def _factor_failure(n, mode, first, holds):
    """{"bidegree": [a', b'], "level": j} of the first seed bidegree, k' =
    a'+b' and m = n-k', and level first <= j <= m where holds(c, k', j, d)
    is false, c = [c_0, ..., c_m] the seed's `hodge_factor`s and d those of
    (b', a'), else None."""
    for seed in _seeds(n):
        k = sum(seed)
        c, d = ([hodge_factor(n, s, i, mode) for i in range(n - k + 1)]
                for s in (seed, seed[::-1]))
        for j in range(first, n - k + 1):
            if not holds(c, k, j, d):
                return {"bidegree": list(seed), "level": j}
    return None


def _signed(k, x):
    """(-1)^k x."""
    return -x if k % 2 else x


def _serre_law_failure(n, op):
    """op, raising (a, b) to (a+1, b+1), is symmetric for the Serre pairing
    P: op_src^T . P_tgt = P_src . op_(n-tgt) on every src with a target in
    the fiber, tgt = src + (1, 1).  The witness of `_first_block_failure`,
    else None."""
    def blocks(a, b):
        return ((a, b), (a + 1, b + 1),
                [(op.blocks[a, b][1].transpose(),
                  serre_pairing(n, a + 1, b + 1)),
                 (serre_pairing(n, a, b).scale(-ONE),
                  op.blocks[n - a - 1, n - b - 1][1])])
    return _first_block_failure(blocks(a, b)
                                for a, b in product(range(n), repeat=2))


def _star_law_failure(n, op):
    """op, raising (a, b) to (a+1, b+1), commutes with star: op_(b,a) .
    S_(a,b) = S_(a+1,b+1) . conj(op_(a,b)) on every (a, b) with a target in
    the fiber, S the star matrices.  The witness of `_first_block_failure`,
    named by the bidegree where both sides land, (b+1, a+1), else None."""
    def blocks(a, b):
        return ((a, b), (b + 1, a + 1),
                [(op.blocks[b, a][1], star_matrix(n, a, b)),
                 (star_matrix(n, a + 1, b + 1).scale(-ONE),
                  op.blocks[a, b][1].conjugate())])
    return _first_block_failure(blocks(a, b)
                                for a, b in product(range(n), repeat=2))


# name -> check(n, mode), the witness of a failure or None when it holds
PREMISES = {
    OVERLAPS: _overlap_failure,
    STAR_GENERATORS: _generator_reversal_failure,
    STAR_RULES: _star_rule_failure,
    KAPPA_GENERATORS: _kappa_generator_failure,
    BASIS: lambda n, mode: _invertible_failure(n, string_basis_matrix),
    RAISING: lambda n, mode: _string_map_failure(
        n, l_operator(n), lambda a, b: (a + 1, b + 1),
        lambda j, seed: (j + 1, ONE)),
    HODGE_STRINGS: lambda n, mode: _string_map_failure(
        n, hodge_operator(n, mode), lambda a, b: (n - b, n - a),
        hodge_rule(n, mode)),
    SQUARE_FACTORS: lambda n, mode: _factor_failure(
        n, mode, 0, lambda c, k, j, _: _signed(k, c[j] * c[n - k - j]) == ONE),
    LOWERING_FACTORS: lambda n, mode: _factor_failure(
        n, mode, 1, lambda c, k, j, _: _signed(k, c[j] * c[n - k - j + 1])
        == lambda_string_factor(n, k, j, mode)),
    LEVEL_FACTORS: lambda n, mode: _factor_failure(
        n, mode, 1, lambda c, k, j, _: c[j] == c[0] * qfact(j, mode)
        * qfact(n - k, mode) / qfact(n - k - j, mode)),
    REAL_FACTORS: lambda n, mode: _factor_failure(
        n, mode, 1, lambda c, k, j, _: c[j] / c[0] == (c[j] / c[0]).conjugate()),
    # With the basis and lowering premises this decides "primitives are
    # exactly the lowering kernel, by rank", with no rank of Lambda: in
    # string coordinates Lambda_(a,b) sends each member above level 0 to a
    # nonzero multiple of a member of its own, and each seed to 0, so its
    # kernel is the span of the seeds.
    NONZERO_FACTORS: lambda n, mode: _factor_failure(
        n, mode, 1,
        lambda c, k, j, _: bool(lambda_string_factor(n, k, j, mode))),
    # With STAR_PREMISES before it: H sends L^j(alpha), alpha a seed of (a',
    # b'), to c_j L^(m-j)(alpha).  L^(m+1) kills star(alpha) (L-star), so it
    # is a combination of (b', a') seeds (raising, basis), and H(star(L^j
    # alpha)) = c_j(b', a') L^(m-j)(star(alpha)), while star(H(L^j alpha)) =
    # conj(c_j(a', b')) L^(m-j)(star(alpha)), a nonzero member.
    STAR_COMMUTES: lambda n, mode: _factor_failure(
        n, mode, 0, lambda c, k, j, d: d[j] == c[j].conjugate()),
    # With the basis, raising, H . S = C and L-Serre before it (as in
    # UNITARY_PREMISES): take L^i(alpha) in (a, b) and
    # L^j(beta) in (b, a), alpha and beta seeds.  Moving L across the Serre
    # pairing, both sides of vol(H L^i alpha ^ L^j beta) = (-1)^(a+b)
    # vol(L^i alpha ^ H L^j beta) reduce to a multiple of vol(alpha ^ L^t
    # beta), which is 0 unless i = j (as for LEVEL_PREMISES); for i = j they
    # are c_i(a', b') F and (-1)^(a+b) c_i(b', a') F, F = vol(alpha ^ L^m
    # beta), and a+b = a'+b' mod 2.
    H_SERRE: lambda n, mode: _factor_failure(
        n, mode, 0, lambda c, k, j, d: c[j] == _signed(k, d[j])),
    SEEDS_HERMITIAN: lambda n, mode: next((
        {"bidegree": list(seed)} for seed in _seeds(n)
        if seed_block(n, *seed, mode)
        != seed_block(n, *seed, mode).transpose().conjugate()), None),
    L_SERRE: lambda n, mode: _serre_law_failure(n, l_operator(n)),
    L_STAR: lambda n, mode: _star_law_failure(n, l_operator(n)),
}
# the premises that read no Hodge parameter, checked once per rank
MODE_FREE = frozenset({OVERLAPS, STAR_GENERATORS, STAR_RULES,
                       KAPPA_GENERATORS, BASIS, RAISING, L_SERRE, L_STAR})


@memoize
def _premise(name, n, mode):
    """The witness of the named premise at rank n, None when it holds; a
    premise in MODE_FREE is checked once per rank, keyed with mode None."""
    if mode is not None and name in MODE_FREE:
        return _premise(name, n, None)
    return PREMISES[name](n, mode)


def _premise_failure(n, mode, names):
    """{"premise": name} with the witness of the first of the named
    premises that fails, else None; none after it is evaluated."""
    for name in names:
        wit = _premise(name, n, mode)
        if wit is not None:
            return {"premise": name, **wit}
    return None


# The premise tuple of each derived entry, in the order its witness names
# them.  A tuple that reaches a Hodge block lists BASIS first, so no Hodge
# block is solved from a singular string basis.  Given the basis and
# H . S = C, H is the weighted shift j -> m-j with weights c_j.
SQUARE_PREMISES = (BASIS, HODGE_STRINGS, SQUARE_FACTORS)
# H commutes with star: see the STAR_COMMUTES row of PREMISES.
STAR_PREMISES = (BASIS, RAISING, HODGE_STRINGS, L_STAR, STAR_COMMUTES)
# `gram` builds G_(a,b) = P_(a,b) . H_(b,a) . S_(a,b), P the Serre pairing
# and S the star matrices.  Taking that as given, substitute the Serre
# symmetry of H (the H_SERRE row, on the basis, raising, H . S = C and
# L-Serre), then star commutation, then the square:
# H_(a,b)^T . G_(n-b,n-a) . conj(H_(a,b)) = G_(a,b), unitarity of H for the
# metric with no Gram block read.
UNITARY_PREMISES = SQUARE_PREMISES + (RAISING, L_STAR, STAR_COMMUTES,
                                      L_SERRE, H_SERRE)
# Lambda is defined as H^-1 . L . H, and the premises on L, all among
# those of unitarity, give L_(a,b)^T . G_(a+1,b+1) = G_(a,b) .
# conj(Lambda_(a+1,b+1)): Lambda is the metric adjoint of L.
# `lambda_operator` builds the lowering shift, which LOWERING_PREMISES
# identify with H^-1 . L . H, so no construction is taken as given.
ADJOINT_L_PREMISES = UNITARY_PREMISES
# With raising too, Lambda = (-1)^(a+b) H . L . H sends L^j(alpha) to
# (-1)^k' c_j c_(m-j+1) L^(j-1)(alpha) and kills the seeds.
LOWERING_PREMISES = (BASIS, RAISING, HODGE_STRINGS, LOWERING_FACTORS)
KERNEL_PREMISES = (BASIS, NONZERO_FACTORS, RAISING, HODGE_STRINGS,
                   LOWERING_FACTORS)
LEVEL_PREMISES = (BASIS, RAISING, HODGE_STRINGS, L_SERRE, L_STAR)
# For alpha, beta seeds of one bidegree (a, b), k = a+b and m = n-k, L
# commutes with star, so star(L^j beta) = L^j(gamma) with gamma = star(beta)
# primitive, a combination of the (b, a) seeds (raising, basis).  H sends
# it to c_j L^(m-j)(gamma), and L^j moves across the Serre pairing:
# <L^j alpha, L^j beta> = c_j vol(alpha ^ L^m gamma), which is c_j / c_0
# times <alpha, beta>.  `gram`'s P . H . S is taken as given, as for
# UNITARY_PREMISES.
RESCALING_PREMISES = LEVEL_PREMISES + (LEVEL_FACTORS,)
# So in string coordinates, S^T . G_(a,b) . conj(S) is block-diagonal by
# level, and its level-j block is c_j / c_0 times the seed block G0 of
# (a-j, b-j): `seed_block` is <alpha, beta> in closed form, by the same
# argument.  S is invertible, so G_(a,b) is Hermitian when every c_j / c_0
# is real and every G0 is Hermitian.
SYMMETRIC_PREMISES = RESCALING_PREMISES + (REAL_FACTORS, SEEDS_HERMITIAN)
# L^(n-k) sends each degree-k member L^j(alpha) to the member
# L^(n-k+j)(alpha) of degree 2n-k, and every degree-(2n-k) member is hit
# once: a bijection between two bases.
ISO_PREMISES = (BASIS, RAISING)
CENTRAL_PREMISES = (OVERLAPS, KAPPA_GENERATORS)
STAR_REVERSAL_PREMISES = (OVERLAPS, STAR_GENERATORS, STAR_RULES)


def _relation_premises(terms):
    """The premises of the sl2 relation with these terms: the basis, raising
    if it holds L or Lambda, and H . S = C and the lowering factors if it
    holds Lambda."""
    steps = {step for _, factors in terms for step, _ in factors}
    return (LOWERING_PREMISES if -1 in steps
            else (BASIS, RAISING) if 1 in steps else (BASIS,))


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def _generator_relation_failures(n):
    """Yield, in order, each defining relation of the generators e+[i],
    e-[i] that fails, named as the relations entry's witness."""
    for i in range(1, n + 1):
        epi, emi = e_plus(n, i), e_minus(n, i)
        if epi * epi or emi * emi:
            yield f"square of index {i} generator nonzero"
        for h in range(1, i):
            if epi * e_plus(n, h) != (e_plus(n, h) * epi).scale(-_Q(1)):
                yield f"holomorphic swap ({i},{h})"
            if emi * e_minus(n, h) != (e_minus(n, h) * emi).scale(-_Q(-1)):
                yield f"antiholomorphic swap ({i},{h})"
        for j in range(1, n + 1):
            lhs = emi * e_plus(n, j)
            if i != j:
                rhs = (e_plus(n, j) * emi).scale(-_Q(1))
            else:
                rhs = (epi * emi).scale(-_Q(2))
                for a in range(i + 1, n + 1):
                    rhs = rhs - (e_plus(n, a) * e_minus(n, a)).scale(_Q(2) - ONE)
            if lhs != rhs:
                yield f"mixed relation ({i},{j})"


def suite_relations(n, mode=H_EQ_Q, q_samples=DEFAULT_Q_SAMPLES):
    """Two entries are derived from premises on the rewrite rules of
    `fiber.rewrite_rules` and on the 2n generators, named only in
    witnesses, and a failing one names its first failing premise.  The
    wedge is, by construction, the bilinear normal form of the
    concatenated word of its factors.

    - Overlaps: every overlap x y z of two rules resolves.  The rules
      strictly lower the termination order of the `fiber` docstring, so
      by Bergman's diamond lemma the normal words are a basis of the
      algebra the rules present, and the wedge is its product, hence
      associative.
    - Star reverses products (overlaps, generator reversal, rule images):
      let phi be the conjugate-linear graded anti-automorphism of the free
      algebra with phi(g) = star(g) on the 2n generators.  Phi maps both
      sides of every rule to forms with equal wedges, so it maps the ideal
      of the relations into itself and is an anti-automorphism of the
      fiber algebra.  Star agrees with phi on every basis monomial,
      star(g1 ... gk) = (-1)^(k(k-1)/2) star(gk) ^ ... ^ star(g1), and
      both are conjugate-linear, so star is phi:
      star(u ^ v) = (-1)^(kl) star(v) ^ star(u).
    - Kappa is central (overlaps, kappa commutes with each generator):
      every basis monomial is a wedge of generators, so by associativity
      kappa commutes with it, and by linearity with every form.
    """
    out = []
    dims = [len(basis_degree(n, k)) for k in range(2 * n + 1)]
    expect = [comb(2 * n, k) for k in range(2 * n + 1)]
    out.append(_entry("relations", "dim V^k = C(2n, k) for all k",
                      dims == expect, detail=f"dims {dims}"))

    wit = next(_generator_relation_failures(n), None)
    out.append(_entry("relations", "defining q-commutation relations on generators",
                      wit is None, witness=wit))

    rng = random.Random(20240815)
    ok = True
    for _ in range(12):
        ka = rng.randrange(0, 2 * n + 1)
        kb = rng.randrange(0, 2 * n + 1 - ka) if ka < 2 * n else 0
        kc = rng.randrange(0, 2 * n + 1 - ka - kb)
        u, v, w = (_random_form(rng, n, k) for k in (ka, kb, kc))
        if (u * v) * w != u * (v * w):
            ok = False
    out.append(_entry("relations", "wedge associativity on seeded random triples", ok))

    wit = _premise_failure(n, mode, CENTRAL_PREMISES)
    out.append(_entry("relations", "fundamental form is central",
                      wit is None, witness=wit))

    ok = all(u.star().star() == u for u in (
        _mono_form(n, m) for k in range(2 * n + 1) for m in basis_degree(n, k)))
    out.append(_entry("relations", "star is an involution on the basis", ok))

    wit = _premise_failure(n, mode, STAR_REVERSAL_PREMISES)
    out.append(_entry("relations",
                      "star reverses products with the graded sign (-1)^(kl)",
                      wit is None, witness=wit))

    ok = True
    for k in range(2 * n + 1):
        for m in basis_degree(n, k):
            wt = weight(m, n)
            if (all(x == 0 for x in wt)) != (m.plus == m.minus):
                ok = False
    out.append(_entry("relations", "zero weight exactly on balanced monomials", ok))

    ok = True
    for l in range(n + 1):
        lhs = kappa_power(n, l)
        rhs = FiberForm.zero(n)
        for idx in combinations(range(1, n + 1), l):
            rhs = rhs + FiberForm.monomial(n, list(idx), list(idx))
        coef = qfact(l) if l % 2 == 0 else qfact(l) * I
        if lhs != rhs.scale(coef):
            ok = False
    out.append(_entry("relations",
                      "power formula kappa^l = i^(l mod 2) [l]_q! sum e+_I^e-_I", ok))
    return out


# ---------------------------------------------------------------------------
# hodge
# ---------------------------------------------------------------------------

def _pinned_entry(suite, name, basis, want, compute, *args):
    """The entry compute(*args) == want, with the value got as its detail,
    or one failing with basis, the basis premise's witness, if it failed."""
    if basis is not None:
        return _entry(suite, name, False, witness=basis)
    got = compute(*args)
    return _entry(suite, name, got == want, detail=f"got {got}")


def _pinned_hodge_tables(n, mode, basis, out):
    if n == 1:
        table = [
            ("1", FiberForm.unit(1), kappa(1)),
            ("e+[1]", e_plus(1, 1), e_plus(1, 1).scale(-I)),
            ("e-[1]", e_minus(1, 1), e_minus(1, 1).scale(I)),
        ]
    elif n == 2:
        table = [
            ("e+[1]", e_plus(2, 1), FiberForm.monomial(2, [1, 2], [2])),
            ("e+[2]", e_plus(2, 2), FiberForm.monomial(2, [1, 2], [1]).scale(-_Q(1))),
            ("e-[1]", e_minus(2, 1), FiberForm.monomial(2, [2], [1, 2]).scale(_Q(-1))),
            ("e-[2]", e_minus(2, 2), FiberForm.monomial(2, [1], [1, 2]).scale(-ONE)),
        ]
    else:
        return
    for name, src, want in table:
        out.append(_pinned_entry("hodge", f"rank-{n} table: *({name})", basis,
                                 want, hodge, src, mode))
    if n == 2:
        for (a, b), sign in (((2, 0), ONE), ((1, 1), -ONE), ((0, 2), ONE)):
            ok = basis is None and all(hodge(p, mode) == p.scale(sign)
                                       for p in primitive_basis(2, a, b))
            out.append(_entry("hodge",
                              f"rank-2 primitive sign: * = {'+' if sign == ONE else '-'}id "
                              f"on P^({a},{b})", ok, witness=basis))


def suite_hodge(n, mode=H_EQ_Q, q_samples=DEFAULT_Q_SAMPLES):
    out = []
    wit = _premise_failure(n, mode, SQUARE_PREMISES)
    out.append(_entry("hodge", "square is (-1)^degree", wit is None,
                      witness=wit))

    basis = _premise_failure(n, mode, (BASIS,))
    wit = basis or next((
        {"bidegree": list(src), "target": list(tgt)}
        for src, (tgt, _) in sorted(hodge_operator(n, mode).blocks.items())
        if tgt != (n - src[1], n - src[0])), None)
    out.append(_entry("hodge", "component map (a,b) -> (n-b,n-a)",
                      wit is None, witness=wit))
    wit = _premise_failure(n, mode, STAR_PREMISES)
    out.append(_entry("hodge", STAR_COMMUTES, wit is None, witness=wit))

    wit = _premise_failure(n, mode, UNITARY_PREMISES)
    out.append(_entry("hodge", "unitary for the fiber metric, blockwise",
                      wit is None, witness=wit))
    _pinned_hodge_tables(n, mode, basis, out)
    return out


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def _pinned_metric_tables(n, mode, basis, out):
    if n == 1:
        vals = [
            ("<1,1>", FiberForm.unit(1), FiberForm.unit(1), "1"),
            ("<e+[1],e+[1]>", FiberForm.monomial(1, [1], []),
             FiberForm.monomial(1, [1], []), "q^-4"),
            ("<e-[1],e-[1]>", FiberForm.monomial(1, [], [1]),
             FiberForm.monomial(1, [], [1]), "q^6"),
            ("<e+[1]^e-[1],same>", FiberForm.monomial(1, [1], [1]),
             FiberForm.monomial(1, [1], [1]), "1"),
            ("<kappa,kappa>", kappa(1), kappa(1), "1"),
        ]
    elif n == 2:
        third = FiberForm.monomial(2, [1], [1]) \
            - FiberForm.monomial(2, [2], [2]).scale(_Q(-2))
        vals = [
            ("<e+[1],e+[1]>", FiberForm.monomial(2, [1], []),
             FiberForm.monomial(2, [1], []), "q^-5"),
            ("<e+[2],e+[2]>", FiberForm.monomial(2, [2], []),
             FiberForm.monomial(2, [2], []), "q^-5"),
            ("<e-[1],e-[1]>", FiberForm.monomial(2, [], [1]),
             FiberForm.monomial(2, [], [1]), "q^7"),
            ("<e-[2],e-[2]>", FiberForm.monomial(2, [], [2]),
             FiberForm.monomial(2, [], [2]), "q^9"),
            ("<e+[1,2],e+[1,2]>", FiberForm.monomial(2, [1, 2], []),
             FiberForm.monomial(2, [1, 2], []), "q^-11"),
            ("<e-[1,2],e-[1,2]>", FiberForm.monomial(2, [], [1, 2]),
             FiberForm.monomial(2, [], [1, 2]), "q^17"),
            ("<e+[1]^e-[2],same>", FiberForm.monomial(2, [1], [2]),
             FiberForm.monomial(2, [1], [2]), "q^3"),
            ("<e+[2]^e-[1],same>", FiberForm.monomial(2, [2], [1]),
             FiberForm.monomial(2, [2], [1]), "q"),
            ("<e+[1]^e-[1] - q^-2 e+[2]^e-[2], same>", third, third, "q + q^-1"),
            ("<kappa,kappa>", kappa(2), kappa(2), "q + q^-1"),
        ]
    else:
        return
    for name, u, v, want in vals:
        out.append(_pinned_entry("metric", f"rank-{n} value {name} = {want}",
                                 basis, parse_scalar(want), metric, u, v, mode))
    if n == 1:
        out.append(_entry(
            "metric", "rank-1 holomorphic norm flag", note=True,
            detail="<e+[1],e+[1]> = q^-4 is forced by *(e+[1]) = -i e+[1] "
                   "and the volume normalisation; the reciprocal value q^4 "
                   "that sometimes accompanies this example is inconsistent "
                   "with its own Hodge table and is rejected here."))


def _first_bidegree(n, holds):
    """{"bidegree": [a, b]} of the first (a, b) where holds(a, b) fails."""
    for a, b in product(range(n + 1), repeat=2):
        if not holds(a, b):
            return {"bidegree": [a, b]}
    return None


def suite_metric(n, mode=H_EQ_Q, q_samples=DEFAULT_Q_SAMPLES):
    out = []
    basis = _premise_failure(n, mode, (BASIS,))

    wit = _premise_failure(n, mode, SYMMETRIC_PREMISES)
    out.append(_entry("metric", "Gram blocks are conjugate-symmetric",
                      wit is None, witness=wit))

    # metric(u, m) = vol(u ^ w), w = hodge(star(m)).  Star sends m in
    # (a, b) into (b, a), as the star cache reads, and the Hodge block of
    # (b, a) targets (n-a, n-b), so w lies there.  The wedge is bigraded: a
    # same-degree u in (a', b') != (a, b) has a' > a or b' > b, so u ^ w
    # lies in (a'+n-a, b'+n-b), where one index count exceeds n and no
    # monomial exists.  A u of another degree misses degree 2n, the only one
    # vol reads.  No Gram block and no Hodge image is read.
    targets = {} if basis else {
        src: tgt for src, (tgt, _) in hodge_operator(n, mode).blocks.items()}
    images = [(m, targets.get(_star_monomial(n, m)[0].bidegree))
              for k in range(2 * n + 1) for m in basis_degree(n, k)]
    for name, lands in (
            ("distinct bidegrees are orthogonal", lambda m, t:
             t == (n - m.bidegree[0], n - m.bidegree[1])),
            ("distinct degrees pair to zero", lambda m, t:
             sum(t) == 2 * n - m.degree)):
        bad = next((m for m, t in images
                    if t is not None and not lands(m, t)), None)
        wit = basis or (None if bad is None else {"monomial": str(bad)})
        out.append(_entry("metric", name, wit is None, witness=wit))

    wit = _invertible_failure(n, serre_pairing)
    out.append(_entry("metric", "top-degree wedge pairing is nondegenerate",
                      wit is None, witness=wit))

    wit = _premise_failure(n, mode, RESCALING_PREMISES)
    out.append(_entry("metric",
                      "level rescaling <L^j a, L^j b> = [j]_h! [n-k]_h! / [n-j-k]_h! <a,b>",
                      wit is None, witness=wit))
    out.append(_entry(
        "metric", "level rescaling constant form", note=True,
        detail="the factorial constant [j]_h![n-k]_h!/[n-j-k]_h! is the one "
               "the centrality argument produces and the one verified here; "
               "the inverse-quantum-binomial form (n-j-k choose j)_h^-1 "
               "sometimes quoted for this law already fails at n=2, k=0, "
               "j=1, where the true factor is [2]_h and the binomial form "
               "gives 1."))

    _pinned_metric_tables(n, mode, basis, out)
    return out


# ---------------------------------------------------------------------------
# lids
# ---------------------------------------------------------------------------

def _real_weight_failure(n, weight):
    """{"degree": k} of the first degree k where the weights weight(m, j) of
    its string members, k = n + 2j - m, are not one real scalar lam, else
    None.  The Gram blocks are per bidegree, so lam . I is self-adjoint:
    both sides of M^T . G = G . conj(M) are lam . G."""
    for k in range(2 * n + 1):
        lam, *rest = [weight(m, j) for m in range(n + 1)
                      for j in range(m + 1) if n + 2 * j - m == k]
        if lam != lam.conjugate() or any(x != lam for x in rest):
            return {"degree": k}
    return None


def suite_lids(n, mode=H_EQ_Q, q_samples=DEFAULT_Q_SAMPLES):
    """Each sl2 relation is one scalar identity per string member, and
    rests on the premises of `_relation_premises`."""
    out = []
    relations, notes = sl2_relations(n, mode)
    for name, terms, expected in relations:
        premise = _premise_failure(n, mode, _relation_premises(terms))
        wit = premise or relation_defect(n, terms)
        # a relation differs as derived only when its premises hold
        ok = premise is None and (wit is None) == expected
        detail = "" if expected or premise else (
            "holds only at h=1" if wit is None else "differs for h != 1, as derived")
        out.append(_entry("lids", name, ok, detail=detail,
                          witness=None if ok else wit))
    for note in notes:
        out.append(_entry("lids", "convention", note=True, detail=note))

    wit = _premise_failure(n, mode, ADJOINT_L_PREMISES)
    out.append(_entry("lids", "adjoint of L is the dual Lefschetz operator",
                      wit is None, witness=wit))
    for name, weight in (("H is self-adjoint", h_weight),
                         ("K is self-adjoint", k_weight)):
        wit = _real_weight_failure(n, lambda m, j: weight(m, j, mode))
        out.append(_entry("lids", name, wit is None, witness=wit))
    return out


# ---------------------------------------------------------------------------
# strings
# ---------------------------------------------------------------------------

def suite_strings(n, mode=H_EQ_Q, q_samples=DEFAULT_Q_SAMPLES):
    """Five entries are derived from the premises on the string basis and
    on L, and a failing one names its first failing premise.

    - Lowering (LOWERING_PREMISES): see there.
    - Seeds (the same): a seed is a level-0 member, so Lambda kills it;
      L^(n-k) of it is its top member, a column of an invertible S, and L
      sends that member to 0.
    - Kernel (KERNEL_PREMISES): see the NONZERO_FACTORS row of PREMISES.
    - Isomorphism (ISO_PREMISES): see there.
    - Levels (LEVEL_PREMISES): for members L^i(alpha), L^j(beta) of one
      degree-k bidegree, i != j, the seeds span the primitives (raising,
      basis), star and H keep a string's seed, so H(star(L^j(beta))) =
      L^(n-k+j)(gamma), gamma primitive, and L^i moves across the Serre
      pairing: the metric is vol(alpha ^ L^(n-k+i+j)(gamma)) =
      vol(L^(n-k+i+j)(alpha) ^ gamma), 0 as gamma's string ends at level
      n-k+2j and alpha's at n-k+2i.
    """
    out = []
    seeds = {seed: primitive_basis(n, *seed) for seed in _seeds(n)}
    total = sum((n - sum(bd) + 1) * len(ss) for bd, ss in seeds.items())
    out.append(_entry("strings", "string members count the whole fiber",
                      total == 4 ** n, detail=f"{total} of {4 ** n}"))

    wit = _premise_failure(n, mode, LOWERING_PREMISES)
    out.append(_entry("strings",
                      "every seed is killed by the lowering operator and "
                      "lives for exactly n-k+1 steps", wit is None,
                      detail=f"{sum(map(len, seeds.values()))} strings",
                      witness=wit))
    basis = _premise(BASIS, n, mode)
    out.append(_entry("strings", BASIS, basis is None, witness=basis))
    out.append(_entry("strings",
                      "lowering factor [j]_h [n-j-k+1]_h along every string",
                      wit is None, witness=wit))
    wit = _premise_failure(n, mode, KERNEL_PREMISES)
    out.append(_entry("strings",
                      "primitives are exactly the lowering kernel, by rank",
                      wit is None, witness=wit))

    wit = _premise_failure(n, mode, ISO_PREMISES)
    out.append(_entry("strings",
                      "L^(n-k) is an isomorphism from degree k to 2n-k",
                      wit is None, witness=wit))

    wit = _premise_failure(n, mode, LEVEL_PREMISES)
    out.append(_entry("strings",
                      "members over different levels are metric-orthogonal",
                      wit is None, witness=wit))
    out.append(_entry(
        "strings", "same-level orthogonality", note=True,
        detail="within one level the pairing of two strings reduces to the "
               "pairing of their seeds (see the metric suite rescaling law); "
               "primitive kernel bases are not orthogonalised, so same-level "
               "strings need not be orthogonal unless their seeds are."))
    return out


# ---------------------------------------------------------------------------
# posdef
# ---------------------------------------------------------------------------

def _positive_failure(n, mode, q0):
    """{"premise": POSITIVE_FACTORS, "bidegree": [a', b'], "level": j,
    "q0": q0} of the first seed and level where c_j / c_0 at q0 is not a
    positive real, else None."""
    def positive(c, k, j, _):
        x = (c[j] / c[0]).evaluate(q0)
        return x.is_real() and x.re > 0
    wit = _factor_failure(n, mode, 1, positive)
    return None if wit is None else {"premise": POSITIVE_FACTORS, **wit,
                                     "q0": str(q0)}


def suite_posdef(n, mode=H_EQ_Q, q_samples=DEFAULT_Q_SAMPLES):
    """One entry per q0, derived from the seed blocks.  Given
    SYMMETRIC_PREMISES, D = S^T . G . conj(S) is block-diagonal with blocks
    (c_j / c_0) G0.  When every c_j / c_0 is positive at q0 and the exact
    LDL* of every seed block G0 there has positive pivots, D(q0) is
    positive definite, so S(q0) is invertible and, by Sylvester's law of
    inertia, every Gram block G(q0) is positive definite.  This takes S and
    G to have no pole at q0; tests/ certifies every Gram block directly at
    n <= 4.  A failing entry names the first failing premise, or the seed
    bidegree whose G0 fails."""
    out = []
    for q0 in q_samples:
        wit = (_premise_failure(n, mode, SYMMETRIC_PREMISES)
               or _positive_failure(n, mode, q0) or next((
                   {"bidegree": list(seed), "q0": str(q0),
                    "reason": cert.reason}
                   for seed in _seeds(n)
                   for cert in (certify_posdef(seed_block(n, *seed, mode),
                                               q0),)
                   if not cert.positive_definite), None))
        out.append(_entry("posdef",
                          f"all Gram blocks positive definite at q0 = {q0}",
                          wit is None, witness=wit))
    return out


# ---------------------------------------------------------------------------
# cp1-laplacian
# ---------------------------------------------------------------------------

def suite_cp1_laplacian(n=1, mode=H_EQ_Q, q_samples=DEFAULT_Q_SAMPLES):
    out = []
    rep = verify_cp1_laplacian()
    for c in rep["checks"]:
        out.append(_entry("cp1-laplacian", c["name"], c["holds"],
                          detail=c.get("value", "")))
    out.append(_entry("cp1-laplacian", "eigenvalue", note=True,
                      detail=f"q[2]_q = {rep['eigenvalue']}"))
    return out


SUITES = {
    "relations": suite_relations,
    "hodge": suite_hodge,
    "metric": suite_metric,
    "lids": suite_lids,
    "strings": suite_strings,
    "posdef": suite_posdef,
    "cp1-laplacian": suite_cp1_laplacian,
}


def run_suites(names, n, mode=H_EQ_Q, q_samples=DEFAULT_Q_SAMPLES):
    """Run the selected suites and collect their entries and failures."""
    if isinstance(names, str):
        names = list(SUITES) if names == "all" else [names]
    results = []
    for name in names:
        fn = SUITES.get(name)
        if fn is None:
            raise KeyError(f"unknown suite {name!r}")
        results.extend(fn(n, mode, q_samples))
    failures = [e for e in results if e["status"] == "fail"]
    return results, failures
