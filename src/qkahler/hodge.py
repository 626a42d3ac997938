"""Hodge map, volume functional, metric and Gram matrices.

The Hodge map is defined level by level on the string basis: a primitive
(a', b')-seed p of degree k' sitting at Lefschetz level j is sent to

    (-1)^(k'(k'+1)/2) * i^(a'-b') * [j]_h! / [n-j-k']_h! * L^(n-j-k')(p)

extended linearly.  The quantum-integer base h is a mode: the deformation
parameter itself, 1, or a fixed positive rational.  On each (a, b) component
the map is assembled as a matrix through the string basis, by one
elimination per block, so applying it to arbitrary forms costs one
matrix-vector product.

The metric is g(u, v) = vol(u ^ hodge(star(v))).  Different bidegrees are
orthogonal, so it is stored as one Gram block per bidegree and evaluated on
coordinates from those blocks; the blocks are certified positive definite at
rational points by exact LDL* pivots.

The block identities the verify suites rest on (H . S = C on the string
basis, and the star and Serre identities adjointness is derived from) are
zero tests, not comparisons of canonical matrices: each entry of lhs - rhs
is one sum of products of structural nonzeros, put over a common
denominator with no gcd.  Every denominator is a product of nonzero
denominators, so the entry vanishes exactly when the numerator does.  The
same scan names a failing identity's first nonzero entry, and only that
entry is canonicalised, for the witness.
"""

from __future__ import annotations

from types import MappingProxyType

from .scalars import (
    ONE, HodgeMode, H_EQ_Q, Scalar, qfact, i_power, memoize, dot,
    dot_is_zero, refuse_assignment, render_scalar,
)
from .fiber import FiberForm, BasisMonomial, basis_bidegree
from . import linalg
from .linalg import ScalarMatrix, LDLCertificate
from .lefschetz import (
    l_matrix, string_columns, string_basis_matrix, string_images, to_coords,
    from_coords,
)


def top_monomial(n: int) -> BasisMonomial:
    idx = tuple(range(1, n + 1))
    return BasisMonomial(idx, idx)


def vol(u: FiberForm) -> Scalar:
    """Volume functional: the top coefficient, normalised so the value on
    the top monomial is i^(-(n mod 2))."""
    n = u.n
    if u and u.degrees() != [2 * n]:
        raise ValueError("vol needs a form of top degree 2n")
    return u.coefficient(top_monomial(n)) * i_power(-(n % 2))


def hodge_factor(n: int, seed: tuple, j: int, mode: HodgeMode = H_EQ_Q) -> Scalar:
    """The factor c_j by which the Hodge map sends L^j(alpha), alpha primitive
    of bidegree seed = (a', b') and degree k' = a'+b', to c_j L^(m-j)(alpha),
    m = n-k':  c_j = (-1)^(k'(k'+1)/2) i^(a'-b') [j]_h! / [m-j]_h!."""
    kp = sum(seed)
    sign = -ONE if (kp * (kp + 1) // 2) % 2 else ONE
    return (sign * i_power(seed[0] - seed[1]) * qfact(j, mode)
            / qfact(n - j - kp, mode))


def hodge_rule(n: int, mode: HodgeMode = H_EQ_Q):
    """The Hodge map as a `string_images` rule: level j to m-j, c_j."""
    return lambda j, seed: (n - j - sum(seed), hodge_factor(n, seed, j, mode))


@memoize
def hodge_block(n: int, a: int, b: int, mode: HodgeMode = H_EQ_Q) -> ScalarMatrix:
    """Matrix of the Hodge map from the (a, b) to the (n-b, n-a) component.

    The map is known on the string basis: H . S = C, with S the string
    members of (a, b) in monomial coordinates and C their Hodge images, the
    `string_images` of the level map j -> n-j-k'.  H comes from one
    elimination of S^T . H^T = C^T, with no inverse of S and no block
    product; exact arithmetic makes it unique.
    """
    src, cols = basis_bidegree(n, a, b), string_columns(n, a, b)
    if len(cols) != len(src):
        raise ArithmeticError(
            f"string basis of ({a},{b}) has wrong size: {len(cols)} != {len(src)}")
    c = string_images(n, a, b, (n - b, n - a), hodge_rule(n, mode))
    return linalg.solve(string_basis_matrix(n, a, b).transpose(),
                        c.transpose()).transpose()


def hodge(u: FiberForm, mode: HodgeMode = H_EQ_Q) -> FiberForm:
    """Apply the Hodge map to any form, component by component."""
    return hodge_operator(u.n, mode).apply(u)


def hodge_inverse(u: FiberForm, mode: HodgeMode = H_EQ_Q) -> FiberForm:
    """Apply the inverse Hodge map.  The Hodge map squares to (-1)^k on
    k-forms, so its inverse is the Hodge map after negating odd degrees."""
    return hodge(FiberForm(u.n, {m: -c if m.degree % 2 else c
                                 for m, c in u.terms.items()}), mode)


def lambda_apply(u: FiberForm, mode: HodgeMode = H_EQ_Q) -> FiberForm:
    """Lefschetz lowering operator: conjugate of the raising operator by the
    Hodge map.  Adjoint to raising with respect to the metric.  Applies the
    cached `lambda_operator(u.n, mode)`, one block product per bidegree."""
    return lambda_operator(u.n, mode).apply(u)


def metric(u: FiberForm, v: FiberForm, mode: HodgeMode = H_EQ_Q) -> Scalar:
    """Sesquilinear pairing g(u, v) = vol(u ^ hodge(star(v))), linear in u
    and conjugate-linear in v.  Different bidegrees are orthogonal, so on
    coordinates it is the sum over shared bidegrees of x^T . G . conj(y),
    read off the cached Gram blocks as one dot product."""
    if u.n != v.n:
        raise ValueError(f"mixed ranks {u.n} and {v.n}")
    n = u.n
    dv = v.bidegree_split()
    pairs = []
    for bd, uc in u.bidegree_split().items():
        vc = dv.get(bd)
        if vc is None:
            continue
        index = {m: r for r, m in enumerate(basis_bidegree(n, *bd))}
        rows = gram(n, *bd, mode).rows
        pairs.extend((x * y.conjugate(), rows[index[mu]][index[mv]])
                     for mu, x in uc.terms.items()
                     for mv, y in vc.terms.items())
    return dot(pairs)


@memoize
def gram(n: int, a: int, b: int, mode: HodgeMode = H_EQ_Q) -> ScalarMatrix:
    """Gram matrix of the monomial basis of the (a, b) component.

    Entry (r, c) is vol(m_r ^ H(star(m_c))), assembled as P . H . S: S is
    `star_matrix(n, a, b)`, H the (b, a) Hodge block and P the Serre
    pairing of (a, b) with (n-a, n-b).  Blocks are cached per
    (n, a, b, mode) and never inverted.  The verify suites take this
    construction as given: unitarity of H, the adjointness of L and
    Lambda and the level rescaling follow from sparse identities between
    H, L, P and S and from scalar identities in the Hodge factors, checked
    without reading any Gram block.
    """
    return (serre_pairing(n, a, b) @ hodge_block(n, b, a, mode)
            @ star_matrix(n, a, b))


def star_matrix(n: int, a: int, b: int) -> ScalarMatrix:
    """Matrix of star from the (a, b) to the (b, a) monomial basis; star is
    conjugate-linear, so star(u) has coordinates S . conj(x)."""
    conj = basis_bidegree(n, b, a)
    return ScalarMatrix.from_columns(
        [to_coords(FiberForm(n, {m: ONE}).star(), conj)
         for m in basis_bidegree(n, a, b)], len(conj))


def gram_to_json(n: int, a: int, b: int, mode: HodgeMode = H_EQ_Q) -> dict:
    basis = basis_bidegree(n, a, b)
    g = gram(n, a, b, mode)
    return {
        "bidegree": [a, b],
        "basis": [str(m) for m in basis],
        "entries": [[str(x) for x in row] for row in g.rows],
    }


def certify_posdef(block: ScalarMatrix, q0) -> LDLCertificate:
    """Evaluate a Gram block at rational q0 > 0 and certify positive
    definiteness by exact LDL* pivots."""
    entries = [[x.evaluate(q0) for x in row] for row in block.rows]
    return linalg.hermitian_ldl(entries, q0)


@memoize
def serre_pairing(n: int, a: int, b: int) -> ScalarMatrix:
    """Wedge-to-volume pairing of the (a, b) and (n-a, n-b) components,
    cached per (n, a, b): `gram` and the metric suite share one block."""
    left = basis_bidegree(n, a, b)
    right = basis_bidegree(n, n - a, n - b)
    rows = []
    for ml in left:
        fl = FiberForm(n, {ml: ONE})
        rows.append([vol(fl.wedge(FiberForm(n, {mr: ONE}))) for mr in right])
    return ScalarMatrix(rows, ncols=len(right))


# ---------------------------------------------------------------------------
# Graded operators and block identities
# ---------------------------------------------------------------------------

class GradedOperator:
    """Linear map on the fiber algebra stored as per-bidegree blocks.

    blocks: read-only {source_bidegree: (target_bidegree, matrix)}, and
    neither attribute can be rebound, so cached operators can be shared;
    blocks that are identically zero are dropped.
    """

    __slots__ = ("n", "blocks")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, n: int, blocks: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", MappingProxyType({
            src: (tgt, mat) for src, (tgt, mat) in blocks.items()
            if mat.nrows and not mat.is_zero()}))

    def apply(self, u: FiberForm) -> FiberForm:
        out = FiberForm.zero(self.n)
        for bd, comp in u.bidegree_split().items():
            blk = self.blocks.get(bd)
            if blk is None:
                continue
            tgt_bd, mat = blk
            vec = mat.apply(to_coords(comp, basis_bidegree(self.n, *bd)))
            out = out + from_coords(self.n, vec, basis_bidegree(self.n, *tgt_bd))
        return out


def _first_nonzero(products):
    """The first entry of the sum of left . right over the (left, right)
    pairs of matrices that is not zero, as (row, col, pairs), else None.
    Rows are scanned in order and the smallest failing column is named;
    each entry that has a pair is one `dot_is_zero`, so no gcd is taken."""
    for i, row in enumerate(linalg.product_pairs(products)):
        j = min((j for j, pairs in row.items() if not dot_is_zero(pairs)),
                default=None)
        if j is not None:
            return i, j, row[j]
    return None


def _first_block_failure(blocks):
    """The witness of the first (src, tgt, products) whose sum of left .
    right over its (left, right) products is not zero, else None: one
    `_first_nonzero` per block.  The witness names the block src -> tgt
    and its first failing entry, {"bidegree", "target", "row", "col",
    "defect"}, and the defect is the only value canonicalised."""
    for src, tgt, products in blocks:
        bad = _first_nonzero(products)
        if bad is not None:
            row, col, pairs = bad
            return {"bidegree": list(src), "target": list(tgt), "row": row,
                    "col": col, "defect": render_scalar(dot(pairs))}
    return None


@memoize
def hodge_operator(n: int, mode: HodgeMode = H_EQ_Q) -> GradedOperator:
    blocks = {}
    for a in range(n + 1):
        for b in range(n + 1):
            blocks[(a, b)] = ((n - b, n - a), hodge_block(n, a, b, mode))
    return GradedOperator(n, blocks)


def l_operator(n: int) -> GradedOperator:
    blocks = {}
    for a in range(n):
        for b in range(n):
            blocks[(a, b)] = ((a + 1, b + 1), l_matrix(n, a, b))
    return GradedOperator(n, blocks)


@memoize
def lambda_operator(n: int, mode: HodgeMode = H_EQ_Q) -> GradedOperator:
    """Lowering operator as blocks H^-1 . L . H: the Hodge block of (a, b),
    the raising matrix on its (n-b, n-a) image, and the Hodge block of
    (n-b+1, n-a+1) back to (a-1, b-1), which is the inverse Hodge block up
    to the sign (-1)^(a+b).  Built once per (n, mode), for `lambda_apply`
    alone: the verify suites take this construction as given and use its
    action on the string basis, one level down with the factor
    (-1)^k' c_j c_(m-j+1) of `hodge_factor`."""
    blocks = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            mat = (hodge_block(n, n - b + 1, n - a + 1, mode)
                   @ l_matrix(n, n - b, n - a)
                   @ hodge_block(n, a, b, mode))
            blocks[(a, b)] = ((a - 1, b - 1), -mat if (a + b) % 2 else mat)
    return GradedOperator(n, blocks)
