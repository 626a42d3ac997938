"""Lefschetz operator on the fiber algebra: wedging with the fundamental
form, primitive spaces as exact kernels, and the level decomposition.

The fundamental 2-form is kappa = i * sum_a e+[a]^e-[a].  Wedging with it
raises (a, b) to (a+1, b+1).  Primitive elements of degree k are those
killed by the (n-k+1)-st power; each degree-k primitive seed generates a
string L^0, L^1, ..., L^(n-k) and the strings of all seeds form a basis of
the whole algebra.  Its change of basis to monomial coordinates, S, is
inverted once per bidegree in `string_basis_inverse`, for
lefschetz_decompose alone: each Hodge block is one elimination of
H . S = C in `hodge.hodge_block`, with no inverse of S.  `string_images`
maps members to multiples of members, for the Hodge and lowering blocks and
for the raising and H . S = C premises of the verify suites.
"""

from __future__ import annotations

from .scalars import ZERO, ONE, I, HodgeMode, H_EQ_Q, Scalar, qint, memoize
from .fiber import FiberForm, basis_bidegree
from . import linalg
from .linalg import ScalarMatrix


def kappa(n: int) -> FiberForm:
    """The fundamental (1,1)-form."""
    acc = FiberForm.zero(n)
    for a in range(1, n + 1):
        acc = acc + FiberForm.monomial(n, (a,), (a,))
    return acc.scale(I)


@memoize
def kappa_power(n: int, l: int) -> FiberForm:
    """l-fold wedge power of the fundamental form, computed by iteration."""
    if l < 0:
        raise ValueError("negative wedge power")
    return FiberForm.unit(n) if l == 0 else kappa_power(n, l - 1).wedge(kappa(n))


def L(u: FiberForm) -> FiberForm:
    """Lefschetz raising: wedge with the fundamental form."""
    return L_power(u, 1)


def L_power(u: FiberForm, j: int) -> FiberForm:
    if j < 0:
        raise ValueError("negative Lefschetz power")
    return kappa_power(u.n, j).wedge(u)


def to_coords(u: FiberForm, basis: list) -> list:
    index = {m: r for r, m in enumerate(basis)}
    vec = [ZERO] * len(basis)
    for m, c in u.terms.items():
        r = index.get(m)
        if r is None:
            raise ValueError(f"monomial {m} outside the given basis")
        vec[r] = c
    return vec


def from_coords(n: int, vec: list, basis: list) -> FiberForm:
    return FiberForm(n, {m: c for m, c in zip(basis, vec) if c})


@memoize
def l_matrix(n: int, a: int, b: int) -> ScalarMatrix:
    """Matrix of the Lefschetz map on the (a, b) component."""
    return l_power_matrix(n, a, b, 1)


def l_power_matrix(n: int, a: int, b: int, j: int) -> ScalarMatrix:
    """Matrix of the j-th Lefschetz power out of the (a, b) component."""
    src = basis_bidegree(n, a, b)
    tgt = basis_bidegree(n, a + j, b + j)
    cols = [to_coords(L_power(FiberForm(n, {m: ONE}), j), tgt) for m in src]
    return ScalarMatrix.from_columns(cols, len(tgt))


@memoize
def primitive_basis(n: int, a: int, b: int) -> tuple:
    """Deterministic basis of the primitive (a, b) component.

    Kernel of the (n-k+1)-st Lefschetz power, k = a+b; empty above the
    middle degree.
    """
    k = a + b
    if k > n or a > n or b > n or a < 0 or b < 0:
        return ()
    mat = l_power_matrix(n, a, b, n - k + 1)
    src = basis_bidegree(n, a, b)
    return tuple(from_coords(n, v, src) for v in linalg.kernel_basis(mat))


def bidegree_levels(n: int, a: int, b: int) -> list:
    """Lefschetz levels j contributing to the (a, b) component, with the
    bidegree of the primitive seeds at each level.

    A degree-k' seed survives to level j only while j <= n-k', i.e.
    j >= k-n for the ambient degree k = a+b.
    """
    k = a + b
    out = []
    for j in range(max(0, k - n), min(a, b) + 1):
        out.append((j, (a - j, b - j)))
    return out


@memoize
def string_columns(n: int, a: int, b: int) -> tuple:
    """String basis of the (a, b) component.

    Returns (j, seed_bidegree, seed_index, form) tuples, form = L^j(seed),
    ordered by level then seed.  The forms are a basis; the change of basis
    to monomial coordinates is invertible, which the Hodge construction
    relies on and the strings suite checks by rank.
    """
    return tuple((j, (ap, bp), idx, L_power(p, j))
                 for j, (ap, bp) in bidegree_levels(n, a, b)
                 for idx, p in enumerate(primitive_basis(n, ap, bp)))


def string_basis_matrix(n: int, a: int, b: int) -> ScalarMatrix:
    basis = basis_bidegree(n, a, b)
    cols = [to_coords(f, basis) for _, _, _, f in string_columns(n, a, b)]
    return ScalarMatrix.from_columns(cols, len(basis))


def string_images(n: int, a: int, b: int, tgt: tuple, rule) -> ScalarMatrix:
    """Per (a, b) member L^j(alpha), in `string_columns` order, the column
    of c . L^j'(alpha) in tgt's monomial coordinates, (j', c) = rule(j,
    seed bidegree); 0 where tgt has no level-j' member of alpha's string."""
    basis = basis_bidegree(n, *tgt)
    members = {col[:3]: col[3] for col in string_columns(n, *tgt)}
    cols = []
    for j, seed, idx, _ in string_columns(n, a, b):
        jp, c = rule(j, seed)
        form = members.get((jp, seed, idx))
        cols.append([ZERO] * len(basis) if form is None
                    else to_coords(form.scale(c), basis))
    return ScalarMatrix.from_columns(cols, len(basis))


@memoize
def string_basis_inverse(n: int, a: int, b: int) -> ScalarMatrix:
    """Inverse of the string basis matrix: monomial coordinates of the (a, b)
    component to string coordinates.  No Hodge parameter enters, so one
    inverse per (n, a, b) serves every mode.  Only `lefschetz_decompose`
    reads it; the Hodge blocks solve H . S = C instead."""
    return linalg.inverse(string_basis_matrix(n, a, b))


def lambda_string_factor(n: int, k: int, j: int, mode: HodgeMode = H_EQ_Q) -> Scalar:
    """Eigenfactor of the lowering operator along a string.

    On L^j(alpha) with alpha primitive of degree k the lowering operator
    gives [j]_h [n-j-k+1]_h L^{j-1}(alpha); this returns that product.
    """
    return qint(j, mode) * qint(n - j - k + 1, mode)


def lefschetz_decompose(u: FiberForm, mode: HodgeMode = H_EQ_Q) -> list:
    """Split a homogeneous form into Lefschetz levels.

    Returns [(j, alpha_j)] by increasing j, with u = sum_j L^j(alpha_j) and
    every alpha_j primitive and nonzero.  Each (a, b) component has string
    coordinates x = S^-1 . coords(u), and alpha_j sums x_i * seed_i over the
    string members at level j.  The string basis involves no Hodge
    parameter, so the result does not depend on `mode`; it is accepted so
    that every form query takes one.
    """
    if not u.is_homogeneous():
        raise ValueError("lefschetz_decompose needs a degree-homogeneous form")
    n = u.n
    levels = {}
    for (a, b), comp in u.bidegree_split().items():
        x = string_basis_inverse(n, a, b).apply(
            to_coords(comp, basis_bidegree(n, a, b)))
        for c, (j, (ap, bp), idx, _) in zip(x, string_columns(n, a, b)):
            if c:
                part = primitive_basis(n, ap, bp)[idx].scale(c)
                levels[j] = levels[j] + part if j in levels else part
    return sorted(levels.items())

