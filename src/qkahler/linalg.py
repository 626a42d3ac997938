"""Exact linear algebra over Q(i)(q) scalars.

Row reduction is one Gauss-Jordan pass over the field per component: for
each column the pivot is the entry with the fewest numerator plus
denominator terms (the first such row on a tie), its row is divided by it,
and the column is cleared in every other row.  The reduced row echelon form
of a matrix is unique, so the pivot rule only keeps intermediate entries
small: ranks, kernels and inverses are the same scalars whatever the order.

`rank`, `kernel_basis` and `solve` (so `inverse`) eliminate one connected
component of the nonzero pattern at a time: rows and columns are joined
when an entry between them is nonzero.  The operators of the fiber are
covariant, so their matrices are block-diagonal by torus weight up to a
permutation, and a component is a weight block or part of one.  Rows of one
component meet no column of another, so the matrix is the direct sum of its
components: the rank is the sum of their ranks, and the reduced echelon
form, which is unique, is theirs put side by side.  Kernels and solutions
are therefore the same scalars a dense elimination gives.  A matrix with one
component goes through the same code.

A separate rational LDL* routine certifies positive definiteness of
Hermitian Gaussian-rational matrices by exhibiting exact pivots.  It skips
a row whose multiplier a[i][pick] is zero: the matrix is Hermitian, so
a[pick][i] is zero too, and the pivot step changes neither that row nor its
mirrored column.  Pivots and permutation are those of the full update.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import ZERO, ONE, dot, refuse_assignment


class ScalarMatrix:
    """Dense matrix with Scalar entries, immutable: rows is a tuple of
    tuples and no attribute can be rebound, so cached matrices can be
    shared safely.

    The column count is stored explicitly so zero-row matrices (maps into a
    zero space) keep their shape.
    """

    __slots__ = ("rows", "_ncols")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_ncols", ncols)

    @staticmethod
    def identity(m: int) -> "ScalarMatrix":
        return ScalarMatrix([[ONE if i == j else ZERO for j in range(m)]
                             for i in range(m)], ncols=m)

    @staticmethod
    def from_columns(cols, nrows: int) -> "ScalarMatrix":
        rows = [[ZERO] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                rows[i][j] = v
        return ScalarMatrix(rows, ncols=len(cols))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self.rows == other.rows

    def scale(self, c) -> "ScalarMatrix":
        return ScalarMatrix([[a * c if a else ZERO for a in r]
                             for r in self.rows], ncols=self._ncols)

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        rows = []
        for pairs in product_pairs([(self, other)]):
            row = [ZERO] * other.ncols
            for j, p in pairs.items():
                row[j] = dot(p)
            rows.append(row)
        return ScalarMatrix(rows, ncols=other.ncols)

    def apply(self, vec: list) -> list:
        return [dot(zip(r, vec)) for r in self.rows]

    def transpose(self) -> "ScalarMatrix":
        if not self.rows:
            return ScalarMatrix([[] for _ in range(self._ncols)] if self._ncols
                                else [], ncols=0)
        return ScalarMatrix([list(c) for c in zip(*self.rows)],
                            ncols=self.nrows)

    def conjugate(self) -> "ScalarMatrix":
        return ScalarMatrix([[a.conjugate() for a in r] for r in self.rows],
                            ncols=self._ncols)

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in r) + "]"
                         for r in self.rows)

    __repr__ = __str__


def _nonzeros(rows) -> list:
    """Per row, the (column, entry) pairs of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(r) if x] for r in rows]


def product_pairs(products):
    """The entries of the sum of left . right over the (left, right) pairs
    of matrices, as pairs of structural nonzeros.

    Yields one dict per row i, {j: [(left[i][k], right[k][j]), ...]} over
    the k where both factors are nonzero, with every product's pairs for
    entry (i, j) in one list: entry (i, j) of the sum is the sum of a * b
    over them, and an entry with no pair is zero.  One row is gathered at a
    time, so only that row's pairs are held.
    """
    if not products:
        return
    shape = (products[0][0].nrows, products[0][1].ncols)
    for left, right in products:
        if left.ncols != right.nrows or (left.nrows, right.ncols) != shape:
            raise ValueError(f"shape mismatch {left.nrows}x{left.ncols} "
                             f"times {right.nrows}x{right.ncols}")
    factors = [(_nonzeros(left.rows), _nonzeros(right.rows))
               for left, right in products]
    for i in range(shape[0]):
        acc = {}
        for left, right in factors:
            for k, a in left[i]:
                for j, b in right[k]:
                    p = acc.get(j)
                    if p is None:
                        acc[j] = [(a, b)]
                    else:
                        p.append((a, b))
        yield acc


def _rref(matrix: ScalarMatrix):
    """Reduced row echelon form over the field; returns (rows, pivots)."""
    rows = [list(r) for r in matrix.rows]
    pivots = []
    for c in range(matrix.ncols):
        r = len(pivots)
        if r == len(rows):
            break
        live = [i for i in range(r, len(rows)) if rows[i][c]]
        if not live:
            continue
        i = min(live, key=lambda k: len(rows[k][c].num.terms)
                + len(rows[k][c].den.terms))
        rows[i], rows[r] = rows[r], rows[i]
        piv = rows[r][c]
        rows[r] = [v / piv if v else ZERO for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [a - f * b if b else a
                           for a, b in zip(row, rows[r])]
        pivots.append((r, c))
    return rows, pivots


def _components(matrix: ScalarMatrix) -> list:
    """Connected components of the nonzero pattern as (rows, cols) pairs of
    ascending index lists.  A zero row is a component without columns and
    a zero column one without rows."""
    nr = matrix.nrows
    parent = list(range(nr + matrix.ncols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(matrix.rows):
        for j, v in enumerate(row):
            if v:
                parent[find(nr + j)] = find(i)
    groups = {}
    for x in range(len(parent)):
        rows, cols = groups.setdefault(find(x), ([], []))
        if x < nr:
            rows.append(x)
        else:
            cols.append(x - nr)
    return list(groups.values())


def _submatrix(matrix: ScalarMatrix, rows, cols) -> ScalarMatrix:
    return ScalarMatrix([[matrix.rows[i][j] for j in cols] for i in rows],
                        ncols=len(cols))


def rank(matrix: ScalarMatrix) -> int:
    return sum(len(_rref(_submatrix(matrix, rows, cols))[1])
               for rows, cols in _components(matrix) if rows and cols)


def kernel_basis(matrix: ScalarMatrix) -> list:
    """Deterministic basis of {x : M x = 0}, one vector per free column."""
    nc = matrix.ncols
    by_free = {}
    for rows, cols in _components(matrix):
        srows, pivots = _rref(_submatrix(matrix, rows, cols))
        pivot_of = {c: r for r, c in pivots}
        for f, col in enumerate(cols):
            if f in pivot_of:
                continue
            vec = [ZERO] * nc
            vec[col] = ONE
            for c, r in pivot_of.items():
                vec[cols[c]] = -srows[r][f]
            by_free[col] = vec
    return [by_free[f] for f in sorted(by_free)]


def solve(matrix: ScalarMatrix, rhs: ScalarMatrix) -> ScalarMatrix:
    """Solve M X = B for X; requires full column rank and consistency.

    Each component (R, C) of M's pattern solves M[R][C] X[C] = B[R] on the
    columns of B that are nonzero in R; X is zero on the others."""
    if matrix.nrows != rhs.nrows:
        raise ValueError("right hand side has wrong height")
    out = [[ZERO] * rhs.ncols for _ in range(matrix.ncols)]
    for rows, cols in _components(matrix):
        if not rows:
            raise ValueError("system is underdetermined")
        targets = [k for k in range(rhs.ncols)
                   if any(rhs.rows[i][k] for i in rows)]
        width = len(cols)
        aug = ScalarMatrix([[matrix.rows[i][j] for j in cols]
                            + [rhs.rows[i][k] for k in targets]
                            for i in rows], ncols=width + len(targets))
        srows, pivots = _rref(aug)
        if any(c >= width for _, c in pivots):
            raise ValueError("inconsistent linear system")
        if len(pivots) != width:
            raise ValueError("system is underdetermined")
        for r, c in pivots:
            for t, k in enumerate(targets):
                out[cols[c]][k] = srows[r][width + t]
    return ScalarMatrix(out, ncols=rhs.ncols)


def inverse(matrix: ScalarMatrix) -> ScalarMatrix:
    if matrix.nrows != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    return solve(matrix, ScalarMatrix.identity(matrix.nrows))


# ---------------------------------------------------------------------------
# Rational LDL* certification
# ---------------------------------------------------------------------------

@dataclass
class LDLCertificate:
    q0: Fraction
    pivots: list
    permutation: list
    positive_definite: bool
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "q0": str(self.q0),
            "pivots": [str(p) for p in self.pivots],
            "permutation": self.permutation,
            "verdict": "positive-definite" if self.positive_definite
                       else "not-positive-definite",
            "reason": self.reason,
        }


def hermitian_ldl(entries, q0) -> LDLCertificate:
    """Exact LDL* with symmetric pivoting on a Hermitian matrix over Q(i).

    entries: square list-of-lists of GaussianRational.  Positive definite
    iff the returned certificate carries a full set of positive pivots.
    """
    m = len(entries)
    a = [[entries[i][j] for j in range(m)] for i in range(m)]
    for i in range(m):
        if not a[i][i].is_real():
            return LDLCertificate(q0, [], [], False, "non-real diagonal")
        for j in range(i):
            if a[i][j] != a[j][i].conjugate():
                return LDLCertificate(q0, [], [], False, "not Hermitian")
    remaining = list(range(m))
    perm = []
    pivots = []
    while remaining:
        pick = None
        for idx in remaining:
            if a[idx][idx].re > 0:
                pick = idx
                break
        if pick is None:
            return LDLCertificate(q0, pivots, perm, False,
                                  "no positive pivot available")
        d = a[pick][pick]
        perm.append(pick)
        pivots.append(d.re)
        remaining.remove(pick)
        # the Schur complement stays Hermitian: update the upper triangle
        # in remaining order and mirror it; a zero multiplier changes
        # nothing
        for t, i in enumerate(remaining):
            if not a[i][pick]:
                continue
            f = a[i][pick] / d
            for j in remaining[t:]:
                v = a[i][j] - f * a[pick][j]
                a[i][j] = v
                a[j][i] = v.conjugate()
    return LDLCertificate(q0, pivots, perm, True)
