"""Independent reference implementations used to cross-check the engine.

Everything in this module is deliberately naive: plain dict Laurent
polynomials, textbook Gaussian elimination over Fraction-valued complex
numbers, Sylvester minors for positivity, and rewrite reducers that walk
words from the right instead of the left.  Slow but transparently correct,
which is what an oracle is for.  Nothing here imports the linear algebra,
rewrite, or Hodge code under test; only the scalar type is shared, and the
scalar type has its own dict-arithmetic oracle below.  Six exceptions sit
at the end.  The form-level metric wedges forms through the engine's Hodge
map, so it checks the Gram-block path of `metric` and nothing else.  The
direct adjointness check reads the engine's Gram blocks and zero test: it
is the block check that the verify suites' derived adjoint entries stand in
for, kept here so that tests can hold the two against each other.  The
direct star and Serre checks of the Hodge blocks read the engine's star
matrices, Serre pairing and zero test in the same way, against the factor
identities the suites check instead, and the all-pairs Serre pairing wedges
every pair of basis monomials, against the weight-restricted pairing.  The
direct level-rescaling check and the exact-rank Lefschetz isomorphism
check read the engine's Gram blocks, string basis and raising powers in
the same way, against the entries the suites derive instead.  The
graded-operator products, the counting operators H and K and
`combination_defect` state the sl2 relations and the Hodge square on the
engine's operator blocks, with the engine's zero test: the suites check
those relations as scalar identities on the string basis instead, and the
tests hold the two against each other.  The Hopf half of quantum SU(2),
coproduct and counit, multiplies tensor legs through the engine's
`SU2Element` product: it is the reference the antipode's convolution axiom
is checked against, not an oracle for the ring, which the rightmost-first
SU(2) reducer above checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import product

from qkahler import linalg
from qkahler.fiber import FiberForm, basis_bidegree, basis_degree
from qkahler.hodge import (
    GradedOperator, _first_block_failure, _first_nonzero, gram, hodge,
    l_operator, serre_pairing, star_matrix, vol,
)
from qkahler.lefschetz import l_power_matrix, string_columns, to_coords
from qkahler.linalg import ScalarMatrix
from qkahler.scalars import (
    GR_ZERO, H_EQ_Q, Scalar, ONE, ZERO, qfact, qint, qint_signed,
    render_scalar,
)
from qkahler.su2 import SU2Element


# ---------------------------------------------------------------------------
# complex rational arithmetic on (re, im) Fraction pairs
# ---------------------------------------------------------------------------

C_ZERO = (Fraction(0), Fraction(0))
C_ONE = (Fraction(1), Fraction(0))


def c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def c_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def c_div(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    if d == 0:
        raise ZeroDivisionError("complex rational division by zero")
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def c_conj(x):
    return (x[0], -x[1])


def eval_scalar(s: Scalar, q0) -> tuple:
    g = s.evaluate(Fraction(q0))
    return (g.re, g.im)


def eval_matrix(matrix, q0) -> list:
    return [[eval_scalar(matrix.rows[i][j], q0) for j in range(matrix.ncols)]
            for i in range(matrix.nrows)]


def c_matmul(x, y) -> list:
    """Product of two complex-rational matrices given as lists of rows,
    y with at least one column; products with a zero factor are skipped."""
    out = []
    for row in x:
        acc = [C_ZERO] * len(y[0])
        for k, a in enumerate(row):
            if a != C_ZERO:
                for j, b in enumerate(y[k]):
                    if b != C_ZERO:
                        acc[j] = c_add(acc[j], c_mul(a, b))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# textbook Gaussian elimination over the complex rationals
# ---------------------------------------------------------------------------

def gauss_rank(rows) -> int:
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if m[i][c] != C_ZERO), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(nr):
            if i != r and m[i][c] != C_ZERO:
                f = c_div(m[i][c], pv)
                m[i] = [c_sub(m[i][j], c_mul(f, m[r][j])) for j in range(nc)]
        r += 1
        if r == nr:
            break
    return r


def gauss_det(rows) -> tuple:
    m = [list(r) for r in rows]
    nr = len(m)
    det = C_ONE
    for c in range(nr):
        pivot = next((i for i in range(c, nr) if m[i][c] != C_ZERO), None)
        if pivot is None:
            return C_ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = (-det[0], -det[1])
        pv = m[c][c]
        det = c_mul(det, pv)
        for i in range(c + 1, nr):
            if m[i][c] != C_ZERO:
                f = c_div(m[i][c], pv)
                m[i] = [c_sub(m[i][j], c_mul(f, m[c][j])) for j in range(nr)]
    return det


def gauss_inverse(rows) -> list:
    """Inverse of a square complex-rational matrix by Gauss-Jordan on
    [M | I]; raises ValueError when M is singular."""
    m = len(rows)
    aug = [list(r) + [C_ONE if i == j else C_ZERO for j in range(m)]
           for i, r in enumerate(rows)]
    for c in range(m):
        pivot = next((i for i in range(c, m) if aug[i][c] != C_ZERO), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [c_div(x, pv) for x in aug[c]]
        for i in range(m):
            if i != c and aug[i][c] != C_ZERO:
                f = aug[i][c]
                aug[i] = [c_sub(x, c_mul(f, y)) for x, y in zip(aug[i], aug[c])]
    return [r[m:] for r in aug]


def sylvester_positive(rows) -> bool:
    """Positive definiteness of a Hermitian complex-rational matrix by
    leading principal minors."""
    m = len(rows)
    for k in range(1, m + 1):
        minor = gauss_det([row[:k] for row in rows[:k]])
        if minor[1] != 0:
            raise AssertionError("non-real leading minor of a Hermitian matrix")
        if minor[0] <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# dict-based Laurent polynomial arithmetic (oracle for the scalar layer)
# ---------------------------------------------------------------------------

def dict_add(p, r):
    out = dict(p)
    for e, c in r.items():
        s = c_add(out.get(e, C_ZERO), c)
        if s == C_ZERO:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def dict_mul(p, r):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            e = e1 + e2
            s = c_add(out.get(e, C_ZERO), c_mul(c1, c2))
            if s == C_ZERO:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def dict_eval(p, q0: Fraction) -> tuple:
    acc = C_ZERO
    for e, c in p.items():
        acc = c_add(acc, c_mul(c, (Fraction(q0) ** e, Fraction(0))))
    return acc


def laurent_evaluate(p, q0: Fraction):
    """A `LaurentPoly` at q0 as the per-term sum of c_e q0^e: one power,
    one Gaussian product and one sum per term, no Horner pass."""
    acc = GR_ZERO
    for e, c in p.terms.items():
        acc = acc + c * (q0 ** e)
    return acc


# ---------------------------------------------------------------------------
# quantum integers at a numeric point
# ---------------------------------------------------------------------------

def naive_qint(m: int, h0: Fraction) -> Fraction:
    h0 = Fraction(h0)
    if h0 == 1:
        return Fraction(m)
    return (h0 ** m - h0 ** (-m)) / (h0 - h0 ** (-1))


def naive_qfact(m: int, h0: Fraction) -> Fraction:
    acc = Fraction(1)
    for j in range(1, m + 1):
        acc *= naive_qint(j, h0)
    return acc


# ---------------------------------------------------------------------------
# rightmost-first reducer for the fiber exterior algebra
# ---------------------------------------------------------------------------

_NEG_Q = -Scalar.q_power(1)
_NEG_QINV = -Scalar.q_power(-1)
_NEG_Q2 = -Scalar.q_power(2)
_ONE_MINUS_Q2 = ONE - Scalar.q_power(2)


def reduce_rightmost(n: int, word: tuple) -> dict:
    """Normal form of a wedge word, scanning for redexes from the right.

    Same rewrite rules as the engine but the opposite reduction strategy;
    confluence of the relations means the two must agree on every input.
    Words are tuples of (sign, index) with sign +1 for holomorphic
    generators and -1 for antiholomorphic ones.
    """
    out: dict = {}
    stack = [(tuple(word), ONE)]
    while stack:
        w, coef = stack.pop()
        pos = -1
        for p in range(len(w) - 2, -1, -1):
            s1, i1 = w[p]
            s2, i2 = w[p + 1]
            if (s1 == s2 and i1 >= i2) or (s1 == -1 and s2 == +1):
                pos = p
                break
        if pos < 0:
            key = (tuple(i for s, i in w if s == +1),
                   tuple(i for s, i in w if s == -1))
            acc = out.get(key, ZERO) + coef
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
            continue
        head, tail = w[:pos], w[pos + 2:]
        s1, i1 = w[pos]
        s2, i2 = w[pos + 1]
        if s1 == s2:
            if i1 == i2:
                continue
            f = _NEG_Q if s1 == +1 else _NEG_QINV
            stack.append((head + ((s1, i2), (s1, i1)) + tail, coef * f))
        elif i1 != i2:
            stack.append((head + ((+1, i2), (-1, i1)) + tail, coef * _NEG_Q))
        else:
            stack.append((head + ((+1, i1), (-1, i1)) + tail, coef * _NEG_Q2))
            for a in range(i1 + 1, n + 1):
                stack.append((head + ((+1, a), (-1, a)) + tail,
                              coef * _ONE_MINUS_Q2))
    return out


# ---------------------------------------------------------------------------
# rightmost-first reducer for the quantum SU(2) coordinate ring
# ---------------------------------------------------------------------------

_QP = Scalar.q_power


def _su2_redex(x: str, y: str):
    """Rewrite the adjacent pair x y, or return None if it is normal.

    Encodes ab = q ba, ac = q ca, bd = q db, cd = q dc, bc = cb,
    ad = 1 + q bc and da = ad - (q - q^-1) bc, oriented so that letters
    sort into a..d order and no word keeps both an a and a d.
    """
    if x == "b" and y == "a":
        return [("ab", _QP(-1))]
    if x == "c" and y == "a":
        return [("ac", _QP(-1))]
    if x == "d" and y == "b":
        return [("bd", _QP(-1))]
    if x == "d" and y == "c":
        return [("cd", _QP(-1))]
    if x == "c" and y == "b":
        return [("bc", ONE)]
    if x == "d" and y == "a":
        return [("ad", ONE), ("bc", -(_QP(1) - _QP(-1)))]
    if x == "a" and y == "d":
        return [("", ONE), ("bc", _QP(1))]
    return None


def su2_reduce_word(word: str) -> dict:
    """Normal form {(al,be,ga,de): Scalar} of a word in the letters abcd,
    rewriting the rightmost redex first.

    A sorted word can still hold both an a and a d with b's and c's in
    between; in that case the last a is walked rightward with ax = q xa
    until the determinant relation can fire on the adjacent pair.
    """
    out: dict = {}
    stack = [(word, ONE)]
    while stack:
        w, coef = stack.pop()
        pos = -1
        repl = None
        for p in range(len(w) - 2, -1, -1):
            repl = _su2_redex(w[p], w[p + 1])
            if repl is not None:
                pos = p
                break
        if pos < 0 and "a" in w and "d" in w:
            # sorted word still holding an a...d pair: commute the last a
            # through the b/c run in one step, a mid d = q^L mid (1 + q bc)
            p = w.rindex("a")
            r = w.index("d", p)
            mid = w[p + 1:r]
            head2, tail2 = w[:p], w[r + 1:]
            ln = len(mid)
            stack.append((head2 + mid + tail2, coef * _QP(ln)))
            stack.append((head2 + mid + "bc" + tail2, coef * _QP(ln + 1)))
            continue
        if pos < 0:
            key = (w.count("a"), w.count("b"), w.count("c"), w.count("d"))
            acc = out.get(key, ZERO) + coef
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
            continue
        head, tail = w[:pos], w[pos + 2:]
        for mid, f in repl:
            stack.append((head + mid + tail, coef * f))
    return out


# ---------------------------------------------------------------------------
# form-level metric
# ---------------------------------------------------------------------------

def _degree_parts(u) -> dict:
    parts: dict = {}
    for m, c in u.terms.items():
        parts.setdefault(m.degree, {})[m] = c
    return {k: type(u)(u.n, t) for k, t in parts.items()}


def form_metric(u, v, mode):
    """g(u, v) = sum_k vol(u_k ^ hodge(star(v_k))) over the degrees k: one
    wedge, star and Hodge image per degree, no Gram block."""
    dv = _degree_parts(v)
    acc = ZERO
    for k, uk in _degree_parts(u).items():
        vk = dv.get(k)
        if vk is not None:
            acc = acc + vol(uk.wedge(hodge(vk.star(), mode)))
    return acc


# ---------------------------------------------------------------------------
# direct metric adjointness
# ---------------------------------------------------------------------------

def adjoint_defect(op, other, mode=H_EQ_Q):
    """None when `other` is the metric adjoint of `op`, g(op(u), v) =
    g(u, other(v)) for all u, v; otherwise a witness of the first source
    bidegree where that fails.  On coordinates g(u, v) = x^T . G . conj(y),
    so each block M: src -> tgt of `op` needs a block W: tgt -> src of
    `other` with M^T . G_tgt = G_src . conj(W), and `other` may have no
    block that no block of `op` maps into.  No Gram block is inverted, and
    each identity is one zero test per entry, with no product formed.

    A missing or mistargeted W, or a block of `other` that nothing maps
    into, is named {"bidegree": [a, b]}; a failing entry is named as in
    `combination_defect`, its defect the entry of M^T G_tgt - G_src conj(W)."""
    if op.n != other.n:
        raise ValueError("rank mismatch")
    missing = []  # the first source without its W, which ends the scan

    def blocks():
        for src, (tgt, mat) in sorted(op.blocks.items()):
            back, w = other.blocks.get(tgt, (None, None))
            if back != src:
                missing.append(src)
                return
            yield src, tgt, [(mat.transpose(), gram(op.n, *tgt, mode)),
                             (gram(op.n, *src, mode), -w.conjugate())]

    wit = _first_block_failure(blocks())
    if wit is not None:
        return wit
    if missing:
        return {"bidegree": list(missing[0])}
    hit = {tgt for tgt, _ in op.blocks.values()}
    extra = min((src for src in other.blocks if src not in hit), default=None)
    return None if extra is None else {"bidegree": list(extra)}


# ---------------------------------------------------------------------------
# direct star and Serre symmetries of the Hodge blocks, all-pairs Serre pairing
# ---------------------------------------------------------------------------

def hodge_star_defect(n, op):
    """None when the Hodge operator op commutes with star on every block,
    H_(b,a) . S_(a,b) = S_(n-b,n-a) . conj(H_(a,b)), S the star matrices;
    else the witness of `_first_block_failure`, named by (a, b) and the
    bidegree (n-a, n-b) where both sides land."""
    return _first_block_failure(
        ((a, b), (n - a, n - b),
         [(op.blocks[b, a][1], star_matrix(n, a, b)),
          (star_matrix(n, n - b, n - a).scale(-ONE),
           op.blocks[a, b][1].conjugate())])
        for a, b in product(range(n + 1), repeat=2))


def hodge_serre_defect(n, op):
    """None when the Hodge operator op is (-1)^(a+b)-symmetric for the Serre
    pairing P on every block, H_(a,b)^T . P_(n-b,n-a) = (-1)^(a+b) P_(a,b) .
    H_(b,a); else the witness of `_first_block_failure`, named by (a, b) and
    its target (n-b, n-a)."""
    return _first_block_failure(
        ((a, b), (n - b, n - a),
         [(op.blocks[a, b][1].transpose(), serre_pairing(n, n - b, n - a)),
          (serre_pairing(n, a, b).scale(ONE if (a + b) % 2 else -ONE),
           op.blocks[b, a][1])])
        for a, b in product(range(n + 1), repeat=2))


def serre_pairing_all_pairs(n, a, b):
    """The Serre pairing of (a, b) with (n-a, n-b), one wedge per pair of
    basis monomials, whatever their weights."""
    right = basis_bidegree(n, n - a, n - b)
    return ScalarMatrix(
        [[vol(FiberForm(n, {ml: ONE}).wedge(FiberForm(n, {mr: ONE})))
          for mr in right] for ml in basis_bidegree(n, a, b)],
        ncols=len(right))


# ---------------------------------------------------------------------------
# direct level rescaling and Lefschetz isomorphism
# ---------------------------------------------------------------------------

def level_coords(n, a, b, j):
    """Monomial coordinates of L^j of the (a, b) seeds, one column per seed,
    read off the string basis of (a+j, b+j)."""
    basis = basis_bidegree(n, a + j, b + j)
    return ScalarMatrix.from_columns(
        [to_coords(f, basis) for level, seed, _, f
         in string_columns(n, a + j, b + j) if level == j and seed == (a, b)],
        len(basis))


def level_rescaling_failure(n, mode):
    """The first {bidegree, level} of a seed bidegree (a, b), k = a+b, and a
    level j where the Gram matrices of the seeds and of their L^j images
    differ by more than c = [j]_h! [n-k]_h! / [n-j-k]_h!, else None.

    With S_j the coordinates of L^j of the seeds, that is one zero test of
    S_j^T G_(a+j,b+j) conj(S_j) - c S_0^T G_(a,b) conj(S_0); the only
    products formed are S_j^T G."""
    for k in range(n + 1):
        for b in range(k + 1):
            a = k - b
            s0 = level_coords(n, a, b, 0)
            g0, s0_bar = s0.transpose() @ gram(n, a, b, mode), s0.conjugate()
            for j in range(1, n - k + 1):
                c = qfact(j, mode) * qfact(n - k, mode) / qfact(n - j - k, mode)
                sj = level_coords(n, a, b, j)
                if _first_nonzero([
                        (sj.transpose() @ gram(n, a + j, b + j, mode),
                         sj.conjugate()),
                        (g0, s0_bar.scale(-c))]) is not None:
                    return {"bidegree": [a, b], "level": j}
    return None


def verify_lefschetz_iso(n: int, k: int) -> dict:
    """Check that the (n-k)-th Lefschetz power maps degree k isomorphically
    onto degree 2n-k.  Returns a report with the exact rank, summed over
    the (a, b) -> (a+n-k, b+n-k) blocks, since the power preserves the
    bidegree grading."""
    if not 0 <= k < n:
        raise ValueError(f"requires 0 <= k < n, got k={k}, n={n}")
    dim = len(basis_degree(n, k))
    r = sum(linalg.rank(l_power_matrix(n, k - b, b, n - k))
            for b in range(k + 1))
    return {
        "n": n,
        "k": k,
        "dimension": dim,
        "rank": r,
        "full_rank": r == dim == len(basis_degree(n, 2 * n - k)),
    }


# ---------------------------------------------------------------------------
# graded operators: products, the counting operators and the sl2 relations
# ---------------------------------------------------------------------------

def diagonal(n, eig):
    """Diagonal operator with eigenvalue eig(a, b) on each component."""
    blocks = {}
    for a in range(n + 1):
        for b in range(n + 1):
            lam = eig(a, b)
            if lam:
                dim = len(basis_bidegree(n, a, b))
                blocks[(a, b)] = ((a, b), ScalarMatrix(
                    [[lam if i == j else ZERO for j in range(dim)]
                     for i in range(dim)], ncols=dim))
    return GradedOperator(n, blocks)


def compose(x, y):
    """x after y, every block product multiplied out."""
    if x.n != y.n:
        raise ValueError("rank mismatch")
    blocks = {}
    for src, (mid, mat1) in y.blocks.items():
        blk = x.blocks.get(mid)
        if blk is not None:
            blocks[src] = (blk[0], blk[1] @ mat1)
    return GradedOperator(x.n, blocks)


def scale(op, c):
    return GradedOperator(op.n, {src: (tgt, mat.scale(c))
                                 for src, (tgt, mat) in op.blocks.items()})


def conjugate(op):
    return GradedOperator(op.n, {src: (tgt, mat.conjugate())
                                 for src, (tgt, mat) in op.blocks.items()})


def h_operator(n, mode=H_EQ_Q):
    """Counting operator H: multiplication by [a+b-n]_h on each component."""
    return diagonal(n, lambda a, b: qint_signed(a + b - n, mode))


def k_operator(n, mode=H_EQ_Q, inverse=False):
    """Group-like counting operator K (or its inverse): h^(+-(a+b-n))."""
    sgn = -1 if inverse else 1
    return diagonal(n, lambda a, b: mode.h_power(sgn * (a + b - n)))


def combination_defect(terms):
    """None when the sum of c . X1 ... Xr over the terms (c, [X1, ..., Xr])
    of graded operators is zero; otherwise a witness of its first nonzero
    entry, {"bidegree", "target", "row", "col", "defect"}, scanning sources
    in sorted order, then targets in sorted order, then the entry.  With
    the terms of lhs - rhs, the defect is lhs - rhs at that entry, and it
    is the only value canonicalised.

    Each term is split as (c . X1 ... X(r-1)) . Xr: the prefix is built as
    one canonical operator (c times the identity when r = 1), and its
    product with Xr is never formed.  At each source the terms are grouped
    by target, and each group must vanish on its own, as the blocks of one
    GradedOperator do; a term that meets an absent block adds nothing.
    Each entry of a group is the engine's zero test, `dot_is_zero`, so no
    gcd is taken."""
    n = terms[0][1][0].n
    if any(x.n != n for _, factors in terms for x in factors):
        raise ValueError("rank mismatch")
    split = []
    for c, factors in terms:
        *head, last = factors
        if head:
            prefix = reduce(compose, head)
            prefix = prefix if c == ONE else scale(prefix, c)
        else:
            prefix = diagonal(n, lambda a, b: c)
        split.append((prefix, last))

    def blocks():
        for src in sorted({s for _, last in split for s in last.blocks}):
            groups = {}
            for prefix, last in split:
                mid, right = last.blocks.get(src, (None, None))
                blk = prefix.blocks.get(mid)
                if blk is not None:
                    groups.setdefault(blk[0], []).append((blk[1], right))
            for tgt in sorted(groups):
                yield src, tgt, groups[tgt]

    return _first_block_failure(blocks())


def operator_relations(n, mode, lam):
    """{name: terms of lhs - rhs} of each relation of `uqsl2.sl2_relations`,
    over graded operators: the engine's L, the given Lambda, and the H and
    K above.  The relation that needs h != 1 is left out at h = 1."""
    lop, h, k = l_operator(n), h_operator(n, mode), k_operator(n, mode)
    kinv = k_operator(n, mode, inverse=True)
    ident = diagonal(n, lambda a, b: ONE)
    h2, hm2, two = mode.h_power(2), mode.h_power(-2), qint(2, mode)
    out = {
        "[H,L]_{h^-2} = [2]_h L K":
            [(ONE, [h, lop]), (-hm2, [lop, h]), (-two, [lop, k])],
        "[L,Lambda] = H":
            [(ONE, [lop, lam]), (-ONE, [lam, lop]), (-ONE, [h])],
        "[H,Lambda]_{h^2} = -[2]_h Lambda K":
            [(ONE, [h, lam]), (-h2, [lam, h]), (two, [lam, k])],
        "K K^-1 = id": [(ONE, [k, kinv]), (-ONE, [ident])],
        "K L K^-1 = h^2 L": [(ONE, [k, lop, kinv]), (-h2, [lop])],
        "K Lambda K^-1 = h^-2 Lambda":
            [(ONE, [k, lam, kinv]), (-hm2, [lam])],
        "literal form -[2]_{h^2} K Lambda (expected to differ for h != 1)":
            [(ONE, [h, lam]), (-h2, [lam, h]), (h2 + hm2, [k, lam])],
    }
    hdiff = mode.h_power(1) - mode.h_power(-1)
    if hdiff:
        out["[L,Lambda] = (K - K^-1)/(h - h^-1)"] = [
            (ONE, [lop, lam]), (-ONE, [lam, lop]),
            (-ONE / hdiff, [k]), (ONE / hdiff, [kinv])]
    return out


def _shift_matrix(m, factor):
    """The (m+1) x (m+1) matrix of a weighted shift (step, weight) on a
    string of length m+1, as lists of rows: column j holds weight(m, j)
    in row j + step."""
    step, weight = factor
    rows = [[ZERO] * (m + 1) for _ in range(m + 1)]
    for j in range(m + 1):
        if 0 <= j + step <= m:
            rows[j + step][j] = weight(m, j)
    return rows


def shift_relation_defect(n, terms):
    """The oracle for `uqsl2.relation_defect`: each term c . X1 ... Xr of
    weighted shifts multiplied out as dense matrices on every string of
    length m+1, m <= n, and summed; the witness of the first nonzero entry
    by m, then column j, then row."""
    for m in range(n + 1):
        size = range(m + 1)
        total = [[ZERO] * (m + 1) for _ in size]
        for c, factors in terms:
            acc = [[c if i == j else ZERO for j in size] for i in size]
            for factor in factors:
                mat = _shift_matrix(m, factor)
                acc = [[sum((acc[i][t] * mat[t][j] for t in size), ZERO)
                        for j in size] for i in size]
            total = [[x + y for x, y in zip(r0, r1)]
                     for r0, r1 in zip(total, acc)]
        for j in size:
            for i in size:
                if total[i][j]:
                    return {"length": m + 1, "level": j,
                            "defect": render_scalar(total[i][j])}
    return None


# ---------------------------------------------------------------------------
# the Hopf half of quantum SU(2): coproduct and counit
# ---------------------------------------------------------------------------

def _acc(table: dict, key, value) -> None:
    s = table.get(key, ZERO) + value
    if s:
        table[key] = s
    else:
        table.pop(key, None)


def _leg(m: tuple) -> SU2Element:
    return SU2Element({m: ONE})


class TensorElement:
    """Sum of two-leg tensors over the scalar field, legs in normal form,
    stored as {(left monomial, right monomial): Scalar}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @staticmethod
    def of(x: SU2Element, y: SU2Element) -> "TensorElement":
        out: dict = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                _acc(out, (m1, m2), c1 * c2)
        return TensorElement(out)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "TensorElement") -> "TensorElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return TensorElement(out)

    def scale(self, s) -> "TensorElement":
        return TensorElement({k: c * s for k, c in self.terms.items()})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Legwise product, each leg multiplied by the engine's product."""
        out: dict = {}
        for (m1, m2), c1 in self.terms.items():
            for (p1, p2), c2 in other.terms.items():
                c = c1 * c2
                left = (_leg(m1) * _leg(p1)).terms
                right = (_leg(m2) * _leg(p2)).terms
                for l1, f1 in left.items():
                    cf = c * f1
                    for l2, f2 in right.items():
                        _acc(out, (l1, l2), cf * f2)
        return TensorElement(out)

    def contract(self, combine) -> SU2Element:
        """Collapse each tensor term with combine(left, right) -> SU2Element."""
        acc = SU2Element.zero()
        for (m1, m2), c in self.terms.items():
            acc = acc + combine(_leg(m1), _leg(m2)).scale(c)
        return acc

    def __repr__(self):
        return f"TensorElement({self.terms!r})"


_COPRODUCT_GEN = {
    "a": TensorElement({((1, 0, 0, 0), (1, 0, 0, 0)): ONE,
                        ((0, 1, 0, 0), (0, 0, 1, 0)): ONE}),
    "b": TensorElement({((1, 0, 0, 0), (0, 1, 0, 0)): ONE,
                        ((0, 1, 0, 0), (0, 0, 0, 1)): ONE}),
    "c": TensorElement({((0, 0, 1, 0), (1, 0, 0, 0)): ONE,
                        ((0, 0, 0, 1), (0, 0, 1, 0)): ONE}),
    "d": TensorElement({((0, 0, 1, 0), (0, 1, 0, 0)): ONE,
                        ((0, 0, 0, 1), (0, 0, 0, 1)): ONE}),
}


@cache
def _coproduct_monomial(m: tuple) -> TensorElement:
    one = SU2Element.one()
    out = TensorElement.of(one, one)
    for gen, count in zip("abcd", m):
        for _ in range(count):
            out = out * _COPRODUCT_GEN[gen]
    return out


def coproduct(x: SU2Element) -> TensorElement:
    """Matrix coproduct Delta(u^i_j) = sum_k u^i_k (x) u^k_j, extended as an
    algebra map."""
    acc = TensorElement()
    for m, c in x.terms.items():
        acc = acc + _coproduct_monomial(m).scale(c)
    return acc


def coproduct2(x: SU2Element, side: str = "left") -> dict:
    """Iterated coproduct as a three-leg term dict.

    side "left" applies Delta to the first leg, side "right" to the second;
    coassociativity says the two agree.
    """
    out: dict = {}
    for (m1, m2), c in coproduct(x).terms.items():
        if side == "left":
            for (p1, p2), f in _coproduct_monomial(m1).terms.items():
                _acc(out, (p1, p2, m2), c * f)
        else:
            for (p1, p2), f in _coproduct_monomial(m2).terms.items():
                _acc(out, (m1, p1, p2), c * f)
    return out


def counit(x: SU2Element) -> Scalar:
    """epsilon: a, d -> 1 and b, c -> 0, extended multiplicatively."""
    acc = ZERO
    for (al, be, ga, de), c in x.terms.items():
        if be == 0 and ga == 0:
            acc = acc + c
    return acc
