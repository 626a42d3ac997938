"""Quantum sl2 action on the exterior fiber.

The raising operator L (wedging with the Hermitian form), its metric adjoint
Lambda, and the diagonal counting operators H and K realise the quantised
enveloping algebra of sl2 on the fiber algebra.  This module builds H and K
and checks the deformed commutator identities exactly, block by block.  The
irreducible strings L^j(alpha) of primitive forms alpha are modelled once,
by `lefschetz.string_columns`; the strings suite in `verify` checks how the
lowering operator acts on them.

Each relation lhs = rhs is written as terms (c, [X1, ..., Xr]) and checked
by `hodge.combination_defect`: one zero test of lhs - rhs per entry, over a
common denominator and with no gcd, which is exact because every
denominator is nonzero.  Only a relation that fails is built as two
canonical operators, to name the first entry where they differ.

Conventions.  [A,B]_t := AB - t BA, and the eigenvalue of H on degree k is
the symmetric quantum integer [k-n]_h, extended to negative arguments by
oddness.  The plain integer k-n works only at h = 1; the quantum version is
the one compatible with [L,Lambda] = H, and the reports record that choice.
"""

from functools import reduce

from .scalars import (
    HodgeMode, H_EQ_Q, ONE, ZERO, qint, qint_signed, render_scalar,
)
from .hodge import (
    GradedOperator, combination_defect, l_operator, lambda_operator,
)


def h_operator(n: int, mode: HodgeMode = H_EQ_Q) -> GradedOperator:
    """Counting operator H: multiplication by [a+b-n]_h on each component."""
    return GradedOperator.diagonal(n, lambda a, b: qint_signed(a + b - n, mode))


def k_operator(n: int, mode: HodgeMode = H_EQ_Q, inverse: bool = False) -> GradedOperator:
    """Group-like counting operator K (or its inverse): h^{+-(a+b-n)}."""
    sgn = -1 if inverse else 1
    return GradedOperator.diagonal(n, lambda a, b: mode.h_power(sgn * (a + b - n)))


def _commutator(x: GradedOperator, y: GradedOperator, t) -> list:
    """The terms of [x, y]_t = xy - t yx, as `combination_defect` takes
    them."""
    return [(ONE, [x, y]), (-t, [y, x])]


def _operator(terms) -> GradedOperator:
    """The sum of c . X1 ... Xr over the terms as one canonical operator."""
    ops = [reduce(GradedOperator.compose, factors).scale(c)
           for c, factors in terms]
    return reduce(GradedOperator.__add__, ops)


def deformed_commutator(x: GradedOperator, y: GradedOperator, t) -> GradedOperator:
    """[x, y]_t = xy - t yx; the plain commutator is t = 1."""
    return _operator(_commutator(x, y, t))


def _first_difference(lhs: GradedOperator, rhs: GradedOperator):
    """Locate one entry where two graded operators disagree, or None."""
    def entry(op, src, r, c):
        blk = op.blocks.get(src)
        return blk[1].rows[r][c] if blk is not None else ZERO

    for src in sorted(set(lhs.blocks) | set(rhs.blocks)):
        ltgt, lmat = lhs.blocks.get(src, (None, None))
        rtgt, rmat = rhs.blocks.get(src, (None, None))
        if ltgt is not None and rtgt is not None and ltgt != rtgt:
            return {"bidegree": list(src), "reason": f"targets {ltgt} vs {rtgt}"}
        mat = lmat if lmat is not None else rmat
        for r in range(mat.nrows):
            for c in range(mat.ncols):
                le, re = entry(lhs, src, r, c), entry(rhs, src, r, c)
                if le != re:
                    return {
                        "bidegree": list(src), "row": r, "col": c,
                        "lhs": render_scalar(le), "rhs": render_scalar(re),
                    }
    return None


def _relation(lhs: list, rhs: list):
    """(holds, witness) for lhs = rhs, both sides lists of terms (c, [X1,
    ..., Xr]).  The relation is one zero test of lhs - rhs per entry; only a
    failure builds the two sides canonically, for the witness."""
    if combination_defect(lhs + [(-c, factors) for c, factors in rhs]) is None:
        return True, None
    return False, _first_difference(_operator(lhs), _operator(rhs))


def _check(name: str, lhs: list, rhs: list) -> dict:
    ok, witness = _relation(lhs, rhs)
    out = {"relation": name, "holds": ok}
    if not ok:
        out["witness"] = witness
    return out


def verify_lefschetz_identities(n: int, mode: HodgeMode = H_EQ_Q) -> dict:
    """Exact matrix check of the deformed sl2 relations on the fiber.

    Covers the three h-commutator identities linking H, K, L and Lambda,
    then the conjugation relations presenting (L, Lambda, K) as a
    representation of the quantised enveloping algebra.  The divided
    difference (K - K^{-1})/(h - h^{-1}) only makes sense away from h = 1;
    at h = 1 that relation degenerates to [L,Lambda] = H with integer
    eigenvalues, and the report notes the substitution.
    """
    h2 = mode.h_power(2)
    hm2 = mode.h_power(-2)
    L = l_operator(n)
    Lam = lambda_operator(n, mode)
    H = h_operator(n, mode)
    K = k_operator(n, mode)
    Kinv = k_operator(n, mode, inverse=True)

    checks = [
        _check("[H,L]_{h^-2} = [2]_h L K",
               _commutator(H, L, hm2), [(qint(2, mode), [L, K])]),
        _check("[L,Lambda] = H", _commutator(L, Lam, ONE), [(ONE, [H])]),
        _check("[H,Lambda]_{h^2} = -[2]_h Lambda K",
               _commutator(H, Lam, h2), [(-qint(2, mode), [Lam, K])]),
        _check("K K^-1 = id", [(ONE, [K, Kinv])],
               [(ONE, [GradedOperator.diagonal(n, lambda a, b: ONE)])]),
        _check("K L K^-1 = h^2 L", [(ONE, [K, L, Kinv])], [(h2, [L])]),
        _check("K Lambda K^-1 = h^-2 Lambda", [(ONE, [K, Lam, Kinv])],
               [(hm2, [Lam])]),
    ]

    notes = [
        "H acts on degree k by the quantum integer [k-n]_h, not the plain "
        "integer k-n; the two agree at h=1 and only the former satisfies "
        "[L,Lambda] = H for general h.",
        "The third relation is the operator adjoint of the first, which "
        "fixes its right side as -[2]_h Lambda K = -h^2 [2]_h K Lambda.  "
        "The commonly printed constant -[2]_{h^2} with K on the left "
        "matches this only at h = 1; the literal-form check records the "
        "difference.",
    ]
    holds, witness = _relation(_commutator(H, Lam, h2),
                               [(-qint(2, mode, step=2), [K, Lam])])
    checks.append({
        "relation": "literal form -[2]_{h^2} K Lambda (expected to differ for h != 1)",
        "holds": holds,
        "expected": mode.h_power(4) == ONE,
        "witness": witness,
    })
    hdiff = mode.h_power(1) - mode.h_power(-1)
    if hdiff:
        checks.append(_check("[L,Lambda] = (K - K^-1)/(h - h^-1)",
                             _commutator(L, Lam, ONE),
                             [(ONE / hdiff, [K]), (-ONE / hdiff, [Kinv])]))
    else:
        notes.append("h = 1: (K - K^-1)/(h - h^-1) is a 0/0 limit; the "
                     "relation is replaced by its limit [L,Lambda] = H, "
                     "checked above with integer eigenvalues k-n.")

    return {
        "n": n,
        "mode": mode.label(),
        "checks": checks,
        "notes": notes,
        "all_hold": all(c["holds"] == c.get("expected", True) for c in checks),
    }
