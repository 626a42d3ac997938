"""Quantum sl2 action on the exterior fiber.

The raising operator L (wedging with the Hermitian form), its metric adjoint
Lambda, and the diagonal counting operators H and K realise the quantised
enveloping algebra of sl2 on the fiber algebra.  This module builds H and K
and writes down the deformed commutator identities, which the lids suite in
`verify` checks exactly, block by block.  The irreducible strings L^j(alpha)
of primitive forms alpha are modelled once, by `lefschetz.string_columns`;
the strings suite in `verify` checks how the lowering operator acts on them.

Each relation lhs = rhs is written as the terms (c, [X1, ..., Xr]) of
lhs - rhs and checked by `hodge.combination_defect`: one zero test per
entry, over a common denominator and with no gcd, which is exact because
every denominator is nonzero.  The same scan names a failing relation by
its first nonzero entry.

Conventions.  [A,B]_t := AB - t BA, and the eigenvalue of H on degree k is
the symmetric quantum integer [k-n]_h, extended to negative arguments by
oddness.  The plain integer k-n works only at h = 1; the quantum version is
the one compatible with [L,Lambda] = H, and the reports record that choice.
"""

from .scalars import HodgeMode, H_EQ_Q, ONE, qint, qint_signed
from .hodge import GradedOperator, l_operator, lambda_operator


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


def sl2_relations(n: int, mode: HodgeMode = H_EQ_Q):
    """The deformed sl2 relations on the fiber, and the notes on their
    conventions, as (relations, notes); each relation is (name, terms of
    lhs - rhs, expected), with expected whether the relation should hold.

    Covers the three h-commutator identities linking H, K, L and Lambda,
    then the conjugation relations presenting (L, Lambda, K) as a
    representation of the quantised enveloping algebra.  The divided
    difference (K - K^{-1})/(h - h^{-1}) only makes sense away from h = 1;
    at h = 1 that relation degenerates to [L,Lambda] = H with integer
    eigenvalues, and a note records the substitution.
    """
    h2 = mode.h_power(2)
    hm2 = mode.h_power(-2)
    L = l_operator(n)
    Lam = lambda_operator(n, mode)
    H = h_operator(n, mode)
    K = k_operator(n, mode)
    Kinv = k_operator(n, mode, inverse=True)
    ident = GradedOperator.diagonal(n, lambda a, b: ONE)

    relations = [
        ("[H,L]_{h^-2} = [2]_h L K",
         _commutator(H, L, hm2) + [(-qint(2, mode), [L, K])], True),
        ("[L,Lambda] = H", _commutator(L, Lam, ONE) + [(-ONE, [H])], True),
        ("[H,Lambda]_{h^2} = -[2]_h Lambda K",
         _commutator(H, Lam, h2) + [(qint(2, mode), [Lam, K])], True),
        ("K K^-1 = id", [(ONE, [K, Kinv]), (-ONE, [ident])], True),
        ("K L K^-1 = h^2 L", [(ONE, [K, L, Kinv]), (-h2, [L])], True),
        ("K Lambda K^-1 = h^-2 Lambda", [(ONE, [K, Lam, Kinv]), (-hm2, [Lam])],
         True),
        ("literal form -[2]_{h^2} K Lambda (expected to differ for h != 1)",
         _commutator(H, Lam, h2) + [(h2 + hm2, [K, Lam])],
         mode.h_power(4) == ONE),
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
    hdiff = mode.h_power(1) - mode.h_power(-1)
    if hdiff:
        relations.append(("[L,Lambda] = (K - K^-1)/(h - h^-1)",
                          _commutator(L, Lam, ONE)
                          + [(-ONE / hdiff, [K]), (ONE / hdiff, [Kinv])],
                          True))
    else:
        notes.append("h = 1: (K - K^-1)/(h - h^-1) is a 0/0 limit; the "
                     "relation is replaced by its limit [L,Lambda] = H, "
                     "checked above with integer eigenvalues k-n.")
    return relations, notes
