"""Quantum sl2 action on the exterior fiber, on the string basis.

L, its metric adjoint Lambda and the counting operators H and K realise the
quantised enveloping algebra of sl2 on the fiber.  On the string basis
L^j(alpha), alpha primitive of degree k' and m = n-k', each is a weighted
shift (step, weight): L^j(alpha) goes to weight(m, j) times the member step
levels away, or to 0 past either end.  L has step +1 and weight 1, Lambda
step -1 and weight `lefschetz.lambda_string_factor`, [j]_h [m-j+1]_h, and
H and K step 0 and weights [2j-m]_h and h^(2j-m), functions of the degree
k' + 2j.  Each relation lhs = rhs, written as the terms (c, [X1, ..., Xr])
of lhs - rhs, is one scalar identity per string member (`relation_defect`);
the verify suites check that the members are a basis and that L and
Lambda act as these shifts.

Conventions.  [A,B]_t := AB - t BA, and the eigenvalue of H on degree k is
the symmetric quantum integer [k-n]_h, extended to negative arguments by
oddness.  The plain integer k-n works only at h = 1; the quantum version is
the one compatible with [L,Lambda] = H, and the reports record that choice.
"""

from .scalars import (
    HodgeMode, H_EQ_Q, ONE, ZERO, qint, qint_signed, render_scalar,
)
from .lefschetz import lambda_string_factor


def h_weight(m: int, j: int, mode: HodgeMode = H_EQ_Q):
    """H on the member L^j of a string of length m+1: [2j-m]_h."""
    return qint_signed(2 * j - m, mode)


def k_weight(m: int, j: int, mode: HodgeMode = H_EQ_Q, inverse: bool = False):
    """K (or its inverse) on the member L^j of a string of length m+1:
    h^(+-(2j-m))."""
    return mode.h_power(m - 2 * j if inverse else 2 * j - m)


def relation_defect(n: int, terms):
    """None when the sum of c . X1 ... Xr over the terms (c, [X1, ..., Xr])
    of weighted shifts kills every member of every string at rank n, else
    {"length": m+1, "level": j, "defect"} of the first member it does not."""
    for m in range(n + 1):
        for j in range(m + 1):
            image = {}
            for c, factors in terms:
                pos = j
                for step, weight in reversed(factors):
                    c = c * weight(m, pos)
                    pos += step
                    if not 0 <= pos <= m:
                        break
                else:
                    image[pos] = image.get(pos, ZERO) + c
            bad = next((x for _, x in sorted(image.items()) if x), None)
            if bad is not None:
                return {"length": m + 1, "level": j,
                        "defect": render_scalar(bad)}
    return None


def sl2_relations(n: int, mode: HodgeMode = H_EQ_Q):
    """The deformed sl2 relations on the fiber, and the notes on their
    conventions, as (relations, notes); each relation is (name, terms of
    lhs - rhs, expected), with expected whether the relation should hold,
    and each factor a weighted shift (step, weight(m, j)).

    Covers the three h-commutator identities linking H, K, L and Lambda,
    then the conjugation relations presenting (L, Lambda, K) as a
    representation of the quantised enveloping algebra.  The divided
    difference (K - K^{-1})/(h - h^{-1}) only makes sense away from h = 1;
    at h = 1 that relation degenerates to [L,Lambda] = H with integer
    eigenvalues, and a note records the substitution.
    """
    h2 = mode.h_power(2)
    hm2 = mode.h_power(-2)
    two = qint(2, mode)
    L = (1, lambda m, j: ONE)
    Lam = (-1, lambda m, j: lambda_string_factor(n, n - m, j, mode))
    H = (0, lambda m, j: h_weight(m, j, mode))
    K = (0, lambda m, j: k_weight(m, j, mode))
    Kinv = (0, lambda m, j: k_weight(m, j, mode, inverse=True))

    relations = [
        ("[H,L]_{h^-2} = [2]_h L K",
         [(ONE, [H, L]), (-hm2, [L, H]), (-two, [L, K])], True),
        ("[L,Lambda] = H",
         [(ONE, [L, Lam]), (-ONE, [Lam, L]), (-ONE, [H])], True),
        ("[H,Lambda]_{h^2} = -[2]_h Lambda K",
         [(ONE, [H, Lam]), (-h2, [Lam, H]), (two, [Lam, K])], True),
        ("K K^-1 = id", [(ONE, [K, Kinv]), (-ONE, [])], True),
        ("K L K^-1 = h^2 L", [(ONE, [K, L, Kinv]), (-h2, [L])], True),
        ("K Lambda K^-1 = h^-2 Lambda", [(ONE, [K, Lam, Kinv]), (-hm2, [Lam])],
         True),
        ("literal form -[2]_{h^2} K Lambda (expected to differ for h != 1)",
         [(ONE, [H, Lam]), (-h2, [Lam, H]), (h2 + hm2, [K, Lam])],
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
                          [(ONE, [L, Lam]), (-ONE, [Lam, L]),
                           (-ONE / hdiff, [K]), (ONE / hdiff, [Kinv])],
                          True))
    else:
        notes.append("h = 1: (K - K^-1)/(h - h^-1) is a 0/0 limit; the "
                     "relation is replaced by its limit [L,Lambda] = H, "
                     "checked above with integer eigenvalues k-n.")
    return relations, notes
