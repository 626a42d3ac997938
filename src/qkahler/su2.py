"""Quantum SU(2) coordinate ring in PBW normal form.

Generators a, b, c, d are the entries of the defining 2x2 matrix
(a = u^1_1, b = u^1_2, c = u^2_1, d = u^2_2) subject to the FRT relations

    ab = q ba,  ac = q ca,  bd = q db,  cd = q dc,  bc = cb,
    ad - da = (q - q^-1) bc,  ad - q bc = 1  (quantum determinant one).

Every element has a unique normal form as a combination of
a^al b^be c^ga and b^be c^ga d^de: the determinant relation removes any
monomial containing both a and d.  Monomials are stored as exponent
4-tuples (al, be, ga, de) with al*de = 0.

Of the Hopf structure only the antipode is implemented: the zero-form
Dolbeault Laplacian on the quantum projective line contracts the
hand-entered `XY_TABLE` against the generators and their antipodes, and
needs neither the coproduct nor the counit.  The Laplacian acts on the
projective coordinates z_ij = u^i_1 S(u^1_j) by the scalar q[2]_q.
"""

from __future__ import annotations

from .scalars import (
    Scalar, ZERO, ONE, memoize, qint, render_scalar, render_terms,
)

_Q = Scalar.q_power


def _acc(table: dict, key, value) -> None:
    s = table.get(key, ZERO) + value
    if s:
        table[key] = s
    else:
        table.pop(key, None)


def _times_generator(terms: dict, gen: str) -> dict:
    """Right-multiply a normal-form term dict by one generator.

    b and c pass under d at the cost of q^-de; a absorbs into d^de through
    da = 1 + q^-1 bc, and d into a^al through ad = 1 + q bc.
    """
    out: dict = {}
    for (al, be, ga, de), coef in terms.items():
        if gen == "b":
            _acc(out, (al, be + 1, ga, de), coef * _Q(-de))
        elif gen == "c":
            _acc(out, (al, be, ga + 1, de), coef * _Q(-de))
        elif gen == "a":
            if de == 0:
                _acc(out, (al + 1, be, ga, 0), coef * _Q(-be - ga))
            else:
                _acc(out, (0, be, ga, de - 1), coef)
                _acc(out, (0, be + 1, ga + 1, de - 1), coef * _Q(1 - 2 * de))
        elif gen == "d":
            if al == 0:
                _acc(out, (0, be, ga, de + 1), coef)
            else:
                f = coef * _Q(be + ga)
                _acc(out, (al - 1, be, ga, 0), f)
                _acc(out, (al - 1, be + 1, ga + 1, 0), f * _Q(1))
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return out


@memoize
def _mul_monomials(m1: tuple, m2: tuple) -> dict:
    out = {m1: ONE}
    for gen, count in zip("abcd", m2):
        for _ in range(count):
            out = _times_generator(out, gen)
    return out


def _mono_str(m: tuple) -> str:
    if not any(m):
        return "1"
    parts = []
    for gen, e in zip("abcd", m):
        if e == 1:
            parts.append(gen)
        elif e > 1:
            parts.append(f"{gen}^{e}")
    return " ".join(parts)


class SU2Element:
    """Linear combination of PBW monomials with exact Scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if c:
                    if m[0] and m[3]:
                        raise ValueError(f"monomial {m} mixes a and d")
                    self.terms[m] = c

    @staticmethod
    def zero() -> "SU2Element":
        return SU2Element()

    @staticmethod
    def one() -> "SU2Element":
        return SU2Element({(0, 0, 0, 0): ONE})

    @staticmethod
    def monomial(al: int, be: int, ga: int, de: int, coeff=ONE) -> "SU2Element":
        return SU2Element({(al, be, ga, de): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SU2Element):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "SU2Element") -> "SU2Element":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, c)
        return SU2Element(out)

    def __sub__(self, other: "SU2Element") -> "SU2Element":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, -c)
        return SU2Element(out)

    def __neg__(self) -> "SU2Element":
        return SU2Element({m: -c for m, c in self.terms.items()})

    def scale(self, s) -> "SU2Element":
        s = s if isinstance(s, Scalar) else Scalar.from_int(s)
        return SU2Element({m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SU2Element):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    c = c1 * c2
                    for m, f in _mul_monomials(m1, m2).items():
                        _acc(out, m, c * f)
            return SU2Element(out)
        return self.scale(other)

    __rmul__ = scale

    def antipode(self) -> "SU2Element":
        """Anti-multiplicative extension of a <-> d, b -> -q^-1 b, c -> -q c.

        On a normal monomial the generator images commute up to the b/c
        scalars, collapsing to the closed form
        S(a^al b^be c^ga d^de) = (-1)^(be+ga) q^(ga-be) a^de b^be c^ga d^al.
        """
        out = {}
        for (al, be, ga, de), c in self.terms.items():
            sgn = ONE if (be + ga) % 2 == 0 else -ONE
            out[(de, be, ga, al)] = c * sgn * _Q(ga - be)
        return SU2Element(out)

    def __str__(self) -> str:
        keys = sorted(self.terms, key=lambda m: (sum(m), m))
        return render_terms((self.terms[m], _mono_str(m)) for m in keys)

    __repr__ = __str__


E_ONE = SU2Element.one()
A = SU2Element.monomial(1, 0, 0, 0)
B = SU2Element.monomial(0, 1, 0, 0)
C = SU2Element.monomial(0, 0, 1, 0)
D = SU2Element.monomial(0, 0, 0, 1)

_U = {(1, 1): A, (1, 2): B, (2, 1): C, (2, 2): D}


def u_entry(i: int, j: int) -> SU2Element:
    """Defining matrix entry u^i_j, indices in {1, 2}."""
    return _U[(i, j)]


def antipode_u_entry(i: int, j: int) -> SU2Element:
    return u_entry(i, j).antipode()


def projective_coordinate(i: int, j: int) -> SU2Element:
    """Generator z_ij = u^i_1 S(u^1_j) of the projective-line subalgebra."""
    return u_entry(i, 1) * antipode_u_entry(1, j)


# Products X(u^a_b S(u^y_x)) Y(u^b_1 S(u^1_y)) entering the zero-form
# Laplacian; only two index combinations survive.
XY_TABLE = {
    (1, 1, 1, 2): -_Q(2),
    (2, 1, 2, 2): ONE,
}


def laplacian0_cp1(i: int, j: int) -> SU2Element:
    """Zero-form Dolbeault Laplacian on the projective-line coordinate z_ij.

    Contracts the XY product table against u^i_a S(u^x_j); the two table
    entries give q^2 u^i_1 S(u^1_j) - u^i_2 S(u^2_j), and for i != j the
    antipode identity collapses that to q[2]_q z_ij.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("indices must lie in {1, 2}")
    acc = SU2Element.zero()
    for (a, _b, x, _y), s in XY_TABLE.items():
        acc = acc - (u_entry(i, a) * antipode_u_entry(x, j)).scale(s)
    return acc


def verify_cp1_laplacian() -> dict:
    """Eigenvalue check on the off-diagonal projective coordinates.

    Confirms the two-term intermediate expansion, the antipode identity
    sum_k u^i_k S(u^k_j) = delta_ij used to collapse it, and the final
    eigenvalue q[2]_q on z_12 and z_21.
    """
    eig = _Q(1) * qint(2)
    checks = []
    for i, j in ((1, 2), (2, 1)):
        lap = laplacian0_cp1(i, j)
        intermediate = (u_entry(i, 1) * antipode_u_entry(1, j)).scale(_Q(2)) \
            - u_entry(i, 2) * antipode_u_entry(2, j)
        z = projective_coordinate(i, j)
        checks.append({
            "name": f"laplacian0({i},{j}) matches q^2 u^{i}_1 S(u^1_{j}) - u^{i}_2 S(u^2_{j})",
            "holds": lap == intermediate,
            "value": str(lap),
        })
        checks.append({
            "name": f"laplacian0({i},{j}) = q[2]_q z_{i}{j}",
            "holds": lap == z.scale(eig),
            "value": str(lap),
            "expected_value": str(z.scale(eig)),
        })
    for i in (1, 2):
        for j in (1, 2):
            lhs = u_entry(i, 1) * antipode_u_entry(1, j) \
                + u_entry(i, 2) * antipode_u_entry(2, j)
            rhs = SU2Element.one() if i == j else SU2Element.zero()
            checks.append({
                "name": f"sum_k u^{i}_k S(u^k_{j}) = {'1' if i == j else '0'}",
                "holds": lhs == rhs,
            })
    return {
        "eigenvalue": render_scalar(eig),
        "checks": checks,
        "all_hold": all(c["holds"] for c in checks),
    }
