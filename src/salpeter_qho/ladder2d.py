"""Method III: polar ladder operators for the two-dimensional oscillator.

States |N m> carry the energy number N and angular momentum m (|m| <= N,
N - m even), with occupations n_a = (N - m)/2 and n_b = (N + m)/2.
Operators act on the unnormalized Fock states |n_a n_b) = ad^n_a bd^n_b |0>,
where a|n) = n|n - 1) and ad|n) = |n + 1), so every coefficient is an int.
Since |n) = sqrt(n!)|n>, each path from ket to bra carries the same factor
sqrt(n_a'! n_b'! / (n_a! n_b!)), and on a closed path, from ket back to
itself, the factors cancel.

A LadderExpr is one int polynomial in (n_a, n_b) per shift (dn_a, dn_b):
its image of |n_a n_b) at that shift has coefficient sum c n_a^i n_b^j.
The four generators are such forms, mono composes them, sums merge the
polynomials shift by shift and a product composes them pairwise, so a
product costs shifts times shifts.  Coefficients are ints; any other raises
TypeError.  The corrections read one diagonal each, built once at import,
and build one Fraction per result.  eps1 is -1/8 of (p^2)^2's diagonal.
eps2 is W's diagonal over 256, where W is 16 (p^2)^3 plus, for each shift
h = +-1, +-2 of (p^2)^2, the closed path out at h and back at -h, weighted
by part II's resolvent -2/h: closed paths need no normalization, so no
factorial ratio enters.  One evaluator, _poly, reads every shift.

The form is canonical: two LadderExprs act alike on every Fock state
exactly when they are equal.  Each polynomial gives the image coefficient at
every occupation pair, and vanishes where its shift leaves the Fock space,
since a and b carry the factors n_a and n_b.  The images at distinct shifts
are distinct states, and a polynomial that vanishes at every occupation
pair is the zero polynomial, so equal actions give equal polynomials; the
shifts and monomials are sorted, like monomials merged and zero ones
dropped, so those give equal forms.  Operator identities, such as
(p^2)^2 = p^4 or [a, ad] = 1, are decided by ==.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .states import InvalidQuantumNumbers, QuantumNumbers

__all__ = [
    "FockState2D",
    "LadderExpr",
    "GENERATORS",
    "p2_expr",
    "p4_operators",
    "p4_expr",
    "first_order_2d",
    "second_order_2d",
    "map_Nm_to_nl",
]

# each generator's form: a|n_a) = n_a|n_a - 1) and ad|n_a) = |n_a + 1), b and bd alike
GENERATORS = {
    "a": ((-1, 0, ((1, 1, 0),)),),
    "ad": ((1, 0, ((1, 0, 0),)),),
    "b": ((0, -1, ((1, 0, 1),)),),
    "bd": ((0, 1, ((1, 0, 0),)),),
}


@dataclass(frozen=True)
class FockState2D:
    N: int
    m: int

    def __post_init__(self):
        if not isinstance(self.N, int) or not isinstance(self.m, int):
            raise InvalidQuantumNumbers(f"N and m must be integers, got N={self.N!r}, m={self.m!r}")
        if self.N < 0 or abs(self.m) > self.N or (self.N - self.m) % 2 != 0:
            raise InvalidQuantumNumbers(f"invalid 2D state (N={self.N}, m={self.m})")

    @property
    def n_a(self) -> int:
        return (self.N - self.m) // 2

    @property
    def n_b(self) -> int:
        return (self.N + self.m) // 2


@dataclass(frozen=True)
class LadderExpr:
    """An int-coefficient operator in its canonical form.

    An entry (da, db, ((c, i, j), ...)) of `form` takes |n_a n_b) to
    sum(c n_a^i n_b^j) |n_a + da, n_b + db).
    """

    form: tuple[tuple, ...]

    @classmethod
    def mono(cls, *gens: str, coeff=1) -> "LadderExpr":
        """coeff times the ordered product of generators, applied right to left."""
        if not set(gens) <= GENERATORS.keys():
            raise ValueError(f"unknown generator in {gens!r}")
        expr = cls.one(coeff)
        for g in gens:
            expr = expr * cls(GENERATORS[g])
        return expr

    @classmethod
    def one(cls, coeff=1) -> "LadderExpr":
        if not isinstance(coeff, int):
            raise TypeError(f"ladder coefficients are ints, got {coeff!r}")
        return cls(_canonical([(0, 0, coeff, 0, 0)]))

    def __add__(self, other: "LadderExpr") -> "LadderExpr":
        terms = [(da, db, *m) for da, db, monomials in self.form + other.form for m in monomials]
        return LadderExpr(_canonical(terms))

    def __sub__(self, other: "LadderExpr") -> "LadderExpr":
        return self + (-other)

    def __neg__(self) -> "LadderExpr":
        return self * LadderExpr.one(-1)

    def __mul__(self, other):
        """self after other: other takes |n) to q(n)|n + e), and self's entry
        at shift d then gives p(n + e) q(n)|n + e + d)."""
        if not isinstance(other, LadderExpr):
            return NotImplemented
        return LadderExpr(
            _canonical(
                (da + ea, db + eb, c * k, i + i2, j + j2)
                for da, db, outer in self.form
                for ea, eb, inner in other.form
                for (i, j), c in _shifted(outer, ea, eb).items()
                for k, i2, j2 in inner
            )
        )


def _canonical(terms) -> tuple[tuple, ...]:
    """The form of a sum of terms (da, db, c, i, j), each c n_a^i n_b^j at shift
    (da, db): shifts and powers sorted, like terms merged and zero ones dropped."""
    shifts: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for da, db, c, i, j in terms:
        poly = shifts.setdefault((da, db), {})
        poly[i, j] = poly.get((i, j), 0) + c
    form = []
    for (da, db), poly in sorted(shifts.items()):
        monomials = tuple((c, i, j) for (i, j), c in sorted(poly.items()) if c)
        if monomials:
            form.append((da, db, monomials))
    return tuple(form)


def _shifted(monomials: tuple, da: int, db: int) -> dict[tuple[int, int], int]:
    """The polynomial at (n_a + da, n_b + db), binomially expanded, as {(i, j): c}."""
    poly: dict[tuple[int, int], int] = {}
    for c, i, j in monomials:
        for k in range(i + 1):
            ck = c * math.comb(i, k) * da ** (i - k)
            for l in range(j + 1):
                poly[k, l] = poly.get((k, l), 0) + ck * math.comb(j, l) * db ** (j - l)
    return poly


def _poly(monomials: tuple, n_a: int, n_b: int) -> int:
    """sum c n_a^i n_b^j over the monomials (c, i, j) of one shift."""
    c = 0
    for k, i, j in monomials:
        c += k * n_a**i * n_b**j
    return c


def _diagonal(expr: LadderExpr, s: FockState2D) -> int:
    """(n_a n_b|expr|n_a n_b), the int diagonal coefficient: the shift-(0, 0) polynomial."""
    for da, db, monomials in expr.form:
        if da == db == 0:
            return _poly(monomials, s.n_a, s.n_b)
    return 0


def p2_expr() -> LadderExpr:
    """p^2 in units hbar m omega: ad.a + bd.b - ad.bd - a.b + 1."""
    m = LadderExpr.mono
    return m("ad", "a") + m("bd", "b") - m("ad", "bd") - m("a", "b") + LadderExpr.one()


def p4_operators() -> dict[str, LadderExpr]:
    """The five-block decomposition of p^4 (units hbar^2 m^2 omega^2).

    K0 conserves N, R4/L4 raise/lower it by 4 and R2/L2 by 2; all five
    leave m unchanged.
    """
    m = LadderExpr.mono
    k0 = (
        m("ad", "a", "ad", "a")
        + m("bd", "b", "bd", "b")
        + m("ad", "a", "bd", "b", coeff=4)
        + m("ad", "a", coeff=3)
        + m("bd", "b", coeff=3)
        + LadderExpr.one(2)
    )
    r4 = m("ad", "bd", "ad", "bd")
    l4 = m("a", "b", "a", "b")
    r2 = m("ad", "a", "ad", "bd", coeff=-2) + m("bd", "b", "ad", "bd", coeff=-2)
    l2 = (
        m("ad", "a", "a", "b", coeff=-2)
        + m("bd", "b", "a", "b", coeff=-2)
        + m("a", "b", coeff=-4)
    )
    return {"K0": k0, "R4": r4, "L4": l4, "R2": r2, "L2": l2}


def p4_expr() -> LadderExpr:
    """p^4 as printed, the sum of the five blocks."""
    ops = p4_operators()
    return ops["K0"] + ops["R4"] + ops["L4"] + ops["R2"] + ops["L2"]


def _second_order_operator(p4: LadderExpr, p6: LadderExpr) -> LadderExpr:
    """W = 256 eps2 as one diagonal operator: 16 (p^2)^3's diagonal, part I,
    plus part II's closed paths.

    p^4 keeps m, so its entry B(h) at shift (h, h) takes N to N' = N + 2h.  The
    path out with B(h) and back with B(-h) takes |n) to c_(-h)(n + h) c_h(n)|n),
    which is |<N'|p^4|N>|^2, since the normalizations of |n) and |n + h) cancel
    on a closed path; its resolvent 1/(64 (N - N')) = -1/(128 h) is -2/h over 256.
    """

    def at(expr: LadderExpr, h: int) -> LadderExpr:
        return LadderExpr(tuple(entry for entry in expr.form if entry[:2] == (h, h)))

    w = LadderExpr.one(16) * at(p6, 0)
    for h in (-2, -1, 1, 2):
        w = w + LadderExpr.one(-2 // h) * at(p4, -h) * at(p4, h)
    return w


# LadderExpr is immutable, so the operators that the corrections apply are
# built once, at import
_P4 = p2_expr() * p2_expr()
_P6 = _P4 * p2_expr()
_W = _second_order_operator(_P4, _P6)


def first_order_2d(s: FockState2D) -> Fraction:
    """epsilon1 = -<p^4>/8, the diagonal of (p^2)^2."""
    return Fraction(-_diagonal(_P4, s), 8)


def second_order_2d(s: FockState2D) -> Fraction:
    """Full 2D second-order correction as one Fraction, the diagonal of W over 256."""
    return Fraction(_diagonal(_W, s), 256)


def map_Nm_to_nl(s: FockState2D) -> QuantumNumbers:
    """Polar (N, m) to radial (d=2, n=(N-|m|)/2, l=|m|)."""
    return QuantumNumbers(2, Fraction(s.N - abs(s.m), 2), abs(s.m))
