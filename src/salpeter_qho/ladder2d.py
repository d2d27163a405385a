"""Method III: polar ladder operators for the two-dimensional oscillator.

States |N m> carry the energy number N and angular momentum m (|m| <= N,
N - m even), with occupations n_a = (N - m)/2 and n_b = (N + m)/2.
Operators act on the unnormalized Fock states |n_a n_b) = ad^n_a bd^n_b |0>,
where a|n) = n|n - 1) and ad|n) = |n + 1), so every coefficient is an int.
Since |n) = sqrt(n!)|n>, each path from ket to bra carries the same factor
sqrt(n_a'! n_b'! / (n_a! n_b!)), which squared is a short rational product.

Coefficients are ints; any other raises TypeError.  Each LadderExpr
compiles itself once, on first use, into one int polynomial in (n_a, n_b)
per shift (dn_a, dn_b), generated from its generator words with like terms
merged, so its image coefficient at that shift is sum c n_a^i n_b^j.  The
corrections apply (p^2)^2 and (p^2)^3, which the compiler splits by shift,
and build one Fraction per result; one evaluator, _poly, reads every shift.

The compiled form is also the one canonical form of an operator: two
LadderExprs act alike on every Fock state exactly when their compiled
tuples are equal.  The images at distinct shifts are distinct states, and a
polynomial that vanishes at every occupation pair is the zero polynomial,
so equal actions give equal merged polynomials; like monomials are merged
and zero ones dropped, so those give equal tuples.  Operator identities,
such as (p^2)^2 = p^4 or [a, ad] = 1, are decided by comparing these tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .states import InvalidQuantumNumbers, QuantumNumbers

__all__ = [
    "FockState2D",
    "Monomial",
    "LadderExpr",
    "GENERATORS",
    "matrix_element_squared",
    "expectation",
    "p2_expr",
    "p4_operators",
    "p4_expr",
    "first_order_2d",
    "second_order_2d",
    "map_Nm_to_nl",
]

GENERATORS = ("a", "ad", "b", "bd")


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
class Monomial:
    """coeff times an ordered product of generators, applied right-to-left."""

    coeff: int
    gens: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.coeff, int):
            raise TypeError(f"ladder coefficients are ints, got {self.coeff!r}")
        if not set(self.gens) <= set(GENERATORS):
            raise ValueError(f"unknown generator in {self.gens!r}")


@dataclass(frozen=True)
class LadderExpr:
    """Formal int-coefficient sum of generator monomials."""

    terms: tuple[Monomial, ...]

    @classmethod
    def mono(cls, *gens: str, coeff=1) -> "LadderExpr":
        return cls((Monomial(coeff, tuple(gens)),))

    @classmethod
    def one(cls, coeff=1) -> "LadderExpr":
        return cls((Monomial(coeff, ()),))

    def __add__(self, other: "LadderExpr") -> "LadderExpr":
        return LadderExpr(self.terms + other.terms)

    def __sub__(self, other: "LadderExpr") -> "LadderExpr":
        return self + (-other)

    def __neg__(self) -> "LadderExpr":
        return LadderExpr(tuple(Monomial(-t.coeff, t.gens) for t in self.terms))

    def __mul__(self, other):
        if not isinstance(other, LadderExpr):
            return NotImplemented
        return LadderExpr(
            tuple(
                Monomial(s.coeff * t.coeff, s.gens + t.gens)
                for s in self.terms
                for t in other.terms
            )
        )

    @cached_property
    def _compiled(self) -> tuple[tuple, ...]:
        """The terms as one int polynomial per shift, compiled on first use.

        An entry (da, db, ((c, i, j), ...)) takes |n_a n_b) to
        sum(c n_a^i n_b^j) |n_a + da, n_b + db).  Walking a word's generators
        right to left, a takes a factor n_a + (its shift so far) and lowers
        the shift, ad raises it; b and bd do the same for n_b.  The words of
        one shift are expanded and summed, like monomials merged and zero
        ones dropped.  Annihilating past the vacuum gives a factor 0, so every
        polynomial vanishes where its shift leaves the Fock space.

        So the tuple is canonical: two LadderExprs act alike on every Fock
        state exactly when their tuples are equal.  Each polynomial gives the
        image coefficient at every (n_a, n_b) >= 0, past the vacuum included,
        and has degree at most the word length in each occupation, so it is
        zero as soon as it vanishes on {0..k}^2, k the longest word's length.
        """
        shifts: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        for term in self.terms:
            da = db = 0
            oa, ob = [], []
            for g in reversed(term.gens):
                if g == "a":
                    oa.append(da)
                    da -= 1
                elif g == "ad":
                    da += 1
                elif g == "b":
                    ob.append(db)
                    db -= 1
                else:  # bd, as Monomial admits only GENERATORS
                    db += 1
            poly = shifts.setdefault((da, db), {})
            for i, ca in enumerate(_expand(oa)):
                for j, cb in enumerate(_expand(ob)):
                    poly[i, j] = poly.get((i, j), 0) + term.coeff * ca * cb
        compiled = []
        for (da, db), poly in sorted(shifts.items()):
            monomials = tuple((c, i, j) for (i, j), c in sorted(poly.items()) if c)
            if monomials:
                compiled.append((da, db, monomials))
        return tuple(compiled)


def _expand(offsets: list[int]) -> list[int]:
    """The int coefficients of prod(n + o for o in offsets), lowest degree first."""
    poly = [1]
    for o in offsets:
        poly = [o * c + p for c, p in zip(poly + [0], [0] + poly)]
    return poly


def _poly(monomials: tuple, n_a: int, n_b: int) -> int:
    """sum c n_a^i n_b^j over the compiled monomials (c, i, j) of one shift."""
    c = 0
    for k, i, j in monomials:
        c += k * n_a**i * n_b**j
    return c


def _apply(expr: LadderExpr, n_a: int, n_b: int) -> dict[tuple[int, int], int]:
    """expr on the unnormalized |n_a n_b): the nonzero int coefficient per image (n_a', n_b')."""
    image: dict[tuple[int, int], int] = {}
    for da, db, monomials in expr._compiled:
        c = _poly(monomials, n_a, n_b)
        if c:
            image[n_a + da, n_b + db] = c
    return image


def _diagonal(expr: LadderExpr, s: FockState2D) -> int:
    """(n_a n_b|expr|n_a n_b), the int diagonal coefficient: the shift-(0, 0) polynomial."""
    for da, db, monomials in expr._compiled:
        if da == db == 0:
            return _poly(monomials, s.n_a, s.n_b)
    return 0


def _factorial_ratio(top: int, bottom: int) -> tuple[int, int]:
    """top!/bottom! as (numerator, denominator), one of them the short product between the two."""
    if top >= bottom:
        return math.perm(top, top - bottom), 1
    return 1, math.perm(bottom, bottom - top)


def matrix_element_squared(expr: LadderExpr, bra: FockState2D, ket: FockState2D) -> Fraction:
    """|<bra|expr|ket>|^2 = c^2 (n_a'!/n_a!) (n_b'!/n_b!), exact.

    |n) = sqrt(n!)|n>, so the coefficient c of the unnormalized image carries
    the same radical sqrt(n_a'! n_b'! / (n_a! n_b!)) on every path.
    """
    c = _apply(expr, ket.n_a, ket.n_b).get((bra.n_a, bra.n_b), 0)
    ra, sa = _factorial_ratio(bra.n_a, ket.n_a)
    rb, sb = _factorial_ratio(bra.n_b, ket.n_b)
    return Fraction(c * c * ra * rb, sa * sb)


def expectation(expr: LadderExpr, s: FockState2D) -> Fraction:
    """<s|expr|s>: the diagonal coefficient, where the normalizations cancel."""
    return Fraction(_diagonal(expr, s))


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


# LadderExpr is immutable, so the powers of p^2 that the corrections apply are
# built once, at import, and each compiles itself on first use
_P4 = p2_expr() * p2_expr()
_P6 = _P4 * p2_expr()


def _part2(s: FockState2D) -> tuple[int, int]:
    """Part II as (numerator, denominator): sum |<N',m|p^4|N,m>|^2 / (64 (N - N')), N' != N.

    p^4 keeps m, so each shift moves both occupations by h; those with h != 0,
    the R2, L2, R4 and L4 blocks, reach N' = N + 2h with the squared element
    c^2 (n_a+h)!/n_a! (n_b+h)!/n_b!.  A zero c, past the vacuum, is skipped.
    """
    n_a, n_b = s.n_a, s.n_b
    num, total = 0, 1
    for h, _, monomials in _P4._compiled:
        c = h and _poly(monomials, n_a, n_b)
        if c:
            ra, sa = _factorial_ratio(n_a + h, n_a)
            rb, sb = _factorial_ratio(n_b + h, n_b)
            step = -2 * h * sa * sb  # N - N'
            num, total = num * step + c * c * ra * rb * total, total * step
    return num, 64 * total


def first_order_2d(s: FockState2D) -> Fraction:
    """epsilon1 = -<p^4>/8, the diagonal of (p^2)^2."""
    return Fraction(-_diagonal(_P4, s), 8)


def second_order_2d(s: FockState2D) -> Fraction:
    """Full 2D second-order correction as one Fraction: part I, the diagonal
    of (p^2)^3 over 16, plus part II from the squared N-changing elements of (p^2)^2."""
    num, total = _part2(s)
    return Fraction(_diagonal(_P6, s) * total + 16 * num, 16 * total)


def map_Nm_to_nl(s: FockState2D) -> QuantumNumbers:
    """Polar (N, m) to radial (d=2, n=(N-|m|)/2, l=|m|)."""
    return QuantumNumbers(2, Fraction(s.N - abs(s.m), 2), abs(s.m))
