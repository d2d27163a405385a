"""Independent high-precision verification by generalized Gauss-Laguerre
quadrature.

Nodes are the zeros of L_n^(alpha), found by Laguerre's method and Halley
steps on the three-term recurrence, O(n^2) per rule (Glaser, Liu & Rokhlin,
SIAM J. Sci. Comput. 29 (2007) 1420), all on one recurrence: laguerre_fixed,
in Python-int fixed point with alpha = a/b kept as two ints.  The seeds, by
Laguerre's method with deflation at 64 bits from Sturm-bounded starts, hold
about 12 digits and cannot overflow: only L_n / L_n' becomes a float.  The
polish takes each node as an int X = x 2^P, with
P = ceil((dps + 10) log2 10) + 32 guard bits for dps working digits (232 at
the default 50), and its Halley steps, with L_n'' from the Laguerre
equation, triple the seeds' digits until X holds dps + 10.  Weights come
from the derivative at each node,
w_i = Gamma(n + alpha + 1) / (n! x_i L_n^(alpha)'(x_i)^2), with
x L_n' = n L_n - (n + alpha) L_(n-1) read off the same int recurrence that
fills the node's table row, the only place a weight is held.  Working
precision defaults to 50 significant digits and can be overridden with the
SALPETER_PRECISION environment variable.  All integrands here are polynomials
times the weight function, so the rules are exact up to rounding and the
two-rule convergence check is a pure sanity assertion.  An element whose two
rules differ by more than it allows, but by no more than the int sums' error
bound below, cancels below the working digits, and is reported as such.

Node counts come from a fixed set of buckets, 8, 12, 16, 24, 32, 48, ...
(2^k and 3 * 2^(k-1)): an integrand of polynomial degree D is summed on the
smallest bucket exact for D and on the next bucket up, so both rules are
exact and still differ, and one rule serves many (n, s).  A rule has at most
MAX_NODES = 384 nodes, the fine rule of <eta^2> at n = 250; a larger one
raises ValueError before any work.

Each rule is built once with its node table, and the table is never
changed after.  It is Python-int fixed point at the scale 2^B, with
B = ceil(dps log2 10) + 20 guard bits (187 at the default 50):
X_i = round(x_i 2^B) and Q_ik = round(sqrt(w_i) p_k(x_i) 2^B) for
k <= 2 * npoints - 1, the highest order any sum on the rule can need, where
p_k = c_k L_k^(alpha) is orthonormal, c_k^2 = k! / Gamma(k + alpha + 1).
Each node's row is rounded
straight from the int L_k(x_i) 2^P, times c_k sqrt(w_i) = sqrt(rho_k) /
(sqrt(x_i) |L_n'(x_i)|) as two math.isqrt floors at B + 32 bits, of the exact
int ratio rho_k = k! Gamma(n + alpha + 1) / (n! Gamma(k + alpha + 1)) and of
1 / (x_i L_n'(x_i)^2) from the node's ints, so the table is int from end to
end.  A sum on one rule is then one int sum, sum_i X_i^s Q_(i,n1) Q_(i,n2) =
<u_n1|eta^s|u_n2> 2^(B (s + 2)).  The only other things kept are derived
from a rule, each made on first use and kept in the rule's own cache entry,
so a cache that is dropped takes them with it: its power tables,
(X_i^s for each node) made on the first sum of power s, and its squared
columns, (Q_in^2 for each node) made on the first diagonal sum of column n.
A diagonal element <u_n|eta^s|u_n> is then sum_i X_i^s Q_in^2, one int
product per node, and the same square serves every s.  Every order asked
for is a half-integer, carried as one int k = 2 alpha = 2 l + d - 2, and the
cache is keyed by ints only, (k, npoints, dps), so (d, l) = (2, 3), (4, 2)
and (6, 1) share their rules.  A hit reads the cache without a lock, which
only the hit count takes, so a warm oracle call makes no Fraction; rules are
built one at a time, so each is built once.
Each build checks its polish (the Newton step at each polished node, read
off the node's table row, small enough for X to hold dps + 10 digits), its
nodes (positive, strictly increasing) and sum_i Q_i0^2 = <p_0|p_0> 2^(2B)
against 2^(2B) to 10^(5 - dps), which is sum_i w_i = Gamma(alpha + 1) on the
numbers the sums read, so a table with wrong weights is never cached.

Error bound: for k < npoints, Q_ik / 2^B is an orthogonal matrix (Golub &
Welsch, Math. Comp. 23 (1969) 221), so |Q_ik| <= 2^B; the rows k >= npoints
have no such bound but measure below 0.64 2^B (alpha from -1/2 to 40, up to
128 nodes).  With every |Q_ik| <= 2^B and each entry rounded to nearest, an
int sum differs from the same sum in exact arithmetic on the unrounded
entries by at most npoints (s + 1) max(1, x_max)^s 2^-B.  The entries' own
error adds its share: that of the recurrence, bounded in laguerre_fixed in
units of 2^-P and carried into Q_ik times c_k sqrt(w_i) 2^(B - P), and
under 2^-30 from the isqrt floors at B + 32 bits.

Each oracle call is one int pass over the rules it needs, rounded once to
working precision by _rounded at the end.  A matrix element is checked on its
two rules.  The sum over states and the orthonormality check sum all their
elements on one rule pair, that of their largest element, compare each
element on the two rules, and form their result from the int sums exactly:
sum_n' E_n'^2 L / (n - n') with L = lcm(n - n'), and the worst
|G - delta 2^(2B)| of the Gram matrix.

The radial residual is a ratio in which the normalization, e^(-eta/2) and
the powers of r cancel, so it is computed exactly: the three Laguerre values
it needs come from _laguerre_int, an int recurrence at each rational eta,
the worst ratio is kept as two ints, and only it is rounded, once, to
working precision.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from fractions import Fraction
from itertools import repeat
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import MPZ, dps_to_prec, fzero

from .states import QuantumNumbers, UnsupportedDimension, energy_unperturbed

__all__ = [
    "working_precision",
    "rule_cache_stats",
    "quad_expectation",
    "quad_matrix_element",
    "orthonormality_check",
    "sum_over_states_check",
    "radial_residual",
    "laguerre_fixed",
]

DEFAULT_DPS = 50
MAX_NODES = 384  # the fine rule of <eta^2> at n = 250
SEED_SHIFT = 64  # fixed-point bits of the seeds: a double's mantissa at the smallest zero
GUARD_BITS = 32  # of the polish, beyond the dps + 10 digits each node holds

# (k, npoints, dps) -> (bits, xs, columns, tables, squares) of the rule at
# alpha = k/2, see _rule_entry: keys of ints only, read without a lock
_rule_cache: dict = {}
_rule_lock = threading.Lock()  # guards _rule_stats and each store into _rule_cache
_build_lock = threading.Lock()  # one rule build at a time
_rule_stats = {"hits": 0, "misses": 0, "build_s": 0.0}


def working_precision() -> int:
    """Working precision in significant digits."""
    value = os.environ.get("SALPETER_PRECISION")
    return DEFAULT_DPS if value is None else _parsed_precision(value)


@functools.lru_cache(maxsize=16)
def _parsed_precision(value: str) -> int:
    """A SALPETER_PRECISION value's digits, parsed once per value (errors are not cached)."""
    if not value.isdecimal() or int(value) < 15:
        raise ValueError(f"SALPETER_PRECISION must be an integer >= 15, got {value!r}")
    return int(value)


def rule_cache_stats() -> dict:
    """Rule-cache hits, misses and seconds spent building rules, in this process."""
    with _rule_lock:
        return dict(_rule_stats)


def laguerre_fixed(n: int, alpha: Fraction, X: int, bits: int) -> list[int]:
    """[Y_0, ..., Y_n] with Y_k = L_k^(alpha)(x) 2^bits in int fixed point, at x = X / 2^bits.

    The three-term recurrence in k, (k + 1) L_(k+1) = (2k + 1 + alpha - x) L_k -
    (k + alpha) L_(k-1) from L_0 = 1, with alpha = a/b kept as its two ints,
    (k + 1) b L_(k+1) = ((2k + 1) b + a - b x) L_k - (k b + a) L_(k-1).  Each
    step is a few int multiplies, one shift and one floor division by
    b (k + 1), and gives exactly the floor of the right-hand side divided by
    b (k + 1), evaluated on Y_k and Y_(k-1) without rounding.  Y_0 = 2^bits is
    exact, and n < 0 gives [].  The step's coefficients are carried as running
    ints, so every step sees the operands the formula gives at its k.

    Error bound: each step adds an error in (-1, 0], which the recurrence
    then carries forward as it carries any of its solutions, so
    |Y_k - L_k^(alpha)(x) 2^bits| < sum_(j=1..k) |G_j(k)|, where G_j solves
    the recurrence from G_j(j - 1) = 0, G_j(j) = 1.
    """
    a, b = alpha.numerator, alpha.denominator
    one = 1 << bits
    values = [one][: n + 1]
    append = values.append
    prev, curr = 0, one
    # step k's ((2k + 1) b + a - b x) 2^bits, k b + a and b (k + 1) from k = 0,
    # growing by rise = 2 b 2^bits, b and b
    factor, lower, div, rise = (b + a) * one - b * X, a, b, 2 * b * one
    for _ in range(n):
        prev, curr = curr, ((factor * curr >> bits) - lower * prev) // div
        append(curr)
        factor += rise
        lower += b
        div += b
    return values


def _seed_zeros(alpha: Fraction, n: int) -> list[float]:
    """Zeros of L_n^(alpha) to about double precision, smallest first.

    Laguerre's method (Wilkinson, The Algebraic Eigenvalue Problem (1965);
    Numerical Recipes, sect. 9.5) on the deflated polynomial
    L_n^(alpha)(z) / prod_{j<i} (z - x_j), of degree m = n - i: with
    G = L_n' / L_n - sum_j 1 / (z - x_j) and H = -dG/dz, each step is
    m / (G + sign(G) sqrt((m - 1)(m H - G^2))), with L_n'' from the Laguerre
    equation, x L_n'' = (x - alpha - 1) L_n' - n L_n.  The polynomial is
    real-rooted, so from a start below its smallest zero x_i the method
    converges to x_i monotonically and cubically.  The first zero starts at
    (alpha + 1) / n, below every zero, whose reciprocals sum to
    n / (alpha + 1).  Far below the zeros a step still covers most of the
    way: the first zero takes 3 to 7 runs up to alpha = 40, and at most 19
    at 384 nodes up to alpha = 5e10, so each zero gets 40.  Each later zero
    starts at x_(i-1) + pi / sqrt(Q(max(x_(i-1), x*))), between x_(i-1) and
    x_i by Sturm comparison (Szego, Orthogonal Polynomials, ch. 6):
    u = x^((alpha + 1) / 2) e^(-x / 2) L_n^(alpha) solves u'' + Q u = 0, with
    Q(x) = (2 n + alpha + 1) / (2 x) + (1 - alpha^2) / (4 x^2) - 1/4 falling
    on x > 0 if alpha^2 <= 1, else after its peak at
    x* = (alpha^2 - 1) / (2 n + alpha + 1).  It takes 2 to 4 runs, mostly 3,
    to a step of at most 1e-12 z, or to L_n = 0: Laguerre's method leaves
    about K delta^3 after a step of relative size delta, far below the 12
    digits the polish assumes.  L_n comes from laguerre_fixed at SEED_SHIFT
    bits, and only d = L_n / L_n' becomes a float, by int true division, so
    nothing overflows: the step is taken as
    m d / (g + sign(g) sqrt((m - 1)(m h - g^2))), with g = G d and h = H d^2,
    which stay bounded at the zero.
    """
    a, b = alpha.numerator, alpha.denominator
    alpha_f, top = float(alpha), 2 * n + float(alpha) + 1
    nb, nba = n * b, n * b + a
    zeros: list[float] = []
    z = (alpha_f + 1) / n
    for i in range(n):
        if i:  # pi / sqrt(Q(max(x_(i-1), x*))) past the previous zero
            at = max(z, (alpha_f**2 - 1) / top)
            z += math.pi / math.sqrt(top / (2 * at) + (1 - alpha_f**2) / (4 * at * at) - 0.25)
        m = n - i
        for _ in range(40):
            values = laguerre_fixed(n, alpha, int(math.ldexp(z, SEED_SHIFT)), SEED_SHIFT)
            prev, curr = values[-2], values[-1]
            if not curr:
                break
            # L_n / L_n' = x b Y_n / (n b Y_n - (n b + a) Y_(n-1))
            d = z * (b * curr / (nb * curr - nba * prev))
            poles = [1 / (z - x) for x in zeros]
            g = 1 - d * sum(poles)
            h = 1 - d * ((z - alpha_f - 1) - n * d) / z - d * d * sum([p * p for p in poles])
            root = math.sqrt(max(0.0, (m - 1) * (m * h - g * g)))
            step = m * d / (g + math.copysign(root, g))
            z -= step
            if abs(step) <= 1e-12 * z:
                break
        zeros.append(z)
    return zeros


def _fixed(sign: int, man: int, exp: int, bits: int) -> int:
    """(-1)^sign man 2^exp times 2^bits, rounded to the nearest int (ties away from 0)."""
    shift = -(exp + bits) - 1
    value = ((man >> shift) + 1) >> 1 if shift >= 0 else man << (-shift - 1)
    return -value if sign else value


def _polish(z: float, n: int, alpha: Fraction, shift: int, steps: int) -> int:
    """The zero of L_n^(alpha) next to the seed z, times 2^shift, as an int.

    Halley steps on X = x 2^shift with the int recurrence.  With
    D = X L_n / (x L_n') the Newton step, x L_n' = n L_n - (n + alpha) L_(n-1),
    and L_n'' / L_n' = (x - alpha - 1 - n L_n / L_n') / x from the Laguerre
    equation, Halley's step D / (1 - D L_n'' / (2 L_n') 2^-shift) is, with
    alpha = a/b and c = 2 b X 2^shift, D c // (c - D (b X - (a + b) 2^shift - n b D)).
    Each step triples the digits; _rule_entry checks that X holds its
    dps + 10 digits.
    """
    a, b = alpha.numerator, alpha.denominator
    num, den = z.as_integer_ratio()
    X = (num << shift) // den
    for _ in range(steps):
        values = laguerre_fixed(n, alpha, X, shift)
        prev, curr = values[-2], values[-1]
        D = X * b * curr // (n * b * curr - (n * b + a) * prev)
        c = 2 * b * X << shift
        X -= D * c // (c - D * (b * X - ((a + b) << shift) - n * b * D))
    return X


def _root(num: int, den: int, bits: int) -> tuple[int, int]:
    """(man, exp) with man 2^exp = sqrt(num / den), man the isqrt floor of about `bits` bits."""
    exp = (num.bit_length() - den.bit_length()) // 2 - bits
    return math.isqrt((num << -2 * exp) // den if exp < 0 else num // (den << 2 * exp)), exp


def _scales(alpha: Fraction, n: int, bits: int) -> list[tuple[int, int]]:
    """[_root of rho_k for k < 2 n], rho_k = k! Gamma(n + alpha + 1) / (n! Gamma(k + alpha + 1))
    as a ratio of ints: with alpha = a/b, rho_0 = prod_(j=1..n) (j b + a) / (j b)
    and rho_k = rho_(k-1) k b / (k b + a)."""
    a, b = alpha.numerator, alpha.denominator
    num, den = math.prod(j * b + a for j in range(1, n + 1)), b**n * math.factorial(n)
    scales = [_root(num, den, bits)]
    for k in range(1, 2 * n):
        num, den = num * k * b, den * (k * b + a)
        scales.append(_root(num, den, bits))
    return scales


def _table_row(values: list[int], node_scale, scales: list, shift: int, bits: int) -> list[int]:
    """[sqrt(w) p_k(x) 2^bits for k < len(scales)] at one node from values[k] =
    L_k^(alpha)(x) 2^shift, with p_k = c_k L_k^(alpha) and c_k sqrt(w) the product
    of scales[k], sqrt(rho_k), and node_scale, 1 / (sqrt(x) |L_n'(x)|): each
    entry is the exact product of two mantissas and values[k], rounded once."""
    man_w, exp_w = node_scale
    return [
        _fixed(y < 0, man_c * man_w * abs(y), exp_c + exp_w - shift, bits)
        for (man_c, exp_c), y in zip(scales, values)
    ]


def _rule_entry(k: int, npoints: int, dps: int) -> tuple[int, tuple, tuple, dict, dict]:
    """The cache entry (bits, xs, columns, tables, squares) of the rule at
    alpha = k/2 and dps digits, keyed (k, npoints, dps) and built on a miss.

    xs[i] = round(x_i 2^bits) and columns[j][i] = round(sqrt(w_i) p_j(x_i) 2^bits)
    for j <= 2 npoints - 1, all Python ints.  The two dicts start empty and
    _rule_sums fills them: tables maps s to the power table (X_i^s for each
    node), and squares maps n to the squared column (columns[n][i]^2 for each
    node).  A hit reads the cache without a lock and counts itself under
    _rule_lock.  Builds hold _build_lock, so a thread that waited on another's
    build of the same rule counts a hit, and each rule is built once.  The
    polish takes the fewest Halley steps t with 12 3^t >= dps + 10, and each
    node's table row also gives the Newton step at the polished node: one
    larger than X 2^-(shift - GUARD_BITS), from a seed poorer than the step
    count assumes, leaves X short of its dps + 10 digits.  Raises
    ArithmeticError if a build fails its checks, ValueError if alpha <= -1 or
    npoints is not 1 to MAX_NODES.
    """
    key = (k, npoints, dps)
    entry = _rule_cache.get(key)
    if entry is not None:
        with _rule_lock:
            _rule_stats["hits"] += 1
        return entry
    alpha = Fraction(k, 2)
    if alpha <= -1:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if not 1 <= npoints <= MAX_NODES:
        raise ValueError(f"npoints must be 1 to MAX_NODES = {MAX_NODES}, got {npoints}")
    with _build_lock:
        entry = _rule_cache.get(key)
        with _rule_lock:
            _rule_stats["misses" if entry is None else "hits"] += 1
        if entry is not None:
            return entry
        start = time.perf_counter()
        seeds = _seed_zeros(alpha, npoints)
        # the recurrence at dps + 10 digits and GUARD_BITS
        shift = math.ceil((dps + 10) * math.log2(10)) + GUARD_BITS
        # the seeds hold about 12 digits and each Halley step triples them
        steps, digits = 0, 12
        while digits < dps + 10:
            steps, digits = steps + 1, 3 * digits
        fixed_nodes = [_polish(z, npoints, alpha, shift, steps) for z in seeds]
        if fixed_nodes[0] <= 0 or any(lo >= hi for lo, hi in zip(fixed_nodes, fixed_nodes[1:])):
            raise ArithmeticError(f"rule alpha={alpha} npoints={npoints} failed its checks")
        a, b = alpha.numerator, alpha.denominator
        bits = math.ceil(dps * math.log2(10)) + 20  # dps digits and 20 guard bits
        scales = _scales(alpha, npoints, bits + 32)
        rows = []
        # one node's int values at a time, each row converted as soon as it is built
        for X in fixed_nodes:
            values = laguerre_fixed(2 * npoints - 1, alpha, X, shift)
            # b x L_n' 2^shift, so 1 / (x L_n'^2) = b^2 X 2^shift / slope^2
            slope = npoints * b * values[npoints] - (npoints * b + a) * values[npoints - 1]
            # the Newton step at the node, X L_n / (x L_n') = X b Y_n / slope
            if abs(X * b * values[npoints] // slope) > X >> (shift - GUARD_BITS):
                raise ArithmeticError(
                    f"rule alpha={alpha} npoints={npoints}: Newton polish did not converge"
                )
            node_scale = _root(b * b * X << shift, slope * slope, bits + 32)
            rows.append(_table_row(values, node_scale, scales, shift, bits))
        xs = tuple(_fixed(0, X, -shift, bits) for X in fixed_nodes)
        columns = tuple(zip(*rows))
        # sum_i w_i = Gamma(alpha + 1) as sum_i Q_i0^2 = <p_0|p_0> 2^(2B) = 2^(2B)
        one = 1 << 2 * bits
        if abs(sum(q * q for q in columns[0]) - one) * 10 ** (dps - 5) > one:
            raise ArithmeticError(f"rule alpha={alpha} npoints={npoints}: sum_i Q_i0^2 != 2^(2B)")
        entry = (bits, xs, columns, {}, {})
        with _rule_lock:
            _rule_cache[key] = entry
            _rule_stats["build_s"] += time.perf_counter() - start
    return entry


def _bucket(degree: int) -> int:
    """Smallest npoints in 8, 12, 16, 24, 32, 48, ... with 2 * npoints - 1 >= degree.

    _bucket(2 * npoints) is the next bucket above npoints.
    """
    npoints = 8
    while 2 * npoints - 1 < degree:
        # 2^k -> 3 * 2^(k-1) -> 2^(k+1)
        npoints = npoints * 3 // 2 if npoints & (npoints - 1) == 0 else npoints * 4 // 3
    return npoints


def _rule_sums(k: int, npoints: int, pairs: list, s: int, dps: int) -> tuple[list[int], int]:
    """([total for each (n1, n2) in pairs], exp) with
    sum_i w_i x_i^s p_n1(x_i) p_n2(x_i) = total 2^exp on one rule.

    A diagonal pair is sum_i X_i^s Q_(i,n)^2 on the rule's squared column of
    n, one int product per node, or the column's plain sum at s = 0.  Off the
    diagonal, each distinct n2 has its column times the power table formed
    once, so a sum is one int product per node too.  The power table of s and
    the squared column of n are kept in the rule's entry, each set once by
    dict.setdefault, which is atomic for an int key."""
    bits, xs, columns, tables, squares = _rule_entry(k, npoints, dps)
    powers = tables.get(s)
    if powers is None and s:
        powers = tables.setdefault(s, tuple(map(pow, xs, repeat(s))))
    weighted: dict = {}  # n2 -> (X_i^s Q_(i,n2) for each node)
    totals = []
    for n1, n2 in pairs:
        if n1 == n2:
            square = squares.get(n1)
            if square is None:
                column = columns[n1]
                square = squares.setdefault(n1, tuple(map(mul, column, column)))
            totals.append(sum(map(mul, powers, square)) if s else sum(square))
            continue
        row = weighted.get(n2)
        if row is None:
            row = weighted[n2] = tuple(map(mul, powers, columns[n2])) if s else columns[n2]
        totals.append(sum(map(mul, row, columns[n1])))
    return totals, -bits * (s + 2)


def _bracket(k: int, pairs: list, s: int, dps: int) -> tuple[list[int], int]:
    """([total for each (n1, n2) in pairs], exp) with <u_n1|eta^s|u_n2> =
    total 2^exp, every entry checked on two rules.

    All pairs are summed on one rule pair: the smallest bucket exact for the
    highest degree n1 + n2 + s among them and the next bucket up.  Every entry
    is exact on both and the two rules still differ, so each is compared on
    the two as ints, sharing one scale, and the latter's sums are returned.
    A failed comparison raises ArithmeticError, which says whether the
    element cancels below the working digits or failed to converge.
    """
    npoints = _bucket(max(n1 + n2 for n1, n2 in pairs) + s)
    # the larger rule first: past MAX_NODES, fail before building the smaller
    sizes = (_bucket(2 * npoints), npoints)
    fine, exp = _rule_sums(k, sizes[0], pairs, s, dps)
    coarse, _ = _rule_sums(k, npoints, pairs, s, dps)
    unit = 1 << -exp
    for (n1, n2), f, c in zip(pairs, fine, coarse):
        # |c - f| / max(1, |f|) > 1e-14
        if abs(c - f) * 10**14 > max(unit, abs(f)):
            # the int sums' error bound, npoints (s + 1) max(1, x_max)^s 2^-B on each rule,
            # is npoints (s + 1) max(2^B, X_max)^s 2^B in units of 2^exp = 2^(-B (s + 2))
            bound = 0
            for size in sizes:
                bits, xs = _rule_entry(k, size, dps)[:2]
                bound += size * (s + 1) * max(1 << bits, xs[-1]) ** s << bits
            if abs(c - f) <= bound:
                raise ArithmeticError(
                    f"<u_{n1}|eta^{s}|u_{n2}> cancels below the working digits: its two "
                    "rules differ by no more than their int sums' error bound"
                )
            diff = abs(c - f) / max(unit, abs(f))
            raise ArithmeticError(f"quadrature failed to converge: rel diff {diff:.3e}")
    return fine, exp


def _rounded(num: int, den: int, exp: int, dps: int) -> mpf:
    """num / den 2^exp, with den > 0, correctly rounded to an mpf of dps digits.

    The quotient is taken to prec + 3 bits or more, prec the precision of dps
    digits, and a nonzero remainder is folded into its last bit (a sticky
    bit).  Rounded from there to prec bits, to nearest with ties to even, it
    is the rounding of the exact ratio, the same as mp.fdiv's at dps digits.
    Its trailing zero bits are dropped, and the mpf is made straight from the
    normalized tuple, (sign, odd man, exp, man's bit length), the one
    mpf((man, exp), dps=dps) would store.
    """
    if not num:
        return mp.make_mpf(fzero)
    prec, size = dps_to_prec(dps), abs(num)
    shift = prec + 3 - size.bit_length() + den.bit_length()
    man, rest = divmod(size << shift, den) if shift >= 0 else divmod(size, den << -shift)
    drop = man.bit_length() - prec  # 3 or 4
    half = 1 << (drop - 1)
    low = man & (2 * half - 1) | (rest != 0)
    man >>= drop
    if low > half or (low == half and man & 1):
        man += 1
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return mp.make_mpf((int(num < 0), MPZ(man), exp - shift + drop + zeros, man.bit_length()))


def _order(d: int, l: int) -> int:
    """k = 2 alpha = 2 l + d - 2, the Laguerre order alpha = l + d/2 - 1 of the
    states at d and l as one int.  Raises UnsupportedDimension below d = 2."""
    if d < 2:
        raise UnsupportedDimension("quadrature oracle requires d >= 2")
    return 2 * l + d - 2


def quad_expectation(q: QuantumNumbers, s: int) -> mpf:
    """<eta^s> by quadrature, cross-checked on two buckets of nodes."""
    n = (q.big_N - q.l) // 2  # the int n of a state with d >= 2; d = 1 is refused by _order
    return quad_matrix_element(n, n, q.l, q.d, s)


def quad_matrix_element(n1: int, n2: int, l: int, d: int, s: int) -> mpf:
    """<u_{n1,l}|eta^s|u_{n2,l}> by quadrature, cross-checked on two buckets of nodes."""
    k = _order(d, l)
    if not isinstance(s, int):
        raise ValueError(f"s must be an int, got {s!r}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if not (type(n1) is type(n2) is type(l) is type(d) is int and min(n1, n2, l) >= 0):
        # InvalidQuantumNumbers for a negative or non-integer n1, n2, l or d
        QuantumNumbers(d, n1, l)
        QuantumNumbers(d, n2, l)
    dps = working_precision()
    (total,), exp = _bracket(k, [(n1, n2)], s, dps)
    return _rounded(total, 1, exp, dps)


def orthonormality_check(l: int, d: int, n_max: int) -> mpf:
    """max |<u_n1|u_n2> - delta| over n1 <= n2 <= n_max, which must be >= 0.

    The Gram matrix's upper triangle is summed on one rule pair, the worst
    entry found in ints and rounded once to working precision.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    k = _order(d, l)
    QuantumNumbers(d, 0, l)  # InvalidQuantumNumbers for a negative or non-integer l
    pairs = [(n1, n2) for n1 in range(n_max + 1) for n2 in range(n1, n_max + 1)]
    dps = working_precision()
    gram, exp = _bracket(k, pairs, 0, dps)
    one = 1 << -exp
    worst = max(abs(g - one if n1 == n2 else g) for g, (n1, n2) in zip(gram, pairs))
    return _rounded(worst, 1, exp, dps)


def sum_over_states_check(q: QuantumNumbers, n_cutoff: int) -> mpf:
    """Second-order part II by brute-force sum over states.

    (1/128) sum_{n' != n, n' <= cutoff} <u_n'|eta^2|u_n>^2 / (n - n');
    cutoff-independent beyond n + 2 by sparsity.  Every <u_n'|eta^2|u_n> is
    summed on one rule pair, and with L = lcm(n - n') the sum is formed
    exactly, as sum E_n'^2 L / (n - n') over the elements' int sums E_n',
    and rounded once to working precision.
    """
    n = int(q.n)
    if n_cutoff < n + 2:
        raise ValueError(f"cutoff must be >= n+2 = {n + 2}, got {n_cutoff}")
    k = _order(q.d, q.l)
    others = [m for m in range(n_cutoff + 1) if m != n]
    dps = working_precision()
    elements, exp = _bracket(k, [(m, n) for m in others], 2, dps)
    lcm = math.lcm(*(n - m for m in others))
    total = sum(e * e * (lcm // (n - m)) for e, m in zip(elements, others))
    return _rounded(total, lcm, 2 * exp - 7, dps)


def _laguerre_int(n: int, p: int, q: int, a: int, b: int) -> int:
    """L_n^(alpha)(eta) n! (q b)^n as an exact int, with alpha = p/q and eta = a/b.

    The recurrence of laguerre_fixed times k! (q b)^(k+1), from Z_0 = 1:
    Z_(k+1) = ((2k + 1) q b + p b - q a) Z_k - k (k q + p) q b^2 Z_(k-1).
    n < 0 gives 0.
    """
    if n < 0:
        return 0
    prev, curr = 0, 1
    qb, offset, qbb = q * b, p * b - q * a, q * b * b
    for k in range(n):
        prev, curr = curr, ((2 * k + 1) * qb + offset) * curr - k * (k * q + p) * qbb * prev
    return curr


def radial_residual(q: QuantumNumbers, sample_etas, energy=None) -> mpf:
    """Max relative residual of the radial equation at the sample points.

    At each r = sqrt(eta) the residual |u'' - (eta - 2E + ang/eta) u +
    (d - 3) u'/r|, with ang = d - 3 + l(l + d - 2), is divided by the sum of
    the pieces' sizes, |u''| + |u| (eta + 2|E| + |ang|/eta) + |(d - 3) u'/r|,
    so it stays small at a classical turning point, where u'' and the
    potential term both vanish.

    The ratio is computed exactly.  Divided by A e^(-eta/2) r^(l - 1) > 0,
    u = A r^(l + 1) e^(-eta/2) P(eta) with P = L_n^(alpha) leaves the pieces
    u'' -> l(l + 1) P + eta (eta - 2l - 3) P + 2 eta (2l + 3 - 2 eta) P'
    + 4 eta^2 P'', u (eta - 2E + ang/eta) -> (eta^2 - 2 E eta + ang) P and
    u'/r -> g = (l + 1 - eta) P + 2 eta P', with P' = -L_(n-1)^(alpha+1) and
    P'' = L_(n-2)^(alpha+2) from _laguerre_int.  These are brought to one int
    denominator, so each sample point gives a ratio of two ints; the worst is
    kept as such a pair, compared by cross-multiplication, and rounded once to
    working precision.  It is exactly 0 at the eigenvalue.

    The sample must be non-empty with every eta > 0, else ValueError.  Each
    eta and `energy`, which overrides the eigenvalue (used to confirm the test
    has power: a wrong energy must produce a large residual), is read exactly
    by Fraction(), so an mpf raises TypeError before any work.
    """
    k = _order(q.d, q.l)
    etas = [Fraction(eta) for eta in sample_etas]
    if not etas or any(eta <= 0 for eta in etas):
        raise ValueError(f"sample points must be a non-empty list of eta > 0, got {etas}")
    e = Fraction(energy_unperturbed(q) if energy is None else energy)
    e_num, e_den = e.numerator, e.denominator
    n, l, d = int(q.n), q.l, q.d
    ang = d - 3 + l * (l + d - 2)
    ap, aq = k, 2  # alpha = k/2
    worst, worst_scale = 0, 1  # the worst ratio so far, as two ints
    for eta in etas:
        a, b = eta.numerator, eta.denominator
        c = aq * b
        # P, P' and P'' times D = n! (aq b)^n
        p0 = _laguerre_int(n, ap, aq, a, b)
        p1 = -n * c * _laguerre_int(n - 1, ap + aq, aq, a, b)
        p2 = n * (n - 1) * c * c * _laguerre_int(n - 2, ap + 2 * aq, aq, a, b)
        # each piece times b^2 e_den D > 0
        d2u = e_den * (
            (l * (l + 1) * b * b + a * (a - (2 * l + 3) * b)) * p0
            + 2 * a * ((2 * l + 3) * b - 2 * a) * p1
            + 4 * a * a * p2
        )
        potential = (e_den * (a * a + ang * b * b) - 2 * e_num * a * b) * p0
        drift = (d - 3) * e_den * b * (((l + 1) * b - a) * p0 + 2 * a * p1)
        size = e_den * (a * a + abs(ang) * b * b) + 2 * abs(e_num) * a * b
        scale = abs(d2u) + abs(p0) * size + abs(drift)
        residual = abs(d2u - potential + drift)
        # a zero scale: every piece vanishes identically at this point (residual too)
        if scale and residual * worst_scale > worst * scale:
            worst, worst_scale = residual, scale
    return _rounded(worst, worst_scale, 0, working_precision())
