"""Independent high-precision verification by generalized Gauss-Laguerre
quadrature.

Nodes are the zeros of L_n^(alpha): seeded in double precision by Newton
with deflation, then polished by Newton steps on the three-term recurrence
at working precision, O(n^2) per rule (Glaser, Liu & Rokhlin, SIAM J. Sci.
Comput. 29 (2007) 1420).  Weights come from the derivative at each node,
w_i = Gamma(n + alpha + 1) / (n! x_i L_n^(alpha)'(x_i)^2).  The recurrence
is the single one in states.laguerre_values, which also fills the node
tables.  Working precision defaults to 50 significant digits and can be
overridden with the SALPETER_PRECISION environment variable.  All integrands
here are polynomials times the weight function, so the rules are exact up to
rounding and the two-rule convergence check is a pure sanity assertion.

Node counts come from a fixed set of buckets, 8, 12, 16, 24, 32, 48, ...
(2^k and 3 * 2^(k-1)): an integrand of polynomial degree D is summed on the
smallest bucket exact for D and on the next bucket up, so both rules are
exact and still differ, and one rule serves many (n, s).  The double-precision
seeds overflow above about 360 nodes; such a rule raises OverflowError before
any mpf work.

Each rule is built once with its node table and never changed after.  The
table is Python-int fixed point at the scale 2^B, with B = ceil(dps log2 10)
+ 20 guard bits for dps working digits (187 at the default 50):
X_i = round(x_i 2^B) and Q_ik = round(sqrt(w_i) p_k(x_i) 2^B) for
k <= 2 * npoints - 1, the highest order any sum on the rule can need, where
p_k = c_k L_k^(alpha) is orthonormal, c_k^2 = k! / Gamma(k + alpha + 1).
Each node's row is evaluated at dps + 10 digits and rounded at once, so no
rule holds mpf rows.  A sum on one rule is then one int sum,
sum_i X_i^s Q_(i,n1) Q_(i,n2) = <u_n1|eta^s|u_n2> 2^(B (s + 2)), rounded once
to working precision; no per-call result is cached.  Each build checks
sum_i Q_i0^2 = <p_0|p_0> 2^(2B) against 2^(2B) to the weights' tolerance, so
a table that disagrees with its weights is never cached.

Error bound: for k < npoints, Q_ik / 2^B is an orthogonal matrix (Golub &
Welsch, Math. Comp. 23 (1969) 221), so |Q_ik| <= 2^B; the rows k >= npoints
have no such bound but measure below 0.64 2^B (alpha from -1/2 to 40, up to
128 nodes).  With every |Q_ik| <= 2^B and each entry rounded to nearest, an
int sum differs from the same sum in exact arithmetic on the rule's mpf
entries by at most npoints (s + 1) max(1, x_max)^s 2^-B, to which the
entries' own rounding at dps + 10 digits adds its share.
"""

from __future__ import annotations

import math
import os
import threading
import time
from fractions import Fraction
from itertools import repeat
from operator import mul

from mpmath import mp, mpf

from .states import (
    QuantumNumbers,
    UnsupportedDimension,
    _to_mpf,
    energy_unperturbed,
    laguerre_values,
    u_derivatives,
)

__all__ = [
    "working_precision",
    "gauss_laguerre_rule",
    "rule_cache_stats",
    "quad_expectation",
    "quad_matrix_element",
    "orthonormality_check",
    "sum_over_states_check",
    "radial_residual",
]

DEFAULT_DPS = 50

# (alpha, npoints, dps) -> ((nodes, weights), (bits, xs, columns)); see _rule_entry
_rule_cache: dict = {}
_rule_lock = threading.Lock()
_rule_stats = {"hits": 0, "misses": 0, "build_s": 0.0}


def working_precision() -> int:
    """Working precision in significant digits."""
    value = os.environ.get("SALPETER_PRECISION")
    if value is None:
        return DEFAULT_DPS
    if not value.isdecimal() or int(value) < 15:
        raise ValueError(f"SALPETER_PRECISION must be an integer >= 15, got {value!r}")
    return int(value)


def rule_cache_stats() -> dict:
    """Rule-cache hits, misses and seconds spent building rules, in this process."""
    with _rule_lock:
        return dict(_rule_stats)


def _laguerre_and_derivative(n: int, alpha, x):
    """L_n^(alpha)(x) and L_n' at x > 0, n >= 1: x L_n' = n L_n - (n + alpha) L_{n-1}."""
    *_, prev, curr = laguerre_values(n, alpha, x)
    return curr, (n * curr - (n + alpha) * prev) / x


def _seed_zeros(alpha: float, n: int) -> list[float]:
    """Zeros of L_n^(alpha) in double precision, smallest first.

    Newton on L_n^(alpha)(z) / prod_{j<i} (z - x_j) converges monotonically to
    x_i from any start between x_{i-1} and x_i, because the polynomial is
    real-rooted.  Each zero starts a hundredth of the last gap to the right of
    the previous one; the first starts at (alpha + 1) / n, below every zero
    since the reciprocals of the zeros sum to n / (alpha + 1).
    """
    zeros: list[float] = []
    z = (alpha + 1) / n
    for i in range(n):
        for _ in range(100):
            p, dp = _laguerre_and_derivative(n, alpha, z)
            step = p / (dp - p * sum(1 / (z - x) for x in zeros))
            z -= step
            if abs(step) <= 1e-15 * z:
                break
        if not math.isfinite(z):
            raise OverflowError(f"{n}-node rule out of reach: its double-precision seeds overflow")
        zeros.append(z)
        z += (z - (zeros[-2] if i else 0)) / 100
    return zeros


def gauss_laguerre_rule(alpha, npoints: int) -> tuple[list, list]:
    """Nodes and weights for weight x^alpha e^(-x) on (0, inf).

    Exact for polynomial integrands of degree <= 2*npoints - 1.  Rules are
    memoized per (alpha, npoints, precision) behind a lock; the returned
    lists must not be mutated.  Raises ArithmeticError if a built rule fails
    its checks: positive, strictly increasing nodes and weights summing to
    Gamma(alpha + 1); OverflowError (an ArithmeticError) if its seeds
    overflow.
    """
    return _rule_entry(alpha, npoints)[0]


def _fixed(sign: int, man: int, exp: int, bits: int) -> int:
    """(-1)^sign man 2^exp times 2^bits, rounded to the nearest int (ties away from 0)."""
    shift = -(exp + bits) - 1
    value = ((man >> shift) + 1) >> 1 if shift >= 0 else man << (-shift - 1)
    return -value if sign else value


def _table_row(x, root_w, c: list, alpha_f, bits: int) -> list[int]:
    """[sqrt(w) p_k(x) 2^bits for k < len(c)] at one node, with p_k = c_k L_k^(alpha)
    and c[k] = (mantissa, exponent) of c_k: each entry is the exact product of
    three mantissas, rounded once."""
    _, man_w, exp_w, _ = root_w._mpf_
    values = laguerre_values(len(c) - 1, alpha_f, x)
    values[0] = mpf(values[0])  # L_0 is the int 1
    return [
        _fixed(sign, man_c * man_w * man, exp_c + exp_w + exp, bits)
        for (man_c, exp_c), (sign, man, exp, _) in zip(c, (v._mpf_ for v in values))
    ]


def _rule_entry(alpha, npoints: int) -> tuple:
    """The cache entry ((nodes, weights), (bits, xs, columns)) of a rule, built on a miss.

    xs[i] = round(x_i 2^bits) and columns[k][i] = round(sqrt(w_i) p_k(x_i) 2^bits)
    for k <= 2 npoints - 1, all Python ints.
    """
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if npoints < 1:
        raise ValueError(f"npoints must be >= 1, got {npoints}")
    dps = working_precision()
    key = (alpha, npoints, dps)
    with _rule_lock:
        if key in _rule_cache:
            _rule_stats["hits"] += 1
            return _rule_cache[key]
        _rule_stats["misses"] += 1
    start = time.perf_counter()
    seeds = _seed_zeros(float(alpha), npoints)
    with mp.workdps(dps + 10):
        alpha_f = _to_mpf(alpha)
        scale = mp.gamma(npoints + alpha_f + 1) / mp.factorial(npoints)
        # the seeds hold about 12 digits and each Newton step doubles them
        steps = math.ceil(math.log2((dps + 10) / 12))
        nodes, weights = [], []
        for z in seeds:
            x = mpf(z)
            for _ in range(steps):
                p, dp = _laguerre_and_derivative(npoints, alpha_f, x)
                step = p / dp
                x -= step
            # carry L' from the last iterate to the node: x L'' = (x - alpha - 1) L' - n L
            dp += step * ((alpha_f + 1 - x - step) * dp + npoints * p) / (x + step)
            nodes.append(x)
            weights.append(scale / (x * dp * dp))
        mu0 = mp.gamma(alpha_f + 1)
        increasing = nodes[0] > 0 and all(a < b for a, b in zip(nodes, nodes[1:]))
        if not increasing or abs(mp.fsum(weights) - mu0) > mpf(10) ** (5 - dps) * mu0:
            raise ArithmeticError(f"rule alpha={alpha} npoints={npoints} failed its checks")
        # orthonormal scales: c_0 = Gamma(alpha + 1)^(-1/2), c_k = c_(k-1) sqrt(k / (k + alpha))
        c = [1 / mp.sqrt(mu0)]
        for k in range(1, 2 * npoints):
            c.append(c[-1] * mp.sqrt(mpf(k) / (k + alpha_f)))
        c = [(man, exp) for _, man, exp, _ in (ck._mpf_ for ck in c)]
        bits = math.ceil(dps * math.log2(10)) + 20  # dps digits and 20 guard bits
        xs = tuple(_fixed(*x._mpf_[:3], bits) for x in nodes)
        # one node's mpf values at a time, each row converted as soon as it is built
        rows = [_table_row(x, mp.sqrt(w), c, alpha_f, bits) for x, w in zip(nodes, weights)]
    columns = tuple(zip(*rows))
    # <p_0|p_0> = 1 from the table itself, to the tolerance of the weight check
    one = 1 << 2 * bits
    if abs(sum(q * q for q in columns[0]) - one) * 10 ** (dps - 5) > one:
        raise ArithmeticError(f"rule alpha={alpha} npoints={npoints}: table disagrees with weights")
    entry = ((nodes, weights), (bits, xs, columns))
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


def _rule_sum(alpha: Fraction, npoints: int, n1: int, n2: int, s: int) -> tuple[int, int]:
    """(total, exp) with sum_i w_i x_i^s p_n1(x_i) p_n2(x_i) = total 2^exp on one rule."""
    _, (bits, xs, columns) = _rule_entry(alpha, npoints)
    powers = map(pow, xs, repeat(s))
    return sum(map(mul, powers, map(mul, columns[n1], columns[n2]))), -bits * (s + 2)


def _bracket(alpha: Fraction, n1: int, n2: int, s: int) -> mpf:
    """sum_i w_i x_i^s p_n1(x_i) p_n2(x_i) = <u_n1|eta^s|u_n2>, checked on two rules.

    Summed on the smallest bucket exact for the degree n1 + n2 + s and on the
    next bucket up; returns the latter, rounded once to working precision,
    once the two agree.  Both int sums share one scale, so they are compared
    as ints.
    """
    npoints = _bucket(n1 + n2 + s)
    # the larger rule first: if its seeds overflow, fail before building the smaller
    sizes = (_bucket(2 * npoints), npoints)
    (fine, exp), (coarse, _) = (_rule_sum(alpha, size, n1, n2, s) for size in sizes)
    # |coarse - fine| / max(1, |fine|) > 1e-14
    if abs(coarse - fine) * 10**14 > max(1 << -exp, abs(fine)):
        diff = mpf((abs(coarse - fine), exp)) / max(1, abs(mpf((fine, exp))))
        raise ArithmeticError(f"quadrature failed to converge: rel diff {diff}")
    return mpf((fine, exp))


def quad_expectation(q: QuantumNumbers, s: int) -> mpf:
    """<eta^s> by quadrature, cross-checked on two buckets of nodes."""
    if q.d < 2:
        raise UnsupportedDimension("quadrature oracle requires d >= 2")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return quad_matrix_element(int(q.n), int(q.n), q.l, q.d, s)


def quad_matrix_element(n1: int, n2: int, l: int, d: int, s: int) -> mpf:
    """<u_{n1,l}|eta^s|u_{n2,l}> by quadrature, cross-checked on two buckets of nodes."""
    if d < 2:
        raise UnsupportedDimension("quadrature oracle requires d >= 2")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    # InvalidQuantumNumbers for a negative or non-integer n1, n2 or l
    alpha = QuantumNumbers(d, n1, l).alpha
    QuantumNumbers(d, n2, l)
    with mp.workdps(working_precision()):
        return _bracket(alpha, n1, n2, s)


def orthonormality_check(l: int, d: int, n_max: int) -> mpf:
    """max |<u_n1|u_n2> - delta| over n1, n2 <= n_max."""
    with mp.workdps(working_precision()):
        worst = mpf(0)
        for n1 in range(n_max + 1):
            for n2 in range(n1, n_max + 1):
                value = quad_matrix_element(n1, n2, l, d, 0)
                worst = max(worst, abs(value - (1 if n1 == n2 else 0)))
        return worst


def sum_over_states_check(q: QuantumNumbers, n_cutoff: int) -> mpf:
    """Second-order part II by brute-force sum over states.

    (1/128) sum_{n' != n, n' <= cutoff} <u_n'|eta^2|u_n>^2 / (n - n');
    cutoff-independent beyond n + 2 by sparsity.
    """
    n = int(q.n)
    if n_cutoff < n + 2:
        raise ValueError(f"cutoff must be >= n+2 = {n + 2}, got {n_cutoff}")
    with mp.workdps(working_precision()):
        total = mpf(0)
        for n_prime in range(n_cutoff + 1):
            if n_prime == n:
                continue
            element = quad_matrix_element(n_prime, n, q.l, q.d, 2)
            total += element * element / (n - n_prime)
        return total / 128


def radial_residual(q: QuantumNumbers, sample_etas, energy=None) -> mpf:
    """Max relative residual of the radial equation at the sample points.

    `energy` overrides the eigenvalue (used to confirm the test has power:
    a wrong energy must produce a large residual).
    """
    if q.d < 2:
        raise UnsupportedDimension("radial residual requires d >= 2")
    e = _to_mpf(energy_unperturbed(q) if energy is None else energy)
    ang = q.d - 3 + q.l * (q.l + q.d - 2)
    with mp.workdps(working_precision()):
        worst = mpf(0)
        for eta in sample_etas:
            r = mp.sqrt(_to_mpf(eta))
            u, du, d2u = u_derivatives(q, r)
            terms = [
                d2u,
                (r * r - 2 * e + ang / (r * r)) * u,
                -((q.d - 3) / r) * du,
            ]
            residual = abs(terms[0] - terms[1] - terms[2])
            scale = max(abs(t) for t in terms)
            if scale == 0:
                # every term vanishes identically at this point (residual too)
                continue
            worst = max(worst, residual / scale)
        return worst
