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
exact and still differ, and one rule serves many (n, s).  Each rule is built
once with its node table and never changed after: the orthonormal rows
p_k(x_i) = c_k L_k^(alpha)(x_i), k <= 2 * npoints - 1, the highest order
any sum on the rule can need, with c_k^2 = k! / Gamma(k + alpha + 1).  A
weighted sum of two rows is then <u_n1|eta^s|u_n2> itself; no per-call
result is cached.  The double-precision seeds overflow above about 360
nodes; such a rule raises OverflowError before any mpf work.
"""

from __future__ import annotations

import math
import os
import threading
import time
from fractions import Fraction

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

# (alpha, npoints, dps) -> ((nodes, weights), rows); rows[i] = [p_0..p_(2 npoints - 1)](nodes[i])
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


def _rule_entry(alpha, npoints: int) -> tuple:
    """The cache entry ((nodes, weights), rows) of a rule, built on a miss."""
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
        # orthonormal rows: c_0 = Gamma(alpha + 1)^(-1/2), c_k = c_(k-1) sqrt(k / (k + alpha))
        order = 2 * npoints - 1
        c = [1 / mp.sqrt(mu0)]
        for k in range(1, order + 1):
            c.append(c[-1] * mp.sqrt(mpf(k) / (k + alpha_f)))
        rows = [[ck * v for ck, v in zip(c, laguerre_values(order, alpha_f, x))] for x in nodes]
        entry = ((nodes, weights), rows)
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


def _bracket(alpha: Fraction, n1: int, n2: int, s: int) -> mpf:
    """sum_i w_i x_i^s p_n1(x_i) p_n2(x_i) = <u_n1|eta^s|u_n2>, checked on two rules.

    Summed on the smallest bucket exact for the degree n1 + n2 + s and on the
    next bucket up; returns the latter once the two agree.
    """
    npoints = _bucket(n1 + n2 + s)
    sums = []
    # the larger rule first: if its seeds overflow, fail before building the smaller
    for size in (_bucket(2 * npoints), npoints):
        (nodes, weights), rows = _rule_entry(alpha, size)
        terms = ((w * x**s, row[n1] * row[n2]) for x, w, row in zip(nodes, weights, rows))
        sums.append(mp.fdot(terms))
    fine, coarse = sums
    diff = abs(coarse - fine) / max(1, abs(fine))
    if diff > mpf("1e-14"):
        raise ArithmeticError(f"quadrature failed to converge: rel diff {diff}")
    return fine


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
