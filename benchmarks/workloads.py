"""Workload inputs, ops and correctness gates for benchmarks/run.py.

Run as a script, this module is one worker process of a benchmark run:

    python3 benchmarks/workloads.py '{"workload": "level-table", "seed": 1, ...}'

It imports the package from ``src/`` of the checkout, builds the seeded
inputs, prints ``ready`` and then runs one pass over them as a closed loop:
one op at a time, the next only after the previous one completed.  Every
worker of a run makes the same ops in the same order.  The last line of its
output is one JSON object with the op latencies, failures and, when tracing,
the spans.  ``python3 benchmarks/workloads.py --record-digests`` rewrites
``digests.json`` from the current code.

Every op calls the package's public functions, the same calls the CLI makes,
through :class:`Calls`, which records a span around each call when tracing.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
from mpmath import mp, mpf  # noqa: E402

import salpeter_qho  # noqa: E402
from salpeter_qho import corrections, kramers, ladder2d, laguerre_me, oracle, spectrum  # noqa: E402
from salpeter_qho.states import QuantumNumbers  # noqa: E402

from run import REFERENCE_EVERY_S, reference_s  # noqa: E402

DIGESTS = HERE / "digests.json"

# Criterion 5's tolerances (tests/test_acceptance.py).
TOL_EXPECT = mpf("1e-12")
TOL_SUM = mpf("1e-10")
TOL_ORTHO = mpf("1e-12")
TOL_RESIDUAL = mpf("1e-10")
RESIDUAL_ETAS = (Fraction(1, 10), Fraction(1, 2), 1, 2, Fraction(7, 2), 5)

# level-table: one slot per table, each with a fixed Nmax and lam (the size of
# lam changes a table's cost); the seed picks d among POOL_CANDIDATES per d>=2
# slot and the order.  Seeds thus differ little in cost, and every table a
# seed can draw has a recorded digest.
D1_NMAX = (2000, 600, 200, 60, 20, 6)
DN_NMAX = tuple(round(2 * 15 ** (k / 93)) for k in range(94))
POOL_CANDIDATES = 6

FUNCTIONS = {
    "corrections.eps1": corrections.epsilon1_general,
    "corrections.eps2": corrections.epsilon2_general,
    "kramers.eps1": kramers.first_order_method1,
    "laguerre_me.eps1": laguerre_me.first_order_method2,
    "laguerre_me.eps2": laguerre_me.second_order_method2,
    "ladder2d.eps1": ladder2d.first_order_2d,
    "ladder2d.eps2": ladder2d.second_order_2d,
    "spectrum.level_table": spectrum.level_table,
    "spectrum.render_csv": spectrum.render_csv,
    "spectrum.render_json": spectrum.render_json,
    "spectrum.diagram_data": spectrum.diagram_data,
    "spectrum.render_svg": spectrum.render_svg,
    "oracle.quad_expectation": oracle.quad_expectation,
    "oracle.sum_over_states": oracle.sum_over_states_check,
    "oracle.orthonormality": oracle.orthonormality_check,
    "oracle.radial_residual": oracle.radial_residual,
}


def _flip_eps1(fn):
    # the 6n^2 -> 7n^2 coefficient flip that `verify --perturb` injects
    return lambda q: fn(q) - Fraction(q.n * q.n, 8)


def _flip_byte(fn):
    def render(table):
        text = fn(table)
        return text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]

    return render


def _offset_oracle(fn):
    return lambda q, s: fn(q, s) * (1 + mpf("1e-9"))


# Faults for the gates' own tests: each replaces one function the ops call.
FAULTS = {
    "eps1-flip": ("corrections.eps1", _flip_eps1),
    "table-byte": ("spectrum.render_csv", _flip_byte),
    "oracle-offset": ("oracle.quad_expectation", _offset_oracle),
}


class Calls:
    """Calls into the package by span name; records spans when tracing.

    A span is (name, start, end, parent, op): ``parent`` is the index of the
    op's own span in ``spans`` and ``op`` the op's sequence number.
    """

    def __init__(self, trace: bool, fault: str | None):
        self.fns = dict(FUNCTIONS)
        if fault is not None:
            name, wrap = FAULTS[fault]
            self.fns[name] = wrap(self.fns[name])
        self.trace = trace
        self.spans: list = []
        self.parent = -1
        self.op = -1

    def __call__(self, name, *args):
        if not self.trace:
            return self.fns[name](*args)
        start = time.perf_counter()
        result = self.fns[name](*args)
        self.spans.append((name, start, time.perf_counter(), self.parent, self.op))
        return result

    def begin_op(self, op: int) -> None:
        if self.trace:
            self.op, self.parent = op, len(self.spans)
            self.spans.append(None)

    def end_op(self, start: float, end: float) -> None:
        if self.trace:
            self.spans[self.parent] = ("op", start, end, -1, self.op)


# --- exact-crosscheck -------------------------------------------------------


class ExactCrosscheck:
    """One op is one state; every exact method must give the same eps1/eps2.

    The states are the acceptance grid (d=1 N<=50, d=2..10 n,l<=25) and, on
    top, the 2D ladder states N<=40, which also go through the ladder, in the
    seed's order.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        items = [(QuantumNumbers.one_dim(N), None) for N in range(51)]
        for d in range(2, 11):
            items += [(QuantumNumbers(d, n, l), None) for n in range(26) for l in range(26)]
        for N in range(41):
            for m in range(-N, N + 1, 2):
                fock = ladder2d.FockState2D(N, m)
                items.append((ladder2d.map_Nm_to_nl(fock), fock))
        rng.shuffle(items)
        self.items = items

    def run(self, item, call):
        q, fock = item
        e1 = call("corrections.eps1", q)
        e2 = call("corrections.eps2", q)
        ok = call("kramers.eps1", q) == e1
        ok &= call("laguerre_me.eps1", q) == e1
        ok &= call("laguerre_me.eps2", q) == e2
        if fock is not None:
            ok &= call("ladder2d.eps1", fock) == e1
            ok &= call("ladder2d.eps2", fock) == e2
        return ok

    def check(self, item, out) -> bool:
        return out is True


# --- level-table ------------------------------------------------------------


def table_pool() -> list[list[tuple[int, int, Fraction]]]:
    """Candidate (d, Nmax, lam) triples per slot; fixed, not seeded."""
    pool = []
    for slot, nmax in enumerate(D1_NMAX + DN_NMAX):
        rng = random.Random(f"level-table slot {slot}")
        lam = Fraction(rng.randint(1, 9), 10 ** rng.randint(2, 6))
        if slot < len(D1_NMAX):
            pool.append([(1, nmax, lam)])
        else:
            pool.append([(rng.randint(2, 100), nmax, lam) for _ in range(POOL_CANDIDATES)])
    return pool


def triple_key(d: int, nmax: int, lam: Fraction) -> str:
    return f"{d},{nmax},{lam}"


def render_digests(texts) -> list[str]:
    return [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts]


class LevelTable:
    """One op is one table: level_table, render_csv, render_json, diagram.

    Gates, outside the op's time: the three renderings against the digests
    recorded in digests.json, and each distinct row's eps1 against Kramers
    and eps2 against the Laguerre matrix elements.  Every worker runs all the
    tables; worker k re-checks the rows in part ``gate_part`` = k %
    GATE_PARTS, so any GATE_PARTS consecutive workers check every row.
    Checking every row in every worker would cost more than its op time.
    """

    GATE_PARTS = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = [rng.choice(cands) for cands in table_pool()]
        rng.shuffle(self.items)
        self.digests = json.loads(DIGESTS.read_text())
        self.rows_checked: dict = {}
        self.rows = 0
        self.gate_part = 0

    def run(self, item, call):
        d, nmax, lam = item
        table = call("spectrum.level_table", nmax, d, lam)
        csv = call("spectrum.render_csv", table)
        text = call("spectrum.render_json", table)
        svg = call("spectrum.render_svg", call("spectrum.diagram_data", table))
        return table, (csv, text, svg)

    def check(self, item, out) -> bool:
        table, texts = out
        self.rows += len(table.rows)
        ok = render_digests(texts) == self.digests.get(triple_key(*item))
        d = item[0]
        for row in table.rows[self.gate_part :: self.GATE_PARTS]:
            key = (d, row.N, row.l)
            if key not in self.rows_checked:
                if d == 1:
                    q = QuantumNumbers.one_dim(row.N)
                else:
                    q = QuantumNumbers(d, (row.N - row.l) // 2, row.l)
                self.rows_checked[key] = (
                    row.eps1 == kramers.first_order_method1(q)
                    and row.eps2 == laguerre_me.second_order_method2(q)
                )
            ok &= self.rows_checked[key]
        return ok


# --- oracle-cold / oracle-warm ----------------------------------------------


class Oracle:
    """One op is one oracle call on a seeded sample of criterion 5's grid.

    The seed picks one l in 0..3 for each d in (2, 3, 5), with distinct
    Laguerre orders alpha = l + d/2 - 1, and the order of the three d.  The
    calls for each (d, l) run in criterion 5's loop order, and a rule's size
    depends on n and s only, so every seed builds the same rules in the same
    order and has the same share of even d, whose alpha is an integer.
    Each result is gated at criterion 5's tolerance against exact Kramers /
    Laguerre values computed in set-up.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        while True:
            ls = {d: rng.randrange(4) for d in rng.sample((2, 3, 5), 3)}
            if len({l + Fraction(d, 2) for d, l in ls.items()}) == 3:
                break
        self.dps = oracle.working_precision()
        ops = []
        with mp.workdps(self.dps):
            for d, l in ls.items():
                for n in range(4):
                    q = QuantumNumbers(d, n, l)
                    for s in range(9):
                        ops.append(("oracle.quad_expectation", (q, s), _exact(kramers.moment_eta(q, s)), TOL_EXPECT))
                    ops.append(("oracle.sum_over_states", (q, n + 4), _exact(laguerre_me.second_order_part2(q)), TOL_SUM))
                    ops.append(("oracle.radial_residual", (q, RESIDUAL_ETAS), None, TOL_RESIDUAL))
                ops.append(("oracle.orthonormality", (l, d, 3), None, TOL_ORTHO))
        self.items = ops
        self.margin = math.inf

    def run(self, item, call):
        name, args, _, _ = item
        return call(name, *args)

    def check(self, item, out) -> bool:
        _, _, exact, tol = item
        with mp.workdps(self.dps):
            err = abs(out) if exact is None else abs(out - exact) / abs(out)
            floor = mpf(10) ** -self.dps
            self.margin = min(self.margin, float(mp.log10(tol / max(err, floor))))
            return err <= tol


def _exact(value: Fraction) -> mpf:
    return mpf(value.numerator) / value.denominator


WORKLOADS = {
    "exact-crosscheck": ExactCrosscheck,
    "level-table": LevelTable,
    "oracle-cold": Oracle,
    "oracle-warm": Oracle,
}


# --- worker -----------------------------------------------------------------


def run_pass(wl, call: Calls) -> dict:
    """One closed-loop pass over ``wl.items``; gates run between ops.

    reference_s() is timed before the first op and after every
    REFERENCE_EVERY_S of op time; each op's reference is the mean of the
    times before and after its block of ops."""
    latencies, references = [], []
    failed, first_failure = 0, None
    before, block = reference_s(), 0.0
    for i, item in enumerate(wl.items):
        call.begin_op(i)
        start = time.perf_counter()
        try:
            out = wl.run(item, call)
        except Exception as exc:  # an op that raises (e.g. ArithmeticError) fails, not the run
            out = exc
        end = time.perf_counter()
        call.end_op(start, end)
        latencies.append(end - start)
        block += end - start
        if isinstance(out, Exception) or not wl.check(item, out):
            failed += 1
            if first_failure is None:
                first_failure = f"op {i} {item!r:.200}: {out!r:.200}"
        if block >= REFERENCE_EVERY_S or i == len(wl.items) - 1:
            after = reference_s()
            references += [(before + after) / 2] * (len(latencies) - len(references))
            before, block = after, 0.0
    return {
        "latencies": latencies,
        "references": references,
        "failed": failed,
        "first_failure": first_failure,
    }


def peak_rss_mb() -> float:
    """This process's peak resident memory.  VmHWM, unlike ru_maxrss, does
    not inherit the parent's peak across fork and exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def worker(config: dict) -> dict:
    """One worker process: set-up, then one timed pass over the ops.

    The oracle workloads make two passes, the first with an empty rule cache
    and the second with the cache it filled: oracle-cold times the first,
    oracle-warm the second, which makes the first part of its set-up.  The
    untimed pass is returned too, for oracle.rule_build_share.
    """
    if not Path(salpeter_qho.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"salpeter_qho imported from {salpeter_qho.__file__}, not from src/")
    setup_references = [reference_s()]
    name = config["workload"]
    wl = WORKLOADS[name](config["seed"])
    if isinstance(wl, LevelTable):
        wl.gate_part = config["worker"] % wl.GATE_PARTS
    call = Calls(config["trace"], config.get("fault"))
    result: dict = {}
    if name == "oracle-warm":
        result["cold"] = run_pass(wl, Calls(False, config.get("fault")))
        setup_references += result["cold"]["references"]
    setup_references.append(reference_s())
    result["setup_reference"] = statistics.median(setup_references)
    print("ready", flush=True)
    result.update(run_pass(wl, call))
    if name == "oracle-cold":
        result["warm"] = run_pass(wl, Calls(False, config.get("fault")))
    if isinstance(wl, LevelTable):
        result["rows"] = wl.rows
    if isinstance(wl, Oracle) and math.isfinite(wl.margin):
        result["err_margin_digits"] = wl.margin
    if config["trace"]:
        result["spans"] = call.spans
    result["peak_rss_mb"] = peak_rss_mb()
    result["provenance"] = {
        "package": salpeter_qho.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "oracle_precision": oracle.working_precision(),
    }
    return result


def record_digests() -> None:
    """Write the digests of every table the level-table workload can draw."""
    digests = {}
    for cands in table_pool():
        for d, nmax, lam in cands:
            table = spectrum.level_table(nmax, d, lam)
            texts = (
                spectrum.render_csv(table),
                spectrum.render_json(table),
                spectrum.render_svg(spectrum.diagram_data(table)),
            )
            digests[triple_key(d, nmax, lam)] = render_digests(texts)
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(digests.items())]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record-digests"]:
        record_digests()
    else:
        print(json.dumps(worker(json.loads(sys.argv[1]))), flush=True)
