"""Benchmark of salpeter_qho: four seeded closed-loop workloads.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload exact-crosscheck --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seed 1      # every workload, untraced then traced

Workloads (one client, one process, one thread; next op after the previous):

  exact-crosscheck  one op = one state of the acceptance grid (d=1 N<=50,
                    d=2..10 n,l<=25) or the 2D ladder states N<=40, in the
                    seed's order; all exact methods must agree.  Loads
                    kramers, laguerre_me, ladder2d and corrections; spectrum
                    and oracle do nothing.
  level-table       one op = level_table + render_csv + render_json +
                    diagram_data + render_svg for one of 100 seeded
                    (d, Nmax, lam), d up to 100 and Nmax up to 2000 (d=1).
                    Loads the closed forms at large quantum numbers and the
                    spectrum renderers; the other methods and oracle do nothing.
  oracle-cold       one op = one oracle call on a seeded sample of criterion
                    5's grid, with an empty rule cache, so Golub-Welsch rule
                    builds dominate.
  oracle-warm       the same calls after set-up filled the rule cache, so
                    node evaluation and summation dominate.

A run is a sequence of fresh worker interpreters (workloads.py), started
one after another as long as the next should end within --seconds, and at
least MIN_WORKERS.  Each worker makes one pass over the same ops in the same
order, so no op repeats within a process and a per-process memo cannot make
a repeat free.  oracle-warm workers first make an untimed pass that fills
the rule cache.  Gates run between ops, outside op time.

A shared host's speed can swing by 2x for seconds to minutes at a time (a
fixed pure-Python loop on a 2-core Xeon VM took 15 to 31 ms), far more than
the bounds.  So workers also time reference_s(), a fixed piece of work that
does not use the package, after every REFERENCE_EVERY_S of op time, and each
op's latency is divided by the mean of the reference times around it and
given as it would be on a host where that work takes REFERENCE_S.  An op's
time is the median of these adjusted latencies over the run's passes.  The
unadjusted medians are printed beside the metrics, and host.probe_ms, timed
before and after the run, is not used to adjust anything.

setup_s is the median of the workers' times from spawn to "ready" (import,
inputs and, for oracle-warm, the pass that fills the rule cache), each
adjusted by the median of the reference times the worker took during its
set-up.  ops_per_s is the number of ops over the sum of their times: one
pass's throughput.  op_p50_ms is the median op time and op_tail_ms the time
at the highest rank with 10 ops beyond it.  fail_ratio counts every op of
every pass; it is printed, not in the JSON metrics, because it is 0 whenever
the package is correct.

--trace 1 alternates untraced and traced workers within the same --seconds;
the traced ones record a span around every call into the package and give
the per-layer metrics, each call's time adjusted and taken as the median
over the traced passes in the same way.  trace.overhead is the traced over
the untraced pass time, less one.  Spans are written to .bench_out/ at the
end.  The last line of output is one JSON object: correct, attempted,
failed, metrics.  The exit code is 1 when an op failed its gate, 2 when the
run cannot start.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact-crosscheck", "level-table", "oracle-cold", "oracle-warm")
FAULTS = ("eps1-flip", "table-byte", "oracle-offset")
# At least this many workers: level-table's gate needs 4 to check every row,
# and each op's median needs a few passes.
MIN_WORKERS = 4
WORKER_TIMEOUT_S = 150
MODULES = ("corrections", "kramers", "laguerre_me", "ladder2d", "spectrum", "oracle")
# Op times are reported as they would be on a host where reference_s() takes
# REFERENCE_S; workers time it after every REFERENCE_EVERY_S of op time.
REFERENCE_S = 1e-3
REFERENCE_EVERY_S = 0.05


def host_probe_ms() -> float:
    """Best of five timings of a fixed pure-Python loop; never used to rescale."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def reference_s() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not use
    the package: Fractions, string formatting and a dict, with the garbage
    collector off so that the program's heap cannot change it.

    Workers time it between ops, and op times are divided by it.  On a
    shared 2-core Xeon VM whose speed swung by 1.7x, the ratio of each
    workload's time to this work moved by under 5% between fast and slow
    spells; its ratio to host_probe_ms()'s integer loop moved by 5 to 24%.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 40):
            acc += Fraction(k, k * k + 1)
        text = [f"{i},{i * i % 7}" for i in range(1500)]
        table = {i: str(i) for i in range(1500)}
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_worker(config: dict) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to ready, its result)."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(config)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {config['workload']} failed (exit {proc.returncode})")
    return setup, json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, fault: str | None) -> dict:
    """Start the run's workers one after another and collect their results.

    With ``trace``, workers alternate untraced and traced."""
    kinds = (False, True) if trace else (False,)
    probe_before = host_probe_ms()
    start = time.perf_counter()
    workers = []
    rounds = 0
    # another round only while it should end within --seconds, judged by the mean round so far
    while rounds < MIN_WORKERS or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for traced in kinds:
            config = {"workload": workload, "seed": seed, "fault": fault, "worker": len(workers), "trace": traced}
            setup, result = spawn_worker(config)
            workers.append({"traced": traced, "setup_s": setup, **result})
        rounds += 1
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "workers": workers,
        "probe_ms": (probe_before, host_probe_ms()),
    }


def adjusted(passed: dict) -> list[float]:
    """A pass's op latencies at the reference speed."""
    return [lat * REFERENCE_S / ref for lat, ref in zip(passed["latencies"], passed["references"])]


def per_op(runs: list[list[float]]) -> list[float]:
    """Elementwise median over the passes: each op's (or call's) time."""
    return [statistics.median(times) for times in zip(*runs)]


def end_to_end(run: dict) -> dict:
    """The end-to-end metrics of the untraced workers, each as (value, unit, note)."""
    plain = [w for w in run["workers"] if not w["traced"]]
    times = sorted(per_op([adjusted(w) for w in plain]))
    raw = sorted(per_op([w["latencies"] for w in plain]))
    rank = max(0, len(times) - 11)  # highest rank with at least 10 ops beyond it
    failed = sum(w["failed"] for w in run["workers"])
    attempted = sum(len(w["latencies"]) for w in run["workers"])
    sample = f"{len(times)} ops, each the median of {len(plain)} passes"
    return {
        "setup_s": (
            statistics.median(w["setup_s"] * REFERENCE_S / w["setup_reference"] for w in plain),
            "s",
            f"median of {len(plain)} workers; unadjusted {statistics.median(w['setup_s'] for w in plain):.6g}",
        ),
        "ops_per_s": (len(times) / sum(times), "1/s", f"{sample}; unadjusted {len(raw) / sum(raw):.6g}"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms", f"{sample}; unadjusted {statistics.median(raw) * 1e3:.6g}"),
        "op_tail_ms": (
            times[rank] * 1e3,
            "ms",
            f"p{100 * (rank + 1) / len(times):.2f}, {len(times) - rank - 1} ops beyond; {sample}; "
            f"unadjusted {raw[rank] * 1e3:.6g}",
        ),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in plain), "MB", "max over worker processes"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed}/{attempted} ops failed"),
    }


def per_layer(run: dict) -> dict:
    """Per-layer metrics from the traced workers' spans, each as (value, unit).

    Every traced pass makes the same calls in the same order, so its spans
    line up by index; a call's time is its median over the passes, adjusted
    by its op's reference time, and calls, busy times and rows are per pass."""
    plain = [w for w in run["workers"] if not w["traced"]]
    traced = [w for w in run["workers"] if w["traced"]]
    names = [name for name, *_ in traced[0]["spans"]]
    durations = per_op([
        [(end - start) * REFERENCE_S / w["references"][op] for _, start, end, _, op in w["spans"]]
        for w in traced
    ])
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, duration in zip(names, durations):
        if name != "op":
            busy[name] = busy.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
    timed = sum(per_op([adjusted(w) for w in traced]))
    rows = traced[0].get("rows", 0)

    def per_call(name, scale):
        return busy[name] / calls[name] * scale if name in calls else 0.0

    def per_row(*names):
        return sum(busy.get(name, 0.0) for name in names) / rows * 1e6 if rows else 0.0

    metrics = {}
    for span in ("corrections.eps1", "corrections.eps2", "kramers.eps1", "laguerre_me.eps1",
                 "laguerre_me.eps2", "ladder2d.eps1", "ladder2d.eps2"):
        metrics[span + "_us"] = (per_call(span, 1e6), "us")
    metrics["spectrum.level_table_us_per_row"] = (per_row("spectrum.level_table"), "us")
    metrics["spectrum.render_csv_us_per_row"] = (per_row("spectrum.render_csv"), "us")
    metrics["spectrum.render_json_us_per_row"] = (per_row("spectrum.render_json"), "us")
    metrics["spectrum.diagram_us_per_row"] = (per_row("spectrum.diagram_data", "spectrum.render_svg"), "us")
    metrics["spectrum.rows"] = (rows, "count")
    for span in ("quad_expectation", "sum_over_states", "orthonormality", "radial_residual"):
        metrics[f"oracle.{span}_ms"] = (per_call("oracle." + span, 1e3), "ms")
    margins = [w["err_margin_digits"] for w in run["workers"] if "err_margin_digits" in w]
    metrics["oracle.err_margin_digits"] = (min(margins) if margins else 0.0, "digits")
    # the oracle workers' other pass; elsewhere both are the timed pass and the share is 0
    cold = sum(per_op([adjusted(w.get("cold", w)) for w in plain]))
    warm = sum(per_op([adjusted(w.get("warm", w)) for w in plain]))
    metrics["oracle.rule_build_share"] = (1 - warm / cold, "ratio")
    for module in MODULES:
        module_names = [x for x in busy if x.startswith(module + ".")]
        module_busy = sum((busy[x] for x in module_names), 0.0)
        metrics[f"{module}.calls"] = (sum(calls[x] for x in module_names), "count")
        metrics[f"{module}.busy_s"] = (module_busy, "s")
        metrics[f"{module}.share"] = (module_busy / timed, "ratio")
    metrics["trace.overhead"] = (timed / sum(per_op([adjusted(w) for w in plain])) - 1, "ratio")
    metrics["host.probe_ms"] = (statistics.mean(run["probe_ms"]), "ms")
    return metrics


def write_spans(run: dict, path: Path) -> None:
    """One line per span of the traced workers: id, name, start, end, parent,
    op, self time (s).

    Self time is the span's duration minus its children's; ids and parents
    are global over the run's workers."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        fh.write("id,name,start_s,end_s,parent,op,self_s\n")
        offset = 0
        for w in run["workers"]:
            spans = w.get("spans", [])
            child_time = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for i, (name, start, end, parent, op) in enumerate(spans):
                parent_id = parent + offset if parent >= 0 else -1
                fh.write(f"{i + offset},{name},{start:.9f},{end:.9f},{parent_id},{op},"
                         f"{end - start - child_time[i]:.9f}\n")
            offset += len(spans)


def host_block(run: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **run["workers"][0]["provenance"],
        "commit": git_commit(),
        "workload": run["workload"],
        "seed": run["seed"],
        "trace": int(run["trace"]),
        "host.probe_ms_before_after": [round(x, 3) for x in run["probe_ms"]],
    }


def report(run: dict) -> dict:
    """Print the human-readable block; return the JSON result object."""
    print("# host " + json.dumps(host_block(run)))
    e2e = end_to_end(run)
    for name, (value, unit, note) in e2e.items():
        print(f"# {run['workload']} {name} = {value:.6g} {unit} ({note})")
    for w in run["workers"]:
        if w["first_failure"]:
            print(f"# first failure: {w['first_failure']}")
    if run["trace"]:
        metrics = per_layer(run)
        for name, (value, unit) in metrics.items():
            print(f"# {run['workload']} {name} = {value:.6g} {unit}")
        path = OUT / f"spans-{run['workload']}-seed{run['seed']}.csv"
        write_spans(run, path)
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items() if name != "fail_ratio"}
    failed = sum(w["failed"] for w in run["workers"])
    return {
        "correct": failed == 0,
        "attempted": sum(len(w["latencies"]) for w in run["workers"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced."""
    worst = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            result = report(run_workload(workload, seed, seconds, trace, None))
            print(json.dumps(result))
            worst = max(worst, 0 if result["correct"] else 1)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=FAULTS, default=None,
                        help="replace one call with a faulty one; the gates must fail")
    args = parser.parse_args(argv)
    if "SALPETER_PRECISION" in os.environ:
        print("error: unset SALPETER_PRECISION; it would change the oracle's work", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "salpeter_qho" / "__init__.py").is_file():
        print(f"error: no src/salpeter_qho under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.inject)
    result = report(run)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
