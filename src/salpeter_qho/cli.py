"""Command-line interface: correct | table | diagram | verify | oracle.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from mpmath import mp, mpf, nstr

from . import checks, kramers, ladder2d, laguerre_me, oracle, spectrum
from .corrections import epsilon1_general, epsilon2_general
from .ladder2d import FockState2D, map_Nm_to_nl
from .oracle import _to_mpf
from .states import InvalidQuantumNumbers, QuantumNumbers, energy_unperturbed

USAGE_ERROR, VERIFY_ERROR, IO_ERROR = 2, 1, 3


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _dec(x) -> str:
    return nstr(_to_mpf(x), 12)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        sys.exit(IO_ERROR)


def _state_from_args(args) -> QuantumNumbers:
    if args.m is not None and args.d != 2:
        raise InvalidQuantumNumbers(f"--m is only for d=2, got --d {args.d}")
    if args.big_N is not None:
        if args.n is not None or args.l is not None:
            raise InvalidQuantumNumbers("give either --N or --n/--l, not both")
        if args.d == 1:
            return QuantumNumbers.one_dim(args.big_N)
        if args.d == 2:
            m = args.m if args.m is not None else args.big_N % 2
            return map_Nm_to_nl(FockState2D(args.big_N, m))
        raise InvalidQuantumNumbers("--N/--m addressing is only for d=1 or d=2")
    if args.n is None:
        raise InvalidQuantumNumbers("specify --n/--l, or --N (d=1), or --N/--m (d=2)")
    l = 0 if args.l is None else args.l
    if args.m is not None and abs(args.m) != l:
        raise InvalidQuantumNumbers(f"--m {args.m} contradicts --l {l}: need |m| = l")
    return QuantumNumbers(args.d, args.n, l)


def cmd_correct(args) -> int:
    try:
        q = _state_from_args(args)
    except InvalidQuantumNumbers as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    methods = {}
    wanted = args.method
    if wanted in ("all", "closed"):
        methods["closed_form"] = (epsilon1_general(q), epsilon2_general(q))
    if wanted in ("all", "kramers"):
        methods["kramers"] = (kramers.first_order_method1(q), None)
    if wanted in ("all", "laguerre"):
        methods["laguerre"] = (
            laguerre_me.first_order_method2(q),
            laguerre_me.second_order_method2(q),
        )
    if wanted in ("all", "ladder"):
        if q.d == 2:
            s = FockState2D(q.big_N, args.m if args.m is not None else q.l)
            methods["ladder"] = (ladder2d.first_order_2d(s), ladder2d.second_order_2d(s))
        elif wanted == "ladder":
            print("error: ladder method requires d=2", file=sys.stderr)
            return USAGE_ERROR

    eps1_values = {v[0] for v in methods.values()}
    eps2_values = {v[1] for v in methods.values() if v[1] is not None}
    verdict = "AGREE" if len(eps1_values) == 1 and len(eps2_values) <= 1 else "DISAGREE"
    eps0 = energy_unperturbed(q)
    payload = {
        "state": {"d": q.d, "n": str(q.n), "l": q.l, "N": q.big_N},
        "epsilon0": {"pq": str(eps0), "dec_approx": _dec(eps0)},
        "methods": {
            name: {
                "epsilon1_pq": str(e1),
                "epsilon1_dec_approx": _dec(e1),
                "epsilon2_pq": str(e2) if e2 is not None else None,
                "epsilon2_dec_approx": _dec(e2) if e2 is not None else None,
            }
            for name, (e1, e2) in methods.items()
        },
        "verdict": verdict,
    }
    if args.format == "json":
        _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"state: d={q.d} n={q.n} l={q.l} (N={q.big_N})",
            f"epsilon0 = {eps0} (~{_dec(eps0)})  [hbar*omega]",
        ]
        for name, (e1, e2) in methods.items():
            line = f"{name:12s} epsilon1 = {e1} (~{_dec(e1)})"
            if e2 is not None:
                line += f"   epsilon2 = {e2} (~{_dec(e2)})"
            lines.append(line)
        lines.append(f"verdict: {verdict}")
        _write_output("\n".join(lines) + "\n", args.out)
    return 0 if verdict == "AGREE" else VERIFY_ERROR


def cmd_table(args) -> int:
    try:
        table = spectrum.level_table(args.Nmax, args.d, args.lam)
    except (ValueError, InvalidQuantumNumbers) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    text = spectrum.render_json(table) if args.format == "json" else spectrum.render_csv(table)
    _write_output(text, args.out)
    return 0


def cmd_diagram(args) -> int:
    try:
        table = spectrum.level_table(args.Nmax, args.d, args.lam)
        model = spectrum.diagram_data(table, exaggeration=args.exaggeration)
        text = spectrum.render_svg(model)
    except (ValueError, InvalidQuantumNumbers) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _write_output(text, args.out)
    return 0


def cmd_oracle(args) -> int:
    try:
        q = QuantumNumbers(args.d, Fraction(args.n), args.l)
        # the quadrature first: a rule past MAX_NODES fails before any exact work
        approx = oracle.quad_expectation(q, args.s)
        exact = kramers.moment_eta(q, args.s)
    except (InvalidQuantumNumbers, ValueError, ArithmeticError) as exc:
        hint = "; try a higher SALPETER_PRECISION" if isinstance(exc, ArithmeticError) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return USAGE_ERROR
    rel = checks.rel_error(approx, exact)
    print(f"<eta^{args.s}> exact      = {exact} (~{_dec(exact)})")
    print(f"<eta^{args.s}> quadrature = {nstr(approx, 30)}")
    print(f"relative difference = {nstr(rel, 3)}")
    return 0


# --- verification suite -----------------------------------------------------


def _perturbed_eps1(q: QuantumNumbers) -> Fraction:
    return epsilon1_general(q) - Fraction(q.n * q.n, 8)  # flipped coefficient: 6n^2 -> 7n^2


def _record(case, method, value, ok, detail="") -> dict:
    return {
        "case": case if not detail else f"{case} [{detail}]",
        "method": method,
        "value_pq": str(value),
        "value_dec": _dec(value) if isinstance(value, (Fraction, mpf, float)) else "",
        "status": "pass" if ok else "FAIL",
    }


def _first_failure_record(case, method, q, value) -> dict:
    """Record of an exact check over radial states; q is its first failure or None."""
    if q is None:
        return _record(case, method, Fraction(0), True)
    return _record(case, method, value(q), False, f"first failure at d={q.d} n={q.n} l={q.l}")


def run_verification(grid: str = "small", perturb: bool = False) -> tuple[bool, list[dict]]:
    """Run cross-method and oracle checks; returns (all_passed, records)."""
    sizes = checks.GRIDS[grid]
    states = checks.radial_grid(sizes["d_max"], sizes["nl_max"], sizes["N1_max"])
    eps1_target = _perturbed_eps1 if perturb else epsilon1_general
    records = [
        _first_failure_record(
            "first-order cross-method equality (I = II = closed form)",
            "kramers/laguerre/closed",
            checks.first_order_failure(states, eps1_target),
            eps1_target,
        ),
        _first_failure_record(
            "second-order cross-method equality (part I + II = closed form)",
            "laguerre/closed",
            checks.second_order_failure(states),
            epsilon2_general,
        ),
    ]
    fock = checks.ladder_failure(sizes["ladder_N"])
    records.append(
        _record(
            "2D ladder equivalence under N=2n+l, m^2=l^2",
            "ladder/closed",
            Fraction(0),
            fock is None,
            "" if fock is None else f"first failure at N={fock.N} m={fock.m}",
        )
    )
    for q, e1, e2 in checks.SPOTS:
        ok = checks.spot_value_holds(q, e1, e2)
        records.append(_record(f"spot value d={q.d} n={q.n} l={q.l}", "closed", e1, ok))
    for case, method, ok in [
        (
            "degeneracy sum rule and split count, N<=30, d<=10",
            "spectrum",
            checks.degeneracy_sum_rule_holds(),
        ),
        ("sign invariants eps1<0, eps2>0", "closed", checks.sign_failure(states) is None),
        ("p^4 expansion self-test and commutators", "ladder", checks.operator_self_test_holds()),
    ]:
        records.append(_record(case, method, Fraction(0), ok))

    # oracle spot checks (kept small: the full grid lives in the test suite)
    for d, n, l, s in [(2, 0, 0, 2), (3, 1, 1, 4), (5, 2, 0, 2)]:
        q = QuantumNumbers(d, n, l)
        ok = checks.expectation_error([(q, s)]) <= checks.TOL_EXPECT
        case = f"quadrature <eta^{s}> at d={d} n={n} l={l}"
        records.append(_record(case, "oracle", kramers.moment_eta(q, s), ok))
    q = QuantumNumbers(3, 0, 0)
    ok = checks.sum_over_states_error([(q, 6)]) <= checks.TOL_SUM
    case = "sum-over-states part II at d=3 ground state"
    records.append(_record(case, "oracle", laguerre_me.second_order_part2(q), ok))
    residual = oracle.radial_residual(QuantumNumbers(3, 2, 1), [Fraction(1, 2), 1, 2])
    ok = residual <= checks.TOL_RESIDUAL
    records.append(_record("radial-equation residual d=3 n=2 l=1", "oracle", residual, ok))

    return all(rec["status"] == "pass" for rec in records), records


def cmd_verify(args) -> int:
    try:
        passed, records = run_verification(grid=args.grid, perturb=args.perturb)
    except ArithmeticError as exc:
        print(f"error: {exc}; try a higher SALPETER_PRECISION", file=sys.stderr)
        return USAGE_ERROR
    report = {"grid": args.grid, "perturb": args.perturb, "passed": passed, "checks": records}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write_output(text, args.report)
    if args.report not in (None, "-"):
        for rec in records:
            print(f"[{rec['status']}] {rec['case']}")
    return 0 if passed else VERIFY_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salpeter-qho",
        description="Relativistic corrections to the d-dimensional isotropic "
        "quantum harmonic oscillator (exact rationals, three methods, "
        "quadrature oracle).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correct", help="corrections for one state, all methods")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=_parse_rational, help="radial number (rational for d=1)")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--N", dest="big_N", type=int, default=None, help="principal number (d=1 or d=2)")
    p.add_argument("--m", type=int, default=None, help="angular momentum for d=2 ladder mode")
    p.add_argument(
        "--method", choices=["all", "closed", "kramers", "laguerre", "ladder"], default="all"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("table", help="level table with corrections and degeneracies")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--Nmax", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_rational, default=Fraction(1, 1000))
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("diagram", help="SVG energy-level splitting diagram")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--Nmax", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_rational, default=Fraction(1, 1000))
    p.add_argument("--exaggeration", type=_parse_rational, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("verify", help="run the cross-method/oracle verification suite")
    p.add_argument("--grid", choices=["small", "large"], default="small")
    p.add_argument("--perturb", action="store_true", help="inject a fault; must fail")
    p.add_argument("--report", default=None, help="write JSON report to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="quadrature expectation value vs exact")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--s", type=int, default=2)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        dps = oracle.working_precision()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    with mp.workdps(max(mp.dps, dps)):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
