"""Degeneracies, level splitting, level tables, diagram data and the
Landau-analogue energies.

Table values are exact rationals; renderers print them as "p/q".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .corrections import _scaled_corrections

__all__ = [
    "LevelRow",
    "LevelTable",
    "DiagramModel",
    "degeneracy_total",
    "degeneracy_level",
    "split_count",
    "allowed_l",
    "level_table",
    "landau_analogue",
    "diagram_data",
    "render_csv",
    "render_json",
    "render_svg",
]


def degeneracy_total(N: int, d: int) -> int:
    """g(N, d) = C(N+d-1, d-1), total degeneracy of level N."""
    if N < 0 or d < 1:
        raise ValueError(f"need N >= 0 and d >= 1, got N={N}, d={d}")
    return math.comb(N + d - 1, d - 1)


def degeneracy_level(l: int, d: int) -> int:
    """h(l, d) = (2l+d-2)(l+d-3)!/((d-2)! l!), angular multiplicity at fixed l.

    Evaluated as (2l+d-2) C(l+d-3, l)/(d-2), whose cost grows with l only.
    The factorials degenerate for d = 1 and d = 2: d = 1 has one angular
    state, and d = 2 has m = 0 for l = 0 and m = +-l otherwise, consistent
    with the sum rule against g(N, d).
    """
    if l < 0 or d < 1:
        raise ValueError(f"need l >= 0 and d >= 1, got l={l}, d={d}")
    if d == 1:
        return 1
    if d == 2:
        return 1 if l == 0 else 2
    return (2 * l + d - 2) * math.comb(l + d - 3, l) // (d - 2)


def split_count(N: int) -> int:
    """Number of distinct first-order sub-levels of level N: floor(N/2)+1."""
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    return N // 2 + 1


def allowed_l(N: int) -> list[int]:
    """Angular numbers compatible with N = 2n + l: N, N-2, ..., down to 0 or 1."""
    return list(range(N % 2, N + 1, 2))


@dataclass(frozen=True)
class LevelRow:
    N: int
    l: int
    eps0: Fraction
    eps1: Fraction
    eps2: Fraction
    energy: Fraction
    degeneracy: int


@dataclass(frozen=True)
class LevelTable:
    d: int
    lam: Fraction
    rows: tuple[LevelRow, ...]


def level_table(N_max: int, d: int, lam) -> LevelTable:
    """Per-(N, l) corrections, shifted energies and degeneracies up to N_max."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if N_max < 0 or d < 1:
        raise ValueError(f"need N_max >= 0 and d >= 1, got N_max={N_max}, d={d}")
    # With lam = p/q, eps0 = (2N+d)/2, eps1 = e1/32 and eps2 = e2/512, the
    # energy eps0 + lam*eps1 + lam^2*eps2 is (c0*(2N+d) + c1*e1 + c2*e2)/(2*c0).
    p, q = lam.numerator, lam.denominator
    c0, c1, c2 = 256 * q * q, 16 * p * q, p * p
    degeneracy = [degeneracy_level(l, d) for l in range(N_max + 1 if d > 1 else 1)]
    rows = []
    for N in range(N_max + 1):
        eps0 = Fraction(2 * N + d, 2)
        base = c0 * (2 * N + d)
        for l in allowed_l(N) if d > 1 else (0,):
            e1, e2 = _scaled_corrections(d, N - l, l)
            rows.append(
                LevelRow(
                    N=N,
                    l=l,
                    eps0=eps0,
                    eps1=Fraction(e1, 32),
                    eps2=Fraction(e2, 512),
                    energy=Fraction(base + c1 * e1 + c2 * e2, 2 * c0),
                    degeneracy=degeneracy[l],
                )
            )
    return LevelTable(d=d, lam=lam, rows=tuple(rows))


def landau_analogue(q: float, k: float, mass: float, N_max: int = 10, hbar: float = 1.0) -> dict:
    """Charged particle in a uniform magnetic and linear electric field.

    With B0 = sqrt(mass*k/q) the cyclotron and electric-oscillation
    frequencies coincide, giving the two-dimensional isotropic-oscillator
    spectrum E(N) = (N+1) hbar omega with omega = sqrt(q*k/mass) and
    degeneracy N+1.
    """
    if q * k <= 0:
        raise ValueError("q and k must be both positive or both negative")
    if mass <= 0:
        raise ValueError("mass must be positive")
    omega_1 = math.sqrt(q * k / mass)
    b0 = math.sqrt(mass * k / q)
    omega_c = abs(q) * b0 / mass
    return {
        "omega_1": omega_1,
        "omega_c": omega_c,
        "B0_match": b0,
        "energies": [(N + 1) * hbar * omega_1 for N in range(N_max + 1)],
        "degeneracies": [N + 1 for N in range(N_max + 1)],
    }


@dataclass(frozen=True)
class DiagramLevel:
    N: int
    baseline: Fraction
    sublevels: tuple[tuple[int, Fraction, int], ...]  # (l, shifted position, degeneracy)


@dataclass(frozen=True)
class DiagramModel:
    d: int
    lam: Fraction
    exaggeration: Fraction
    levels: tuple[DiagramLevel, ...]


def diagram_data(table: LevelTable, exaggeration=None) -> DiagramModel:
    """Schematic diagram positions: unperturbed baselines plus shifted
    sub-levels ordered by l, shifts exaggerated uniformly (default 0.1/lambda)
    since the layout is not to scale."""
    exag = Fraction(exaggeration) if exaggeration is not None else Fraction(1, 10) / table.lam
    if exag <= 0:
        raise ValueError(f"exaggeration must be positive, got {exag}")
    by_n: dict[int, list[LevelRow]] = {}
    for row in table.rows:
        by_n.setdefault(row.N, []).append(row)
    levels = []
    for N in sorted(by_n):
        rows = sorted(by_n[N], key=lambda r: r.l)
        baseline = rows[0].eps0
        sublevels = tuple(
            (r.l, baseline + exag * (r.energy - r.eps0), r.degeneracy) for r in rows
        )
        levels.append(DiagramLevel(N=N, baseline=baseline, sublevels=sublevels))
    return DiagramModel(d=table.d, lam=table.lam, exaggeration=exag, levels=tuple(levels))


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def render_csv(table: LevelTable) -> str:
    lines = ["N,l,eps0,eps1,eps2,energy,degeneracy"]
    for r in table.rows:
        lines.append(
            f"{r.N},{r.l},{_fmt(r.eps0)},{_fmt(r.eps1)},{_fmt(r.eps2)},"
            f"{_fmt(r.energy)},{r.degeneracy}"
        )
    return "\n".join(lines) + "\n"


def render_json(table: LevelTable) -> str:
    payload = {
        "d": table.d,
        "lambda": _fmt(table.lam),
        "rows": [
            {
                "N": r.N,
                "l": r.l,
                "eps0": _fmt(r.eps0),
                "eps1": _fmt(r.eps1),
                "eps2": _fmt(r.eps2),
                "energy": _fmt(r.energy),
                "degeneracy": r.degeneracy,
            }
            for r in table.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 480, 50.0


def render_svg(model: DiagramModel) -> str:
    """Deterministic SVG energy-level diagram."""
    levels = [
        (lvl, float(lvl.baseline), [float(pos) for (_, pos, _) in lvl.sublevels])
        for lvl in model.levels
    ]
    positions = [y for (_, base, subs) in levels for y in (base, *subs)]
    lo, hi = min(positions), max(positions)
    span = (hi - lo) or 1.0

    def y_of(value: float) -> float:
        return SVG_HEIGHT - SVG_MARGIN - (value - lo) / span * (SVG_HEIGHT - 2 * SVG_MARGIN)

    plot_width = SVG_WIDTH - 2 * SVG_MARGIN
    x0, x1 = SVG_MARGIN, SVG_MARGIN + plot_width * 0.35
    x2, x3 = SVG_MARGIN + plot_width * 0.5, SVG_WIDTH - SVG_MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<title>Relativistic level splitting, d={model.d}, lambda={_fmt(model.lam)}</title>',
        '<style>text{font-family:monospace;font-size:11px}</style>',
    ]
    for lvl, base, subs in levels:
        yb = y_of(base)
        parts.append(
            f'<line x1="{x0:.2f}" y1="{yb:.2f}" x2="{x1:.2f}" y2="{yb:.2f}" '
            'stroke="black" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{x0 - 38:.2f}" y="{yb + 4:.2f}">N={lvl.N}</text>')
        count = len(lvl.sublevels)
        seg = (x3 - x2) / count
        for idx, ((l, _, h), pos) in enumerate(zip(lvl.sublevels, subs)):
            ys = y_of(pos)
            xa, xb = x2 + idx * seg, x2 + (idx + 1) * seg - 6
            parts.append(
                f'<line x1="{xa:.2f}" y1="{ys:.2f}" x2="{xb:.2f}" y2="{ys:.2f}" '
                'stroke="firebrick" stroke-width="1.5"/>'
            )
            parts.append(
                f'<line x1="{x1:.2f}" y1="{yb:.2f}" x2="{xa:.2f}" y2="{ys:.2f}" '
                'stroke="gray" stroke-width="0.5" stroke-dasharray="3,3"/>'
            )
            parts.append(f'<text x="{xa:.2f}" y="{ys - 3:.2f}">l={l} (h={h})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
