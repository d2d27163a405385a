"""Degeneracies, level splitting, level tables, diagram data and the
Landau-analogue energies.

Table values are exact rationals; renderers print them as "p/q". A
LevelRow is a NamedTuple whose field order is the CSV column order, and
level_table builds each row positionally. The renderers write their text
directly with one %-template per row or sub-level, so each Fraction goes
through str once: render_csv formats the row tuple as it is, and
render_json gives the bytes of json.dumps(..., indent=2, sort_keys=True)
without the generic encoder. diagram_data builds each sub-level's position
as one exact Fraction from integer numerators and denominators; render_svg
converts each position to float once, by the int true division
numerator / denominator, raises ValueError when positions exceed the float
range, and formats the x columns of the sub-levels once per sub-level count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

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


class LevelRow(NamedTuple):
    """One (N, l) sub-level; the field order is the CSV column order."""

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
            e1, e2 = _scaled_corrections(N - l, d + 2 * l)
            rows.append(
                LevelRow(
                    N,
                    l,
                    eps0,
                    Fraction(e1, 32),
                    Fraction(e2, 512),
                    Fraction(base + c1 * e1 + c2 * e2, 2 * c0),
                    degeneracy[l],
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
    since the layout is not to scale.

    With baseline z = zn/zd, energy e = en/ed and exaggeration a/b, the
    position z + (a/b)(e - z) is (ed*zn*(b - a) + en*a*zd) / (ed*zd*b): one
    Fraction per sub-level.
    """
    exag = Fraction(exaggeration) if exaggeration is not None else Fraction(1, 10) / table.lam
    if exag <= 0:
        raise ValueError(f"exaggeration must be positive, got {exag}")
    a, b = exag.numerator, exag.denominator
    levels = []
    N = None
    # level_table emits rows in (N, l) order, so this sort is one linear pass
    for row_N, l, eps0, _, _, energy, h in sorted(table.rows, key=attrgetter("N", "l")):
        if row_N != N:
            if N is not None:
                levels.append(DiagramLevel(N=N, baseline=baseline, sublevels=tuple(sublevels)))
            N, baseline, sublevels = row_N, eps0, []
            zn, zd = baseline.numerator, baseline.denominator
            ed_coef, en_coef, den_coef = zn * (b - a), a * zd, zd * b
        en, ed = energy.numerator, energy.denominator
        sublevels.append((l, Fraction(ed * ed_coef + en * en_coef, ed * den_coef), h))
    if N is not None:
        levels.append(DiagramLevel(N=N, baseline=baseline, sublevels=tuple(sublevels)))
    return DiagramModel(d=table.d, lam=table.lam, exaggeration=exag, levels=tuple(levels))


def render_csv(table: LevelTable) -> str:
    # LevelRow's field order is the column order, so each row is one template
    rows = "".join(["%s,%s,%s,%s,%s,%s,%s\n" % row for row in table.rows])
    return "N,l,eps0,eps1,eps2,energy,degeneracy\n" + rows


_JSON_ROW = (
    '    {\n      "N": %s,\n      "degeneracy": %s,\n      "energy": "%s",\n'
    '      "eps0": "%s",\n      "eps1": "%s",\n      "eps2": "%s",\n      "l": %s\n    }'
)


def render_json(table: LevelTable) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) + "\\n",
    written directly: keys in sorted order, and a Fraction's str has only
    digits, "-" and "/", so no string needs escaping."""
    rows = ",\n".join(
        [
            _JSON_ROW % (N, degeneracy, energy, eps0, eps1, eps2, l)
            for N, l, eps0, eps1, eps2, energy, degeneracy in table.rows
        ]
    )
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{{\n  "d": {table.d},\n  "lambda": "{table.lam}",\n  "rows": {rows}\n}}\n'


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 480, 50.0


def render_svg(model: DiagramModel) -> str:
    """Deterministic SVG energy-level diagram.

    Raises ValueError when the diagram or one of its levels is empty, and
    when a position does not fit in a float.
    """
    if not model.levels:
        raise ValueError("diagram has no levels to draw")
    levels = []
    try:
        for lvl in model.levels:
            if not lvl.sublevels:
                raise ValueError(f"diagram level N={lvl.N} has no sub-levels to draw")
            base = lvl.baseline
            subs = [pos.numerator / pos.denominator for (_, pos, _) in lvl.sublevels]
            levels.append((lvl, base.numerator / base.denominator, subs))
    except OverflowError as exc:
        raise ValueError("diagram positions exceed the float range") from exc
    lo = min(min(base, *subs) for (_, base, subs) in levels)
    hi = max(max(base, *subs) for (_, base, subs) in levels)
    span = (hi - lo) or 1.0
    if math.isinf(span):
        raise ValueError("diagram positions exceed the float range")
    top, height = SVG_HEIGHT - SVG_MARGIN, SVG_HEIGHT - 2 * SVG_MARGIN

    plot_width = SVG_WIDTH - 2 * SVG_MARGIN
    x0, x1 = SVG_MARGIN, SVG_MARGIN + plot_width * 0.35
    x2, x3 = SVG_MARGIN + plot_width * 0.5, SVG_WIDTH - SVG_MARGIN
    x0_s, x1_s, label_x_s = f"{x0:.2f}", f"{x1:.2f}", f"{x0 - 38:.2f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<title>Relativistic level splitting, d={model.d}, lambda={model.lam}</title>',
        '<style>text{font-family:monospace;font-size:11px}</style>',
    ]
    columns = {}  # sub-level count -> the (start, end) x strings of each sub-level
    for lvl, base, subs in levels:
        yb = top - (base - lo) / span * height
        yb_s = f"{yb:.2f}"
        parts.append(
            f'<line x1="{x0_s}" y1="{yb_s}" x2="{x1_s}" y2="{yb_s}" '
            'stroke="black" stroke-width="1.5"/>\n'
            f'<text x="{label_x_s}" y="{yb + 4:.2f}">N={lvl.N}</text>'
        )
        cols = columns.get(len(subs))
        if cols is None:
            seg = (x3 - x2) / len(subs)
            cols = columns[len(subs)] = [
                (f"{x2 + idx * seg:.2f}", f"{x2 + (idx + 1) * seg - 6:.2f}")
                for idx in range(len(subs))
            ]
        for (l, _, h), pos, (xa_s, xb_s) in zip(lvl.sublevels, subs, cols):
            ys = top - (pos - lo) / span * height
            ys_s = f"{ys:.2f}"
            parts.append(
                f'<line x1="{xa_s}" y1="{ys_s}" x2="{xb_s}" y2="{ys_s}" '
                'stroke="firebrick" stroke-width="1.5"/>\n'
                f'<line x1="{x1_s}" y1="{yb_s}" x2="{xa_s}" y2="{ys_s}" '
                'stroke="gray" stroke-width="0.5" stroke-dasharray="3,3"/>\n'
                f'<text x="{xa_s}" y="{ys - 3:.2f}">l={l} (h={h})</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
