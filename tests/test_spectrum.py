"""Degeneracies, level tables, diagram data and the Landau analogue."""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from salpeter_qho.corrections import epsilon1_general, epsilon2_general
from salpeter_qho.spectrum import (
    DiagramLevel,
    DiagramModel,
    LevelRow,
    LevelTable,
    allowed_l,
    degeneracy_level,
    degeneracy_total,
    diagram_data,
    landau_analogue,
    level_table,
    render_csv,
    render_json,
    render_svg,
    split_count,
)
from salpeter_qho.states import QuantumNumbers, energy_unperturbed

F = Fraction


def reference_rows(N_max, d, lam):
    """The level table one state at a time, through the public per-state API."""
    rows = []
    for N in range(N_max + 1):
        if d == 1:
            states = [QuantumNumbers.one_dim(N)]
        else:
            states = [QuantumNumbers(d, F(N - l, 2), l) for l in allowed_l(N)]
        for q in states:
            eps0, eps1, eps2 = energy_unperturbed(q), epsilon1_general(q), epsilon2_general(q)
            rows.append(
                LevelRow(
                    N=N,
                    l=q.l,
                    eps0=eps0,
                    eps1=eps1,
                    eps2=eps2,
                    energy=eps0 + lam * eps1 + lam * lam * eps2,
                    degeneracy=degeneracy_level(q.l, d),
                )
            )
    return tuple(rows)


def reference_render_csv(table):
    """render_csv with one f-string per row, field by field."""
    lines = ["N,l,eps0,eps1,eps2,energy,degeneracy"]
    for r in table.rows:
        lines.append(
            f"{r.N},{r.l},{r.eps0},{r.eps1},{r.eps2},"
            f"{r.energy},{r.degeneracy}"
        )
    return "\n".join(lines) + "\n"


def reference_render_json(table):
    """render_json through the generic encoder."""
    payload = {
        "d": table.d,
        "lambda": str(table.lam),
        "rows": [
            {
                "N": r.N,
                "l": r.l,
                "eps0": str(r.eps0),
                "eps1": str(r.eps1),
                "eps2": str(r.eps2),
                "energy": str(r.energy),
                "degeneracy": r.degeneracy,
            }
            for r in table.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_render_svg(model):
    """render_svg with float() positions and every coordinate formatted where
    it is drawn."""
    width, height_px, margin = 640, 480, 50.0
    try:
        levels = [
            (lvl, float(lvl.baseline), [float(pos) for (_, pos, _) in lvl.sublevels])
            for lvl in model.levels
        ]
    except OverflowError as exc:
        raise ValueError("diagram positions exceed the float range") from exc
    lo = min(min(base, *subs) for (_, base, subs) in levels)
    hi = max(max(base, *subs) for (_, base, subs) in levels)
    span = (hi - lo) or 1.0
    if math.isinf(span):
        raise ValueError("diagram positions exceed the float range")
    top, height = height_px - margin, height_px - 2 * margin

    plot_width = width - 2 * margin
    x0, x1 = margin, margin + plot_width * 0.35
    x2, x3 = margin + plot_width * 0.5, width - margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height_px}" '
        f'viewBox="0 0 {width} {height_px}">',
        f"<title>Relativistic level splitting, d={model.d}, lambda={model.lam}</title>",
        "<style>text{font-family:monospace;font-size:11px}</style>",
    ]
    for lvl, base, subs in levels:
        yb = top - (base - lo) / span * height
        parts.append(
            f'<line x1="{x0:.2f}" y1="{yb:.2f}" x2="{x1:.2f}" y2="{yb:.2f}" '
            'stroke="black" stroke-width="1.5"/>\n'
            f'<text x="{x0 - 38:.2f}" y="{yb + 4:.2f}">N={lvl.N}</text>'
        )
        seg = (x3 - x2) / len(subs)
        for idx, ((l, _, h), pos) in enumerate(zip(lvl.sublevels, subs)):
            ys = top - (pos - lo) / span * height
            xa = x2 + idx * seg
            parts.append(
                f'<line x1="{xa:.2f}" y1="{ys:.2f}" x2="{x2 + (idx + 1) * seg - 6:.2f}" '
                f'y2="{ys:.2f}" stroke="firebrick" stroke-width="1.5"/>\n'
                f'<line x1="{x1:.2f}" y1="{yb:.2f}" x2="{xa:.2f}" y2="{ys:.2f}" '
                'stroke="gray" stroke-width="0.5" stroke-dasharray="3,3"/>\n'
                f'<text x="{xa:.2f}" y="{ys - 3:.2f}">l={l} (h={h})</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_diagram_data(table, exaggeration=None):
    """diagram_data as baseline + exaggeration * (energy - eps0) in Fractions."""
    exag = Fraction(exaggeration) if exaggeration is not None else F(1, 10) / table.lam
    by_n = {}
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


class TestDegeneracy:
    def test_total_examples(self):
        assert all(degeneracy_total(N, 1) == 1 for N in range(10))
        assert degeneracy_total(2, 3) == 6
        assert degeneracy_total(3, 2) == 4

    def test_total_closed_forms(self):
        for N in range(15):
            assert degeneracy_total(N, 2) == N + 1
            assert degeneracy_total(N, 3) == (N + 1) * (N + 2) // 2

    def test_level_examples(self):
        assert degeneracy_level(1, 3) == 3
        assert degeneracy_level(0, 2) == 1
        assert degeneracy_level(2, 2) == 2

    def test_level_d3_is_2l_plus_1(self):
        for l in range(20):
            assert degeneracy_level(l, 3) == 2 * l + 1

    def test_sum_rule(self):
        for N in range(31):
            for d in range(2, 11):
                assert sum(degeneracy_level(l, d) for l in allowed_l(N)) == degeneracy_total(N, d)

    def test_d1_special_case(self):
        assert degeneracy_level(0, 1) == 1

    @given(l=st.integers(0, 50), d=st.integers(2, 10**6))
    def test_harmonic_difference_at_large_d(self, l, d):
        """h(l, d) = g(l, d) - g(l-2, d): degree-l harmonics are degree-l
        polynomials modulo r^2 times degree l-2."""
        lower = degeneracy_total(l - 2, d) if l >= 2 else 0
        assert degeneracy_level(l, d) == degeneracy_total(l, d) - lower


class TestSplitting:
    def test_examples(self):
        assert split_count(0) == 1
        assert split_count(1) == 1
        assert split_count(4) == 3
        assert split_count(7) == 4

    def test_matches_allowed_l(self):
        for N in range(31):
            ls = allowed_l(N)
            assert len(ls) == split_count(N)
            assert ls == list(range(N, -1, -2))[::-1]


class TestLevelTable:
    def test_rows_for_N2_d3(self):
        table = level_table(2, 3, F(1, 100))
        rows_n2 = [r for r in table.rows if r.N == 2]
        assert [(r.l, r.degeneracy) for r in rows_n2] == [(0, 1), (2, 5)]

    def test_single_row_N0(self):
        table = level_table(0, 2, F(1, 10))
        assert len(table.rows) == 1 and table.rows[0].eps0 == 1

    def test_invariants(self):
        table = level_table(8, 4, F(1, 1000))
        for N in range(9):
            rows = [r for r in table.rows if r.N == N]
            assert len(rows) == split_count(N)
            assert sum(r.degeneracy for r in rows) == degeneracy_total(N, 4)
            eps1_values = [r.eps1 for r in sorted(rows, key=lambda r: r.l)]
            assert all(a < b for a, b in zip(eps1_values, eps1_values[1:]))
            assert len(set(eps1_values)) == len(eps1_values)

    def test_shifted_energy_column(self):
        table = level_table(2, 3, F(1, 1000))
        for r in table.rows:
            assert r.energy == r.eps0 + F(1, 1000) * r.eps1 + F(1, 1000000) * r.eps2

    def test_d1_no_splitting(self):
        table = level_table(3, 1, F(1, 1000))
        assert len(table.rows) == 4
        assert all(r.l == 0 and r.degeneracy == 1 for r in table.rows)

    @pytest.mark.parametrize("lam", [F(1, 1000), F(3, 70), F(9, 100000)])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 100])
    def test_matches_per_state_reference(self, d, lam):
        for N_max in (0, 1, 60):
            table = level_table(N_max, d, lam)
            assert table.rows == reference_rows(N_max, d, lam)
        assert all(
            type(x) is Fraction
            for r in table.rows
            for x in (r.eps0, r.eps1, r.eps2, r.energy)
        )

    def test_rows_are_level_rows(self):
        for d in (1, 2, 7):
            assert all(type(r) is LevelRow for r in level_table(12, d, F(3, 70)).rows)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            level_table(2, 3, 0)
        with pytest.raises(ValueError):
            level_table(2, 3, F(-1, 10))


class TestLevelRow:
    ROW = level_table(2, 3, F(1, 10)).rows[2]  # N = 2, l = 0

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.ROW.eps1 = F(0)

    def test_fields_are_csv_columns(self):
        # render_csv formats each row tuple as it is, in field order
        header = render_csv(level_table(0, 3, F(1, 10))).split("\n")[0]
        assert LevelRow._fields == tuple(header.split(","))

    def test_keyword_and_positional_construction_agree(self):
        row = self.ROW
        assert (row.N, row.l) == (2, 0)
        assert LevelRow(**row._asdict()) == LevelRow(*row) == row
        assert row._replace(l=2) != row


class TestLandau:
    def test_matched_frequencies(self):
        result = landau_analogue(2.0, 8.0, 4.0)
        assert result["omega_1"] == pytest.approx(result["omega_c"], rel=1e-15)
        assert result["omega_1"] == pytest.approx(2.0)
        assert result["B0_match"] == pytest.approx(4.0)

    def test_energy_ladder(self):
        result = landau_analogue(1.0, 1.0, 1.0, N_max=5)
        assert result["energies"][0] == pytest.approx(1.0)  # E(0) = hbar*omega
        assert result["energies"] == pytest.approx([N + 1.0 for N in range(6)])
        assert result["degeneracies"] == [N + 1 for N in range(6)]

    def test_both_negative_charges_allowed(self):
        result = landau_analogue(-2.0, -8.0, 4.0)
        assert result["omega_1"] == pytest.approx(result["omega_c"])

    def test_sign_mismatch_rejected(self):
        with pytest.raises(ValueError):
            landau_analogue(1.0, -1.0, 1.0)


class TestDiagram:
    def test_sublevel_counts(self):
        model = diagram_data(level_table(5, 3, F(1, 1000)))
        assert [len(lvl.sublevels) for lvl in model.levels] == [1, 1, 2, 2, 3, 3]

    def test_all_shifts_downward(self):
        model = diagram_data(level_table(6, 3, F(1, 1000)))
        for lvl in model.levels:
            for _, pos, _ in lvl.sublevels:
                assert pos < lvl.baseline

    def test_larger_l_smaller_shift(self):
        model = diagram_data(level_table(6, 5, F(1, 1000)))
        for lvl in model.levels:
            shifts = [lvl.baseline - pos for _, pos, _ in lvl.sublevels]
            assert all(a > b for a, b in zip(shifts, shifts[1:]))

    def test_default_exaggeration(self):
        model = diagram_data(level_table(2, 3, F(1, 500)))
        assert model.exaggeration == F(1, 10) * 500

    @pytest.mark.parametrize("lam", [F(1, 1000), F(3, 70), F(9, 100000), F(5, 3)])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 100])
    def test_matches_fraction_reference(self, d, lam):
        for N_max in (0, 1, 60):
            table = level_table(N_max, d, lam)
            for exaggeration in (None, F(7, 3)):
                model = diagram_data(table, exaggeration)
                assert model == reference_diagram_data(table, exaggeration)
                assert all(
                    type(pos) is Fraction for lvl in model.levels for _, pos, _ in lvl.sublevels
                )

    def test_row_order_does_not_matter(self):
        table = level_table(12, 5, F(3, 70))
        rows = list(table.rows)
        random.Random(7).shuffle(rows)
        shuffled = LevelTable(d=table.d, lam=table.lam, rows=tuple(rows))
        assert diagram_data(shuffled) == diagram_data(table)


# p/q with p, q <= 10**6, lambda > 1 included
RATIONALS = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6))


class TestRenderers:
    def test_csv_header_and_rationals(self):
        text = render_csv(level_table(2, 3, F(1, 1000)))
        lines = text.strip().split("\n")
        assert lines[0] == "N,l,eps0,eps1,eps2,energy,degeneracy"
        assert lines[1].startswith("0,0,3/2,-15/32,255/512,")

    def test_json_and_csv_encode_identical_values(self):
        import json

        table = level_table(4, 3, F(1, 1000))
        csv_rows = render_csv(table).strip().split("\n")[1:]
        json_rows = json.loads(render_json(table))["rows"]
        assert len(csv_rows) == len(json_rows)
        for csv_row, json_row in zip(csv_rows, json_rows):
            fields = csv_row.split(",")
            assert fields == [
                str(json_row["N"]),
                str(json_row["l"]),
                json_row["eps0"],
                json_row["eps1"],
                json_row["eps2"],
                json_row["energy"],
                str(json_row["degeneracy"]),
            ]

    def test_svg_deterministic(self):
        table = level_table(5, 3, F(1, 1000))
        a = render_svg(diagram_data(table))
        b = render_svg(diagram_data(table))
        assert a == b
        assert a.count("firebrick") == sum(split_count(N) for N in range(6)) == 12

    @pytest.mark.parametrize("lam", [F(1, 1000), F(3, 70), F(9, 100000), F(5, 3)])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 100])
    def test_json_matches_generic_encoder(self, d, lam):
        for N_max in (0, 1, 60):
            table = level_table(N_max, d, lam)
            assert render_json(table) == reference_render_json(table)

    @pytest.mark.parametrize("extreme", [F(10**400), F(10**308)])
    def test_svg_positions_beyond_float_range(self, extreme):
        # 10**400 does not convert to a float; +-10**308 do, but their span does not
        level = DiagramLevel(N=0, baseline=F(3, 2), sublevels=((0, -extreme, 1), (2, extreme, 5)))
        model = DiagramModel(d=3, lam=F(1), exaggeration=F(1), levels=(level,))
        with pytest.raises(ValueError, match="float range"):
            render_svg(model)

    def test_svg_of_empty_diagram(self):
        model = diagram_data(LevelTable(d=3, lam=F(1, 10), rows=()))
        assert model.levels == ()
        with pytest.raises(ValueError, match="no levels"):
            render_svg(model)

    def test_svg_of_level_without_sublevels(self):
        empty = DiagramLevel(N=1, baseline=F(5, 2), sublevels=())
        levels = (*diagram_data(level_table(0, 3, F(1, 10))).levels, empty)
        model = DiagramModel(d=3, lam=F(1, 10), exaggeration=F(1), levels=levels)
        with pytest.raises(ValueError, match="N=1 has no sub-levels"):
            render_svg(model)

    @given(
        d=st.integers(1, 200),
        N_max=st.integers(0, 40),
        lam=RATIONALS,
        exaggeration=st.none() | RATIONALS,
    )
    def test_renderers_match_field_by_field_references(self, d, N_max, lam, exaggeration):
        table = level_table(N_max, d, lam)
        model = diagram_data(table, exaggeration)
        assert render_csv(table) == reference_render_csv(table)
        assert render_json(table) == reference_render_json(table)
        assert render_svg(model) == reference_render_svg(model)

    def test_svg_labels(self):
        svg = render_svg(diagram_data(level_table(2, 3, F(1, 1000))))
        assert "l=0" in svg and "l=2" in svg and "N=2" in svg


# sha256 of render_csv, render_json and render_svg(diagram_data(table)), recorded
# from the per-state level_table that reference_rows reproduces.
GOLDEN = {
    (200, 1, F(3, 70)): (
        "62f9298fff3591a6b099abf474b6b56202d32c6044a9faf98d88b464f5f40095",
        "cc6a3a4a9ccf14bd879ad8ad34aacf8c311614a08316d31d1bb05d2d0632c81a",
        "4e4d9c2c74eb231d024e2d02b3ccf650e6ec7b49bf91a8dd1949932f9412b5b5",
    ),
    (30, 2, F(9, 100000)): (
        "3315f981987d572a372c36748c64ee4139412362a09a474dd89f3ebc659cb0cd",
        "e806a15ff515e0df28dd4c5d139a0038c424e4b5f2dd5e0fe46f4eb086a821f3",
        "c496aa0932782991c622acaba3841493067d227863359c2fb4f97598a45615fe",
    ),
    (6, 3, F(1, 1000)): (
        "ba27672ae874c5622b9bfd2c751dc5e1814f63a8cd2447d25bad879806681400",
        "2d1879550eb073b0d8bfd0809358cd91c86ad60a9227e8e92dbe18f54d8d98fb",
        "4575efa0abd6f4fedad7140bdf6345e412ebecb14358ac983363f15734edc30a",
    ),
    (20, 100, F(1, 7)): (
        "685e6c004a972cf2c67c1498d74d1e978ed0955b5c5a83f187dfef136b951f9a",
        "e786be4d4663980b931e44e690f64c160241ebcddb2b914a3652a6b5da81ad1b",
        "9299dc7edd2553537727181634258d6cde08b9c566ac0f9c800c58c16a456568",
    ),
}


def rendered_digests(table):
    texts = (render_csv(table), render_json(table), render_svg(diagram_data(table)))
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)


@pytest.mark.parametrize("N_max,d,lam", list(GOLDEN))
def test_rendered_bytes_unchanged(N_max, d, lam):
    assert rendered_digests(level_table(N_max, d, lam)) == GOLDEN[N_max, d, lam]


def test_benchmark_digests_unchanged():
    """Every table the level-table benchmark can draw, against the 16-hex
    sha256 prefixes its gate checks (the file is only read here)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "digests.json"
    digests = json.loads(path.read_text())
    assert digests
    mismatched = []
    for key, recorded in digests.items():
        d, N_max, lam = key.split(",")
        digests_now = rendered_digests(level_table(int(N_max), int(d), F(lam)))
        if [digest[:16] for digest in digests_now] != recorded:
            mismatched.append(key)
    assert mismatched == []
