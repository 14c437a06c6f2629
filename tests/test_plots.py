import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from fftasca import plots
from fftasca.errors import EmptySeries, NonFiniteResult
from fftasca.plots import emit_svg


class TestEmitSvg:
    def test_constant_line_series(self):
        svg = emit_svg({"flat": np.full(10, 2.0)}, kind="line")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline" in svg
        assert "flat" in svg

    def test_scatter_groups_and_legend(self):
        rng = np.random.default_rng(0)
        svg = emit_svg(
            {"ctrl": (rng.normal(size=5), rng.normal(size=5)),
             "treated": (rng.normal(size=5), rng.normal(size=5))},
            kind="scatter",
        )
        assert svg.count("<g fill=") == 2
        assert svg.count("<circle") == 10
        assert "ctrl" in svg and "treated" in svg
        # distinct marker colors
        assert 'data-series="ctrl"' in svg and 'data-series="treated"' in svg

    def test_names_are_escaped_into_well_formed_xml(self):
        name = 'a<b & "c"\x01'
        svg = emit_svg({name: np.arange(3.0)}, kind="scatter", title=f"scores: {name}")
        root = ElementTree.fromstring(svg)
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert 'scores: a<b & "c"\ufffd' in texts and 'a<b & "c"\ufffd' in texts

    def test_byte_identical_across_runs(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=64)
        a = emit_svg({"s": y}, kind="line", title="t")
        b = emit_svg({"s": y.copy()}, kind="line", title="t")
        assert a.encode() == b.encode()

    def test_points_match_scalar_scaling_per_point(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(size=30) * 1e4, [-0.0]])
        y = np.concatenate([rng.normal(size=30) * 1e-5, [5e-324]])
        sx = plots._scaler(float(x.min()), float(x.max()), plots.MARGIN,
                           plots.WIDTH - plots.MARGIN)
        sy = plots._scaler(float(y.min()), float(y.max()), plots.HEIGHT - plots.MARGIN,
                           plots.MARGIN)
        pairs = [(plots._fmt(sx(a)), plots._fmt(sy(b))) for a, b in zip(x, y)]
        line = emit_svg({"s": (x, y)}, kind="line")
        assert 'points="' + " ".join(f"{a},{b}" for a, b in pairs) + '"' in line
        scatter = emit_svg({"s": (x, y)}, kind="scatter")
        assert "".join(f'<circle cx="{a}" cy="{b}" r="3.5"/>' for a, b in pairs) in scatter

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeries):
            emit_svg({}, kind="line")
        with pytest.raises(EmptySeries):
            emit_svg({"s": np.array([])}, kind="line")
        with pytest.raises(EmptySeries):
            emit_svg({"s": (np.arange(3), np.arange(2))}, kind="scatter")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            emit_svg({"s": np.arange(3.0)}, kind="pie")

    def test_title_and_axis_labels_present(self):
        svg = emit_svg({"s": np.arange(5.0)}, kind="line",
                       title="my title", x_label="xs", y_label="ys")
        assert "my title" in svg and "xs" in svg and "ys" in svg

    def test_document_bytes_are_pinned(self):
        # every element kind once: title, both axis labels, the four extents,
        # two legend entries and markup to escape
        svg = emit_svg({"a": (np.array([0.0, 2.0, 4.0]), np.array([1.0, -1.0, 0.5])),
                        "b & c": (np.array([1.0]), np.array([3.0]))},
                       kind="scatter", title="T", x_label="x <1>", y_label="y")
        assert svg.split("\n") == [
            '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="440" '
            'viewBox="0 0 720 440">',
            '<rect width="720" height="440" fill="white"/>',
            '<line x1="56" y1="384" x2="664" y2="384" stroke="black" stroke-width="1"/>',
            '<line x1="56" y1="56" x2="56" y2="384" stroke="black" stroke-width="1"/>',
            '<text x="360" y="24" text-anchor="middle" font-family="sans-serif" '
            'font-size="15">T</text>',
            '<text x="360" y="426" text-anchor="middle" font-family="sans-serif" '
            'font-size="12">x &lt;1&gt;</text>',
            '<text x="16" y="220" text-anchor="middle" font-family="sans-serif" '
            'font-size="12" transform="rotate(-90 16 220)">y</text>',
            '<text x="56" y="400" font-family="sans-serif" font-size="10">0</text>',
            '<text x="664" y="400" text-anchor="end" font-family="sans-serif" '
            'font-size="10">4</text>',
            '<text x="52" y="384" text-anchor="end" font-family="sans-serif" '
            'font-size="10">-1</text>',
            '<text x="52" y="60" text-anchor="end" font-family="sans-serif" '
            'font-size="10">3</text>',
            '<g fill="#1f77b4" fill-opacity="0.85" data-series="a"><circle cx="56" cy="220" '
            'r="3.5"/><circle cx="360" cy="384" r="3.5"/><circle cx="664" cy="261" r="3.5"/></g>',
            '<rect x="532" y="47" width="10" height="10" fill="#1f77b4"/>',
            '<text x="546" y="56" font-family="sans-serif" font-size="11">a</text>',
            '<g fill="#d62728" fill-opacity="0.85" data-series="b &amp; c"><circle cx="208" '
            'cy="56" r="3.5"/></g>',
            '<rect x="532" y="63" width="10" height="10" fill="#d62728"/>',
            '<text x="546" y="72" font-family="sans-serif" font-size="11">b &amp; c</text>',
            "</svg>",
            "",
        ]

    @pytest.mark.parametrize("kind", ["line", "scatter"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_series(self, kind, axis, bad):
        xy = [np.arange(4.0), np.arange(4.0)]
        xy[axis][2] = bad
        with pytest.raises(NonFiniteResult, match="series 'broken'"):
            emit_svg({"fine": np.arange(3.0), "broken": tuple(xy)}, kind=kind)

    def test_non_finite_y_only_series_is_rejected(self):
        with pytest.raises(NonFiniteResult, match="series 'z'"):
            emit_svg({"z": np.array([0.5, -np.inf])}, kind="line")

    @pytest.mark.parametrize("kind", ["line", "scatter"])
    @pytest.mark.parametrize("x, cx", [
        ([-1e308, 0.0, 1e308], ["56", "360", "664"]),  # hi - lo overflows
        ([0.0, 5e-324, 5e-324], ["56", "664", "664"]),  # hi - lo is the least subnormal
    ], ids=["overflowing", "subnormal"])
    def test_extreme_x_range_spans_the_axis(self, kind, x, cx):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            root = ElementTree.fromstring(emit_svg({"s": (x, [1.0, 2.0, 3.0])}, kind=kind))
        if kind == "line":
            points = root.find("{http://www.w3.org/2000/svg}polyline").get("points")
            got = [p.split(",")[0] for p in points.split()]
        else:
            got = [c.get("cx") for c in root.iter("{http://www.w3.org/2000/svg}circle")]
        assert got == cx
