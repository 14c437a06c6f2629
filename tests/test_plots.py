from xml.etree import ElementTree

import numpy as np
import pytest

from fftasca import plots
from fftasca.errors import EmptySeries
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
