"""Static SVG emission for line and scatter plots.

Pure string construction: identical input produces byte-identical output.
Series are named; lines get one polyline each, scatter groups get one
marker group each, and every named series lands in the legend.
"""

import numpy as np

from .errors import EmptySeries, NonFiniteResult

__all__ = ["emit_svg"]

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

WIDTH, HEIGHT = 720, 440
MARGIN = 56

# markup escapes, and U+FFFD for the control characters XML cannot hold
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                           **{chr(c): "\ufffd" for c in range(32) if chr(c) not in "\t\n\r"}})


def _fmt(v):
    return f"{v:.6g}"


def _text(value):
    """``value`` as XML text or a double-quoted attribute value."""
    return value.translate(_XML_TEXT)


def _label(x, y, size, text, anchor=None, extra=""):
    """One ``<text>`` element; ``text`` is already escaped, ``extra`` holds
    further attributes, each with its leading space."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{text}</text>')


def _normalize(series, kind):
    """Coerce each entry to an (x, y) float pair of equal length."""
    out = {}
    for name, data in series.items():
        if isinstance(data, tuple) and len(data) == 2:
            x = np.asarray(data[0], dtype=float)
            y = np.asarray(data[1], dtype=float)
        else:
            y = np.asarray(data, dtype=float)
            x = np.arange(y.size, dtype=float)
        if x.size == 0 or y.size == 0 or x.size != y.size:
            raise EmptySeries(f"series '{name}' is empty or mismatched")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise NonFiniteResult(f"series '{name}' holds a non-finite value")
        out[str(name)] = (x, y)
    if not out:
        raise EmptySeries(f"no series given for {kind} plot")
    return out


def _scaler(lo, hi, a, b):
    # a range past the largest float is taken in halves, which are exact at that size
    k = 0.5 if np.isinf(hi - lo) else 1.0
    span = hi * k - lo * k
    if span == 0:
        span = 1.0
        lo -= 0.5
    return lambda v: a + (v * k - lo * k) / span * (b - a)


def emit_svg(series, kind="line", title="", x_label="", y_label=""):
    """Render named series to a self-contained SVG document string.

    ``series`` maps a name to either a 1-D array of y values (x becomes
    0..n-1) or an (x, y) pair of equal-length arrays.  ``kind`` is
    ``"line"`` or ``"scatter"``.  A NaN or inf raises NonFiniteResult.
    """
    if kind not in ("line", "scatter"):
        raise ValueError(f"unknown plot kind '{kind}'")
    data = _normalize(series, kind)
    title, x_label, y_label = _text(title), _text(x_label), _text(y_label)

    xs = np.concatenate([x for x, _ in data.values()])
    ys = np.concatenate([y for _, y in data.values()])
    sx = _scaler(float(xs.min()), float(xs.max()), MARGIN, WIDTH - MARGIN)
    sy = _scaler(float(ys.min()), float(ys.max()), HEIGHT - MARGIN, MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(_label(WIDTH // 2, 24, 15, title, "middle"))
    if x_label:
        parts.append(_label(WIDTH // 2, HEIGHT - 14, 12, x_label, "middle"))
    if y_label:
        parts.append(_label(16, HEIGHT // 2, 12, y_label, "middle",
                            f' transform="rotate(-90 16 {HEIGHT // 2})"'))
    # axis extent labels
    parts.append(_label(MARGIN, HEIGHT - MARGIN + 16, 10, _fmt(float(xs.min()))))
    parts.append(_label(WIDTH - MARGIN, HEIGHT - MARGIN + 16, 10, _fmt(float(xs.max())), "end"))
    parts.append(_label(MARGIN - 4, HEIGHT - MARGIN, 10, _fmt(float(ys.min())), "end"))
    parts.append(_label(MARGIN - 4, MARGIN + 4, 10, _fmt(float(ys.max())), "end"))

    for idx, (name, (x, y)) in enumerate(data.items()):
        name = _text(name)
        color = PALETTE[idx % len(PALETTE)]
        xy = tuple(np.column_stack((sx(x), sy(y))).ravel().tolist())
        if kind == "line":
            points = " ".join(["%.6g,%.6g"] * x.size) % xy
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"><title>{name}</title></polyline>'
            )
        else:
            marks = ('<circle cx="%.6g" cy="%.6g" r="3.5"/>' * x.size) % xy
            parts.append(
                f'<g fill="{color}" fill-opacity="0.85" data-series="{name}">'
                f"{marks}</g>"
            )
        ly = MARGIN + 16 * idx
        parts.append(f'<rect x="{WIDTH - MARGIN - 132}" y="{ly - 9}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(_label(WIDTH - MARGIN - 118, ly, 11, name))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
