"""Deterministic SVG factor maps for TCA and CA reports.

Rows are drawn as circles, columns as squares, on the plane spanned by two
axes' factor scores, with crosshairs through the data origin.  Every marker
carries ``data-label``/``data-x``/``data-y`` attributes with the untruncated
data coordinates, so maps are diffable and machine-checkable.
"""

from __future__ import annotations

from .reports import AnalysisReport

__all__ = ["render_map"]

_WIDTH = 720.0
_HEIGHT = 540.0
_MARGIN = 56.0


# What xml.sax.saxutils writes, without importing it: that module loads
# urllib.request, and with it http, email, ssl and socket.
def _escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` escaped, as ``saxutils.escape`` does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """``text`` escaped and quoted as an attribute value, as ``saxutils.quoteattr`` does."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"{}"'.format(text.replace('"', "&quot;"))


def _axis_record(report: AnalysisReport, axis: int) -> dict:
    for record in report.results.get("axes", []):
        if record.get("axis") == axis:
            return record
    raise ValueError(f"report has no axis {axis}; need at least 2 axes to render")


def render_map(report: AnalysisReport, axes: tuple[int, int] = (1, 2)) -> str:
    """Render the factor map of a tca/ca report on an axis pair as SVG text."""
    if report.method not in ("tca", "ca"):
        raise ValueError(f"no factor map for method {report.method!r}")
    ax_x, ax_y = axes
    rec_x = _axis_record(report, ax_x)
    rec_y = _axis_record(report, ax_y)
    row_labels = report.inputs.get("row_labels", [])
    col_labels = report.inputs.get("col_labels", [])

    points = []
    for i, label in enumerate(row_labels):
        points.append(("row", label, float(rec_x["row_scores"][i]),
                       float(rec_y["row_scores"][i])))
    for j, label in enumerate(col_labels):
        points.append(("col", label, float(rec_x["col_scores"][j]),
                       float(rec_y["col_scores"][j])))

    xs = [p[2] for p in points] + [0.0]
    ys = [p[3] for p in points] + [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = max(x_hi - x_lo, 1e-9)
    y_span = max(y_hi - y_lo, 1e-9)
    x_lo -= 0.08 * x_span
    x_hi += 0.08 * x_span
    y_lo -= 0.08 * y_span
    y_hi += 0.08 * y_span

    def sx(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        f'<line x1="{sx(0.0):.2f}" y1="{_MARGIN:.2f}" x2="{sx(0.0):.2f}" '
        f'y2="{_HEIGHT - _MARGIN:.2f}" stroke="#999999" stroke-width="1"/>',
        f'<line x1="{_MARGIN:.2f}" y1="{sy(0.0):.2f}" x2="{_WIDTH - _MARGIN:.2f}" '
        f'y2="{sy(0.0):.2f}" stroke="#999999" stroke-width="1"/>',
        f'<text x="{_WIDTH - _MARGIN:.2f}" y="{sy(0.0) - 6:.2f}" font-size="11" '
        f'text-anchor="end" fill="#555555">axis {ax_x}</text>',
        f'<text x="{sx(0.0) + 6:.2f}" y="{_MARGIN + 4:.2f}" font-size="11" '
        f'fill="#555555">axis {ax_y}</text>',
    ]
    for kind, label, x, y in points:
        px, py = sx(x), sy(y)
        attrs = (f'data-label={_quoteattr(str(label))} '
                 f'data-x="{x!r}" data-y="{y!r}"')
        if kind == "row":
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="#1f77b4" {attrs}/>'
            )
        else:
            parts.append(
                f'<rect x="{px - 3.5:.2f}" y="{py - 3.5:.2f}" width="7" height="7" '
                f'fill="#d62728" {attrs}/>'
            )
        parts.append(
            f'<text x="{px + 6:.2f}" y="{py - 6:.2f}" font-size="11" '
            f'fill="#222222">{_escape(str(label))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
