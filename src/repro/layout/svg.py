"""SVG rendering of layout cells (Fig 10-style visuals).

A dependency-free renderer: every rectangle of a
:class:`~repro.layout.cell.LayoutCell` becomes an SVG ``<rect>`` in its
layer's colour, bottom layers first, with an optional legend and
transistor-name labels.  Useful for eyeballing generated regions,
recovered layouts (via :func:`repro.reveng.export.features_to_cell`) and
documentation figures.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import LayoutError
from repro.layout.cell import LayoutCell
from repro.layout.elements import Layer

#: Fill colour and opacity per layer, drawn bottom-up.
LAYER_STYLE: dict[Layer, tuple[str, float]] = {
    Layer.ACTIVE: ("#2e7d32", 0.55),
    Layer.GATE: ("#c62828", 0.75),
    Layer.CONTACT: ("#4e342e", 0.9),
    Layer.METAL1: ("#1565c0", 0.6),
    Layer.VIA1: ("#6a1b9a", 0.9),
    Layer.METAL2: ("#ef6c00", 0.45),
    Layer.CAPACITOR: ("#9e9d24", 0.5),
}


def render_svg(
    cell: LayoutCell,
    width_px: int = 1200,
    layers: tuple[Layer, ...] | None = None,
    label_transistors: bool = False,
    legend: bool = True,
) -> str:
    """Render *cell* as an SVG document string.

    ``layers`` restricts what is drawn (default: everything, bottom-up).
    The Y axis is flipped so the layout's +Y points up, as in Fig 10.
    """
    # saxutils imports urllib.request (and with it http, ssl and email),
    # which every importer of repro.layout would otherwise pay for
    from xml.sax.saxutils import escape

    if width_px <= 0:
        raise LayoutError("width must be positive")
    box = cell.bounding_box()
    if box.width == 0 or box.height == 0:
        raise LayoutError("cannot render a degenerate cell")
    scale = width_px / box.width
    height_px = box.height * scale
    legend_px = 22.0 * len(LAYER_STYLE) if legend else 0.0

    def sx(x: float) -> float:
        return (x - box.x0) * scale

    def sy(y: float) -> float:
        return (box.y1 - y) * scale  # flip

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width_px:.0f}" height="{height_px + legend_px:.0f}" '
        f'viewBox="0 0 {width_px:.0f} {height_px + legend_px:.0f}">',
        f'<rect width="100%" height="100%" fill="#fafafa"/>',
        f"<title>{escape(cell.name)}</title>",
    ]

    draw_layers = layers or tuple(Layer)
    for layer in draw_layers:
        colour, opacity = LAYER_STYLE[layer]
        shapes = cell.shapes_on(layer)
        if not shapes:
            continue
        parts.append(f'<g fill="{colour}" fill-opacity="{opacity}">')
        for rect in shapes:
            parts.append(
                f'<rect x="{sx(rect.x0):.2f}" y="{sy(rect.y1):.2f}" '
                f'width="{rect.width * scale:.2f}" '
                f'height="{rect.height * scale:.2f}"/>'
            )
        parts.append("</g>")

    if label_transistors:
        font = max(6.0, 10.0 * scale / 0.2)
        parts.append(f'<g font-family="monospace" font-size="{min(font, 11):.1f}" fill="#111">')
        for t in cell.transistors:
            c = t.gate.center
            parts.append(
                f'<text x="{sx(c.x):.1f}" y="{sy(c.y):.1f}">{escape(t.name)}</text>'
            )
        parts.append("</g>")

    if legend:
        y = height_px + 14.0
        parts.append('<g font-family="monospace" font-size="12" fill="#111">')
        for layer, (colour, opacity) in LAYER_STYLE.items():
            parts.append(
                f'<rect x="8" y="{y - 10:.0f}" width="14" height="12" '
                f'fill="{colour}" fill-opacity="{opacity}"/>'
                f'<text x="28" y="{y:.0f}">{layer.name}</text>'
            )
            y += 22.0
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(cell: LayoutCell, path: str | Path, **kwargs) -> Path:
    """Render *cell* and write the SVG to *path*."""
    path = Path(path)
    path.write_text(render_svg(cell, **kwargs))
    return path
