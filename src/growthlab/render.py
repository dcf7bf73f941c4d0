"""Minimal SVG emission for 2-d polytopes (outline overlays only)."""

SIZE = 420  # pixels along the longer side of the drawing


def _bounds(layers):
    xs = [float(x) for layer in layers for x, _ in layer["points"]]
    ys = [float(y) for layer in layers for _, y in layer["points"]]
    pad_x = 0.08 * max(max(xs) - min(xs), 1e-9)
    pad_y = 0.08 * max(max(ys) - min(ys), 1e-9)
    return min(xs) - pad_x, min(ys) - pad_y, max(xs) + pad_x, max(ys) + pad_y


def polygons_svg(layers):
    """Render polygon layers: [{points, stroke, fill, label}].

    Points are vertex cycles in the plane; the y axis is flipped so the
    positive quadrant reads the usual way.
    """
    x0, y0, x1, y1 = _bounds(layers)
    w, h = x1 - x0, y1 - y0
    scale = SIZE / max(w, h)

    def tx(p):
        return (float(p[0]) - x0) * scale, (y1 - float(p[1])) * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * scale:.0f}" '
             f'height="{h * scale:.0f}" viewBox="0 0 {w * scale:.2f} {h * scale:.2f}">']
    for layer in layers:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(tx, layer["points"]))
        stroke = layer.get("stroke", "#1f3b70")
        fill = layer.get("fill", "none")
        parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
                     f'stroke-width="2" fill-opacity="0.25"/>')
        if layer.get("label"):
            lx, ly = tx(layer["points"][0])
            parts.append(f'<text x="{lx + 4:.1f}" y="{ly - 4:.1f}" '
                         f'font-size="13" fill="{stroke}">{layer["label"]}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def polygon_cycle(P):
    """Vertices of a 2-d polytope ordered counterclockwise around the centroid."""
    import math
    verts = [(float(x), float(y)) for x, y in P.vertices]
    cx = sum(x for x, _ in verts) / len(verts)
    cy = sum(y for _, y in verts) / len(verts)
    return sorted(verts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
