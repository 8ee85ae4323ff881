"""Per-vertex polyline export: every sample through ArcPiece.point.

A reference for the column-cached polyline export in knotfold.rope, which
formats each arc coordinate column once per call, or once per input
diagram in `knotfold export`.  The oracle computes cos and sin again for
every sample and formats the three coordinates of every vertex one by one,
as the export did before arcs shared their formatted coordinate columns.
Both must give equal bytes.
"""

from knotfold.rope import _QUARTER, ArcPiece, SmoothKnot


def export_polyline_oracle(s: SmoothKnot, density: int) -> str:
    verts: list[tuple[float, float, float]] = []
    for p in s.pieces:
        if isinstance(p, ArcPiece):
            for j in range(density):
                verts.append(p.point(j * _QUARTER / density))
        elif p.length > 0:
            verts.append(tuple(float(v) for v in p.start))
    return "\n".join(" ".join(f"{v:.17g}" for v in vert) for vert in verts) + "\n"
