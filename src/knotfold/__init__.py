"""knotfold: grid diagrams to short cubic-lattice knots to unit-thickness ropes.

The pipeline settles a grid diagram into the cubic lattice, shortens it
with a horizontal and a vertical fold, certifies the resulting edge
counts against closed-form bounds in the grid index and crossing number,
and rounds the doubled result into a smooth rope whose unit thickness is
verified numerically.  Knot-type preservation across stages is certified
with Alexander polynomials.
"""

from .alexander import ProjectionDiagram, alexander, project, same_knot_certificate
from .bounds import (
    BoundValue,
    Certificate,
    PiExpr,
    Provenance,
    certify,
    comparator_bounds,
    rop_step_bound,
    step_bound,
    theorem_len_bound,
    theorem_rop_bound,
    theorem_rop_decimal,
)
from .corpus import CorpusEntry, corpus_names, get_entry, load_corpus
from .diagram import Crossing, PlanarDiagram
from .grid import (
    GridDiagram,
    grid_to_planar,
    parse_grid,
    random_grid,
    serialize_grid,
    validate_grid,
)
from .lattice import (
    EdgeCensus,
    FoldReport,
    LatticeKnot,
    canonicalize,
    edge_census,
    fold_horizontal,
    fold_vertical,
    parse_lattice,
    serialize_lattice,
    settle,
    validate_lattice,
)
from .laurent import LaurentPoly, parse_poly
from .pipeline import PipelineResult, run_pipeline
from .rope import (
    ArcPiece,
    RopeMetrics,
    SmoothKnot,
    StraightPiece,
    export_geometry,
    import_geometry,
    import_polyline,
    rope_metrics,
    smooth,
)

__version__ = "0.1.0"
