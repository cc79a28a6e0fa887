"""Exact-arithmetic toolkit for weighted X-rays of Hamiltonian torus actions.

Build or load an X-ray, validate its structure, decompose walls into
subchambers, and propagate signature, Poincare polynomial, and Euler
characteristic across every wall by recursive wall-crossing.  Circle
(rank-1) closed formulas serve as independent cross-checks, run by
cross_check.
"""

from .arrangement import (
    EXTERIOR,
    CrossingEdge,
    CrossingGraph,
    Separator,
    Subchamber,
    crossing_graph,
    locate,
    subchambers,
)
from .circle import (
    CircleFixedData,
    FixedComponent,
    cross_check,
    from_rank1_xray,
    poincare_regular,
    restrict_to_line,
    signature_regular,
    signature_singular,
    wall_cross_delta,
)
from .engine import (
    EULER,
    POINCARE,
    SIGNATURE,
    InvariantTable,
    RecursiveInvariantSpec,
    Report,
    check_dim4_positivity,
    check_parity,
    check_seeds,
    check_sig_equals_poincare_at_i,
    delzant_shortcut,
    propagate,
    serialize_table,
    w_euler,
    w_poincare,
    w_signature,
)
from .errors import (
    MalformedXray,
    PropagationError,
    SingularLevel,
    ValidationFailed,
    XrayError,
)
from .exactgeom import AffineSpan, Polytope, hull, side_functional
from .generators import (
    ProjectionMatrix,
    cpn_xray,
    delzant_xray,
    load_xray,
    save_xray,
    standard_cube_xray,
    standard_simplex_xray,
)
from .intpoly import IntPolynomial
from .ratmath import Rational, rat
from .render import render_svg
from .xray import (
    Stratum,
    VertexData,
    WeightedXray,
    validate_all,
    validate_consistency,
    validate_darboux,
    validate_poset,
)

__all__ = [
    "EXTERIOR",
    "EULER",
    "POINCARE",
    "SIGNATURE",
    "AffineSpan",
    "CircleFixedData",
    "CrossingEdge",
    "CrossingGraph",
    "FixedComponent",
    "IntPolynomial",
    "InvariantTable",
    "MalformedXray",
    "Polytope",
    "ProjectionMatrix",
    "PropagationError",
    "Rational",
    "RecursiveInvariantSpec",
    "Report",
    "Separator",
    "SingularLevel",
    "Stratum",
    "Subchamber",
    "ValidationFailed",
    "VertexData",
    "WeightedXray",
    "XrayError",
    "check_dim4_positivity",
    "check_parity",
    "check_seeds",
    "check_sig_equals_poincare_at_i",
    "cpn_xray",
    "cross_check",
    "crossing_graph",
    "delzant_shortcut",
    "delzant_xray",
    "from_rank1_xray",
    "hull",
    "load_xray",
    "locate",
    "poincare_regular",
    "propagate",
    "rat",
    "render_svg",
    "restrict_to_line",
    "save_xray",
    "serialize_table",
    "side_functional",
    "signature_regular",
    "signature_singular",
    "standard_cube_xray",
    "standard_simplex_xray",
    "subchambers",
    "validate_all",
    "validate_consistency",
    "validate_darboux",
    "validate_poset",
    "w_euler",
    "w_poincare",
    "w_signature",
    "wall_cross_delta",
]
