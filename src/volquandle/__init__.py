"""Hyperbolic-volume quandle cocycle invariant of knot diagrams.

Colorings of a knot diagram by parabolic elements of a holonomy
representation are classified by their state sum, which lands on the
lattice {-V, 0, +V} generated by the hyperbolic volume V of the knot
complement; witnesses detect invertibility and amphicheirality.
"""

from .diagram import Crossing, CrossingFrame, Diagram, parse_pd
from .dilog import D_MAX, bloch_wigner, li2
from .errors import (
    BadMatrix,
    ColoringInvalid,
    Disconnected,
    EdgeCountMismatch,
    InconsistentExtension,
    InputError,
    MalformedTerm,
    NotParabolic,
    OutOfLattice,
    RelationViolated,
    UnknownGenerator,
    VolquandleError,
)
from .fixtures import FIXTURES
from .holquandle import (
    ElementPool,
    GroupWord,
    HolonomyRep,
    QuandleElement,
    crossing_image,
    enumerate_conjugates,
    evaluate,
    load_holonomy,
    quandle_op,
    quandle_op_inv,
    word_from_text,
    word_to_text,
)
from .hypgeom import (
    MoebiusMap,
    ideal_tet_volume,
    is_parabolic,
    parabolic_vector,
    unit,
)
from .invariant import (
    KTally,
    PhiResult,
    ShadowColoring,
    SymmetryReport,
    boltzmann_weight,
    cocycle_residuals,
    cocycle_vol,
    coloring_from_doc,
    natural_coloring,
    phi,
    reference_volume,
    symmetry_report,
    tally_colorings,
    validate_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "BadMatrix",
    "ColoringInvalid",
    "Crossing",
    "CrossingFrame",
    "D_MAX",
    "Diagram",
    "Disconnected",
    "EdgeCountMismatch",
    "ElementPool",
    "FIXTURES",
    "GroupWord",
    "HolonomyRep",
    "InconsistentExtension",
    "InputError",
    "KTally",
    "MalformedTerm",
    "MoebiusMap",
    "NotParabolic",
    "OutOfLattice",
    "PhiResult",
    "QuandleElement",
    "RelationViolated",
    "ShadowColoring",
    "SymmetryReport",
    "UnknownGenerator",
    "VolquandleError",
    "bloch_wigner",
    "boltzmann_weight",
    "cocycle_residuals",
    "cocycle_vol",
    "coloring_from_doc",
    "crossing_image",
    "enumerate_conjugates",
    "evaluate",
    "ideal_tet_volume",
    "is_parabolic",
    "li2",
    "load_holonomy",
    "natural_coloring",
    "parabolic_vector",
    "parse_pd",
    "phi",
    "quandle_op",
    "quandle_op_inv",
    "reference_volume",
    "symmetry_report",
    "tally_colorings",
    "unit",
    "validate_coloring",
    "word_from_text",
    "word_to_text",
]
