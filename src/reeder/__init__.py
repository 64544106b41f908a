"""Reeder's puzzle engine: diagrams, moves, class enumeration, and checks."""

from .diagram import (
    Diagram,
    DiagramError,
    Edge,
    Labeling,
    ResourceError,
    disjoint_union,
    parse_dsl,
)
from .f2 import F2Matrix
from .families import (
    FamilySpec,
    RepresentativeSet,
    canonical_representatives,
    closed_form_count,
    construct,
    eta,
    parse_family,
    xi,
)
from .moves import (
    ClassPartition,
    apply_move,
    apply_sequence,
    are_equivalent,
    enumerate_classes,
    move_matrix,
)

__all__ = [
    "ClassPartition",
    "Diagram",
    "DiagramError",
    "Edge",
    "F2Matrix",
    "FamilySpec",
    "Labeling",
    "RepresentativeSet",
    "ResourceError",
    "apply_move",
    "apply_sequence",
    "are_equivalent",
    "canonical_representatives",
    "closed_form_count",
    "construct",
    "disjoint_union",
    "enumerate_classes",
    "eta",
    "move_matrix",
    "parse_dsl",
    "parse_family",
    "xi",
]

__version__ = "1.0.0"
