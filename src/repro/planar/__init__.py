"""Planar-graph substrate: embeddings, generators, drawings, validation."""

from .checks import (
    NotConnectedError,
    NotPlanarError,
    require_connected,
    require_planar,
    require_planar_connected,
    require_planar_rotation,
)
from .construct import embed, embed_subgraph, induced_components, induced_copy
from .drawing import (
    OnBoundaryError,
    point_in_polygon,
    polygon_signed_area2,
    straight_line_drawing,
)
from .rotation import EmbeddingError, RotationSystem
from . import generators

__all__ = [
    "EmbeddingError",
    "NotConnectedError",
    "NotPlanarError",
    "OnBoundaryError",
    "RotationSystem",
    "embed",
    "embed_subgraph",
    "generators",
    "induced_components",
    "induced_copy",
    "point_in_polygon",
    "polygon_signed_area2",
    "require_connected",
    "require_planar",
    "require_planar_connected",
    "require_planar_rotation",
    "straight_line_drawing",
]
