"""Planar-graph substrate: embeddings, generators, validation."""

from .checks import (
    NotConnectedError,
    NotPlanarError,
    require_connected,
    require_planar,
    require_planar_connected,
    require_planar_rotation,
)
from .construct import embed, embed_subgraph, induced_components, induced_copy
from .rotation import EmbeddingError, RotationSystem
from . import generators

__all__ = [
    "EmbeddingError",
    "NotConnectedError",
    "NotPlanarError",
    "RotationSystem",
    "embed",
    "embed_subgraph",
    "generators",
    "induced_components",
    "induced_copy",
    "require_connected",
    "require_planar",
    "require_planar_connected",
    "require_planar_rotation",
]
