"""Planar curve reconstruction from prescribed Euclidean or equi-affine curvature."""

from . import affine, curvatures, curveio, euclidean, geometry, series
from .curvatures import bump, parse_spec
from .geometry import (
    BoundReport,
    EquiAffineMap,
    RigidMotion,
    SampledCurve,
    hausdorff_distance,
    normalize_to_standard_frame,
    sup_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "EquiAffineMap",
    "RigidMotion",
    "SampledCurve",
    "affine",
    "bump",
    "curvatures",
    "curveio",
    "euclidean",
    "geometry",
    "hausdorff_distance",
    "normalize_to_standard_frame",
    "parse_spec",
    "series",
    "sup_norm",
    "__version__",
]
