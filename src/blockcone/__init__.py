"""Blocking sets of PG(r, q^n) via spread cone constructions, with
exhaustive certification."""

from .gf import (FieldError, FieldSpec, FieldTower, cached_field,
                 cached_tower, subfield_embed)
from .model import BCModel, Spread, make_model
from .mps import MPSFrame, cone, frame_make, mps_build, mps_size_predict
from .pg import (GeometryError, PointSet, ProjSpace, Subspace,
                 load_point_set, meet, save_point_set, span, span_in)

__all__ = [
    "BCModel", "FieldError", "FieldSpec", "FieldTower", "GeometryError",
    "MPSFrame", "PointSet", "ProjSpace", "Spread", "Subspace",
    "cached_field", "cached_tower", "cone", "frame_make",
    "load_point_set", "make_model", "meet", "mps_build", "mps_size_predict",
    "save_point_set", "span", "span_in", "subfield_embed",
]

__version__ = "0.1.0"
