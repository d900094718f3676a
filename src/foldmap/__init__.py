"""Exact folding maps of the plane (A2 / B2 / G2 families) and their checks."""

from .backend import backend_name
from .cyclo import CycloElem
from .poly import Poly, PolyMap2, swap_conjugate, zw_to_xy

__version__ = "0.1.0"

__all__ = [
    "CycloElem",
    "Poly",
    "PolyMap2",
    "backend_name",
    "swap_conjugate",
    "zw_to_xy",
    "__version__",
]
