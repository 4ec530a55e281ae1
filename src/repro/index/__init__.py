"""Spatial indexing substrate: uniform grid and brute-force oracle."""

from .brute import brute_force_knn, brute_force_window
from .grid import UniformGrid

__all__ = [
    "UniformGrid",
    "brute_force_knn",
    "brute_force_window",
]
