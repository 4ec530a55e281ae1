"""Spatial indexing substrate: R-tree, uniform grid, brute-force oracle."""

from .brute import brute_force_knn, brute_force_window
from .grid import UniformGrid
from .rtree import CountingRTreeView, RTree

__all__ = [
    "CountingRTreeView",
    "RTree",
    "UniformGrid",
    "brute_force_knn",
    "brute_force_window",
]
