"""Relational substrate: schemas, relations, and the cube/tuple lattices."""

from .schema import Schema, SchemaError
from .relation import Relation, Row
from . import lattice
from .lattice import (
    STAR,
    all_cuboids,
    bfs_order,
    cube_lattice_edges,
    descendants,
    format_cuboid,
    format_group,
    full_mask,
    group_sort_key,
    mask_dimensions,
    mask_size,
    project,
    strict_supersets,
    tuple_lattice,
)

__all__ = [
    "Schema",
    "SchemaError",
    "Relation",
    "Row",
    "lattice",
    "STAR",
    "all_cuboids",
    "bfs_order",
    "cube_lattice_edges",
    "descendants",
    "format_cuboid",
    "format_group",
    "full_mask",
    "group_sort_key",
    "mask_dimensions",
    "mask_size",
    "project",
    "strict_supersets",
    "tuple_lattice",
]
