"""Competitor cube algorithms: naive, Pig's MR-Cube, Hive."""

from .hive import HiveCube
from .mrcube import MRCube
from .naive_mr import NaiveCube

__all__ = ["HiveCube", "MRCube", "NaiveCube"]
