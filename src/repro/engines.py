"""The engine registry: CLI name -> cube engine, imported on first use.

The one table behind ``--engine`` / ``--engines`` and the doctor's
side-by-side.  It names each engine by its public export, so listing
the names imports nothing (building the argument parser costs no
engine) and :func:`load_engines` resolves classes through the package's
own lazy exports — the engines a run asked for, and no other.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, Iterable

_ENGINES = {
    "spcube": "SPCube",
    "naive": "NaiveCube",
    "mrcube": "MRCube",
    "hive": "HiveCube",
}

ENGINE_NAMES = tuple(sorted(_ENGINES))


def load_engines(names: Iterable[str]) -> Dict[str, type]:
    """``{name: engine class}`` for ``names``, in the order given."""
    names = list(names)
    unknown = [name for name in names if name not in _ENGINES]
    if unknown:
        raise ValueError(
            f"unknown engines: {unknown} (known: {', '.join(ENGINE_NAMES)})"
        )
    package = import_module(__package__)
    return {name: getattr(package, _ENGINES[name]) for name in names}
