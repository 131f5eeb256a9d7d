"""PEP 562 lazy package exports: a name costs its submodule on first use.

A package ``__init__`` that re-exports its subsystems eagerly makes every
process pay for all of them — ``serve-cube`` for the doctor, ``query``
for the run report.  Each lazy ``__init__`` declares what it exports and
from where, and installs the three hooks this module builds (the
stdlib's ``concurrent/futures/__init__.py`` is the model)::

    __all__, __getattr__, __dir__ = lazy_exports(
        __name__, globals(), {"store": ["CubeStore", "StoreError"], ...}
    )

``from pkg import Name``, ``pkg.Name``, ``from pkg import *`` and
``dir(pkg)`` behave as they did when the names were imported eagerly;
``from pkg import submodule`` never reaches the hook (the import system
finds the submodule itself); pickling is untouched because objects
pickle by their *defining* module.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, namespace: dict, exports: Dict[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps a submodule (relative to the package) to the public
    names it defines; ``namespace`` is the package's ``globals()``, where
    a resolved name is stored so the hook runs once per name.
    """
    home = {
        name: submodule for submodule, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            submodule = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
