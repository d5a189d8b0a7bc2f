"""Lazy public names (PEP 562) for packages and modules whose names
live in other modules.

A package that imports every submodule up front loads all of them,
NumPy included, for a caller that reads one cycle model.  With
:func:`lazy_names` it resolves each public name from its defining
module on first access instead, so importing the package loads
nothing more, and ``from package import name`` loads that name's
module only.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_names(
    module: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``module``.

    ``exports`` maps each defining module to the public names it
    provides; a name equal to its module's last component is that
    module itself (``repro.obs.export``).  A resolved name is bound in
    ``module``'s namespace, so later reads skip the hook.
    """
    source_of = {name: source for source, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        source = source_of.get(name)
        if source is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = importlib.import_module(source)
        if source.rpartition(".")[2] != name:
            value = getattr(value, name)
        setattr(sys.modules[module], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[module]).keys() | source_of.keys())

    return list(source_of), __getattr__, __dir__
