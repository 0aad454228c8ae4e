"""First-use resolution of a package's public names (PEP 562).

A package names the submodule each of its exports lives in and imports
none of them up front: a name is imported when it is first read, so a
run imports only the modules it executes (docs/internals.md §7, "Cold
start").  PEP 562 covers attribute access only — ``repro.obs.Telemetry``
and ``from repro.obs import Telemetry`` resolve, but a function in the
package's own ``__init__`` does not see a lazy name as a global, so it
imports what it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(package: str, sources: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``sources`` maps a submodule, relative to the package (``".arch"``),
    to the names it exports; under ``"."`` each name is a submodule of
    its own.  A resolved name is bound in the package, so each is looked
    up once.
    """
    where = {name: source for source, names in sources.items()
             for name in names}

    def __getattr__(name: str) -> object:
        source = where.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if source == ".":
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(source, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
