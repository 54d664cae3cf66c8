"""Lazy package exports (PEP 562), shared by every package ``__init__``.

A package lists its public names in one ``_EXPORTS`` map (public name →
defining module, relative to the package) and installs the hooks this
module builds::

    _EXPORTS = {"Schema": ".model", "parse_schema": ".parser"}
    __all__ = sorted(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

Importing the package then imports none of its submodules; the first
access to a public name imports the one module that defines it and
caches the value in the package namespace, so later accesses are plain
attribute reads.  A process therefore pays only for the modules its own
code path touches (``repro serve`` never loads schema diffing, witness
construction or the pool machinery unless a request needs them).
"""

import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, Any], exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``namespace`` is the package's ``globals()``; resolved names are
    cached there.  Concurrent first accesses are safe: the import system
    serializes the submodule import, and every thread reads the same
    attribute of the same module object.
    """

    def __getattr__(name: str) -> Any:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``__import__`` rather than ``importlib.import_module``: only the
        # former is instrumented by ``python -X importtime``, which would
        # otherwise hide every module a lazy name loads.
        module = package + module_name
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
