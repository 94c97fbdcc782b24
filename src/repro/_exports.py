"""Lazy package exports (PEP 562): a package ``__init__`` imports nothing.

Each package lists its public names by the module that defines them, and
a name's module is imported on the name's first access.  So importing one
module of the stack loads only what that module imports itself, never the
layers above it, while ``from repro.core import MixedAdaptivePolicy``,
``from repro import ExperimentGrid`` and ``from repro.sim import *`` keep
working.  A subpackage that is not listed (``from repro import
telemetry``) resolves through the ordinary submodule import.
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], table: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose globals
    are ``namespace``.

    ``table`` maps a module, relative to the package, to the public names
    it defines.  A resolved name is stored in ``namespace``, so each is
    looked up once.
    """
    package = namespace["__name__"]
    home: Dict[str, str] = {
        name: f"{package}.{module}" for module, names in table.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
