"""Package namespaces that import their exports on first use (PEP 562).

Every ``repro`` package ``__init__`` is one table, submodule -> the names
it exports::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "cache": ("Cache", "CacheEntry", "Credibility"),
        ...
    })

``from repro.resolver import Cache`` imports :mod:`repro.resolver.cache`
the first time the name is read and caches it in the package globals;
importing any submodule directly loads none of its siblings.  A name the
table does not know raises :class:`AttributeError`, so ``hasattr`` and
``from package import submodule`` behave as for any module.
"""

from importlib import import_module


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``__all__``, ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``."""
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{origin[name]}"), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
