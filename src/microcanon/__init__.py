"""Micro-canonical gas statistics, finite ontological models, and a
desk-scale check of the overlap no-go argument.

Submodules are imported on first access (``microcanon.pbr``), so that
``import microcanon`` loads neither numpy nor a module the caller never uses.
"""

import importlib

__all__ = ["continuum", "ensemble", "errors", "ontology", "pbr"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
