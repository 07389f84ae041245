"""A module-level stand-in that imports its module at first use.

``scipy.ndimage`` and ``scipy.spatial`` take a process tenths of a second and
tens of MiB to import, yet the statistics commands never call them. A module
binds ``ndimage = LazyModule("scipy.ndimage")`` and calls ``ndimage.label``
as it would on the module; the import happens at that first attribute
lookup. The name stays a module attribute looked up at call time, so a
wrapper set on it (a counting stand-in in a test or a tracer) takes effect.
"""

from __future__ import annotations

import importlib


class LazyModule:
    """Stands in for the module ``name``; each attribute lookup is passed to
    the module, imported on the first. Two threads that look up at once both
    get the one fully initialised module: the import system's per-module lock
    makes the second wait for the first."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)

    def __repr__(self) -> str:
        return f"<LazyModule {self._name!r}>"
