"""Executable sheaf theory on finite T0 spaces with finite ring stalks.

Subpackages: finspace (spaces), finalg (rings, matrices, submodules),
presheaf (presheaves, stalks, sheafification, pullbacks), vecsheaf (module
sheaves, cocycles, weighted embeddings), grassmann (Grassmann presheaves and
the section/subsheaf classification), cli (JSON front end).
"""

import importlib

from . import finalg, finspace, grassmann, presheaf, vecsheaf  # noqa: F401

__version__ = "0.1.0"


def __getattr__(name: str):
    # cli loads on first use, so `python -m sheafkit.cli` runs it once, as
    # __main__, instead of after `import sheafkit` already loaded it
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
