"""Group-based quantum tomography.

Synthesizes measurement records from known density matrices (homodyne
quadratures and spin projections) and reconstructs expectation values by
Monte Carlo averaging of analytically derived estimator kernels, with every
kernel tied to an independent numerical oracle.

Each submodule is imported on its first use (``qtomo.spin`` or
``from qtomo import spin``), so ``import qtomo`` loads neither numpy nor a
quorum it does not run.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("groups", "homodyne", "mc", "numerics", "spin")

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
