"""tailscope: mean excess plot diagnostics for heavy-tailed data.

A library and command line tool for reading extreme-value shape off mean
excess plots, with normalized plot constructions whose set-valued limits
distinguish finite-mean heavy tails, infinite-mean tails, bounded tails
and thin tails; tail index estimators; seeded set-convergence
experiments; and a daily time-series pipeline (seasonal scale profile,
autoregression, residual diagnostics).

The package namespace holds the public names of its library modules, but
``import tailscope`` loads none of them, nor numpy: the first public name
asked for (``__all__`` and ``from tailscope import *`` included) imports
them all (PEP 562).  So ``tailscope.cli`` can choose numpy's settings
before numpy is loaded.
"""

__version__ = "0.1.0"

# the modules whose __all__ the package re-exports
_MODULES = ("dist", "empirics", "errors", "estimators", "pipeline", "randset")


def _load() -> None:
    """Import the library modules and bind their public names here."""
    from importlib import import_module

    names = []
    for name in _MODULES:
        module = import_module(f"{__name__}.{name}")
        names += module.__all__
        globals().update({attr: getattr(module, attr) for attr in module.__all__})
    # and the submodules they load, which `from tailscope import *` has always bound
    globals()["__all__"] = [*names, *_MODULES, "tabular"]


def __getattr__(name: str):
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("_")):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
