"""Curation and numerical evaluation toolkit for long narrative video corpora.

The package splits into small, independently usable modules:

- ``manifest``: corpus data model, line-delimited manifest I/O, validation
- ``matching``: interval IoU and temporal action-to-clip matching/filtering
- ``stats``: histograms and summary profiles of a corpus, and its token-count files
- ``scoring``: human tier rubric and 0-6 rating aggregation
- ``embedcore``: losses, perturbations and distribution metrics over embeddings
- ``embedio``: binary and JSONL embedding file formats
- ``jsonl``: strict line-delimited JSON decoding and field checks for every reader
- ``params``: the settings every command range-checks, with their defaults
  (matching thresholds, context length, worker count, histogram edges,
  embedding loss and perturbation), with no numpy
- ``context``: narrative sequences and rolling conditioning windows
- ``cli``: the ``narrkit`` command-line driver

Each name in a library module's ``__all__`` is also a package attribute,
imported on first use: ``from narrkit import histogram`` loads no numpy.
"""

import importlib.util

__version__ = "0.11.0"

# Library modules whose ``__all__`` makes up the package namespace (``cli``
# is the driver, not a library). The numpy-free ones come first, so that a
# corpus name never loads numpy.
_MODULES = ("jsonl", "manifest", "matching", "stats", "scoring", "context", "params",
            "embedcore", "embedio")


def __getattr__(name: str):
    """Resolve ``narrkit.X`` lazily from the ``__all__`` of the module defining X."""
    modules = (importlib.import_module(f".{m}", __name__) for m in _MODULES)
    if name == "__all__":
        return list(dict.fromkeys(n for module in modules for n in module.__all__))
    # Dunders and submodules are left to the import system: ``from . import
    # matching`` asks here first and must not walk every module.
    public = name.isidentifier() and not name.startswith("__")
    if public and importlib.util.find_spec(f"{__name__}.{name}") is None:
        for module in modules:
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
