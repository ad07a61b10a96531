"""Mode vs. particle entanglement toolkit.

Stacks of pure states with Schmidt-spectrum reductions, polarization and
momentum-mode Bell statistics, a quartic-anharmonic oscillator model,
and a seeded Monte-Carlo harness for a heralded conversion of mode
entanglement into particle entanglement.  The package exports the names
the README's Library section uses, listed in __all__; each is imported
from its defining module on first access (PEP 562), so `import
modetangle` loads neither numpy nor any submodule.  Everything else is
imported from its defining module.
"""

import importlib

__version__ = "0.32.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "chsh_sum": "polarization",
    "build_model": "oscillator",
    "mode_overlap": "oscillator",
    "ConversionConfig": "protocol",
    "run_campaign": "protocol",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
