"""Mode vs. particle entanglement toolkit.

Labeled pure states with exact partial traces, polarization and
momentum-mode Bell statistics, a quartic-anharmonic oscillator model,
and a seeded Monte-Carlo harness for a heralded conversion of mode
entanglement into particle entanglement.  The package exports the names
the README's Library section uses; everything else is imported from its
defining module.
"""

__version__ = "0.9.0"

from .polarization import ChshSettings, chsh_sum
from .oscillator import build_model, mode_overlap
from .protocol import ConversionConfig, run_campaign
