"""Open baker map toolkit.

Exact classical escape dynamics for the baker map with an absorbing
strip, torus quantization of the open propagator, and the spectral
statistics of its resonances: modulus distributions, half-height widths,
decay-rate rescaling and power-law counting of long-lived modes.
"""

__version__ = "0.1.0"

from .classical import OpeningSpec
from .trapped import (
    EscapeRateFit,
    ExactEscape,
    ResolutionExhausted,
    SurvivalSeries,
    area_series,
    escape_rate,
    exact_escape,
    monte_carlo_area,
    qc_sweep,
    render_trapped_set,
)
from .propagator import (
    PropagatorSpec,
    baker_propagator,
    open_propagator,
)
from .spectra import (
    EigensolverError,
    ResonanceSet,
    eigenvalues,
    resonance_set,
)
from .stats import (
    ModulusHistogram,
    RescaledHistogram,
    WeylDataPoint,
    WeylFit,
    cumulative_moduli,
    half_height_width,
    modulus_histogram,
    rescaled_decay_histogram,
    tail_histogram,
    weyl_count,
    weyl_fit,
    width_sweep,
)
from .cache import CacheError, SpectrumCache

__all__ = [
    "OpeningSpec",
    "EscapeRateFit",
    "ExactEscape",
    "ResolutionExhausted",
    "SurvivalSeries",
    "area_series",
    "escape_rate",
    "exact_escape",
    "monte_carlo_area",
    "qc_sweep",
    "render_trapped_set",
    "PropagatorSpec",
    "baker_propagator",
    "open_propagator",
    "EigensolverError",
    "ResonanceSet",
    "eigenvalues",
    "resonance_set",
    "ModulusHistogram",
    "RescaledHistogram",
    "WeylDataPoint",
    "WeylFit",
    "cumulative_moduli",
    "half_height_width",
    "modulus_histogram",
    "rescaled_decay_histogram",
    "tail_histogram",
    "weyl_count",
    "weyl_fit",
    "width_sweep",
    "CacheError",
    "SpectrumCache",
    "__version__",
]
