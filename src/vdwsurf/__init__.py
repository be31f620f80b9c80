"""Surface-enhanced van der Waals interaction across a planar interface.

Numerical library for the near-field interaction of an excited atom and a
ground-state atom sitting on opposite sides of a vacuum-medium boundary:
material response models, the transmission dyadic Green function (closed
near-field form and Sommerfeld integral), local-field corrected interaction
potentials and forces, and frequency-scan / peak-extraction utilities.

All quantities are in reduced units: frequencies in a caller-chosen
omega_ref, lengths in c/omega_ref, potentials in U0 = 2|d_A|^2 alpha_B(0)/R^6.
"""

from .errors import (
    ConfigError,
    ParameterError,
    QuadratureError,
    SingularityError,
    UnsupportedModelError,
    ValidityWarning,
    VdwError,
)
from .interaction import (
    Atom,
    PotentialResult,
    ResonantTerms,
    enhancement_factor,
    force,
    offresonant_potential,
    peak_enhancement_estimate,
    polarizability,
    resonant_potential,
    resonant_terms,
)
from .materials import (
    AtomPositions,
    HalfSpaceSystem,
    Material,
    MaterialKind,
    cavity_mode_frequency,
    local_field_factor,
    preset,
    preset_names,
    resonant_inv_avg_eps,
    surface_mode_frequency,
)
from .quadrature import QuadratureSpec, adaptive_gauss
from .spectra import (
    PeakKind,
    PeakReport,
    ScanSpec,
    SpectrumRow,
    find_peaks,
    golden_section_max,
    scan_enhancement,
    scan_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AtomPositions",
    "COMPONENTS",
    "ConfigError",
    "HalfSpaceSystem",
    "Material",
    "MaterialKind",
    "NonretardedLimitReport",
    "ParameterError",
    "PeakKind",
    "PeakReport",
    "PotentialResult",
    "QuadratureError",
    "QuadratureSpec",
    "ResonantTerms",
    "ScanSpec",
    "SingularityError",
    "SpectrumRow",
    "UnsupportedModelError",
    "ValidityWarning",
    "VdwError",
    "adaptive_gauss",
    "cavity_mode_frequency",
    "enhancement_factor",
    "find_peaks",
    "force",
    "fresnel_t",
    "golden_section_max",
    "kspace_green",
    "local_field_factor",
    "near_field_tensor",
    "nonretarded_green",
    "nonretarded_limit_check",
    "offresonant_potential",
    "peak_enhancement_estimate",
    "polarizability",
    "preset",
    "preset_names",
    "resonant_inv_avg_eps",
    "resonant_potential",
    "resonant_terms",
    "scan_enhancement",
    "scan_spectrum",
    "sommerfeld_green",
    "surface_mode_frequency",
    "transmission_green",
    "__version__",
]

# Of the commands, only ``vdw validate`` runs the Green-function layer, so
# ``vdwsurf.greens`` and its public names (those of __all__ not bound above)
# are imported at first use (PEP 562): the table commands never load it.
def __getattr__(name):
    if name == "greens" or name in __all__:
        from importlib import import_module  # ``from . import greens`` would call this function again

        greens = import_module(".greens", __name__)
        return greens if name == "greens" else getattr(greens, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, "greens"})
