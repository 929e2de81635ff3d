"""chirospec: coincidence spectroscopy of chiral molecules with entangled photon pairs."""

from .analysis import (
    LineShapeSignature,
    RegimeMap,
    classify_lineshape,
    compare_pair,
    discrimination_window,
    regime_map,
)
from .biphoton import (
    BiphotonAmplitude,
    FrequencyGrid,
    JsaKind,
    default_grid,
    jsa_value,
)
from .model import (
    Chirality,
    DressedTriad,
    DriveConfig,
    HermitianTriad,
    NoiseParams,
    build_rotating_hamiltonian,
    characteristic_invariants,
    dressed_states,
)
from .spectrum import (
    DetectorPair,
    transmission_point,
    zero_bandwidth_point,
)

__version__ = "0.1.0"

__all__ = [
    "BiphotonAmplitude",
    "Chirality",
    "DetectorPair",
    "DressedTriad",
    "DriveConfig",
    "FrequencyGrid",
    "HermitianTriad",
    "JsaKind",
    "LineShapeSignature",
    "NoiseParams",
    "RegimeMap",
    "build_rotating_hamiltonian",
    "characteristic_invariants",
    "classify_lineshape",
    "compare_pair",
    "default_grid",
    "discrimination_window",
    "dressed_states",
    "jsa_value",
    "regime_map",
    "transmission_point",
    "zero_bandwidth_point",
    "__version__",
]
