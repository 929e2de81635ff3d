"""chirospec: coincidence spectroscopy of chiral molecules with entangled photon pairs.

The package root holds the names of the README's Library example; every
other name is imported from its module.
"""

from .biphoton import BiphotonAmplitude, default_grid
from .model import (
    Chirality,
    DriveConfig,
    NoiseParams,
    build_rotating_hamiltonian,
    dressed_states,
)

__version__ = "0.1.0"

__all__ = [
    "BiphotonAmplitude",
    "Chirality",
    "DriveConfig",
    "NoiseParams",
    "build_rotating_hamiltonian",
    "default_grid",
    "dressed_states",
    "__version__",
]
