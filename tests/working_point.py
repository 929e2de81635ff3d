"""Shared strong-dissipation campaign parameters used across test modules.

The drive sits in the strong-dissipation region (couplings 0.1 gamma, on
resonance).  The quantum probe uses a unit-width pump with crystal
delays t_s = 24, t_l = 25 (delay scale T0 = 10).  The idler scan range
[-1.254, 1.254] covers both phase-mismatch transition bands at 20-cell
resolution; its grid points at +/-0.990 sit inside the narrow windows
where the two enantiomers' dominant signs differ.
"""

import numpy as np

from chirospec.analysis import sweep_amplitude
from chirospec.biphoton import BiphotonAmplitude, default_grid
from chirospec.model import (
    Chirality,
    DriveConfig,
    NoiseParams,
    build_rotating_hamiltonian,
    dressed_states,
)

DRIVE = DriveConfig(0.1, 0.1, 0.1, 0.0, 0.0, Chirality.RIGHT)
NOISE = NoiseParams(1.0)

#: idler-frequency axis of the regime sweep (the canonical scan range)
WL_AXIS = np.linspace(-1.254, 1.254, 20)
#: delay-scale axis of the regime sweep
T0_AXIS = np.linspace(0.0, 15.0, 20)
#: delay scale whose crystal delays reproduce t_s = 24, t_l = 25
T0_REFERENCE = 10.0

ENTANGLED_TEMPLATE = BiphotonAmplitude.entangled(sigma_p=1.0)
ENTANGLED_PROBE = sweep_amplitude(ENTANGLED_TEMPLATE, T0_REFERENCE)
UNCORRELATED_PROBE = BiphotonAmplitude.uncorrelated(sigma=1.0)


def all_lambdas():
    lams = []
    for chirality in Chirality:
        cfg = DRIVE if chirality is Chirality.RIGHT else DRIVE.mirror()
        lams.extend(dressed_states(build_rotating_hamiltonian(cfg), chirality).lambdas)
    return np.asarray(lams)


def scan_grid(amp):
    """Signal scan grid resolving ``amp`` and covering the dressed lines."""
    signal = default_grid(amp, NOISE.gamma, all_lambdas())
    return signal


def dense_wl_scan():
    """Idler frequencies for the dense quantum scan: the sweep axis plus a
    uniform 0.005-step background covering the full range."""
    dense = np.round(np.arange(-1.25, 1.2501, 0.005), 10)
    return np.unique(np.concatenate([dense, WL_AXIS]))
