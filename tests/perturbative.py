"""Perturbative dressed energy of the driven triad: a test oracle.

It shares no code with the eigensolver, so the model tests check the
exact dressed energies against it at large detuning.
"""

import numpy as np

from chirospec.errors import ChirospecError, ValidationError
from chirospec.model import Chirality, DriveConfig


class DetuningTooSmall(ChirospecError):
    """Perturbative treatment requested outside its validity range."""


def max_coupling(cfg: DriveConfig) -> float:
    """Largest drive coupling magnitude of ``cfg``."""
    return max(abs(cfg.omega21), abs(cfg.omega31), abs(cfg.omega32))


def perturbative_lambda1(cfg: DriveConfig, big_detuning: float) -> float:
    """Perturbative dressed energy of the state adiabatically connected to |1>.

    Valid when both drives detune far above the couplings
    (delta21 = delta31 = D >> |omega|).  Stationary perturbation theory
    through third order gives

        lambda_1 = -(|W21|^2 + |W31|^2) / D + 2 Re(W31 W21* W32*) / D^2,

    whose last term carries the chirality through the sign of the
    coupling product.  Agrees with the exact eigenvalue nearest zero to
    O(|omega|^4 / D^3).
    """
    if cfg.delta21 != big_detuning or cfg.delta31 != big_detuning:
        raise ValidationError("config must use delta21 = delta31 = big_detuning")
    if big_detuning <= 0 or big_detuning < 10.0 * max_coupling(cfg):
        raise DetuningTooSmall(
            f"need big_detuning >= 10*max|omega| = {10.0 * max_coupling(cfg):g}"
        )
    w21 = complex(cfg.omega21)
    w31 = complex(cfg.omega31 if cfg.chirality is Chirality.RIGHT else -cfg.omega31)
    w32 = complex(cfg.omega32)
    d = float(big_detuning)
    second = -(abs(w21) ** 2 + abs(w31) ** 2) / d
    third = 2.0 * (w31 * np.conj(w21) * np.conj(w32)).real / d**2
    return second + third
