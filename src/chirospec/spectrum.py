"""Frequency-resolved two-photon coincidence observables.

The molecule changes the coincidence counts of the (signal, idler)
detector pair by the transmission term

    P_c = -C * sum_i |eta_1i|^2
              * Re[ psi*(ds, wl) / (lambda_i - ds + i*gamma) * Q_i ],

    Q_i  = integral dd'' psi(dd'', wl) / (lambda_i - dd'' + i*gamma),

where ds is the signal detector detuning, wl the idler detector
frequency, lambda_i / eta_1i the dressed energies and overlaps, and
gamma the uniform dissipation rate.  The continuum mode sum is a
composite trapezoidal quadrature over the signal grid; the mode density
and every physical prefactor are absorbed into C = 1, keeping the
leading minus sign because the sign pattern carries the chiral signal.
Both probe kinds give a real JSA row (``biphoton.jsa_row``), so
psi* = psi and each psi / (lambda_i - d'' + i*gamma) is formed once.

For a zero-bandwidth energy-correlated pair the transmission collapses
to a closed form in the pinned detuning dpl = omega_p - wl
(``zero_bandwidth_point``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import BiphotonAmplitude, FrequencyGrid, jsa_row, jsa_value
from .errors import NonFiniteResult, ValidationError
from .model import DressedTriad, NoiseParams


@dataclass(frozen=True)
class DetectorPair:
    """Sensitive frequencies of the two ideal (delta-response) detectors.

    omega_s_bar is the signal detector's detuning from the |0> -> |1>
    transition; omega_l_bar is the idler detector frequency in the idler
    frame of the amplitude.
    """

    omega_s_bar: float
    omega_l_bar: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_s_bar) and math.isfinite(self.omega_l_bar)):
            raise ValidationError("detector frequencies must be finite")


def _smith_factors(den_re: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """``(mul, scl)`` with (psi * mul) * scl == psi / (den_re + i*gamma) as numpy divides.

    numpy divides by a complex number with Smith's algorithm (Smith 1962,
    CACM 5:435): rat = top / bottom and scl = 1 / (bottom + top * rat), with
    (top, bottom) = (gamma, den_re) where |den_re| >= gamma and
    (den_re, gamma) elsewhere.  A real psi's quotient is then
    (psi, -psi * rat) * scl or (psi * rat, -psi) * scl.  Both factors
    depend only on the denominator, so they are stored: ``mul`` is
    (1, -rat) or (rat, -1) and ``scl`` is real.  Each part of the product
    is rounded from the same single products as numpy's quotient, so the
    two agree bit for bit except in the sign of a zero part: where
    psi == 0 or a product underflows to zero (a subnormal psi), Smith's
    0 - psi * rat gives +0.0 and the multiply may give -0.0.
    """
    wide = np.abs(den_re) >= gamma
    top, bottom = np.where(wide, gamma, den_re), np.where(wide, den_re, gamma)
    rat = top / bottom
    mul = np.empty(den_re.shape, dtype=complex)
    mul.real = np.where(wide, 1.0, rat)
    mul.imag = np.where(wide, -rat, -1.0)
    scl = 1.0 / (bottom + top * rat)
    mul.flags.writeable = scl.flags.writeable = False
    return mul, scl


def _trapezoid(row: np.ndarray, step: float) -> complex:
    """Composite trapezoid of a whole row on a uniform grid: the one rule for Q_i."""
    return step * (row.sum() - 0.5 * (row[0] + row[-1]))


class TransmissionKernel:
    """Transmission spectra of dressed triads, e.g. an enantiomer pair, on one signal grid.

    Holds what does not depend on the JSA row, read-only: per triad and
    mode, the weight |eta_1i|^2 and the Smith factors of the denominator
    lambda_i - d'' + i*gamma (``_smith_factors``), a complex ``mul`` and a
    real ``scl``, 24 B per grid point per mode (1.3 MB for the canonical
    pair's 9301 points).  psi * mul * scl is the quotient numpy's division
    gives, up to the sign of a zero part.  A zero's sign changes no nonzero
    sum or product, and each curve starts at +0.0, so the curves keep the
    bytes of a plain division.  The grid is both the quadrature grid of the
    mode integrals Q_i and, for curves, the signal detector's scan.  A
    kernel holds no mutable state, so calls may overlap.
    """

    def __init__(self, dressed_triads, noise: NoiseParams, grid_s: FrequencyGrid):
        self.grid, points = grid_s, grid_s.points
        self.triads = tuple(
            tuple(
                (weight, *_smith_factors(lam - points, noise.gamma))
                for weight, lam in zip(d.eta1_sq, d.lambdas)
            )
            for d in dressed_triads
        )

    def curves(
        self, amp: BiphotonAmplitude, omega_l_bar: float, floor: float = 0.0
    ) -> tuple[np.ndarray, ...]:
        """One read-only curve per triad at one idler, sampled on the grid from one JSA row.

        The row is sampled where |psi| may reach ``floor`` (``jsa_row``);
        outside that support the values are -0.0, as a full row's zeros
        give.  Each mode's psi / den is formed once, as (psi * mul) * scl,
        in the support of a zeroed row that all modes of the call share, so
        Q_i is the trapezoid of a full row; the curve adds
        weight_i * Re(psi / den * Q_i), its psi* / den term, as rows are
        real.  Raises NonFiniteResult if a value comes out NaN or infinite.
        """
        support, psi_row = jsa_row(amp, self.grid, omega_l_bar, floor)
        row, curves = np.zeros(self.grid.points.size, dtype=complex), []
        quotient = row[support]
        for modes in self.triads:
            values = np.zeros(row.size)
            for weight, mul, scl in modes:
                np.multiply(psi_row, mul[support], out=quotient)
                np.multiply(quotient, scl[support], out=quotient)
                values[support] += weight * (quotient * _trapezoid(row, self.grid.step)).real
            np.negative(values, out=values)
            if not np.all(np.isfinite(values)):
                raise NonFiniteResult("spectrum curve contains non-finite values")
            values.flags.writeable = False
            curves.append(values)
        return tuple(curves)


def transmission_point(
    dressed: DressedTriad,
    amp: BiphotonAmplitude,
    noise: NoiseParams,
    det: DetectorPair,
    grid_s: FrequencyGrid,
) -> float:
    """Transmission spectrum at one detector pair, by quadrature over grid_s."""
    support, psi_row = jsa_row(amp, grid_s, det.omega_l_bar)
    row, points = np.zeros(grid_s.points.size, dtype=complex), grid_s.points[support]
    psi_det = jsa_value(amp, det.omega_s_bar, det.omega_l_bar)
    total = 0.0
    for weight, lam in zip(dressed.eta1_sq, dressed.lambdas):
        row[support] = psi_row / (lam - points + 1j * noise.gamma)
        factor = psi_det / (lam - det.omega_s_bar + 1j * noise.gamma)
        total += weight * (factor * _trapezoid(row, grid_s.step)).real
    result = -total
    if not math.isfinite(result):
        raise NonFiniteResult("transmission quadrature produced a non-finite value")
    return float(result)


def zero_bandwidth_point(
    dressed: DressedTriad, noise: NoiseParams, dpl: float, sigma: float
) -> float:
    """Closed-form transmission of a zero-bandwidth energy-correlated pair.

    The pair psi = phi(ds) delta(ds + wl - omega_p) pins the signal
    detector at dpl = omega_p - wl, and the signal envelope is
    phi(d) = exp(-d^2 / (2 sigma^2)).  Only the dressed state carrying
    the largest |eta_1|^2 contributes, which reduces the spectrum to

        P(dpl) = -|eta_1|^2 Re[ phi(dpl)^2 / (l1 - dpl + i*g)^2 ],

    formed as the square of phi(dpl) / (l1 - dpl + i*g), which cannot
    overflow where phi has underflowed.
    """
    if not (math.isfinite(dpl) and math.isfinite(sigma) and sigma > 0):
        raise ValidationError("dpl must be finite and sigma finite and > 0")
    top = int(np.argmax(dressed.eta1_sq))
    x = dpl / sigma
    ratio = math.exp(-0.5 * x * x) / (dressed.lambdas[top] - dpl + 1j * noise.gamma)
    value = -dressed.eta1_sq[top] * (ratio * ratio).real
    if not math.isfinite(value):
        raise NonFiniteResult("zero-bandwidth evaluation produced a non-finite value")
    return float(value)
