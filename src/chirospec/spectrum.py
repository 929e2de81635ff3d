"""Frequency-resolved two-photon coincidence observables.

The molecule changes the coincidence counts of the (signal, idler)
detector pair by the transmission term

    P_c = -C * sum_i |eta_1i|^2
              * Re[ psi*(ds, wl) / (lambda_i - ds + i*gamma) * Q_i ],

    Q_i  = integral dd'' psi(dd'', wl) / (lambda_i - dd'' + i*gamma),

where ds is the signal detector detuning, wl the idler detector
frequency, lambda_i / eta_1i the dressed energies and overlaps, and
gamma the uniform dissipation rate.  The continuum mode sum is a
composite trapezoidal quadrature over the signal grid: over the whole
zero-padded grid, or, in a kernel that cuts its rows (the regime map's),
over the row's support alone; the mode density
and every physical prefactor are absorbed into C = 1, keeping the
leading minus sign because the sign pattern carries the chiral signal.
Both probe kinds give a real JSA row (``biphoton.jsa_row``), so
psi* = psi and each psi / (lambda_i - d'' + i*gamma) is formed once, by
one division by a denominator that ``TransmissionKernel`` stores per grid
point and mode (0.9 MB for the canonical enantiomer pair).

For a zero-bandwidth energy-correlated pair the transmission collapses
to a closed form in the pinned detuning dpl = omega_p - wl
(``zero_bandwidth_point``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import BiphotonAmplitude, FrequencyGrid, jsa_row, jsa_value, require_step_resolves
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


def _trapezoid(row: np.ndarray, step: float) -> complex:
    """Composite trapezoid of a row on a uniform grid, 0 for an empty row: the one rule for Q_i.

    The row is a whole zero-padded grid row, or a cut kernel's support.
    """
    return step * (row.sum() - 0.5 * (row[0] + row[-1])) if row.size else 0j


class TransmissionKernel:
    """Transmission spectra of dressed triads, e.g. an enantiomer pair, on one signal grid.

    Holds what does not depend on the JSA row, read-only: per triad and
    mode, the weight |eta_1i|^2 and the complex denominator
    lambda_i - d'' + i*gamma on the grid, 16 B per grid point per mode
    (0.9 MB for the canonical pair's 9301 points).  The grid is both the
    quadrature grid of the mode integrals Q_i and, for curves, the signal
    detector's scan; its step must resolve gamma RESOLVE_FACTOR times.  A
    kernel holds no mutable state, so calls may overlap; a pickle or copy
    of it reruns the constructor, so its arrays stay read-only.

    ``curves`` samples each JSA row down to e^-``depth`` of its largest grid
    value M (``row_support``).  depth is inf, every nonzero value, unless
    ``cut``; then it is D = 60 ln 2 + ln(2 n (1 + (R / gamma)^2)), with n
    grid points and R the largest |lambda_i - d| over the triads' energies
    and the grid's ends, and each Q_i is the trapezoid of the row's support
    S alone; an uncut kernel takes it over the whole zero-padded grid, whose
    pairwise sum, and so its bits, differ.  Every point outside S, and each
    end of S that is not an end of the grid, lies below e^-D M, so a
    nonempty S drops at most (n - |S|) + 2 x 1/2 <= n point-weights of the
    full row's trapezoid.  psi has one sign along a row and |den| >= gamma,
    so that moves each Q_i by at most step * n * e^-D * M / gamma, while
    |Q_i| >= |Im Q_i| >= step / 2 * M * gamma / (R^2 + gamma^2): each Q_i
    moves by less than 2^-60 of itself, on any grid and at any gamma, and a
    dropped curve value is below e^-D * M * sum_i |eta_1i|^2 |Q_i| / gamma.
    An empty S holds no value above 0, and its Q_i is 0.
    """

    def __init__(self, dressed_triads, noise: NoiseParams, grid_s: FrequencyGrid, cut=False):
        require_step_resolves(grid_s, noise.gamma, "gamma")
        dressed_triads = tuple(dressed_triads)
        self._args = (dressed_triads, noise, grid_s, cut)
        self.grid, self.triads, self.depth, self.cut = grid_s, (), math.inf, cut
        for d in dressed_triads:  # one row per mode: (lambda_i - d'') + i*gamma
            den = (d.lambdas[:, None] - grid_s.points) + 1j * noise.gamma
            den.flags.writeable = False
            self.triads += (tuple(zip(d.eta1_sq, den)),)
        if cut:  # in Python floats: a huge R / gamma gives D = inf (full rows), with no warning
            ends = grid_s.points[[0, -1]].tolist()
            lambdas = np.concatenate([t.lambdas for t in dressed_triads]).tolist()
            ratio = max(abs(lam - d) for lam in lambdas for d in ends) / float(noise.gamma)
            self.depth = 60 * math.log(2) + math.log(2 * grid_s.points.size * (1 + ratio * ratio))

    def __reduce__(self):
        return TransmissionKernel, self._args

    def curves(self, amp: BiphotonAmplitude, omega_l_bar: float) -> tuple:
        """``(support, *curves)``: one read-only curve per triad at one idler, from one JSA row.

        The row is sampled down to e^-depth of its grid peak (``jsa_row``),
        on the slice ``support`` of the grid, and each curve holds its
        values there only; outside it a curve is -0.0 (``full_curves``).
        Each mode's psi / den is formed once, by ``np.divide``, into one
        quotient that all modes of the call share: a support-length array
        if the kernel is cut, so Q_i is the trapezoid of the support, else
        the support of a zeroed full row, so Q_i is that of the full row.
        The curve adds weight_i * Re(psi / den * Q_i), its psi* / den term,
        as rows are real.  Raises NonFiniteResult if a value comes out NaN
        or infinite.
        """
        support, psi_row = jsa_row(amp, self.grid, omega_l_bar, self.depth)
        if self.cut:
            row = quotient = np.empty(psi_row.size, dtype=complex)
        else:
            row = np.zeros(self.grid.points.size, dtype=complex)
            quotient = row[support]
        curves = [support]
        for modes in self.triads:
            values = np.zeros(quotient.size)
            for weight, den in modes:
                np.divide(psi_row, den[support], out=quotient)
                np.multiply(quotient, _trapezoid(row, self.grid.step), out=quotient)
                values += weight * quotient.real
            np.negative(values, out=values)
            if not np.all(np.isfinite(values)):
                raise NonFiniteResult("spectrum curve contains non-finite values")
            values.flags.writeable = False
            curves.append(values)
        return tuple(curves)


def full_curves(grid: FrequencyGrid, support: slice, *curves: np.ndarray) -> tuple:
    """Read-only ``TransmissionKernel.curves`` on all of grid.points, -0.0 outside ``support``."""
    full = np.full((len(curves), grid.points.size), -0.0)
    full[:, support] = curves
    full.flags.writeable = False
    return tuple(full)


def transmission_point(
    dressed: DressedTriad,
    amp: BiphotonAmplitude,
    noise: NoiseParams,
    det: DetectorPair,
    grid_s: FrequencyGrid,
) -> float:
    """Transmission spectrum at one detector pair, by quadrature over grid_s.

    Raises ValidationError unless grid_s resolves gamma and amp, as for a kernel.
    """
    require_step_resolves(grid_s, noise.gamma, "gamma")
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
    overflow where phi has underflowed.  Raises ValidationError when
    ``dressed.dominant_line()`` finds no such state.
    """
    if not (math.isfinite(dpl) and math.isfinite(sigma) and sigma > 0):
        raise ValidationError("dpl must be finite and sigma finite and > 0")
    top = dressed.dominant_line()
    if top is None:
        raise ValidationError("lines of different energy tie for the largest |eta1|^2")
    x = dpl / sigma
    ratio = math.exp(-0.5 * x * x) / (dressed.lambdas[top] - dpl + 1j * noise.gamma)
    value = -dressed.eta1_sq[top] * (ratio * ratio).real
    if not math.isfinite(value):
        raise NonFiniteResult("zero-bandwidth evaluation produced a non-finite value")
    return float(value)
