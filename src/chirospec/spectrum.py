"""Frequency-resolved two-photon coincidence observables.

The molecule changes the coincidence counts of the (signal, idler)
detector pair by the transmission term

    P_c = -C * sum_i |eta_1i|^2
              * Re[ psi*(ds, wl) / (lambda_i - ds + i*gamma) * Q_i ],

    Q_i  = integral dd'' psi(dd'', wl) / (lambda_i - dd'' + i*gamma),

where ds is the signal detector detuning, wl the idler detector
frequency, lambda_i / eta_1i the dressed energies and overlaps, and
gamma the uniform dissipation rate; the mode density and every physical
prefactor are absorbed into C = 1, keeping the leading minus sign because
the sign pattern carries the chiral signal.  Both probe kinds give a real
JSA (``biphoton.jsa_value``), so psi* = psi.  The regime map's kernel
takes each Q_i over the whole line in closed form (``TransmissionKernel``),
all of a T0 row's Q_i from one call of the Faddeeva function ``_w``,
within 1e-12 of a curve's peak of a 30-digit reference (6.0e-16 measured),
and sums each cell's curves with one ``np.einsum`` over a table of every
mode's Re and Im 1 / den, in the bits of a loop over the modes.
Spectra and ``transmission_point`` take it as the trapezoid over the
zero-padded signal grid (an uncut kernel holds no per-point array), so the
spectrum CSVs keep their bytes until perfbench's hashes are re-recorded.

For a zero-bandwidth energy-correlated pair the transmission collapses
to a closed form in the pinned detuning dpl = omega_p - wl
(``zero_bandwidth_point``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import BiphotonAmplitude, FrequencyGrid, jsa_value, require_step_resolves
from .biphoton import resolved_width, row_gaussian, row_support
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


def _modes(dressed: DressedTriad, noise: NoiseParams) -> tuple:
    """((|eta_1i|^2, lambda_i + i*gamma), ...) of a triad's modes, as Python numbers."""
    poles = (dressed.lambdas + 1j * noise.gamma).tolist()
    return tuple(zip(dressed.eta1_sq.tolist(), poles))


def _trapezoid(row: np.ndarray, step: float) -> complex:
    """Trapezoid of a whole zero-padded grid row: Q_i for ``transmission_point`` and uncut kernels."""
    return step * (row.sum() - 0.5 * (row[0] + row[-1]))


#: Weideman's N = 32 coefficients of w (SIAM J. Numer. Anal. 31:1497, 1994), highest power first.
_W_COEFFICIENTS = (
    -1.3033481245090926e-12, 3.741034357970915e-12, 8.030394123342998e-12, -2.154362353454026e-11,
    -5.544247434751948e-11, 1.165823850551327e-10, 4.153742283768118e-10, -5.231022115795881e-10,
    -3.208015220602109e-09, 8.12488917405019e-10, 2.3797556704926332e-08, 2.2930439030891307e-08,
    -1.481307891793793e-07, -4.184076371185529e-07, 4.255833137355632e-07, 4.401531731530374e-06,
    6.821031944000645e-06, -2.1409619201818262e-05, -0.00013075449254609854, -0.0002453298027001812,
    0.0003925913607007896, 0.004519541105349286, 0.019006155784845477, 0.05730440352983719,
    0.14060716226893785, 0.2954445107150873, 0.5460139720639342, 0.9019254893648,
    1.3455441692345451, 1.8256696296324813, 2.2635372999002676, 2.572253408124569,
)
_W_L = math.sqrt(32 / math.sqrt(2))


def _w(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z > 0, elementwise.

    Weideman's N = 32 form for |z| < 1e150; beyond it, its limit
    (i / sqrt(pi)) / z with both sides halved, so that no step overflows;
    0 where z is infinite, since complex 1 / inf is NaN.
    """
    z = np.asarray(z, dtype=complex)
    near, infinite = np.abs(z) < 1e150, np.isinf(z)
    z_near = np.where(near, z, 0j)
    below = _W_L - 1j * z_near
    ratio, p = (_W_L + 1j * z_near) / below, 0j
    for a in _W_COEFFICIENTS:
        p = p * ratio + a
    far = (0.5j / math.sqrt(math.pi)) / (0.5 * np.where(near | infinite, 1.0, z))
    near_w = (2 * p / below + 1 / math.sqrt(math.pi)) / below
    return np.where(near, near_w, np.where(infinite, 0j, far))[()]


class TransmissionKernel:
    """Transmission spectra of dressed triads, e.g. an enantiomer pair, on one signal grid.

    Holds per triad and mode the weight |eta_1i|^2 and pole lambda_i + i*gamma (``_modes``),
    and no per-point array unless ``cut``: then, read-only, Re and Im of r_i = 1 / den, den =
    lambda_i - d'' + i*gamma, as rows 2i, 2i + 1 of one (triads, 2 modes, points) ``table``.
    The step must resolve gamma RESOLVE_FACTOR times.  Calls may overlap; a
    pickle or copy reruns the constructor.

    ``curves`` samples each JSA row on the ``row_support`` of its Gaussian form
    (``row_gaussian``), down to e^-``depth`` of its grid peak M: every nonzero
    value unless ``cut``, else D = 60 ln 2 + ln(2 n (1 + (R / gamma)^2)), n grid
    points and R the largest |lambda_i - d| over the energies and the grid's ends.
    Uncut, Q_i is the trapezoid of the zero-padded grid row; cut, the Gaussian
    form over the whole line, Q_i = scale e^-c0 (-i pi)
    w(sqrt(curv) (lambda_i - mu + i gamma)), w the Faddeeva function, all the
    Q_i of one call's idlers (a T0 row of the map) from one ``_w`` call.  As
    |r_i| <= 1 / gamma, a dropped value is below e^-D M sum_i |eta_1i|^2 |Q_i| / gamma.

    A cell's curves are the rows of one new read-only block: uncut, each triad's row sums
    its modes; cut, ``np.einsum`` of each triad's (Re c_0, -Im c_0, Re c_1, ...) with its
    table rows on the support, times -psi:
    unoptimised, einsum adds 0 + Re c_0 Re r_0 + (-Im c_0) Im r_0 + ... in row order,
    and x - y b = x + y (-b), v (-psi) = -(v psi) exactly, so the bits are those of a
    loop over the modes (``tests/mode_loop.py``) unless einsum fuses or reorders them.
    """

    def __init__(self, dressed_triads, noise: NoiseParams, grid_s: FrequencyGrid, cut=False):
        require_step_resolves(grid_s, noise.gamma, "gamma")
        dressed_triads = tuple(dressed_triads)
        self._args = (dressed_triads, noise, grid_s, cut)
        self.grid, self.depth, self.cut = grid_s, math.inf, cut
        self.triads = tuple(_modes(d, noise) for d in dressed_triads)
        if cut:  # (q / |den|) / |den|, (-gamma / |den|) / |den|: no square of q or gamma
            lambdas = np.array([d.lambdas for d in dressed_triads])
            size = np.empty((lambdas.shape[1], grid_s.points.size))
            self.table = np.empty((len(lambdas), 2 * len(size), grid_s.points.size))
            with np.errstate(all="ignore"):  # inf and NaN reach only curves, which check them
                for lams, real, imag in zip(lambdas, self.table[:, 0::2], self.table[:, 1::2]):
                    np.subtract(lams[:, None], grid_s.points, out=real)
                    np.hypot(real, noise.gamma, out=size)
                    np.divide(np.divide(real, size, out=real), size, out=real)
                    np.divide(np.divide(-noise.gamma, size, out=imag), size, out=imag)
            self.table.flags.writeable = False
            # in Python floats: a huge R / gamma gives D = inf (full rows), with no warning
            ends = grid_s.points[[0, -1]].tolist()
            reach = max(abs(lam - d) for lam in lambdas.ravel().tolist() for d in ends)
            ratio = reach / float(noise.gamma)
            self.depth = 60 * math.log(2) + math.log(2 * grid_s.points.size * (1 + ratio * ratio))

    def __reduce__(self):
        return TransmissionKernel, self._args

    def curves(self, amp: BiphotonAmplitude, omega_l_values):
        """Yield ``(support, *curves)``, one read-only curve per triad, for each idler in turn.

        ``omega_l_values`` is a sequence.  An idler's JSA row is sampled down to e^-depth
        of its grid peak on ``support`` (``row_support``); outside it a curve is -0.0
        (``full_curves``).  A curve is -psi * sum_i Re(c_i r_i), c_i = |eta_1i|^2 Q_i; if
        cut, -psi * sum_i (Re c_i Re r_i - Im c_i Im r_i), with the Q_i of all idlers of
        nonempty support from one ``_w`` call.  Raises ValidationError unless the grid resolves
        amp, and NonFiniteResult on NaN or inf, or if cut on a live row without a Gaussian form.
        """
        grid, points = self.grid, self.grid.points
        require_step_resolves(grid, resolved_width(amp), "the amplitude")
        gaussians = [row_gaussian(amp, wl) for wl in omega_l_values]
        supports = [row_support(grid, gaussian, self.depth) for gaussian in gaussians]
        heights, args = [], []
        for gaussian, support in zip(gaussians, supports):
            if self.cut and points[support].size:  # an empty support computes no Q_i
                if gaussian is None:
                    raise NonFiniteResult("the JSA row's Gaussian form overflows")
                curv, mu, c0 = gaussian
                heights.append(-1j * math.pi * (amp.scale * math.exp(-c0)))
                args += [math.sqrt(curv) * (pole - mu) for t in self.triads for _, pole in t]
        with np.errstate(all="ignore"):  # an overflow is inf, and inf or NaN fails the check below
            faddeeva = iter(_w(np.array(args)).tolist() if args else ())
        # per live cell and triad, (Re c_i, -Im c_i) of each mode in the table's row order
        coefs = ([[part for weight, _ in modes for c in [weight * height * next(faddeeva)]
                   for part in (c.real, -c.imag)] for modes in self.triads] for height in heights)
        for omega_l_bar, support in zip(omega_l_values, supports):
            with np.errstate(all="ignore"):
                psi_row = jsa_value(amp, points[support], omega_l_bar)
                if self.cut:  # an empty support takes no coefficients
                    coef = next(coefs) if psi_row.size else np.zeros(self.table.shape[:2])
                    block = np.einsum("tk,tkn->tn", coef, self.table[:, :, support])
                    block *= -psi_row
                else:  # den = pole - d'' in the support of a zero-padded row, then psi / den
                    row = np.zeros(points.size, dtype=complex)
                    quotient, block = row[support], np.zeros((len(self.triads), psi_row.size))
                    for values, modes in zip(block, self.triads):
                        for weight, pole in modes:
                            np.subtract(pole, points[support], out=quotient)
                            np.divide(psi_row, quotient, out=quotient)
                            np.multiply(quotient, _trapezoid(row, grid.step), out=quotient)
                            values += weight * quotient.real
                    np.negative(block, out=block)
            if not np.isfinite(block).all():
                raise NonFiniteResult("spectrum curve contains non-finite values")
            block.flags.writeable = False
            yield (support, *block)


def full_curves(grid: FrequencyGrid, support: slice, *curves: np.ndarray) -> tuple:
    """Read-only ``TransmissionKernel.curves`` on all of grid.points, -0.0 outside ``support``.

    ``analysis.curve_pair`` returns these rows, and ``analysis.compare_cell`` compares
    them when ``support`` is shorter than MIN_CURVE_POINTS.
    """
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
    require_step_resolves(grid_s, resolved_width(amp), "the amplitude")
    support = row_support(grid_s, row_gaussian(amp, det.omega_l_bar))
    row, points = np.zeros(grid_s.points.size, dtype=complex), grid_s.points[support]
    psi_row = jsa_value(amp, points, det.omega_l_bar)
    psi_det = jsa_value(amp, det.omega_s_bar, det.omega_l_bar)
    total = 0.0
    for weight, pole in _modes(dressed, noise):
        row[support] = psi_row / (pole - points)
        factor = psi_det / (pole - det.omega_s_bar)
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
