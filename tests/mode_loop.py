"""Cut-kernel curves by a loop over the modes: a test oracle.

It sums each curve one mode at a time, values += Re r_i * Re c_i, then
values -= Im r_i * Im c_i, then multiplies by psi and negates, over
support-length arrays of its own.  It builds no mode table and calls no
einsum, so a cut kernel's curves must equal its curves byte for byte as
long as numpy's einsum adds a cell's products one at a time, in mode order.
Each Q_i comes from ``spectrum._w`` on the Gaussian form of the row, as a
cut kernel takes it.
"""

import math

import numpy as np

from chirospec.biphoton import jsa_value, row_gaussian, row_support
from chirospec.spectrum import _w


def mode_loop_curves(dressed_triads, noise, grid, amp, omega_l_bar, depth):
    """``(support, *curves)`` of one idler, one support-length curve per triad."""
    gaussian = row_gaussian(amp, omega_l_bar)
    support = row_support(grid, gaussian, depth)
    points = grid.points[support]
    psi_row = jsa_value(amp, points, omega_l_bar)
    curves = [support]
    for dressed in dressed_triads:
        values = np.zeros(psi_row.size)
        if psi_row.size:
            curv, mu, c0 = gaussian
            height = -1j * math.pi * (amp.scale * math.exp(-c0))
            poles = dressed.lambdas + 1j * noise.gamma
            w = _w(np.array([math.sqrt(curv) * (pole - mu) for pole in poles.tolist()])).tolist()
            for weight, lam, w_i in zip(dressed.eta1_sq.tolist(), dressed.lambdas, w):
                real = lam - points
                size = np.hypot(real, noise.gamma)
                real = (real / size) / size
                imag = (-noise.gamma / size) / size
                c = weight * height * w_i
                values += real * c.real
                values -= imag * c.imag
        values *= psi_row
        curves.append(-values)
    return curves
