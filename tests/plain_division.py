"""Transmission curves by plain complex division: a test oracle.

It divides each JSA row by lambda_i - d'' + i*gamma with ``np.divide``, as
an uncut kernel does, but over full rows and in its own loop, and sums in
the kernel's order, so its curves must equal an uncut kernel's, scattered
into -0.0 rows, byte for byte.  It stays the reference for those bytes.
Each Q_i is the trapezoid of the full zero-padded row.
"""

import numpy as np

from chirospec.biphoton import jsa_value, row_gaussian, row_support


def plain_division_curves(dressed_triads, noise, grid, amp, omega_l_bar):
    """One curve per triad, sampled on ``grid.points``."""
    support = row_support(grid, row_gaussian(amp, omega_l_bar))
    psi_row = jsa_value(amp, grid.points[support], omega_l_bar)
    curves = []
    for dressed in dressed_triads:
        values = np.zeros(grid.points.size)
        for lam, weight in zip(dressed.lambdas, dressed.eta1_sq):
            work = np.zeros(grid.points.size, dtype=complex)
            den = lam - grid.points + 1j * noise.gamma
            work[support] = np.divide(psi_row, den[support])
            q = grid.step * (work.sum() - 0.5 * (work[0] + work[-1]))
            values[support] += weight * (work[support] * q).real
        curves.append(-values)
    return curves
