"""Transmission curves by plain complex division: a test oracle.

It divides each JSA row by lambda_i - d'' + i*gamma with ``np.divide``, as
the kernel does, but over full rows and in its own loop, and sums in the
kernel's order, so its curves must equal the kernel's, scattered into -0.0
rows, byte for byte.  It stays the reference for the kernel's bytes.  Each
Q_i is the trapezoid of the full zero-padded row, as an uncut kernel takes
it, or, for a row cut at a finite depth, of the row's support alone, as a
cut kernel takes it; 0 for an empty support.
"""

import math

import numpy as np

from chirospec.biphoton import jsa_row


def plain_division_curves(dressed_triads, noise, grid, amp, omega_l_bar, depth=math.inf):
    """One curve per triad, sampled on ``grid.points`` from the row cut at ``depth``."""
    support, psi_row = jsa_row(amp, grid, omega_l_bar, depth)
    curves = []
    for dressed in dressed_triads:
        values = np.zeros(grid.points.size)
        for lam, weight in zip(dressed.lambdas, dressed.eta1_sq):
            work = np.zeros(grid.points.size, dtype=complex)
            den = lam - grid.points + 1j * noise.gamma
            work[support] = np.divide(psi_row, den[support])
            window = work if depth == math.inf else work[support]
            q = grid.step * (window.sum() - 0.5 * (window[0] + window[-1])) if window.size else 0
            values[support] += weight * (work[support] * q).real
        curves.append(-values)
    return curves
