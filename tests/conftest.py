"""Session-scoped fixtures for the expensive shared computations."""

import os
import time

import pytest

import working_point as wp
from chirospec.analysis import compare_pair, curve_pair, regime_map, sweep_amplitude


def worker_count() -> int:
    return min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def default_sweep_timed():
    """The canonical 20x20 (T0, idler frequency) regime map, with build time."""
    worst = sweep_amplitude(wp.ENTANGLED_TEMPLATE, float(wp.T0_AXIS[-1]))
    scan = wp.scan_grid(worst)
    start = time.perf_counter()
    rm = regime_map(
        wp.DRIVE,
        wp.ENTANGLED_TEMPLATE,
        wp.NOISE,
        wp.T0_AXIS,
        wp.WL_AXIS,
        scan,
        threads=worker_count(),
    )
    return rm, time.perf_counter() - start


@pytest.fixture(scope="session")
def default_sweep(default_sweep_timed):
    return default_sweep_timed[0]


@pytest.fixture(scope="session")
def quantum_scan_timed():
    """Dense idler scan of the quantum probe: wl -> (sig_L, sig_R, metric, dist)."""
    scan = wp.scan_grid(wp.ENTANGLED_PROBE)
    start = time.perf_counter()
    results = {}
    for wl in wp.dense_wl_scan():
        left, right = curve_pair(
            wp.DRIVE, wp.ENTANGLED_PROBE, wp.NOISE, float(wl), scan
        )
        results[float(wl)] = compare_pair(left, right)
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def quantum_scan_results(quantum_scan_timed):
    return quantum_scan_timed[0]
