"""Tests of the coincidence observables: background, quadrature, analytic limit."""

import copy
import dataclasses
import math
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chirospec import analysis, spectrum
from chirospec.analysis import (
    EXTREMUM_REL_THRESHOLD,
    SWEEP_T_L_RATIO,
    SWEEP_T_S_RATIO,
    classify_lineshape,
    compare_pair,
    curve_pair,
    regime_map,
    sweep_amplitude,
)
from chirospec.biphoton import (
    RESOLVE_FACTOR,
    UNDERFLOW_EXPONENT,
    BiphotonAmplitude,
    FrequencyGrid,
    JsaKind,
    default_grid,
    jsa_value,
    row_gaussian,
    row_support,
)
from chirospec.cli import build_scan_grid
from chirospec.config import parse_config
from chirospec.errors import NonFiniteResult, ValidationError
from chirospec.model import (
    Chirality,
    DressedTriad,
    DriveConfig,
    NoiseParams,
    build_rotating_hamiltonian,
    dressed_pair,
    dressed_states,
)
from chirospec.spectrum import (
    DetectorPair,
    TransmissionKernel,
    full_curves,
    transmission_point,
    zero_bandwidth_point,
)
from mode_loop import mode_loop_curves
from plain_division import plain_division_curves
import working_point as wp

NOISE = NoiseParams(1.0)
RESONANT_RIGHT = DriveConfig(0.1, 0.1, 0.1, 0.0, 0.0, Chirality.RIGHT)
ENTANGLED_DELAYS = dict(sigma_p=1.0, t_s=24.0, t_l=25.0)


def support_of(amp, grid, omega_l, depth=math.inf):
    """The ``row_support`` of the row's ``row_gaussian`` form, as a kernel finds it."""
    return row_support(grid, row_gaussian(amp, omega_l), depth)


def one_idler(kernel, amp, omega_l_bar):
    """``(support, *curves)`` of one idler, from a one-idler ``kernel.curves`` call."""
    (curves,) = kernel.curves(amp, [omega_l_bar])
    return curves


def full_rows(kernel, amp, omega_l_bar):
    """Every support-length curve of ``kernel.curves``, scattered into a -0.0 full row."""
    support, *curves = one_idler(kernel, amp, omega_l_bar)
    rows = [np.full(kernel.grid.points.size, -0.0) for _ in curves]
    for row, values in zip(rows, curves, strict=True):
        row[support] = values
    return rows


def right_curve(cfg, amp, omega_l_bar, grid):
    """The right-handed curve of one drive, from the enantiomer pair."""
    return curve_pair(cfg, amp, NOISE, omega_l_bar, grid)[1]


def resonant_dressed(chirality=Chirality.RIGHT):
    cfg = RESONANT_RIGHT if chirality is Chirality.RIGHT else RESONANT_RIGHT.mirror()
    return dressed_states(build_rotating_hamiltonian(cfg), chirality)


def manual_dressed(lambdas, eta1, chirality=Chirality.RIGHT):
    return DressedTriad(
        lambdas=np.asarray(lambdas, dtype=float),
        eta1=np.asarray(eta1, dtype=complex),
        chirality=chirality,
    )


def riemann_oracle_uncorrelated(dressed, sigma, gamma, det, center, half_width, n):
    """Midpoint-rule transmission for an uncorrelated Gaussian probe.

    Fully independent of the library path: inlines the Gaussian amplitude
    and uses the midpoint rule instead of the trapezoid.
    """
    h = 2.0 * half_width / n
    xs = center - half_width + (np.arange(n) + 0.5) * h

    def psi(ws, wl):
        return np.exp(-(ws**2 + wl**2) / (2.0 * sigma**2))

    total = 0.0
    psi_det = psi(det.omega_s_bar, det.omega_l_bar)
    for lam, w in zip(dressed.lambdas, np.abs(dressed.eta1) ** 2):
        q = np.sum(psi(xs, det.omega_l_bar) / (lam - xs + 1j * gamma)) * h
        total += w * (psi_det / (lam - det.omega_s_bar + 1j * gamma) * q).real
    return -total


class TestTransmissionPoint:
    def test_chirality_null_identical_with_same_dressed(self):
        cfg = DriveConfig(0.2, 0.0, 0.3, 0.5, -0.4, Chirality.RIGHT)
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        det = DetectorPair(0.1, 0.4)
        d_r = dressed_states(build_rotating_hamiltonian(cfg), Chirality.RIGHT)
        d_l = dressed_states(
            build_rotating_hamiltonian(cfg.mirror()), Chirality.LEFT
        )
        p_r = transmission_point(d_r, amp, NOISE, det, grid)
        p_l = transmission_point(d_l, amp, NOISE, det, grid)
        assert abs(p_l - p_r) <= 1e-12

    def test_chirality_null_with_entangled_probe(self):
        cfg = DriveConfig(0.0, 0.35, 0.2, -0.3, 0.6, Chirality.RIGHT)
        amp = BiphotonAmplitude.entangled(sigma_p=0.8, t_s=6.0, t_l=7.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.005)
        det = DetectorPair(-0.4, 0.2)
        d_r = dressed_states(build_rotating_hamiltonian(cfg), Chirality.RIGHT)
        d_l = dressed_states(build_rotating_hamiltonian(cfg.mirror()), Chirality.LEFT)
        p_r = transmission_point(d_r, amp, NOISE, det, grid)
        p_l = transmission_point(d_l, amp, NOISE, det, grid)
        assert abs(p_l - p_r) <= 1e-12

    def test_detector_outside_support(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        det = DetectorPair(16.0, 0.0)  # > center + 10 widths
        p = transmission_point(resonant_dressed(), amp, NOISE, det, grid)
        assert abs(p) < 1e-12

    def test_against_riemann_oracle(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        dressed = resonant_dressed()
        grid = default_grid(amp, 1.0, dressed.lambdas)
        det = DetectorPair(0.0, 0.0)
        p = transmission_point(dressed, amp, NOISE, det, grid)
        oracle = riemann_oracle_uncorrelated(
            dressed, 1.0, 1.0, det, grid.center, grid.half_width,
            4 * grid.intervals,
        )
        assert p == pytest.approx(oracle, rel=1e-9)

    def test_strong_dissipation_enantiomers_close(self):
        # uncorrelated probe in the strong-dissipation region: the two
        # handed curves differ by well under 1% of the curve maximum
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = default_grid(amp, 1.0, resonant_dressed().lambdas)
        det = DetectorPair(0.0, 0.0)
        p_r = transmission_point(resonant_dressed(Chirality.RIGHT), amp, NOISE, det, grid)
        p_l = transmission_point(resonant_dressed(Chirality.LEFT), amp, NOISE, det, grid)
        curve = right_curve(RESONANT_RIGHT, amp, 0.0, grid)
        assert abs(p_l - p_r) < 0.01 * np.max(np.abs(curve))
        for value, chirality in ((p_r, Chirality.RIGHT), (p_l, Chirality.LEFT)):
            oracle = riemann_oracle_uncorrelated(
                resonant_dressed(chirality), 1.0, 1.0, det,
                grid.center, grid.half_width, 4 * grid.intervals,
            )
            assert value == pytest.approx(oracle, rel=1e-9)

    def test_grid_too_coarse(self):
        amp = BiphotonAmplitude.entangled(**ENTANGLED_DELAYS)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        with pytest.raises(ValidationError, match="needed to resolve the amplitude"):
            transmission_point(resonant_dressed(), amp, NOISE, DetectorPair(0, 0), grid)
        # the step resolves the amplitude but not gamma, as a kernel would reject it
        amp, coarse = BiphotonAmplitude.uncorrelated(sigma=1.0), FrequencyGrid.build(0.0, 4.0, 0.09)
        dressed, det = dressed_pair(DriveConfig())[1], DetectorPair(0.0, 0.0)
        with pytest.raises(ValidationError, match="needed to resolve gamma"):
            transmission_point(dressed, amp, NoiseParams(0.001), det, coarse)

    def test_bilinear_scaling(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        det = DetectorPair(0.2, -0.1)
        base = transmission_point(resonant_dressed(), amp, NOISE, det, grid)
        scaled = transmission_point(
            resonant_dressed(), dataclasses.replace(amp, scale=3.0), NOISE, det, grid
        )
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_decoupled_molecule_vanishes(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        det = DetectorPair(0.0, 0.0)
        # all overlap weight on dressed states far outside the band
        far = manual_dressed([1e6, 2e6, 3e6], [1.0, 0.0, 0.0])
        assert abs(transmission_point(far, amp, NOISE, det, grid)) < 1e-10
        # zero coupling to the probe: scale 0 plays the role of g = 0
        dead = transmission_point(
            resonant_dressed(), dataclasses.replace(amp, scale=0.0), NOISE, det, grid
        )
        assert dead == 0.0

    def test_returns_real_float(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        p = transmission_point(resonant_dressed(), amp, NOISE, DetectorPair(0.3, 0.2), grid)
        assert isinstance(p, float)


class TestTransmissionCurve:
    def test_no_drive_single_positive_peak_at_zero(self):
        cfg = DriveConfig(0.0, 0.0, 0.0, 0.0, 0.0, Chirality.RIGHT)
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        mirrored, curve = curve_pair(cfg, amp, NOISE, 0.0, grid)
        peak_idx = int(np.argmax(np.abs(curve)))
        assert abs(grid.points[peak_idx]) <= grid.step
        assert curve[peak_idx] > 0
        assert np.array_equal(curve, mirrored)

    def test_no_drive_correlated_sign_weighting(self):
        # with a sum-pinned probe the peak sign follows gamma^2 - dpl^2
        cfg = DriveConfig(0.0, 0.0, 0.0, 0.0, 0.0, Chirality.RIGHT)
        amp = BiphotonAmplitude.entangled(sigma_p=0.05, t_s=20.0, t_l=20.0)
        grid = default_grid(amp, 1.0, (0.0,))
        for dpl in (0.0, 0.5, 1.5, 2.0):
            curve = right_curve(cfg, amp, amp.omega_p - dpl, grid)
            peak = curve[int(np.argmax(np.abs(curve)))]
            assert math.copysign(1.0, peak) == math.copysign(1.0, 1.0 - dpl**2)

    def test_matches_pointwise_evaluation(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        curve = right_curve(RESONANT_RIGHT, amp, 0.3, grid)
        dressed = resonant_dressed()
        for k in (0, 17, 60, 120):
            det = DetectorPair(float(grid.points[k]), 0.3)
            p = transmission_point(dressed, amp, NOISE, det, grid)
            assert curve[k] == pytest.approx(p, rel=1e-13, abs=1e-300)

    def test_distinct_weights_against_riemann_oracle(self):
        # each |eta_1i|^2 must meet its own lambda_i; equal weights hide a swap
        dressed = manual_dressed([-0.7, 0.2, 1.1], np.sqrt([0.6, 0.3, 0.1]))
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = default_grid(amp, 1.0, dressed.lambdas)
        (curve,) = full_rows(TransmissionKernel([dressed], NOISE, grid), amp, 0.4)
        for target in (-1.0, -0.3, 0.4, 1.2):
            k = int(np.argmin(np.abs(grid.points - target)))
            det = DetectorPair(float(grid.points[k]), 0.4)
            oracle = riemann_oracle_uncorrelated(
                dressed, 1.0, 1.0, det, grid.center, grid.half_width,
                4 * grid.intervals,
            )
            assert curve[k] == pytest.approx(oracle, rel=1e-9)

    def test_density_doubling_convergence(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        coarse = right_curve(RESONANT_RIGHT, amp, 0.0, grid)
        fine = right_curve(RESONANT_RIGHT, amp, 0.0, grid.halved_step())
        overlap = fine[::2]
        scale = np.max(np.abs(coarse))
        assert np.max(np.abs(overlap - coarse)) <= 1e-6 * scale

    def test_quantum_probe_enantiomer_pairs_differ_in_shape_or_sign(self):
        amp = BiphotonAmplitude.entangled(**ENTANGLED_DELAYS)
        grid = default_grid(amp, 1.0, resonant_dressed().lambdas)
        curve_l, curve_r = curve_pair(RESONANT_RIGHT, amp, NOISE, 0.99, grid)
        # dominant extrema carry opposite signs at this idler frequency
        peak_l = curve_l[int(np.argmax(np.abs(curve_l)))]
        peak_r = curve_r[int(np.argmax(np.abs(curve_r)))]
        assert peak_l * peak_r < 0

    def test_curve_metadata(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        values = right_curve(RESONANT_RIGHT, amp, -0.7, grid)
        assert values.ndim == 1
        assert values.size == grid.points.size


def held_arrays(obj) -> list:
    """Every distinct array a kernel holds, through its attributes, dataclasses and tuples."""
    found = {}

    def walk(item):
        if isinstance(item, np.ndarray):
            found[id(item)] = item
        elif isinstance(item, (tuple, list)):
            for sub in item:
                walk(sub)
        elif isinstance(item, TransmissionKernel) or dataclasses.is_dataclass(item):
            for sub in vars(item).values():
                walk(sub)

    walk(obj)
    return list(found.values())


class TestCurveArrays:
    def test_kernel_curves_are_read_only_and_own_their_values(self, monkeypatch):
        original, rows = jsa_value, []

        def recorded_jsa_value(*args):
            rows.append(original(*args))
            return rows[-1]

        monkeypatch.setattr(spectrum, "jsa_value", recorded_jsa_value)
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        scan = FrequencyGrid.build(0.0, 6.0, 0.05)
        idlers = [0.3, -0.4]
        for cut in (False, True):
            kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NOISE, scan, cut=cut)
            rows.clear()
            cells = list(kernel.curves(amp, idlers))
            assert len(rows) == len(cells) == 2
            curves = [curve for _, *pair in cells for curve in pair]
            for (support, *pair), row, omega_l in zip(cells, rows, idlers, strict=True):
                assert support == support_of(amp, scan, omega_l, kernel.depth)
                block = pair[0].base  # a cell's curves are the rows of one read-only block
                assert block.shape == (len(pair), row.size) and not block.flags.writeable
                assert all(curve.base is block for curve in pair)
                for curve in pair:
                    assert curve.dtype == float and curve.shape == row.shape
                    assert not curve.flags.writeable
                    assert not any(np.shares_memory(curve, other) for other in rows)
                    assert sum(np.shares_memory(curve, other) for other in curves) == 1

    def test_kernel_holds_only_read_only_arrays(self):
        scan = FrequencyGrid.build(0.0, 6.0, 0.05)
        kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NOISE, scan)
        one_idler(kernel, BiphotonAmplitude.uncorrelated(sigma=1.0), 0.3)
        arrays = held_arrays(kernel)
        # the grid's points, each triad's lambdas and eta1: its modes are Python numbers
        assert len(arrays) == 1 + 2 * 2
        assert not any(array.flags.writeable for array in arrays)

    @pytest.mark.parametrize(
        "clone", [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copied_kernel_is_read_only_and_gives_the_same_curves(self, clone):
        # what a spawn-started pool worker gets: the pickle reruns each constructor
        scan = FrequencyGrid.build(0.0, 6.0, 0.05)
        amp = BiphotonAmplitude.entangled(0.2, -0.1, **ENTANGLED_DELAYS)
        fine = FrequencyGrid.build(0.0, 6.0, 0.002)
        for cut in (False, True):
            kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NOISE, scan, cut=cut)
            twin = clone(kernel)
            assert twin.grid == scan and twin.grid is not scan
            assert twin.depth == kernel.depth and (kernel.depth < math.inf) == cut
            arrays = held_arrays(twin)
            assert len(arrays) == len(held_arrays(kernel))
            assert not any(array.flags.writeable for array in arrays)
            kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NOISE, fine, cut=cut)
            twin = clone(kernel)
            assert twin.depth == kernel.depth
            for curve, copied in zip(full_rows(kernel, amp, 0.3), full_rows(twin, amp, 0.3)):
                assert curve.tobytes() == copied.tobytes()

    def test_threads_calling_one_kernel_get_the_serial_bytes(self):
        amp = wp.ENTANGLED_PROBE
        kernel = TransmissionKernel(dressed_pair(wp.DRIVE), wp.NOISE, wp.scan_grid(amp))
        idlers = np.linspace(-1.254, 1.254, 40)

        def curve_bytes(omega_ls):
            return [b"".join(c.tobytes() for c in full_rows(kernel, amp, wl)) for wl in omega_ls]

        serial = curve_bytes(idlers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(curve_bytes, idlers[::step]) for step in (1, -1, 1, -1)]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial, serial[::-1]] * 2

    def test_cut_kernel_holds_one_mode_table(self):
        scan = FrequencyGrid.build(0.0, 6.0, 0.05)
        kernel = cut_kernel(RESONANT_RIGHT, NOISE, scan)
        one_idler(kernel, BiphotonAmplitude.uncorrelated(sigma=1.0), 0.3)
        arrays = held_arrays(kernel)
        # the grid's points, each triad's lambdas and eta1, and one table: no per-mode arrays
        assert len(arrays) == 1 + 2 * 2 + 1
        assert not any(array.flags.writeable for array in arrays)
        (table,) = [array for array in arrays if array.ndim == 3]
        assert table is kernel.table and table.shape == (2, 2 * 3, scan.points.size)
        for dressed, rows in zip(dressed_pair(RESONANT_RIGHT), table, strict=True):
            r = 1 / (dressed.lambdas[:, None] - scan.points + 1j * NOISE.gamma)
            assert np.allclose(rows[0::2], r.real, rtol=1e-15, atol=0)  # Re r_0, Im r_0, Re r_1, ...
            assert np.allclose(rows[1::2], r.imag, rtol=1e-15, atol=0)

    def test_building_a_cut_kernel_peaks_at_its_table_and_one_temporary(self):
        # the table is filled in place, with one (3, n) |den| array for both triads;
        # an uncut kernel on the same grid allocates nothing per grid point
        cfg, t0_values, scan = canonical_map()
        pair, n = dressed_pair(cfg.drive), scan.points.size

        def built(cut):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kernel = TransmissionKernel(pair, cfg.noise, scan, cut=cut)
                return kernel, tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        kernel, peak = built(cut=True)
        assert kernel.table.nbytes == 2 * 6 * n * 8
        assert peak <= kernel.table.nbytes + 3 * n * 8 + 64 * 1024
        assert built(cut=False)[1] < 16 * 1024

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e160, 1e300))
    def test_overflowing_jsa_row_is_non_finite(self, height):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0, scale=height)
        scan = FrequencyGrid.build(0.0, 6.0, 0.05)
        kernel = TransmissionKernel([dressed_pair(RESONANT_RIGHT)[1]], NOISE, scan)
        assert np.all(np.isfinite(jsa_value(amp, scan.points, 0.3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteResult):
                one_idler(kernel, amp, 0.3)


@st.composite
def sampled_rows(draw):
    """A sampled amplitude, a grid that resolves it, and an idler, often off-centre."""
    centers = st.floats(-2.0, 2.0)
    omega_sc, omega_lc = draw(centers), draw(centers)
    scale = draw(st.sampled_from([1.0, 1e-3, 7.5, 1e100]))
    if draw(st.booleans()):
        sigma = draw(st.floats(0.02, 3.0))
        amp = BiphotonAmplitude.uncorrelated(omega_sc, omega_lc, sigma, scale)
        offset = draw(st.floats(-50.0, 50.0)) * sigma  # beyond 38.7 sigma: empty
    else:
        amp = BiphotonAmplitude.entangled(
            omega_sc, omega_lc,
            sigma_p=draw(st.floats(0.02, 3.0)),
            t_s=draw(st.floats(0.0, SWEEP_T_S_RATIO * 15.0)),
            t_l=draw(st.floats(0.0, SWEEP_T_L_RATIO * 15.0)),
            omega_p=draw(st.none() | st.floats(-3.0, 3.0)),
            scale=scale,
        )
        offset = draw(st.floats(-8.0, 8.0))
    grid = default_grid(amp, 1.0, resonant_dressed().lambdas)
    return amp, grid, omega_lc + offset


FAR_IDLER = (BiphotonAmplitude.uncorrelated(sigma=0.05), FrequencyGrid.build(0.0, 6.0, 0.005), 2.0)


class TestRowSupport:
    @settings(max_examples=300, deadline=None)
    @given(sampled_rows())
    @example(FAR_IDLER)
    def test_support_keeps_every_nonzero_point(self, row):
        amp, grid, omega_l = row
        support = support_of(amp, grid, omega_l)
        sampled = jsa_value(amp, grid.points[support], omega_l)
        outside = np.ones(grid.points.size, dtype=bool)
        outside[support] = False
        full = jsa_value(amp, grid.points, omega_l)
        assert full.dtype == np.float64
        assert sampled.tobytes() == full[support].tobytes()
        assert not np.any(full[outside])

    def test_far_idler_has_empty_support(self):
        amp, grid, omega_l = FAR_IDLER
        assert grid.points[support_of(amp, grid, omega_l)].size == 0
        assert not np.any(jsa_value(amp, grid.points, omega_l))

    @settings(max_examples=100, deadline=None)
    @given(sampled_rows())
    @example(FAR_IDLER)
    def test_kernel_curves_equal_full_row_curves(self, row):
        amp, grid, omega_l = row
        kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NOISE, grid)
        one_idler(kernel, amp, omega_l + 0.5)  # an earlier call leaves nothing behind
        outside = np.ones(grid.points.size, dtype=bool)
        outside[support_of(amp, grid, omega_l)] = False
        curves = full_rows(kernel, amp, omega_l)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectrum, "row_support", lambda grid, gaussian, depth: slice(None))
            full_row_curves = full_rows(kernel, amp, omega_l)
        for curve, full_row_curve in zip(curves, full_row_curves, strict=True):
            assert curve.tobytes() == full_row_curve.tobytes()
            assert np.all(curve[outside] == 0.0) and np.all(np.signbit(curve[outside]))

    @settings(max_examples=100, deadline=None)
    @given(sampled_rows())
    @example(FAR_IDLER)
    def test_pair_kernel_equals_one_triad_kernels(self, row):
        # all modes of a call share one row: one triad's quotients must not leak into the other's
        amp, grid, omega_l = row
        pair = dressed_pair(RESONANT_RIGHT)
        curves = full_rows(TransmissionKernel(pair, NOISE, grid), amp, omega_l)
        assert len(curves) == 2
        for curve, dressed in zip(curves, pair):
            (alone,) = full_rows(TransmissionKernel([dressed], NOISE, grid), amp, omega_l)
            assert curve.tobytes() == alone.tobytes()


def uncorrelated_row(c0, omega_sc=0.0):
    """An uncorrelated row whose exponent E is at least ``c0`` on the whole grid.

    ``omega_sc`` moves the amplitude's signal centre off the grid's, whose points stay put.
    """
    amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
    grid = default_grid(amp, 1.0, resonant_dressed().lambdas)
    return dataclasses.replace(amp, omega_sc=omega_sc), grid, math.sqrt(2.0 * c0)


def entangled_row(scale):
    amp = BiphotonAmplitude.entangled(0.2, -0.1, scale=scale, **ENTANGLED_DELAYS)
    return amp, default_grid(amp, 1.0, resonant_dressed().lambdas), 0.4


def exponents(amp, points, omega_l):
    """E of psi = scale * exp(-E) on ``points``, from the amplitude's definition."""
    if amp.kind is JsaKind.UNCORRELATED_GAUSSIAN:
        return ((points - amp.omega_sc) ** 2 + (omega_l - amp.omega_lc) ** 2) / (2 * amp.sigma**2)
    kappa = (points - amp.omega_sc) * amp.t_s / 2 + (omega_l - amp.omega_lc) * amp.t_l / 2
    return (points + omega_l - amp.omega_p) ** 2 / (2 * amp.sigma_p**2) + kappa**2


def cut_kernel(drive, noise, grid):
    """The enantiomer pair's kernel with its rows cut, as ``regime_map`` builds it."""
    return TransmissionKernel(dressed_pair(drive), noise, grid, cut=True)


def full_row_kernel(drive, noise, grid):
    """A cut kernel with its depth set to inf: closed-form Q_i, and every nonzero value written."""
    kernel = cut_kernel(drive, noise, grid)
    kernel.depth = math.inf
    return kernel


def closed_form_integrals(amp, omega_l, lambdas, gamma):
    """Q_i = scale e^-c0 (-i pi) w(sqrt(curv) (lambda_i - mu + i gamma)), as a cut kernel takes it."""
    curv, mu, c0 = row_gaussian(amp, omega_l)
    height = -1j * math.pi * amp.scale * math.exp(-c0)
    return np.array([height * spectrum._w(math.sqrt(curv) * complex(lam - mu, gamma))
                     for lam in lambdas])


def expected_map_depth(drive, noise, grid):
    """D = 60 ln 2 + ln(2 n (1 + (R / gamma)^2)) of the pair's energies and the grid's ends."""
    reach = max(abs(lam - end) for dressed in dressed_pair(drive)
                for lam in dressed.lambdas for end in (grid.points[0], grid.points[-1]))
    return 60 * math.log(2) + math.log(2 * grid.points.size * (1 + (reach / noise.gamma) ** 2))


def trapezoid_integrals(amp, grid, omega_l, lambdas, gamma):
    """Q_i of the row on all of ``grid``, by plain division and the trapezoid: an uncut kernel's rule."""
    quotients = jsa_value(amp, grid.points, omega_l) / (
        np.asarray(lambdas)[:, None] - grid.points + 1j * gamma
    )
    return grid.step * (quotients.sum(axis=1) - 0.5 * (quotients[:, 0] + quotients[:, -1]))


DRIVES = st.builds(
    DriveConfig,
    *(st.floats(0.0, 1.0) for _ in range(3)),
    *(st.floats(-3.0, 3.0) for _ in range(2)),
)
DEPTHS = st.floats(0.0, 100.0) | st.just(math.inf)
SMALLEST_SUBNORMAL = math.ulp(0.0)


class TestDepthCut:
    """Rows cut at a depth below their own grid peak, as the regime map samples them."""

    @settings(max_examples=300, deadline=None)
    @given(sampled_rows(), DEPTHS)
    @example(FAR_IDLER, 0.0)
    @example(uncorrelated_row(700.0), 55.0)
    @example(uncorrelated_row(749.9), 55.0)
    @example(entangled_row(0.0), 55.0)
    @example(entangled_row(7.5), 0.0)
    @example(uncorrelated_row(740.5), 2.0**-8)  # subnormal row, rounded to a few units
    def test_dropped_points_lie_depth_below_the_kept_peak(self, row, depth):
        amp, grid, omega_l = row
        support = support_of(amp, grid, omega_l, depth)
        sampled = jsa_value(amp, grid.points[support], omega_l)
        indices = range(grid.points.size)
        assert set(indices[support]) <= set(indices[support_of(amp, grid, omega_l)])
        full = jsa_value(amp, grid.points, omega_l)
        assert sampled.tobytes() == full[support].tobytes()
        outside = np.ones(grid.points.size, dtype=bool)
        outside[support] = False
        peak = np.max(np.abs(full))
        if peak > 0.0:
            assert np.max(np.abs(sampled)) == peak
            # a few units of the least subnormal: subnormal values carry no relative precision
            bound = math.exp(-depth) * peak * (1 + 1e-9) + 4 * SMALLEST_SUBNORMAL
            assert np.all(np.abs(full[outside]) <= bound)
        else:
            assert not np.any(full)

    @settings(max_examples=300, deadline=None)
    @given(sampled_rows())
    @example(FAR_IDLER)
    @example(uncorrelated_row(720.0))
    def test_default_depth_keeps_the_points_within_the_underflow_exponent(self, row):
        amp, grid, omega_l = row
        support = row_support(grid, row_gaussian(amp, omega_l))
        assert support == support_of(amp, grid, omega_l, math.inf)
        assert support == support_of(amp, grid, omega_l, UNDERFLOW_EXPONENT)
        exponent = exponents(amp, grid.points, omega_l)
        inside = np.zeros(grid.points.size, dtype=bool)
        inside[support] = True
        # E <= 750 plus one point on each side, to the rounding of E at the edge
        assert np.all(inside[exponent <= UNDERFLOW_EXPONENT * (1 - 1e-12)])
        core = np.flatnonzero(inside)[1:-1]
        assert np.all(exponent[core] <= UNDERFLOW_EXPONENT * (1 + 1e-12))

    @settings(max_examples=200, deadline=None)
    @given(sampled_rows(), st.floats(0.05, 5.0), DRIVES)
    @example(FAR_IDLER, 1.0, RESONANT_RIGHT)
    @example(uncorrelated_row(749.9), 1.0, RESONANT_RIGHT)  # whole row below 2^-1022
    @example(uncorrelated_row(720.0), 0.05, RESONANT_RIGHT)  # ... with subnormal values
    @example(entangled_row(1e-150), 0.3, RESONANT_RIGHT)
    @example(entangled_row(1e150), 2.0, RESONANT_RIGHT)  # norms overflow in compare_pair
    @example(entangled_row(7.5), 0.05, RESONANT_RIGHT)
    @example(entangled_row(0.0), 1.0, RESONANT_RIGHT)
    def test_cut_mode_integrals_and_labels_equal_full_rows(self, row, gamma, drive):
        # Q_i does not depend on the depth: the cut only drops values below e^-D of the peak
        amp, grid, omega_l = row
        if grid.step > gamma / RESOLVE_FACTOR:  # the kernel needs a grid that resolves gamma
            grid = FrequencyGrid.build(grid.center, grid.half_width, gamma / RESOLVE_FACTOR)
        noise = NoiseParams(gamma)
        kernel = cut_kernel(drive, noise, grid)
        depth = kernel.depth
        assert depth == pytest.approx(expected_map_depth(drive, noise, grid), rel=1e-12)
        support = support_of(amp, grid, omega_l, depth)
        full = full_rows(full_row_kernel(drive, noise, grid), amp, omega_l)
        cut = full_rows(kernel, amp, omega_l)
        outside = np.ones(grid.points.size, dtype=bool)
        outside[support] = False
        for curve, full_curve in zip(cut, full, strict=True):
            assert curve[support].tobytes() == full_curve[support].tobytes()
            assert np.all(curve[outside] == 0.0) and np.all(np.signbit(curve[outside]))
        got, expected = compare_pair(*cut), compare_pair(*full)
        assert got[:2] == expected[:2] and got[3] == expected[3]
        assert abs(got[2] - expected[2]) <= 1e-12

    def test_canonical_map_depth(self, monkeypatch):
        # the one test of the kernel regime_map hands its rows: a map whose kernel
        # forgot cut=True keeps its labels and only runs slower
        config = Path(__file__).resolve().parent.parent / "configs" / "regime_map.yaml"
        cfg = parse_config(config.read_text(encoding="utf-8"))
        amp = sweep_amplitude(cfg.probe, max(cfg.sweep.t0_values()))
        scan = build_scan_grid(cfg, amp)
        handed = []

        def recorded_run_jobs(func, context, jobs, threads):
            handed.append(context[0])
            yield from ()

        monkeypatch.setattr(analysis, "run_jobs", recorded_run_jobs)
        regime_map(cfg.drive, amp, cfg.noise, [0.0], [0.0], scan)
        (kernel,) = handed
        expected = expected_map_depth(cfg.drive, cfg.noise, scan)
        assert kernel.grid == scan and kernel.depth == pytest.approx(expected, rel=1e-12)
        assert 55.0 < kernel.depth < 56.0

    def test_tiny_gamma_maps_full_rows_without_a_warning(self):
        noise, scan = NoiseParams(1e-200), FrequencyGrid(0.0, 1e-200, 20)  # step gamma / 10
        amp = BiphotonAmplitude.entangled(sigma_p=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            depth = cut_kernel(RESONANT_RIGHT, noise, scan).depth
            rm = regime_map(RESONANT_RIGHT, amp, noise, [0.5, 1.0], [-0.3, 0.0, 0.3], scan)
        assert depth == math.inf
        assert rm.labels.shape == (2, 3)


def edge_row(side):
    """An entangled row whose support reaches past the grid's end on ``side`` (-1 or +1)."""
    amp = BiphotonAmplitude.entangled(sigma_p=1.0)
    grid = default_grid(amp, 1.0, resonant_dressed().lambdas)
    return amp, grid, -side * grid.half_width  # the row peaks at omega_p - omega_l


#: Rows whose supports hold 15 and 16 points, either side of MIN_CURVE_POINTS, at either depth.
SHORT_ROW, BOUNDARY_ROW = uncorrelated_row(749.947, 0.01), uncorrelated_row(749.939, 0.01)


class TestSupportCurves:
    """Support-length curves, as the regime map and spectra compare them, against full rows."""

    @settings(max_examples=200, deadline=None)
    @given(sampled_rows(), DRIVES, st.booleans())
    @example(uncorrelated_row(749.99), RESONANT_RIGHT, True)  # 7 points, where psi underflows
    @example(FAR_IDLER, RESONANT_RIGHT, True)  # empty support: null signatures
    @example(edge_row(-1), RESONANT_RIGHT, True)
    @example(edge_row(1), RESONANT_RIGHT, True)
    @example(SHORT_ROW, RESONANT_RIGHT, True)
    @example(SHORT_ROW, RESONANT_RIGHT, False)
    @example(BOUNDARY_ROW, RESONANT_RIGHT, True)
    @example(BOUNDARY_ROW, RESONANT_RIGHT, False)
    def test_support_curves_equal_full_rows_and_compare_alike(self, row, drive, cut):
        # the map's cut kernel, against its closed form at depth inf; a spectrum's uncut
        # kernel, whose depth is inf, against its own full rows
        amp, grid, omega_l = row
        if cut:
            kernel = cut_kernel(drive, NOISE, grid)
            full_kernel = full_row_kernel(drive, NOISE, grid)
        else:
            kernel = full_kernel = TransmissionKernel(dressed_pair(drive), NOISE, grid)
        depth = kernel.depth
        support, *curves = one_idler(kernel, amp, omega_l)
        assert support == support_of(amp, grid, omega_l, depth)
        full = full_rows(full_kernel, amp, omega_l)
        outside = np.ones(grid.points.size, dtype=bool)
        outside[support] = False
        scattered = full_curves(grid, support, *curves)
        for values, scattered_curve, full_curve in zip(curves, scattered, full, strict=True):
            assert values.size == grid.points[support].size
            assert values.tobytes() == full_curve[support].tobytes()
            assert scattered_curve[support].tobytes() == values.tobytes()
            assert not scattered_curve.flags.writeable
            assert np.all(scattered_curve[outside] == 0.0)
            assert np.all(np.signbit(scattered_curve[outside]))
        with pytest.MonkeyPatch.context() as patch:  # the row's amplitude is the drawn one
            patch.setattr(analysis, "sweep_amplitude", lambda template, t0: template)
            (got,) = analysis._row_result((kernel, amp, [omega_l]), 0.0)
        expected = compare_pair(*scattered)
        assert got[:2] == expected[:2] and got[3] == expected[3]
        assert abs(got[2] - expected[2]) <= 1e-12
        cell = analysis.compare_cell(grid, support, *curves)
        assert cell[:2] == expected[:2] and cell[3] == expected[3]
        assert abs(cell[2] - expected[2]) <= 1e-12
        short = len(curves[0]) < analysis.MIN_CURVE_POINTS
        assert cell == got == compare_pair(*(scattered if short else curves))

    def test_examples_cover_short_empty_and_edge_supports(self):
        rows = (uncorrelated_row(749.99), FAR_IDLER, edge_row(-1), edge_row(1))
        kept = []
        for amp, grid, omega_l in rows:
            depth = cut_kernel(RESONANT_RIGHT, NOISE, grid).depth
            kept.append(range(grid.points.size)[support_of(amp, grid, omega_l, depth)])
        assert 0 < len(kept[0]) < analysis.MIN_CURVE_POINTS and len(kept[1]) == 0
        assert kept[2][0] == 0 and kept[3][-1] == rows[3][1].points.size - 1
        for (amp, grid, omega_l), size in ((SHORT_ROW, 15), (BOUNDARY_ROW, 16)):
            for depth in (cut_kernel(RESONANT_RIGHT, NOISE, grid).depth, math.inf):
                assert len(range(grid.points.size)[support_of(amp, grid, omega_l, depth)]) == size
        assert analysis.MIN_CURVE_POINTS == 16


def wide_grid(amp, grid, omega_l, widths=10.0):
    """A grid at ``grid``'s step, centred on the row's peak and ``widths`` e-folding widths to each side."""
    curv, mu, _ = row_gaussian(amp, omega_l)
    half = math.ceil(widths / math.sqrt(curv) / grid.step)
    return FrequencyGrid(mu, half * grid.step, 2 * half)


#: Bound on |closed form - trapezoid| / |Q_i| on ``wide_grid``; 9000 draws of
#: ``sampled_rows`` read at most 2.9e-13, about the error of ``spectrum._w``.
QUADRATURE_BOUND = 1e-12


class TestClosedFormIntegrals:
    """The cut kernel's mode integrals Q_i, in closed form through the Faddeeva function."""

    @settings(max_examples=300, deadline=None)
    @given(sampled_rows(), DRIVES)
    @example(entangled_row(1e100), RESONANT_RIGHT)
    @example(uncorrelated_row(500.0), RESONANT_RIGHT)
    def test_closed_form_equals_a_trapezoid_well_past_the_row(self, row, drive):
        amp, grid, omega_l = row
        _, _, c0 = row_gaussian(amp, omega_l)
        assume(math.exp(-c0) > 1e-300)  # a subnormal e^-E carries no relative precision
        wide = wide_grid(amp, grid, omega_l)
        pair = dressed_pair(drive)
        for dressed in pair:
            closed = closed_form_integrals(amp, omega_l, dressed.lambdas, NOISE.gamma)
            trapezoid = trapezoid_integrals(amp, wide, omega_l, dressed.lambdas, NOISE.gamma)
            assert np.all(np.abs(closed - trapezoid) <= QUADRATURE_BOUND * np.abs(trapezoid))
        # the kernel's curves are -psi * sum_i Re(|eta_1i|^2 Q_i / den_i) of these Q_i
        support, *curves = one_idler(cut_kernel(drive, NOISE, grid), amp, omega_l)
        points = grid.points[support]
        psi = jsa_value(amp, points, omega_l)
        for dressed, values in zip(pair, curves, strict=True):
            terms = dressed.eta1_sq * closed_form_integrals(
                amp, omega_l, dressed.lambdas, NOISE.gamma
            )
            expected = -(psi * sum(
                c / (lam - points + 1j * NOISE.gamma) for c, lam in zip(terms, dressed.lambdas)
            )).real
            scale = np.max(np.abs(psi), initial=0.0) * np.sum(np.abs(terms)) / NOISE.gamma
            # a few units of the least subnormal: subnormal values carry no relative precision
            assert np.all(np.abs(values - expected) <= 1e-13 * scale + 4 * SMALLEST_SUBNORMAL)

    @settings(max_examples=300, deadline=None)
    @given(
        sampled_rows(), DRIVES,
        st.none() | st.sampled_from([1e300, 1.7e308]),
        st.none() | st.sampled_from([1e3, -1e8, 1e150, -1e200, 1e300]),
    )
    @example(FAR_IDLER, RESONANT_RIGHT, None, None)
    @example(entangled_row(1.0), RESONANT_RIGHT, 1e300, None)  # values overflow
    @example(entangled_row(1.0), RESONANT_RIGHT, None, 1e200)  # row_gaussian overflows
    def test_cut_curves_are_finite_or_raise_non_finite_result(self, row, drive, scale, idler):
        amp, grid, omega_l = row
        if scale is not None:
            amp = dataclasses.replace(amp, scale=scale)
        if idler is not None:
            omega_l = idler
        kernel = cut_kernel(drive, NOISE, grid)
        with np.errstate(over="ignore", invalid="ignore"):  # numpy's own overflow is not the point
            try:
                support, *curves = one_idler(kernel, amp, omega_l)
            except NonFiniteResult:
                return
        assert len(curves) == 2
        for values in curves:
            assert values.size == grid.points[support].size
            assert np.all(np.isfinite(values)) and not values.flags.writeable

    def test_faddeeva_array_past_the_float_range_is_finite_without_warnings(self):
        # near, far and infinite arguments in one array, as one T0 row hands them to w
        z = np.array([0.5 + 1.0j, 1e149 + 1e149j, 1e150j, -1.2e308 + 1.2e308j,
                      complex(math.inf, 1.0), complex(-1.0, math.inf)])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            w = spectrum._w(z)
        assert w.shape == z.shape
        assert [spectrum._w(complex(x)) for x in z[:4]] == w[:4].tolist()
        far = 1j / (math.sqrt(math.pi) * z[1:3])  # i / (sqrt(pi) z): |z| is 1e150 at most here
        assert np.all(np.abs(w[1:3] - far) <= 1e-15 * np.abs(far))
        assert w[4] == w[5] == 0
        with np.errstate(all="ignore"):  # a NaN argument stays NaN, for the curves' check
            w = spectrum._w(np.array([complex(math.nan, 1.0), 1j]))
        assert np.isnan(w[0]) and np.isfinite(w[1])

    def test_empty_support_computes_no_mode_integral(self, monkeypatch):
        amp, grid, omega_l = FAR_IDLER
        kernel = cut_kernel(RESONANT_RIGHT, NOISE, grid)
        gaussians, arguments = [], []
        original_gaussian, original_w = row_gaussian, spectrum._w

        def recorded_gaussian(amp, wl):
            gaussians.append(wl)
            return original_gaussian(amp, wl)

        def recorded_w(z):
            arguments.append(z.size)
            return original_w(z)

        monkeypatch.setattr(spectrum, "_w", recorded_w)
        monkeypatch.setattr(spectrum, "row_gaussian", recorded_gaussian)
        support, *curves = one_idler(kernel, amp, omega_l)
        assert grid.points[support].size == 0
        assert [c.size for c in curves] == [0, 0]
        assert gaussians == [omega_l] and arguments == []  # no Q_i, and no call of w at all
        # in a row with live idlers: one Gaussian form per idler, and a Q_i per live idler
        # and mode, from one call of w
        gaussians.clear()
        row = list(kernel.curves(amp, [0.0, omega_l, 0.03]))
        assert gaussians == [0.0, omega_l, 0.03] and arguments == [2 * 2 * 3]
        assert [c.size for c in row[1][1:]] == [0, 0]


def assert_batch_independent(kernel, amp, idlers):
    """Each idler's cell of a ``curves`` call on ``idlers``, on them reversed and on them
    rotated by one (a symmetric axis reversed is itself), is its one-idler cell."""
    row = list(kernel.curves(amp, idlers))
    reversed_row = list(kernel.curves(amp, idlers[::-1]))[::-1]
    rotated = list(kernel.curves(amp, idlers[1:] + idlers[:1]))
    for omega_l, *cells in zip(idlers, row, reversed_row, rotated[-1:] + rotated[:-1], strict=True):
        support, *alone = one_idler(kernel, amp, omega_l)
        for cell in cells:
            assert cell[0] == support
            assert [c.tobytes() for c in cell[1:]] == [c.tobytes() for c in alone]


class TestRowBatch:
    """A kernel finds all of a call's supports first, and a cut one takes their Q_i from one
    Faddeeva call: no cell may depend on which other idlers share the call, or on their order."""

    def test_canonical_map_rows_do_not_depend_on_their_batch(self):
        config = Path(__file__).resolve().parent.parent / "configs" / "regime_map.yaml"
        cfg = parse_config(config.read_text(encoding="utf-8"))
        t0_values = cfg.sweep.t0_values()
        scan = build_scan_grid(cfg, sweep_amplitude(cfg.probe, max(t0_values)))
        kernel = cut_kernel(cfg.drive, cfg.noise, scan)
        idlers = cfg.sweep.omega_l_values()
        for t0 in t0_values:
            assert_batch_independent(kernel, sweep_amplitude(cfg.probe, t0), idlers)

    def test_canonical_map_takes_one_gaussian_per_idler_and_one_check_per_call(self, monkeypatch):
        # each step of a row has one owner: one Gaussian form per cell, and one resolution
        # check of the amplitude per T0 row, which is one curves call
        config = Path(__file__).resolve().parent.parent / "configs" / "regime_map.yaml"
        cfg = parse_config(config.read_text(encoding="utf-8"))
        t0_values, idlers = cfg.sweep.t0_values(), cfg.sweep.omega_l_values()
        scan = build_scan_grid(cfg, sweep_amplitude(cfg.probe, max(t0_values)))
        gaussians, checks = [], []
        original_gaussian, original_check = row_gaussian, spectrum.require_step_resolves

        def recorded_gaussian(amp, wl):
            gaussians.append(wl)
            return original_gaussian(amp, wl)

        def recorded_check(grid, width, name):
            checks.append(name)
            original_check(grid, width, name)

        monkeypatch.setattr(spectrum, "row_gaussian", recorded_gaussian)
        monkeypatch.setattr(spectrum, "require_step_resolves", recorded_check)
        regime_map(cfg.drive, cfg.probe, cfg.noise, t0_values, idlers, scan, threads=1)
        assert gaussians == idlers * len(t0_values) and len(gaussians) == 400
        assert checks == ["gamma"] + ["the amplitude"] * len(t0_values) and len(t0_values) == 20

    @settings(max_examples=100, deadline=None)
    @given(sampled_rows(), DRIVES, st.lists(st.floats(-10.0, 10.0), max_size=5), st.booleans())
    @example(FAR_IDLER, RESONANT_RIGHT, [0.0, -1.0, 0.03], True)  # one live idler among empty ones
    def test_drawn_rows_do_not_depend_on_their_batch(self, row, drive, offsets, cut):
        amp, grid, omega_l = row
        kernel = TransmissionKernel(dressed_pair(drive), NOISE, grid, cut=cut)
        assert_batch_independent(kernel, amp, [omega_l] + [omega_l + x for x in offsets])


def numerator(dressed, integrals, gamma):
    """Coefficients in d of N(d), where a curve is -psi(d) N(d) / D(d) with D > 0.

    N = sum_i (Re c_i (lambda_i - d) + Im c_i gamma) prod_{j != i} ((lambda_j - d)^2 + gamma^2),
    c_i = |eta_1i|^2 Q_i: a real polynomial of degree 5.
    """
    factors = [[lam * lam + gamma * gamma, -2.0 * lam, 1.0] for lam in dressed.lambdas]
    total = np.zeros(1)
    for i, (lam, c) in enumerate(zip(dressed.lambdas, dressed.eta1_sq * integrals)):
        term = np.array([c.real * lam + c.imag * gamma, -c.real])
        for factor in factors[:i] + factors[i + 1:]:
            term = polynomial.polymul(term, factor)
        total = polynomial.polyadd(total, term)
    return total


def sign_changes(values):
    """Sign changes between consecutive nonzero values."""
    signs = np.signbit(values[values != 0])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def lobe_sign_changes(values):
    """Sign changes between consecutive one-sign runs whose peak reaches the extremum cut."""
    v = values[values != 0]
    starts = np.flatnonzero(np.concatenate(([True], np.signbit(v[1:]) != np.signbit(v[:-1]))))
    kept = np.maximum.reduceat(np.abs(v), starts) >= EXTREMUM_REL_THRESHOLD * np.max(np.abs(v))
    return sign_changes(np.where(np.signbit(v[starts[kept]]), -1.0, 1.0))


#: Drives with zero couplings and detunings drawn often: degenerate and decoupled triads.
SIGN_DRIVES = st.builds(
    DriveConfig,
    *(st.just(0.0) | st.floats(0.0, 1.0) for _ in range(3)),
    *(st.just(0.0) | st.floats(-3.0, 3.0) for _ in range(2)),
)


@st.composite
def probed_drives(draw):
    """A drive, gamma, an amplitude of either kind, an idler near its row and a default grid."""
    drive, gamma = draw(SIGN_DRIVES), draw(st.floats(0.05, 5.0))
    omega_sc, omega_lc = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        amp = BiphotonAmplitude.uncorrelated(omega_sc, omega_lc, draw(st.floats(0.1, 3.0)))
    else:
        amp = BiphotonAmplitude.entangled(
            omega_sc, omega_lc, sigma_p=draw(st.floats(0.1, 3.0)),
            t_s=draw(st.floats(0.0, SWEEP_T_S_RATIO * 15.0)),
            t_l=draw(st.floats(0.0, SWEEP_T_L_RATIO * 15.0)),
        )
    omega_l = omega_lc + draw(st.floats(-2.0, 2.0)) * min(amp.feature_widths())  # row peak > e^-4
    lambdas = np.concatenate([dressed.lambdas for dressed in dressed_pair(drive)])
    return drive, NoiseParams(gamma), amp, omega_l, default_grid(amp, gamma, lambdas)


class TestSignChanges:
    """Each curve's signs against the real roots of its numerator, from its own trapezoid."""

    @settings(max_examples=150, deadline=None)
    @given(probed_drives())
    @example((DriveConfig(0.0, 0.0, 0.0, 0.0, 0.0), NOISE, wp.ENTANGLED_PROBE, 0.3,
              wp.scan_grid(wp.ENTANGLED_PROBE)))
    @example((RESONANT_RIGHT, NOISE, BiphotonAmplitude.uncorrelated(sigma=1.0), 0.0,
              default_grid(BiphotonAmplitude.uncorrelated(sigma=1.0), 1.0, (-0.2, 0.2))))
    def test_sign_changes_are_the_numerators_real_roots(self, case):
        drive, noise, amp, omega_l, grid = case
        psi = jsa_value(amp, grid.points, omega_l)
        window = np.flatnonzero(psi >= 1e-20 * np.max(psi))  # psi is one Gaussian bump
        ends, step = grid.points[window[[0, -1]]], grid.step
        kernel = TransmissionKernel(dressed_pair(drive), noise, grid)
        curves = full_curves(grid, *one_idler(kernel, amp, omega_l))
        for dressed, curve in zip(dressed_pair(drive), curves, strict=True):
            integrals = trapezoid_integrals(amp, grid, omega_l, dressed.lambdas, noise.gamma)
            n = numerator(dressed, integrals, noise.gamma)
            roots = polynomial.polyroots(n)
            real = roots[np.abs(roots.imag) <= step]  # a near-real pair lies within 2 steps
            gaps = np.abs(real[:, None] - real[None, :]) + 2 * step * np.eye(real.size)
            assume(np.all(gaps >= 2 * step))
            assume(np.all(np.abs(real.real[:, None] - ends) >= 2 * step))
            count = np.count_nonzero((ends[0] < real.real) & (real.real < ends[1]))
            in_window = sign_changes(curve[window[0]:window[-1] + 1])
            assert in_window == count
            assert in_window <= 5
            top = int(np.argmax(np.abs(curve)))
            dominant = -np.sign(polynomial.polyval(grid.points[top], n))
            # doubling every sample puts a zero slope run before each turn
            for values in (curve, np.repeat(curve, 2)):
                signature = classify_lineshape(values)
                assert signature.zero_crossings == lobe_sign_changes(curve) <= count
                assert signature.dominant_sign == dominant


class TestPlainDivision:
    """The kernel against ``tests/plain_division.py``, which divides in its own loop."""

    def test_regime_map_curves_equal_plain_division(self):
        config = Path(__file__).resolve().parent.parent / "configs" / "regime_map.yaml"
        cfg = parse_config(config.read_text(encoding="utf-8"))
        t0_values = cfg.sweep.t0_values()
        scan = build_scan_grid(cfg, sweep_amplitude(cfg.probe, max(t0_values)))
        pair = dressed_pair(cfg.drive)
        kernel = TransmissionKernel(pair, cfg.noise, scan)
        compared = 0
        for t0 in t0_values:
            amp = sweep_amplitude(cfg.probe, t0)
            for omega_l in cfg.sweep.omega_l_values():
                curves = full_rows(kernel, amp, omega_l)
                plain = plain_division_curves(pair, cfg.noise, scan, amp, omega_l)
                for curve, reference in zip(curves, plain, strict=True):
                    assert curve.tobytes() == reference.tobytes()
                    compared += 1
        assert compared == 800


def canonical_map():
    """``(cfg, t0_values, scan)`` of ``configs/regime_map.yaml``, as ``regime-map`` derives them."""
    config = Path(__file__).resolve().parent.parent / "configs" / "regime_map.yaml"
    cfg = parse_config(config.read_text(encoding="utf-8"))
    t0_values = cfg.sweep.t0_values()
    return cfg, t0_values, build_scan_grid(cfg, sweep_amplitude(cfg.probe, max(t0_values)))


def whole_grid_row():
    """An uncorrelated row much wider than its grid: its support is the whole grid at any depth."""
    amp = BiphotonAmplitude.uncorrelated(sigma=3.0)
    return amp, FrequencyGrid.build(0.0, 1.0, 0.01), 0.0


def assert_cells_equal(cell, expected):
    support, *curves = cell
    assert support == expected[0] and len(curves) == len(expected) - 1
    for curve, reference in zip(curves, expected[1:]):
        assert curve.tobytes() == reference.tobytes()


class TestModeLoop:
    """Cut-kernel curves, one einsum over the mode table, against ``tests/mode_loop.py``,
    which sums one mode at a time in the kernel's order: the same bits or the claim fails."""

    def test_regime_map_curves_equal_the_mode_loop(self):
        cfg, t0_values, scan = canonical_map()
        pair, idlers = dressed_pair(cfg.drive), cfg.sweep.omega_l_values()
        kernel = cut_kernel(cfg.drive, cfg.noise, scan)
        compared = 0
        for t0 in t0_values:
            amp = sweep_amplitude(cfg.probe, t0)
            for omega_l, cell in zip(idlers, kernel.curves(amp, idlers), strict=True):
                expected = mode_loop_curves(pair, cfg.noise, scan, amp, omega_l, kernel.depth)
                assert_cells_equal(cell, expected)
                compared += len(cell) - 1
        assert compared == 800

    @settings(max_examples=150, deadline=None)
    @given(sampled_rows(), DRIVES)
    @example(FAR_IDLER, RESONANT_RIGHT)  # empty support
    @example(uncorrelated_row(749.99), RESONANT_RIGHT)  # shorter than MIN_CURVE_POINTS
    @example(edge_row(-1), RESONANT_RIGHT)
    @example(edge_row(1), RESONANT_RIGHT)
    @example(whole_grid_row(), RESONANT_RIGHT)
    def test_drawn_rows_equal_the_mode_loop(self, row, drive):
        amp, grid, omega_l = row
        pair = dressed_pair(drive)
        kernel = cut_kernel(drive, NOISE, grid)
        cell = one_idler(kernel, amp, omega_l)
        assert_cells_equal(cell, mode_loop_curves(pair, NOISE, grid, amp, omega_l, kernel.depth))
        for dressed, curve in zip(pair, cell[1:], strict=True):  # a one-triad table gives the same row
            alone = TransmissionKernel([dressed], NOISE, grid, cut=True)
            alone.depth = kernel.depth
            assert_cells_equal(one_idler(alone, amp, omega_l), (cell[0], curve))

    def test_examples_cover_every_kind_of_support(self):
        rows = (FAR_IDLER, uncorrelated_row(749.99), edge_row(-1), edge_row(1), whole_grid_row())
        kept = []
        for amp, grid, omega_l in rows:
            depth = cut_kernel(RESONANT_RIGHT, NOISE, grid).depth
            kept.append(range(grid.points.size)[support_of(amp, grid, omega_l, depth)])
        assert len(kept[0]) == 0 and 0 < len(kept[1]) < analysis.MIN_CURVE_POINTS
        assert kept[2][0] == 0 and kept[3][-1] == rows[3][1].points.size - 1
        assert kept[4] == range(rows[4][1].points.size)


class TestZeroBandwidthPoint:
    def test_on_resonance_positive(self):
        dressed = manual_dressed([0.0, 5.0, 6.0], [1.0, 0.0, 0.0])
        assert zero_bandwidth_point(dressed, NOISE, 0.0, 1.0) == pytest.approx(1.0)

    def test_zero_at_one_gamma_offset(self):
        dressed = manual_dressed([0.0, 5.0, 6.0], [1.0, 0.0, 0.0])
        # |lambda - dpl| = gamma
        assert zero_bandwidth_point(dressed, NOISE, 1.0, 1.0) == 0.0

    def test_enantiomer_sign_pattern(self):
        dpl = 1.0
        left = manual_dressed([-0.2, 5.0, 6.0], [1.0, 0.0, 0.0], Chirality.LEFT)
        right = manual_dressed([0.2, 5.0, 6.0], [1.0, 0.0, 0.0], Chirality.RIGHT)
        p_l = zero_bandwidth_point(left, NOISE, dpl, 1.0)
        p_r = zero_bandwidth_point(right, NOISE, dpl, 1.0)
        assert p_l < 0 < p_r
        # sign(P) = sign(gamma^2 - (lambda - dpl)^2) per enantiomer
        assert math.copysign(1.0, p_l) == math.copysign(1.0, 1.0 - (-0.2 - 1.0) ** 2)
        assert math.copysign(1.0, p_r) == math.copysign(1.0, 1.0 - (0.2 - 1.0) ** 2)

    def test_uses_dominant_dressed_state(self):
        dressed = manual_dressed(
            [-3.0, 0.0, 3.0], [0.1, math.sqrt(0.98), 0.1]
        )
        value = zero_bandwidth_point(dressed, NOISE, 0.0, 1.0)
        assert value == pytest.approx(0.98, rel=1e-12)

    def test_rejects_tied_dominant_lines(self):
        dressed = manual_dressed([-1.0, 0.0, 1.0], [0.6, 0.6, 0.5])
        with pytest.raises(ValidationError, match="tie for the largest"):
            zero_bandwidth_point(dressed, NOISE, 0.0, 1.0)

    @pytest.mark.parametrize(
        "dpl, sigma",
        [(math.nan, 1.0), (math.inf, 1.0), (0.0, 0.0), (0.0, -1.0), (0.0, math.inf),
         (0.0, math.nan)],
    )
    def test_rejects_bad_inputs(self, dpl, sigma):
        dressed = manual_dressed([0.0, 5.0, 6.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            zero_bandwidth_point(dressed, NOISE, dpl, sigma)

    def test_far_detuning_underflows_to_zero(self):
        # (lambda - dpl)^2 overflows, but phi(dpl) / (lambda - dpl + i*gamma) does not
        dressed = manual_dressed([0.0, 5.0, 6.0], [1.0, 0.0, 0.0])
        assert zero_bandwidth_point(dressed, NOISE, 1e160, 1.0) == 0.0

    def test_overflow_is_non_finite_result(self):
        dressed = manual_dressed([0.0, 5.0, 6.0], [1.0, 0.0, 0.0])
        with pytest.raises(NonFiniteResult), np.errstate(over="ignore"):
            zero_bandwidth_point(dressed, NoiseParams(1e-300), 0.0, 1.0)


class TestZeroBandwidthConsistency:
    def test_signs_match_full_quadrature_at_large_detuning(self):
        # sum-localized entangled probe vs the analytic pinned formula
        big_d = 10.0
        amp = BiphotonAmplitude.entangled(sigma_p=0.05, t_s=20.0, t_l=20.0)
        agree = total = 0
        for chirality in Chirality:
            cfg = DriveConfig(0.1, 0.1, 0.1, big_d, big_d, chirality)
            dressed = dressed_states(build_rotating_hamiltonian(cfg), chirality)
            lam1 = dressed.lambdas[int(np.argmax(dressed.eta1_sq))]
            grid = default_grid(amp, 1.0, dressed.lambdas)
            for dpl in np.linspace(-2.5, 2.5, 21):
                if abs((lam1 - dpl) ** 2 - 1.0) < 0.05:
                    continue
                det = DetectorPair(float(dpl), amp.omega_p - float(dpl))
                p_full = transmission_point(dressed, amp, NOISE, det, grid)
                p_zb = zero_bandwidth_point(dressed, NOISE, float(dpl), 1.0)
                total += 1
                agree += int(np.sign(p_full) == np.sign(p_zb))
        assert total >= 30
        assert agree / total >= 0.95
