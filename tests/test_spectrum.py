"""Tests of the coincidence observables: background, quadrature, analytic limit."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirospec import spectrum
from chirospec.analysis import (
    SWEEP_T_L_RATIO,
    SWEEP_T_S_RATIO,
    compare_pair,
    curve_pair,
    sweep_amplitude,
)
from chirospec.biphoton import (
    BiphotonAmplitude,
    FrequencyGrid,
    default_grid,
    jsa_row,
    jsa_value,
    row_support,
)
from chirospec.cli import build_scan_grid
from chirospec.config import parse_config
from chirospec.errors import GridTooCoarse, NonFiniteResult, ValidationError
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
    transmission_point,
    zero_bandwidth_point,
)
from plain_division import plain_division_curves
import working_point as wp

NOISE = NoiseParams(1.0)
RESONANT_RIGHT = DriveConfig(0.1, 0.1, 0.1, 0.0, 0.0, Chirality.RIGHT)
ENTANGLED_DELAYS = dict(sigma_p=1.0, t_s=24.0, t_l=25.0)


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
            4 * (grid.points.size - 1),
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
                grid.center, grid.half_width, 4 * (grid.points.size - 1),
            )
            assert value == pytest.approx(oracle, rel=1e-9)

    def test_grid_too_coarse(self):
        amp = BiphotonAmplitude.entangled(**ENTANGLED_DELAYS)
        grid = FrequencyGrid.build(0.0, 6.0, 0.05)
        with pytest.raises(GridTooCoarse):
            transmission_point(resonant_dressed(), amp, NOISE, DetectorPair(0, 0), grid)

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
        curve = TransmissionKernel([dressed], NOISE, grid).curves(amp, 0.4)[0]
        for target in (-1.0, -0.3, 0.4, 1.2):
            k = int(np.argmin(np.abs(grid.points - target)))
            det = DetectorPair(float(grid.points[k]), 0.4)
            oracle = riemann_oracle_uncorrelated(
                dressed, 1.0, 1.0, det, grid.center, grid.half_width,
                4 * (grid.points.size - 1),
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


class TestCurveArrays:
    def test_kernel_curves_are_read_only_and_own_their_values(self, monkeypatch):
        original, rows = spectrum.jsa_row, []

        def recorded_jsa_row(*args):
            support, row = original(*args)
            rows.append(row)
            return support, row

        monkeypatch.setattr(spectrum, "jsa_row", recorded_jsa_row)
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        scan = FrequencyGrid.build(0.0, 6.0, 0.05)
        kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NOISE, scan)
        left, right = kernel.curves(amp, 0.3)
        (row,) = rows
        for curve, other in ((left, right), (right, left)):
            assert curve.dtype == float and curve.shape == scan.points.shape
            assert not curve.flags.writeable
            assert not np.shares_memory(curve, row)
            assert not np.shares_memory(curve, other)

    def test_kernel_holds_only_read_only_arrays(self):
        def held_arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from held_arrays(item)
            elif hasattr(obj, "__dict__"):
                for item in vars(obj).values():
                    yield from held_arrays(item)

        scan = FrequencyGrid.build(0.0, 6.0, 0.05)
        kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NOISE, scan)
        kernel.curves(BiphotonAmplitude.uncorrelated(sigma=1.0), 0.3)
        arrays = list(held_arrays(kernel))
        assert len(arrays) == 1 + 2 * 3 * 2  # the grid's points, each mode's mul and scl
        assert not any(array.flags.writeable for array in arrays)

    def test_threads_calling_one_kernel_get_the_serial_bytes(self):
        amp = wp.ENTANGLED_PROBE
        kernel = TransmissionKernel(dressed_pair(wp.DRIVE), wp.NOISE, wp.scan_grid(amp))
        idlers = np.linspace(-1.254, 1.254, 40)

        def curve_bytes(omega_ls):
            return [b"".join(c.tobytes() for c in kernel.curves(amp, wl)) for wl in omega_ls]

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

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e160, 1e300))
    def test_overflowing_jsa_row_is_non_finite(self, height):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0, scale=height)
        scan = FrequencyGrid.build(0.0, 6.0, 0.05)
        kernel = TransmissionKernel([dressed_pair(RESONANT_RIGHT)[1]], NOISE, scan)
        assert np.all(np.isfinite(jsa_row(amp, scan, 0.3)[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteResult):
                kernel.curves(amp, 0.3)


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
        support, sampled = jsa_row(amp, grid, omega_l)
        assert support == row_support(amp, grid, omega_l)
        outside = np.ones(grid.points.size, dtype=bool)
        outside[support] = False
        full = jsa_value(amp, grid.points, omega_l)
        assert full.dtype == np.float64
        assert sampled.tobytes() == full[support].tobytes()
        assert not np.any(full[outside])

    def test_far_idler_has_empty_support(self):
        amp, grid, omega_l = FAR_IDLER
        assert grid.points[row_support(amp, grid, omega_l)].size == 0
        assert not np.any(jsa_value(amp, grid.points, omega_l))

    @settings(max_examples=100, deadline=None)
    @given(sampled_rows())
    @example(FAR_IDLER)
    def test_kernel_curves_equal_full_row_curves(self, row):
        amp, grid, omega_l = row
        kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NOISE, grid)
        kernel.curves(amp, omega_l + 0.5)  # an earlier call leaves nothing behind
        outside = np.ones(grid.points.size, dtype=bool)
        outside[row_support(amp, grid, omega_l)] = False
        curves = kernel.curves(amp, omega_l)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                spectrum, "jsa_row",
                lambda amp, grid, wl, floor: (slice(None), jsa_value(amp, grid.points, wl)),
            )
            full_row_curves = kernel.curves(amp, omega_l)
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
        curves = TransmissionKernel(pair, NOISE, grid).curves(amp, omega_l)
        assert len(curves) == 2
        for curve, dressed in zip(curves, pair):
            (alone,) = TransmissionKernel([dressed], NOISE, grid).curves(amp, omega_l)
            assert curve.tobytes() == alone.tobytes()


TINY = sys.float_info.min


def uncorrelated_row(c0):
    """An uncorrelated row whose exponent E is at least ``c0`` on the whole grid."""
    amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
    return amp, default_grid(amp, 1.0, resonant_dressed().lambdas), math.sqrt(2.0 * c0)


def entangled_row(scale):
    amp = BiphotonAmplitude.entangled(0.2, -0.1, scale=scale, **ENTANGLED_DELAYS)
    return amp, default_grid(amp, 1.0, resonant_dressed().lambdas), 0.4


class TestNormalFloorCut:
    """Rows cut where |psi| falls below the smallest normal double, as the regime map samples them."""

    @settings(max_examples=300, deadline=None)
    @given(sampled_rows())
    @example(FAR_IDLER)
    @example(uncorrelated_row(700.0))
    @example(entangled_row(0.0))
    def test_floor_support_drops_only_values_below_the_floor(self, row):
        amp, grid, omega_l = row
        support, sampled = jsa_row(amp, grid, omega_l, TINY)
        assert support == row_support(amp, grid, omega_l, TINY)
        full_support = row_support(amp, grid, omega_l)
        assert set(range(grid.points.size)[support]) <= set(range(grid.points.size)[full_support])
        outside = np.ones(grid.points.size, dtype=bool)
        outside[support] = False
        full = jsa_value(amp, grid.points, omega_l)
        assert sampled.tobytes() == full[support].tobytes()
        assert np.all(np.abs(full[outside]) < TINY)

    @settings(max_examples=200, deadline=None)
    @given(sampled_rows(), st.floats(0.05, 5.0))
    @example(FAR_IDLER, 1.0)
    @example(uncorrelated_row(749.9), 1.0)  # whole support below the floor
    @example(uncorrelated_row(720.0), 0.05)  # ... with subnormal values in the full row
    @example(entangled_row(1e-150), 0.3)
    @example(entangled_row(1e150), 2.0)  # norms overflow in compare_pair
    @example(entangled_row(7.5), 0.05)
    @example(entangled_row(0.0), 1.0)
    def test_cut_curves_compare_as_full_curves(self, row, gamma):
        amp, grid, omega_l = row
        kernel = TransmissionKernel(dressed_pair(RESONANT_RIGHT), NoiseParams(gamma), grid)
        full, cut = kernel.curves(amp, omega_l), kernel.curves(amp, omega_l, TINY)
        support = row_support(amp, grid, omega_l, TINY)
        outside = np.ones(grid.points.size, dtype=bool)
        outside[support] = False
        for cut_curve, full_curve in zip(cut, full, strict=True):
            assert cut_curve[support].tobytes() == full_curve[support].tobytes()
            assert np.all(cut_curve[outside] == 0.0) and np.all(np.signbit(cut_curve[outside]))
        got, expected = compare_pair(*cut), compare_pair(*full)
        assert got[:2] == expected[:2] and got[3] == expected[3]
        assert got[2].hex() == expected[2].hex()  # the metric, bit for bit


HUGE = np.finfo(float).max
#: Nonzero JSA values: normal, subnormal and near-overflow magnitudes.
PSI_VALUES = st.floats(-HUGE, HUGE, allow_nan=False, allow_infinity=False).filter(bool)


@st.composite
def divisions(draw):
    """gamma, Re(lambda - d'' + i*gamma) from both of Smith's branches, and nonzero psi."""
    gamma = draw(st.floats(1e-3, 1e3))
    narrow = st.floats(-1.0, 1.0).map(lambda x: x * gamma)  # |Re| < gamma: rat = Re / gamma
    wide = st.floats(1.0, 1e12).map(lambda x: x * gamma)  # |Re| >= gamma: rat = gamma / Re
    edges = st.sampled_from((0.0, -0.0, gamma, -gamma))
    real_parts = edges | narrow | wide | wide.map(lambda x: -x)
    den_re = np.array(draw(st.lists(real_parts, min_size=1, max_size=8)))
    psi = draw(st.lists(PSI_VALUES, min_size=den_re.size, max_size=den_re.size))
    return gamma, den_re, np.array(psi)


class TestSmithFactors:
    """The kernel's stored factors against ``np.divide``.

    This pins numpy's complex division, Smith's algorithm: a numpy that
    divides another way fails here before any curve changes.
    """

    @settings(max_examples=300, deadline=None)
    @given(divisions())
    @example((1.0, np.array([0.0, -0.0, 1.0, -1.0, 3.0, -0.5]),
              np.array([5e-324, -HUGE, 1e-310, -2.5, HUGE, -5e-324])))
    @example((1e3, np.array([0.0, -2e3, 0.25]), np.array([-5e-324, 1e-320, HUGE])))
    def test_factors_reproduce_np_divide(self, division):
        gamma, den_re, psi = division
        den = np.empty(den_re.size, dtype=complex)
        den.real, den.imag = den_re, gamma  # keeps a -0.0 real part
        mul, scl = spectrum._smith_factors(den_re, gamma)
        assert mul.dtype == complex and scl.dtype == float
        with np.errstate(over="ignore"):
            expected = np.divide(psi, den)
            quotient = np.multiply(psi, mul)
            np.multiply(quotient, scl, out=quotient)
        assert np.array_equal(quotient, expected)
        # bit for bit in both parts, but for the sign of a zero part (a
        # subnormal psi's underflowed product): + 0.0 maps both zeros to +0.0
        assert (quotient.view(float) + 0.0).tobytes() == (expected.view(float) + 0.0).tobytes()

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
                curves = kernel.curves(amp, omega_l)
                plain = plain_division_curves(pair, cfg.noise, scan, amp, omega_l)
                for curve, reference in zip(curves, plain, strict=True):
                    assert curve.tobytes() == reference.tobytes()
                    compared += 1
        assert compared == 800


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
