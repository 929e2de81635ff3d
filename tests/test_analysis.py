"""Tests of line-shape classification, discrimination metrics, and regime maps."""

import math
import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import chirospec
import working_point as wp
from chirospec import analysis, model
from chirospec.analysis import (
    EXTREMUM_REL_THRESHOLD,
    FLAT_CURVE_FLOOR,
    MIN_CURVE_POINTS,
    LineShapeSignature,
    RegimeMap,
    classify_lineshape,
    compare_pair,
    curve_pair,
    discrimination_window,
    regime_map,
    sweep_amplitude,
)
from chirospec.biphoton import BiphotonAmplitude
from chirospec.errors import ValidationError
from chirospec.model import Chirality, DressedTriad, NoiseParams
from chirospec.spectrum import zero_bandwidth_point


def gaussian_peak(x, center, width, height):
    return height * np.exp(-((x - center) ** 2) / (2.0 * width**2))


X = np.linspace(-3.0, 3.0, 121)


class TestClassifyLineshape:
    def test_single_positive_peak(self):
        sig = classify_lineshape(gaussian_peak(X, 0.0, 0.5, 1.0))
        assert sig.extrema_signs == (1,)
        assert sig.zero_crossings == 0
        assert sig.dominant_sign == 1
        two_point_top = np.array([0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0.0])
        assert classify_lineshape(two_point_top) == sig

    def test_dispersive_shape(self):
        values = gaussian_peak(X, -0.6, 0.4, 1.0) + gaussian_peak(X, 0.6, 0.4, -0.9)
        sig = classify_lineshape(values)
        assert sig.extrema_signs == (1, -1)
        assert sig.zero_crossings == 1
        assert sig.dominant_sign == 1

    def test_scaling_invariance(self):
        values = gaussian_peak(X, -0.6, 0.4, 1.0) + gaussian_peak(X, 0.6, 0.4, -0.4)
        assert classify_lineshape(values) == classify_lineshape(7.3 * values)

    def test_insignificant_lobe_dropped(self):
        values = gaussian_peak(X, -0.6, 0.3, 1.0) + gaussian_peak(X, 1.5, 0.3, -0.01)
        sig = classify_lineshape(values)
        assert sig.extrema_signs == (1,)

    def test_flat_curve_null_signature(self):
        sig = classify_lineshape(np.zeros(64))
        assert sig == LineShapeSignature(extrema_signs=(), zero_crossings=0, dominant_sign=0)
        assert sig.compact() == "0"

    def test_monotone_curve_still_classifies(self):
        rising = classify_lineshape(np.linspace(0.5, 2.0, 64))
        assert rising.extrema_signs == (1,)
        assert rising.dominant_sign == 1
        falling = classify_lineshape(np.linspace(-0.5, -2.0, 64))
        assert falling.extrema_signs == (-1,)
        assert falling.dominant_sign == -1

    def test_too_short(self):
        with pytest.raises(ValidationError, match="scan points, got 15$"):
            classify_lineshape(np.ones(15))

    def test_compact_form(self):
        sig = LineShapeSignature(extrema_signs=(1, -1), zero_crossings=1, dominant_sign=-1)
        assert sig.compact() == "+-|1|-"


class TestCallerArrays:
    """classify_lineshape is the one check on value arrays a caller hands in."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(MIN_CURVE_POINTS, 40))
    def test_rejects_2d(self, rows, cols):
        with pytest.raises(ValidationError, match="1-D"):
            classify_lineshape(np.ones((rows, cols)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, MIN_CURVE_POINTS - 1))
    def test_rejects_fewer_than_min_points(self, n):
        message = f"^line shapes need >= {MIN_CURVE_POINTS} scan points, got {n}$"
        with pytest.raises(ValidationError, match=message):
            classify_lineshape(np.ones(n))

def reference_signature(values, rel_threshold=EXTREMUM_REL_THRESHOLD):
    """Plain-Python line-shape signature, one point at a time: the oracle."""
    v = [float(x) for x in values]
    max_abs = max(abs(x) for x in v)
    if max_abs < FLAT_CURVE_FLOOR:
        return LineShapeSignature(extrema_signs=(), zero_crossings=0, dominant_sign=0)
    extrema = []
    last_slope = 0
    for i in range(1, len(v)):
        d = v[i] - v[i - 1]
        slope = 1 if d > 0 else (-1 if d < 0 else 0)
        if slope == 0:
            continue
        if last_slope != 0 and slope != last_slope:
            extrema.append(i - 1)
        last_slope = slope
    global_idx = max(range(len(v)), key=lambda i: (abs(v[i]), -i))
    while global_idx + 1 < len(v) and v[global_idx + 1] == v[global_idx]:
        global_idx += 1  # a plateau's extremum sits at its last index
    if global_idx not in extrema:
        extrema.append(global_idx)
        extrema.sort()
    significant = [i for i in extrema if abs(v[i]) >= rel_threshold * max_abs]
    signs = tuple(1 if v[i] > 0 else -1 for i in significant)
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    dominant = 1 if v[global_idx] > 0 else -1
    return LineShapeSignature(
        extrema_signs=signs, zero_crossings=crossings, dominant_sign=dominant
    )


#: Curve lengths: exactly the minimum, or a little longer.
LENGTHS = st.one_of(st.just(MIN_CURVE_POINTS), st.integers(MIN_CURVE_POINTS, 80))
#: Largest finite double: neighbours of opposite sign near it differ by an
#: overflowing (infinite) step.
HUGE = np.finfo(float).max
#: Few distinct levels, -0.0 among them, give plateaus and repeated values;
#: fine steps exact under power-of-two rescaling; arbitrary floats for
#: everything else; values near +-HUGE, whose steps overflow; and multiples
#: of the smallest subnormal, whose steps are subnormal.
LEVELS = (
    st.one_of(st.integers(-3, 3).map(float), st.just(-0.0)),
    st.integers(-10**6, 10**6).map(lambda k: k / 64.0),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
    st.floats(0.9 * HUGE, HUGE) | st.floats(-HUGE, -0.9 * HUGE),
    st.integers(-4, 4).map(lambda k: k * 5e-324),
)
#: "padded" embeds the values between runs of signed zeros, as the kernel
#: writes -0.0 outside a JSA row's support.
SHAPES = ("as drawn", "rising", "falling", "flat", "sign-flipped", "padded")


@st.composite
def curve_values(draw, levels=st.one_of(*LEVELS)):
    n = draw(LENGTHS)
    values = np.asarray(draw(st.lists(levels, min_size=n, max_size=n)), dtype=float)
    shape = draw(st.sampled_from(SHAPES))
    if shape == "rising":
        values = np.sort(values)
    elif shape == "falling":
        values = np.sort(values)[::-1]
    elif shape == "flat":
        values = np.full(n, values[0])
    elif shape == "sign-flipped":
        values = -values
    elif shape == "padded":
        pads = [np.full(draw(st.integers(0, 8)), draw(st.sampled_from((-0.0, 0.0))))
                for _ in range(2)]
        values = np.concatenate((pads[0], values, pads[1]))
    return values


class TestClassifierOracle:
    @settings(max_examples=400, deadline=None)
    @given(curve_values())
    @example(np.zeros(MIN_CURVE_POINTS))
    @example(np.array([0.0, 1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 0.0] * 2))
    @example(np.array([0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0.0]))  # a two-point top
    @example(np.array([2.0] * 5 + [1.0] * 6 + [2.0] * 5))
    @example(np.array([0.0, 20.0, 0.0, 1.0] + [0.0] * 12))  # a lobe at exactly 5%
    # zero slopes inside runs of one sign: no turn there
    @example(np.array([-0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0,
                       2.0, 2.0, 1.0, 1.0, 0.0, -1.0, -1.0, -0.0]))
    @example(np.array([-0.0] * 3 + [0.5, 0.5, 2.0, 2.0, 1.0, 3.0, 3.0, 0.2] + [0.0] * 5))
    # steps that overflow to +-inf keep their sign
    @example(np.array([HUGE, -HUGE, -HUGE, 0.95 * HUGE, -0.0] * 4))
    @example(np.array([-HUGE] * 4 + [HUGE] * 4 + [1.0, -HUGE] * 4))
    # subnormal steps still turn, next to a curve maximum of 1
    @example(np.array([1.0] + [5e-324, 1e-323, 5e-324, -0.0, -5e-324, 0.0, 1e-323] * 2
                      + [-5e-324]))
    @example(np.array([2e-323, 1.5e-323, 1e-323, 1.5e-323] * 4 + [1e-13]))
    # a zero-slope run between two rises, or two falls, is no turn
    @example(np.array([0, 1, 2, 2, 2, 3, 4, 5, 6, 5, 4, 3, 3, 3, 2, 1.0]))
    # a zero-slope run between a rise and a fall is one turn, at the run's last index
    @example(np.array([0, 1, 2, 3, 3, 3, 2, 1, 0, 1, 2, 4, 6, 8, 10, 12.0]))
    @example(-np.array([0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 6, 5, 4, 3, 2.0]))
    # the global extremum on a plateau that ends or starts the curve
    @example(np.array([0, -1, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8.0]))
    @example(np.array([-8.0] * 4 + [-7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 1, -0.0]))
    # NaN and inf curves are rejected
    @example(np.array([0, 1, 2, 3, 4, 5, 6, 7, np.nan, 6, 5, 4, 3, 2, 1, 0.0]))
    @example(np.array([np.nan] * 16))
    @example(np.array([0.0] * 15 + [np.inf]))
    @example(np.array([1.0, -np.inf] + [0.0] * 14))
    def test_matches_reference_loop(self, values):
        if not np.all(np.isfinite(values)):
            with pytest.raises(ValidationError, match="finite"):
                classify_lineshape(values)
        else:
            assert classify_lineshape(values) == reference_signature(values)

    @settings(max_examples=400, deadline=None)
    @given(curve_values())
    def test_doubled_samples_keep_the_signature(self, values):
        # each value taken twice makes every point a plateau, whose extremum counts once
        assert classify_lineshape(np.repeat(values, 2)) == classify_lineshape(values)

    @settings(max_examples=200, deadline=None)
    @given(curve_values(levels=st.one_of(*LEVELS[:2])), st.integers(-30, 30))
    def test_positive_rescaling_keeps_signature(self, values, power):
        # powers of two rescale these values exactly, so no tie is made or broken
        scale = 2.0**power
        assume(np.max(np.abs(values)) * scale >= FLAT_CURVE_FLOOR or not values.any())
        base = classify_lineshape(values)
        assert classify_lineshape(scale * values) == base
        assert base == reference_signature(values)


class TestNonFiniteValues:
    @settings(max_examples=200, deadline=None)
    @given(curve_values(), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_rejected_at_any_index(self, values, data, bad):
        values = values.copy()
        values[data.draw(st.integers(0, values.size - 1), label="index")] = bad
        with pytest.raises(ValidationError, match="finite"):
            classify_lineshape(values)


class TestDiscriminability:
    def test_identical_curves(self):
        curve = gaussian_peak(X, 0.0, 0.5, 1.0)
        _, _, metric, dist = compare_pair(curve, curve)
        assert metric == 0.0
        assert dist is False

    def test_sign_flip_saturates(self):
        values = gaussian_peak(X, 0.0, 0.5, 1.0)
        _, _, metric, dist = compare_pair(values, -values)
        assert metric == 1.0
        assert dist is True

    def test_symmetry(self):
        a = gaussian_peak(X, 0.0, 0.5, 1.0)
        b = gaussian_peak(X, 0.3, 0.5, 0.8)
        assert compare_pair(a, b)[2:] == compare_pair(b, a)[2:]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(MIN_CURVE_POINTS, 80), st.integers(1, 20))
    def test_different_lengths_rejected(self, n, extra):
        a, b = np.ones(n), np.ones(n + extra)
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValidationError, match="same shape"):
                compare_pair(*pair)

    def test_both_flat(self):
        _, _, metric, dist = compare_pair(np.zeros(64), np.zeros(64))
        assert metric == 0.0
        assert dist is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("height", [1e160, 1e300])
    def test_overflowing_norms_keep_the_relative_distance(self, height):
        # the norms overflow to inf; inf / inf read as metric 1.0 and distinguishable
        left = np.exp(-(X**2)) * height
        _, _, metric, dist = compare_pair(left, left * (1 + 1e-6))
        assert metric == pytest.approx(1e-6, rel=1e-4)
        assert dist is False
        _, _, metric, dist = compare_pair(left, -left)
        assert metric == 1.0
        assert dist is True

    @pytest.mark.parametrize("height", [1e-170, 1e-300])
    def test_underflowing_norms_keep_the_metric(self, height):
        # unscaled, the squares underflow and both norms read 0.0 (metric 0.0)
        shape = np.exp(-(X**2))
        expected = compare_pair(shape * 1e-20, shape * 1e-20 * 1.5)[2:]
        assert expected[1] is True
        metric, dist = compare_pair(shape * height, shape * height * 1.5)[2:]
        assert dist is expected[1]
        assert metric == pytest.approx(expected[0], rel=1e-15)  # the scaled inputs round apart
        # a power-of-two height scales exactly, and so does the rescale: the same bits
        exponent = math.frexp(height)[1]
        exact = np.ldexp(shape, exponent), np.ldexp(shape * 1.5, exponent)
        assert compare_pair(*exact)[2:] == compare_pair(shape, shape * 1.5)[2:]

    def test_classical_probe_pair(self):
        scan = wp.scan_grid(wp.UNCORRELATED_PROBE)
        left, right = curve_pair(
            wp.DRIVE, wp.UNCORRELATED_PROBE, wp.NOISE, 0.0, scan
        )
        _, _, metric, dist = compare_pair(left, right)
        assert metric < 0.05
        assert dist is False


def _measure(intervals) -> float:
    return sum(hi - lo for lo, hi in intervals)


@st.composite
def dressed_triads(draw, chirality):
    """A triad of drawn energies and overlaps; the largest |eta_1|^2 is at least 0.01."""
    lambdas = draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    eta1 = draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))
    return DressedTriad(sorted(lambdas), eta1, chirality)


class TestDiscriminationWindow:
    def test_equal_lambdas_empty(self):
        assert discrimination_window(0.3, 0.3, 1.0) == ()

    @pytest.mark.parametrize("lam", [0.0, -0.1, 0.3, 7.8e-18, 1.0e-3])
    def test_nearly_equal_lambdas_drop_collapsed_intervals(self, lam):
        win = discrimination_window(lam, lam + 1e-17, 1.0)
        assert all(lo < hi for lo, hi in win)
        assert _measure(win) <= 1e-15

    @given(
        a=st.floats(-1e3, 1e3),
        gap=st.floats(0.0, 1e-12),
        gamma=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_close_lambdas_never_raise(self, a, gap, gamma):
        win = discrimination_window(a, a + gap, gamma)
        assert _measure(win) >= 0.0

    @given(
        lam_l=st.floats(-1e3, 1e3),
        lam_r=st.floats(-1e3, 1e3),
        gamma=st.floats(1e-3, 1e3),
    )
    # lambdas 2 gamma apart, where a + gamma rounds above b - gamma
    @example(lam_l=-697.4283469421754, lam_r=675.8293512723192, gamma=686.6288491072473)
    @settings(max_examples=300, deadline=None)
    def test_intervals_are_disjoint_sorted_and_nonempty(self, lam_l, lam_r, gamma):
        previous_hi = -np.inf
        for lo, hi in discrimination_window(lam_l, lam_r, gamma):
            assert previous_hi <= lo < hi
            previous_hi = hi

    def test_overlapping_resonances(self):
        win = discrimination_window(-0.2, 0.2, 1.0)
        assert win == ((-1.2, -0.8), (0.8, 1.2))
        # one branch is the band between (gamma - lambda_L) and (gamma - lambda_R)
        assert win[1] == (0.8, 1.2)

    def test_disjoint_resonances(self):
        win = discrimination_window(-1.5, 1.5, 1.0)
        assert win == ((-2.5, -0.5), (0.5, 2.5))

    def test_symmetry_and_measure_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            lam_l, lam_r = rng.uniform(-3.0, 3.0, size=2)
            gamma = rng.uniform(0.1, 2.0)
            win = discrimination_window(lam_l, lam_r, gamma)
            assert win == discrimination_window(lam_r, lam_l, gamma)
            gap = abs(lam_l - lam_r)
            if gap == 0.0:
                assert _measure(win) == 0.0
            elif gap <= 2.0 * gamma:
                assert _measure(win) == pytest.approx(2.0 * gap, rel=1e-12)
            else:
                assert _measure(win) == pytest.approx(4.0 * gamma, rel=1e-12)

    def test_boundaries_excluded(self):
        # -1.2 and 0.8 are exact endpoints of the open intervals, 1.0 lies inside one
        win = discrimination_window(-0.2, 0.2, 1.0)
        assert not any(lo < x < hi for x in (-1.2, 0.8) for lo, hi in win)
        assert any(lo < 1.0 < hi for lo, hi in win)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            discrimination_window(0.0, 0.1, 0.0)

    @given(
        left=dressed_triads(Chirality.LEFT),
        right=dressed_triads(Chirality.RIGHT),
        gamma=st.floats(0.05, 5.0),
        dpl=st.floats(-10.0, 10.0),
        sigma=st.floats(0.1, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_window_is_where_zero_bandwidth_signs_differ(self, left, right, gamma, dpl, sigma):
        # the window the dressed command prints, against the closed form it summarizes;
        # drawn overlaps tie at the bounds of their range, which leaves no dominant line
        lines = [d.dominant_line() for d in (left, right)]
        assume(None not in lines)
        tops = [d.lambdas[line] for d, line in zip((left, right), lines)]
        assume(all(abs(abs(lam - dpl) - gamma) > 1e-6 for lam in tops))
        assume(math.exp(-((dpl / sigma) ** 2)) >= sys.float_info.min)  # phi(dpl)^2 is normal
        noise = NoiseParams(gamma)
        p_l, p_r = (zero_bandwidth_point(d, noise, dpl, sigma) for d in (left, right))
        inside = any(lo < dpl < hi for lo, hi in discrimination_window(*tops, gamma))
        assert inside == (np.sign(p_l) * np.sign(p_r) < 0)


class TestRunJobs:
    def test_serial_run_computes_one_job_per_result_taken(self):
        done = []
        results = analysis.run_jobs(lambda ctx, job: done.append(job) or ctx + job,
                                    10, [1, 2, 3], threads=1)
        assert next(results) == 11 and done == [1]
        assert list(results) == [12, 13] and done == [1, 2, 3]


@pytest.fixture(scope="module")
def small_axes():
    t0 = [8.0, 10.0, 12.0]
    wl = [0.8, 0.99, 1.2]
    scan = wp.scan_grid(sweep_amplitude(wp.ENTANGLED_TEMPLATE, 12.0))
    return t0, wl, scan


class TestRegimeMap:
    def test_rejects_labels_off_the_axes(self):
        with pytest.raises(ValidationError, match="labels table must match the axes"):
            RegimeMap([0.0, 1.0], [0.0, 1.0, 2.0], np.zeros((2, 2), dtype=int), {})

    def test_deterministic_across_runs_and_threads(self, small_axes):
        t0, wl, scan = small_axes
        maps = [
            regime_map(
                wp.DRIVE, wp.ENTANGLED_TEMPLATE, wp.NOISE, t0, wl, scan,
                threads=threads,
            )
            for threads in (1, 2, 1)
        ]
        for other in maps[1:]:
            assert np.array_equal(maps[0].labels, other.labels)
            assert maps[0].legend == other.legend

    def test_spawn_pool_gives_the_serial_map(self, small_axes, monkeypatch):
        # the start method of platforms without fork; the pool starts two workers
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(multiprocessing, "get_context", lambda: spawn)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        t0, wl, scan = small_axes
        serial, pooled = (
            regime_map(
                wp.DRIVE, wp.ENTANGLED_TEMPLATE, wp.NOISE, t0[1:], wl[:2], scan,
                threads=threads,
            )
            for threads in (1, 2)
        )
        assert np.array_equal(serial.labels, pooled.labels)
        assert serial.legend == pooled.legend

    def test_sliver_column_is_nonzero(self, small_axes):
        t0, wl, scan = small_axes
        rm = regime_map(
            wp.DRIVE, wp.ENTANGLED_TEMPLATE, wp.NOISE, t0, wl, scan, threads=2
        )
        # the 0.99 column sits in the sign-difference window from T0 ~ 10 up
        assert np.all(rm.labels[1:, 1] > 0)
        for label, (sig_l, sig_r) in rm.legend.items():
            assert sig_l != sig_r or label == 0

    def test_weak_correlation_t0_zero_indistinguishable(self):
        # wide pump, no crystal delays: classical-like probe
        template = BiphotonAmplitude.entangled(sigma_p=5.0)
        scan = wp.scan_grid(template)
        rm = regime_map(
            wp.DRIVE, template, wp.NOISE, [0.0], [-0.5, 0.0, 0.99], scan, threads=1
        )
        assert np.all(rm.labels == 0)

    def test_labels_interned_row_major(self, small_axes):
        t0, wl, scan = small_axes
        rm = regime_map(
            wp.DRIVE, wp.ENTANGLED_TEMPLATE, wp.NOISE, t0, wl, scan, threads=1
        )
        seen = []
        for i in range(len(t0)):
            for j in range(len(wl)):
                label = rm.labels[i, j]
                if label > 0 and label not in seen:
                    seen.append(label)
        assert seen == sorted(seen)
        assert set(rm.legend) == set(seen)


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` wherever a chirospec module binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in (chirospec, *vars(chirospec).values()):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestWorkDoneOnce:
    def test_one_classification_per_curve_one_eigh_per_enantiomer(
        self, small_axes, monkeypatch
    ):
        t0, wl, scan = small_axes
        classified = count_calls(monkeypatch, analysis, "classify_lineshape")
        diagonalized = count_calls(monkeypatch, model, "dressed_states")
        serial = regime_map(
            wp.DRIVE, wp.ENTANGLED_TEMPLATE, wp.NOISE, t0, wl, scan, threads=1
        )
        assert len(classified) == 2 * len(t0) * len(wl)
        assert len(diagonalized) <= 2
        pooled = regime_map(
            wp.DRIVE, wp.ENTANGLED_TEMPLATE, wp.NOISE, t0, wl, scan, threads=2
        )
        assert np.array_equal(serial.labels, pooled.labels)
        assert serial.legend == pooled.legend


class TestReferenceRowLabels:
    def test_six_distinct_nonzero_labels_at_fine_resolution(
        self, quantum_scan_results
    ):
        # scanning the reference delay scale finely yields six distinct
        # distinguishable signature pairs (three sign-transition windows
        # per transition band, mirrored across the two bands)
        nonzero_pairs = {
            (sig_l, sig_r)
            for sig_l, sig_r, _, dist in quantum_scan_results.values()
            if dist
        }
        assert len(nonzero_pairs) >= 6


class TestDefaultSweepProperties:
    def test_nonzero_labels_form_contiguous_regions(self, default_sweep):
        # every nonzero label owns at least one axis-connected region of
        # two or more cells at the default sweep resolution
        labels = default_sweep.labels
        for label in default_sweep.legend:
            cells = {
                (i, j)
                for i in range(labels.shape[0])
                for j in range(labels.shape[1])
                if labels[i, j] == label
            }
            assert cells
            has_neighbor = any(
                (i + 1, j) in cells or (i, j + 1) in cells for i, j in cells
            )
            assert has_neighbor, f"label {label} never spans two adjacent cells"

    def test_low_t0_rows_classical_like(self, default_sweep):
        assert np.all(default_sweep.labels[0] == 0)
