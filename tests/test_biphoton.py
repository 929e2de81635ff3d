"""Tests of the joint-spectral-amplitude builders and sampling grids."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirospec.biphoton import (
    MAX_GRID_POINTS,
    MIN_GRID_INTERVALS,
    BiphotonAmplitude,
    FrequencyGrid,
    default_grid,
    jsa_value,
)
from chirospec.errors import ValidationError
from chirospec.model import Chirality, DressedTriad, DriveConfig, NoiseParams, dressed_pair
from chirospec.spectrum import DetectorPair, transmission_point, zero_bandwidth_point

ENTANGLED_DELAYS = dict(sigma_p=1.0, t_s=24.0, t_l=25.0)
EPS = np.finfo(float).eps


def sample_point(amp, grid, gamma=1.0):
    """``transmission_point`` at the amplitude's centers: it samples a JSA row on ``grid``."""
    dressed = dressed_pair(DriveConfig())[1]
    return transmission_point(
        dressed, amp, NoiseParams(gamma), DetectorPair(amp.omega_sc, amp.omega_lc), grid
    )


@st.composite
def grid_requests(draw, step_ratios):
    """(center, half_width, max_step), max_step a drawn fraction of half_width."""
    half_width = draw(st.floats(1e-3, 1e3))
    return draw(st.floats(-100.0, 100.0)), half_width, draw(step_ratios) * half_width


class TestJsaValue:
    def test_entangled_peak_is_one(self):
        amp = BiphotonAmplitude.entangled(omega_sc=0.3, omega_lc=-0.2, **ENTANGLED_DELAYS)
        assert jsa_value(amp, 0.3, -0.2) == pytest.approx(1.0, abs=1e-15)

    def test_uncorrelated_one_sigma(self):
        amp = BiphotonAmplitude.uncorrelated(omega_sc=0.0, omega_lc=0.0, sigma=1.0)
        assert jsa_value(amp, 1.0, 0.0) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_entangled_on_phase_matching_ridge(self):
        # kappa = 0.05*12 + (-0.048)*12.5 = 0; pump factor exp(-(0.002)^2/2)
        amp = BiphotonAmplitude.entangled(**ENTANGLED_DELAYS)
        value = jsa_value(amp, 0.05, -0.048)
        assert abs(value - 1.0) < 1e-5
        assert value == pytest.approx(math.exp(-(0.002**2) / 2.0), abs=1e-15)

    def test_energy_matching_default(self):
        amp = BiphotonAmplitude.entangled(omega_sc=1.5, omega_lc=-0.5, **ENTANGLED_DELAYS)
        assert amp.omega_p == 1.0

    def test_pump_override(self):
        amp = BiphotonAmplitude.entangled(omega_p=3.0, **ENTANGLED_DELAYS)
        assert amp.omega_p == 3.0

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(5)
        amps = [
            BiphotonAmplitude.uncorrelated(sigma=0.7),
            BiphotonAmplitude.entangled(**ENTANGLED_DELAYS),
        ]
        for amp in amps:
            ws = rng.uniform(-8, 8, size=500)
            wl = rng.uniform(-8, 8, size=500)
            assert np.all(np.abs(jsa_value(amp, ws, wl)) <= 1.0 + 1e-15)

    def test_monotone_decay_along_rays_from_center(self):
        rng = np.random.default_rng(9)
        for amp in (
            BiphotonAmplitude.uncorrelated(sigma=1.3),
            BiphotonAmplitude.entangled(**ENTANGLED_DELAYS),
        ):
            for _ in range(40):
                direction = rng.normal(size=2)
                ts = np.linspace(0.0, 4.0, 60)
                vals = np.abs(
                    jsa_value(
                        amp,
                        amp.omega_sc + ts * direction[0],
                        amp.omega_lc + ts * direction[1],
                    )
                )
                assert np.all(np.diff(vals) <= 1e-15)

    def test_anticorrelation_ridge_invariance(self):
        # equal delays + energy matching: psi depends on ws+wl only
        amp = BiphotonAmplitude.entangled(sigma_p=0.5, t_s=10.0, t_l=10.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            ws, wl, d = rng.uniform(-2, 2, size=3)
            a = jsa_value(amp, ws, wl)
            b = jsa_value(amp, ws + d, wl - d)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            BiphotonAmplitude.uncorrelated(sigma=0.0)
        with pytest.raises(ValueError):
            BiphotonAmplitude.entangled(sigma_p=-1.0)
        with pytest.raises(ValueError):
            BiphotonAmplitude.entangled(t_s=-0.1)

    @pytest.mark.parametrize(
        "name",
        ["omega_sc", "omega_lc", "sigma", "omega_p", "sigma_p", "t_s", "t_l", "scale"],
    )
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields(self, name, bad):
        amp = BiphotonAmplitude.entangled(**ENTANGLED_DELAYS)
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            dataclasses.replace(amp, **{name: bad})

    def test_energy_matched_pump_must_be_finite(self):
        with pytest.raises(ValidationError, match="omega_p must be finite"):
            BiphotonAmplitude.entangled(omega_sc=1.0e308, omega_lc=1.0e308)


class TestFrequencyGrid:
    def test_build_inclusive_endpoints(self):
        g = FrequencyGrid.build(1.0, 2.0, 0.1)
        assert g.points[0] == pytest.approx(-1.0)
        assert g.points[-1] == pytest.approx(3.0)
        assert g.step <= 0.1
        assert np.allclose(np.diff(g.points), g.step)

    @settings(max_examples=300, deadline=None)
    @given(grid_requests(st.floats(0.05, 10.0)))
    @example((0.0, 453.5449394009724, 100.0))
    @example((0.0, 1.0, 10.0))
    def test_halfwidth_at_least_five_steps(self, request):
        # requests coarser than half_width / 5 get the fewest intervals allowed
        g = FrequencyGrid.build(*request)
        assert g.points.size - 1 >= 10
        assert g.half_width >= 5.0 * g.step * (1.0 - 2.0 * EPS)

    @settings(max_examples=300, deadline=None)
    @given(grid_requests(st.floats(1e-4, 1.0)))
    @example((0.0, 4.285648559183021, 0.002274590264191574))
    @example((0.0, 6.0, 0.05))
    @example((100.0, 1e-3, 1e-7))  # the finest and farthest off-centre request drawn
    @example((-100.0, 1e-3, 1e-7))
    def test_halved_step_preserves_points(self, request):
        g = FrequencyGrid.build(*request)
        h = g.halved_step()
        assert h.points.size == 2 * (g.points.size - 1) + 1
        assert np.array_equal(h.points[::2], g.points)
        assert h.step == g.step / 2.0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FrequencyGrid.build(0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            FrequencyGrid.build(0.0, 1.0, -0.5)
        with pytest.raises(ValidationError, match=str(MAX_GRID_POINTS)):
            FrequencyGrid.build(0.0, 1.0e308, 1.0e307)  # an interval count of inf

    def test_equality_and_hash_follow_the_parameters(self):
        g = FrequencyGrid.build(0.0, 1.0, 0.1)
        assert g == FrequencyGrid.build(0.0, 1.0, 0.1)
        assert hash(g) == hash(FrequencyGrid.build(0.0, 1.0, 0.1))
        assert g != FrequencyGrid.build(0.0, 1.0, 0.05)
        assert g != g.halved_step()
        assert len({g, FrequencyGrid.build(0.0, 1.0, 0.1), g.halved_step()}) == 2

    @settings(max_examples=300, deadline=None)
    @given(grid_requests(st.floats(1e-4, 1.0)))
    def test_equal_fields_give_equal_hashes_and_points(self, request):
        g = FrequencyGrid.build(*request)
        twin = FrequencyGrid(g.center, g.half_width, g.intervals)
        assert twin == g and hash(twin) == hash(g)
        assert twin.points.tobytes() == g.points.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(grid_requests(st.floats(1e-4, 1.0)))
    @example((0.0, 6.2, 0.002))  # the shipped entangled scan
    @example((0.0, 6.2, 0.05))
    def test_build_samples_the_linspace_formula(self, request):
        # the formula the scan grid has always used, so the output bytes
        center, half_width, max_step = request
        n = max(MIN_GRID_INTERVALS, math.ceil(2.0 * half_width / max_step))
        g = FrequencyGrid.build(center, half_width, max_step)
        assert g.intervals == n and g.step == 2.0 * half_width / n
        expected = center + np.linspace(-half_width, half_width, n + 1)
        assert g.points.tobytes() == expected.tobytes()

    def test_step_and_points_are_derived_and_read_only(self):
        g = FrequencyGrid(0.0, 1.0, 20)
        init = [f.name for f in dataclasses.fields(FrequencyGrid) if f.init]
        assert init == ["center", "half_width", "intervals"]
        for derived in ("step", "points"):
            with pytest.raises(TypeError):
                FrequencyGrid(0.0, 1.0, 20, **{derived: getattr(g, derived)})
        with pytest.raises(TypeError):  # the old (center, half_width, step, points) form
            FrequencyGrid(g.center, g.half_width, g.step, g.points + 100.0)
        with pytest.raises(ValueError):
            g.points[0] = 1.0
        data = pickle.dumps(g)
        assert len(data) < 200  # the three fields, not the 21 points
        for twin in (pickle.loads(data), copy.deepcopy(g)):
            assert twin == g and twin.points.tobytes() == g.points.tobytes()
            assert not twin.points.flags.writeable

    @pytest.mark.parametrize(
        "center, half_width, intervals",
        [
            (0.0, 1.0, 10.5),
            (0.0, 1.0, True),
            (0.0, 1.0, MIN_GRID_INTERVALS - 1),
            (0.0, 1.0, MAX_GRID_POINTS),
            (math.inf, 1.0, 20),
            (math.nan, 1.0, 20),
            (0.0, math.inf, 20),
            (0.0, math.nan, 20),
            (0.0, -1.0, 20),
            (0.0, 1.0e308, 20),
            (1.7e308, 1.0e307, 20),  # center + half_width overflows
        ],
    )
    def test_bad_fields_are_rejected_before_allocation(
        self, monkeypatch, center, half_width, intervals
    ):
        # pyproject turns RuntimeWarning into an error, so none may be raised either
        def no_allocation(*args, **kwargs):
            raise AssertionError("points allocated for a rejected grid")

        monkeypatch.setattr(np, "linspace", no_allocation)
        with pytest.raises(ValidationError):
            FrequencyGrid(center, half_width, intervals)

    @pytest.mark.parametrize(
        "grid_request", [(1000.0, 1e-13, 1e-14), (1.0, 1e-14, 1e-15), (0.5, 2e-15, 1e-16)]
    )
    def test_collapsed_points_are_rejected(self, grid_request):
        # steps near the spacing of doubles at the center round to unequal gaps
        with pytest.raises(ValidationError, match="not uniform"):
            FrequencyGrid.build(*grid_request)


def jsa_table(amp, grid_s, grid_l):
    """The amplitude on grid_s x grid_l, by broadcasting jsa_value."""
    return jsa_value(amp, grid_s.points[:, None], grid_l.points[None, :])


class TestJsaGrid:
    def test_uncorrelated_separability(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        gs = FrequencyGrid.build(0.0, 3.0, 0.1)
        gl = FrequencyGrid.build(0.0, 3.0, 0.1)
        t = jsa_table(amp, gs, gl)
        rng = np.random.default_rng(1)
        idx = rng.integers(0, gs.points.size, size=(40, 2))
        jdx = rng.integers(0, gl.points.size, size=(40, 2))
        for (i, i2), (j, j2) in zip(idx, jdx):
            lhs = t[i, j] * t[i2, j2]
            rhs = t[i, j2] * t[i2, j]
            assert abs(lhs - rhs) <= 1e-10

    def test_entangled_fails_separability(self):
        amp = BiphotonAmplitude.entangled(**ENTANGLED_DELAYS)
        gs = FrequencyGrid.build(0.0, 0.1, 0.002)
        gl = FrequencyGrid.build(0.0, 0.1, 0.002)
        t = jsa_table(amp, gs, gl)
        n = gs.points.size
        residual = 0.0
        for i, j in ((0, 0), (0, n // 2), (n // 2, 0), (n // 4, n // 4)):
            lhs = t[i, j] * t[n - 1 - i, n - 1 - j]
            rhs = t[i, n - 1 - j] * t[n - 1 - i, j]
            residual = max(residual, abs(lhs - rhs))
        assert residual > 1e-3

    def test_entangled_constant_along_sum_lines(self):
        amp = BiphotonAmplitude.entangled(sigma_p=0.8, t_s=5.0, t_l=5.0)
        gs = FrequencyGrid.build(0.0, 2.0, 0.02)
        gl = FrequencyGrid.build(0.0, 2.0, 0.02)
        t = jsa_table(amp, gs, gl)
        for i in range(0, gs.points.size - 1, 7):
            assert t[i, i + 1] == pytest.approx(t[i + 1, i], rel=1e-12)

    def test_grid_too_coarse(self):
        amp = BiphotonAmplitude.entangled(**ENTANGLED_DELAYS)
        gs = FrequencyGrid.build(0.0, 4.0, 0.05)  # phase-mismatch needs ~0.004
        with pytest.raises(ValidationError, match="needed to resolve the amplitude"):
            sample_point(amp, gs)


class TestDefaultGrid:
    def test_uncorrelated_working_point(self):
        amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
        gs = default_grid(amp, 1.0, lambdas=(-0.2, 0.2))
        # 6*max(sigma, gamma) = 6 extended to cover |lambda|max + 6*gamma
        assert gs.half_width == pytest.approx(6.2)
        assert gs.step == pytest.approx(0.05, rel=1e-9)

    def test_entangled_step_resolves_delays(self):
        amp = BiphotonAmplitude.entangled(**ENTANGLED_DELAYS)
        gs = default_grid(amp, 1.0)
        assert gs.step <= (1.0 / 24.0) / 20.0 + 1e-12

    def test_pump_only_step(self):
        amp = BiphotonAmplitude.entangled(sigma_p=0.5, t_s=0.0, t_l=0.0)
        gs = default_grid(amp, 1.0)
        assert gs.step == pytest.approx(0.5 / 20.0, rel=1e-9)

    def test_centers(self):
        amp = BiphotonAmplitude.entangled(omega_sc=1.0, omega_lc=-2.0, **ENTANGLED_DELAYS)
        assert default_grid(amp, 1.0).center == 1.0

    def test_resolves_own_amplitude(self):
        for amp in (
            BiphotonAmplitude.uncorrelated(sigma=0.3),
            BiphotonAmplitude.entangled(sigma_p=0.1, t_s=36.0, t_l=37.5),
        ):
            sample_point(amp, default_grid(amp, 1.0))  # must not raise

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 100.0])
    def test_any_gamma_gives_a_grid_that_passes_the_check(self, gamma):
        # a default grid resolves gamma and the width the check asks for, capped at 1
        for amp in (
            BiphotonAmplitude.uncorrelated(sigma=50.0),
            BiphotonAmplitude.entangled(sigma_p=30.0, t_s=0.02, t_l=0.02),
            BiphotonAmplitude.entangled(**ENTANGLED_DELAYS),
        ):
            grid = default_grid(amp, gamma)
            sample_point(amp, grid, gamma)  # must not raise
            assert grid.step <= min(gamma, 1.0, *amp.feature_widths()) / 20.0


class TestZeroBandwidthEnvelope:
    def test_default_gaussian(self):
        # with the dominant line at dpl and gamma = 1 the spectrum is phi(dpl)^2
        for dpl, phi in ((0.0, 1.0), (2.0, math.exp(-0.5))):
            dressed = DressedTriad([dpl, 5.0, 6.0], [1.0, 0.0, 0.0], Chirality.RIGHT)
            value = zero_bandwidth_point(dressed, NoiseParams(1.0), dpl, 2.0)
            assert value == pytest.approx(phi**2)
