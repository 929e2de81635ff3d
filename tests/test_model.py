"""Tests of the driven-triad model: Hamiltonian, dressed states, perturbation."""

import numpy as np
import pytest

from chirospec.errors import ValidationError
from chirospec.model import (
    Chirality,
    DressedTriad,
    DriveConfig,
    HermitianTriad,
    NoiseParams,
    build_rotating_hamiltonian,
    characteristic_invariants,
    dressed_states,
)
from perturbative import DetuningTooSmall, max_coupling, perturbative_lambda1


def cubic_eigenvalues_oracle(h: np.ndarray) -> np.ndarray:
    """Roots of the characteristic cubic, independently of the eigensolver."""
    trace = np.trace(h).real
    pair = sum(
        (h[a, a] * h[b, b] - h[a, b] * h[b, a]).real
        for a in range(3)
        for b in range(a + 1, 3)
    )
    det = np.linalg.det(h).real
    roots = np.roots([1.0, -trace, pair, -det])
    return np.sort(roots.real)


def block_weight_oracle(h: np.ndarray, lam: float, lambdas: np.ndarray) -> float:
    """<1|P|1> for the spectral projector onto eigenvalue lam.

    Uses the resolvent product formula P = prod_{mu != lam} (H - mu) / (lam - mu)
    over the distinct eigenvalues, so it never touches eigenvectors.
    """
    distinct = []
    for mu in lambdas:
        if abs(mu - lam) > 1e-8 and all(abs(mu - d) > 1e-8 for d in distinct):
            distinct.append(mu)
    p = np.eye(3, dtype=complex)
    for mu in distinct:
        p = p @ (h - mu * np.eye(3)) / (lam - mu)
    return float(p[0, 0].real)


def random_config(rng, chirality=Chirality.RIGHT, zero_coupling=None):
    omegas = rng.uniform(0.02, 0.5, size=3)
    if zero_coupling is not None:
        omegas[zero_coupling] = 0.0
    return DriveConfig(
        omega21=omegas[0],
        omega31=omegas[1],
        omega32=omegas[2],
        delta21=rng.uniform(-2.0, 2.0),
        delta31=rng.uniform(-2.0, 2.0),
        chirality=chirality,
    )


RESONANT_RIGHT = DriveConfig(0.1, 0.1, 0.1, 0.0, 0.0, Chirality.RIGHT)


class TestChirality:
    def test_two_values(self):
        assert len(Chirality) == 2

    def test_mirror_involution(self):
        for c in Chirality:
            assert c.mirror().mirror() is c
            assert c.mirror() is not c


class TestHermitianTriad:
    def test_rejects_non_hermitian(self):
        # the one check: dressed_states and characteristic_invariants rely on it
        m = np.diag([1.0, 2.0, 3.0]).astype(complex)
        m[0, 1] = 1e-13  # within HERMITICITY_TOL
        assert HermitianTriad(m).matrix[0, 1] == 1e-13
        m[0, 1] = 1.0
        with pytest.raises(ValidationError, match=r"deviates from Hermitian by 1\.000e\+00"):
            HermitianTriad(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError, match="3x3"):
            HermitianTriad(np.eye(2, dtype=complex))

    def test_non_hermitian_input_is_a_validation_error(self):
        # every rejected parameter is a ValidationError, and so a ValueError
        with pytest.raises(ValueError, match="deviates from Hermitian"):
            HermitianTriad(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
        # a NaN defect compares false with the tolerance, and inf - inf warns:
        # non-finite entries are rejected before the defect is formed
        for index, value in (((0, 1), np.nan), ((1, 1), np.inf), ((2, 0), complex(0, -np.inf))):
            m = np.eye(3, dtype=complex)
            m[index] = value
            with pytest.raises(ValueError, match=r"^triad matrix entries must be finite$"):
                HermitianTriad(m)


class TestDressedTriad:
    @pytest.mark.parametrize(
        "lambdas, eta1", [([0.0, 1.0], [1.0, 0.0, 0.0]), ([0.0, 1.0, 2.0], [1.0, 0.0])]
    )
    def test_rejects_wrong_shape(self, lambdas, eta1):
        with pytest.raises(ValidationError, match="3 eigenvalues and 3 overlaps"):
            DressedTriad(lambdas, eta1, Chirality.RIGHT)

    @pytest.mark.parametrize(
        "lambdas, eta1, line",
        [
            ([-1.0, 0.0, 1.0], [0.5, 0.8, 0.3], 1),
            ([-0.1, -0.1, 0.2], [0.6, 0.6, 0.5], 0),  # a tie inside one degenerate block
            ([-0.1, -0.1 + 2e-9, 0.2], [0.6, 0.6, 0.5], None),  # energies apart by 2e-9
            ([-0.1, 0.1, 0.2], [0.6, 0.6 - 5e-10, 0.5], None),  # weights apart by 6e-10
            ([-0.1, 0.1, 0.2], [0.6, 0.6 - 2e-9, 0.5], 0),  # weights apart by 2.4e-9
            ([1.7e308, -1.7e308, 0.0], [0.6, 0.6, 0.5], None),  # a gap past the float range
        ],
    )
    def test_dominant_line(self, lambdas, eta1, line):
        assert DressedTriad(lambdas, eta1, Chirality.RIGHT).dominant_line() == line


class TestBuildRotatingHamiltonian:
    def test_no_drive_limit(self):
        h = build_rotating_hamiltonian(DriveConfig(0, 0, 0, 2.0, 5.0))
        assert np.allclose(h.matrix, np.diag([0.0, 2.0, 5.0]))

    def test_resonant_right(self):
        h = build_rotating_hamiltonian(RESONANT_RIGHT)
        expected = 0.1 * (np.ones((3, 3)) - np.eye(3))
        assert np.allclose(h.matrix, expected)

    def test_resonant_left_flips_omega31(self):
        h = build_rotating_hamiltonian(RESONANT_RIGHT.mirror())
        m = h.matrix
        assert m[1, 0] == 0.1 and m[2, 1] == 0.1
        assert m[2, 0] == -0.1 and m[0, 2] == -0.1
        assert np.allclose(np.diag(m), 0.0)

    def test_mirror_keeps_stored_value(self):
        cfg = RESONANT_RIGHT.mirror()
        assert cfg.omega31 == 0.1
        assert build_rotating_hamiltonian(cfg).matrix[2, 0] == -0.1

    def test_always_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = build_rotating_hamiltonian(random_config(rng))
            assert np.max(np.abs(h.matrix - h.matrix.conj().T)) <= 1e-12

    def test_complex_couplings_hermitian(self):
        cfg = DriveConfig(0.1 + 0.05j, 0.2 - 0.1j, 0.07j, 0.5, -0.3)
        h = build_rotating_hamiltonian(cfg)
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) <= 1e-12


class TestDressedStates:
    def test_no_drive(self):
        d = dressed_states(
            build_rotating_hamiltonian(DriveConfig(0, 0, 0, 2.0, 5.0)),
            Chirality.RIGHT,
        )
        assert np.allclose(d.lambdas, [0.0, 2.0, 5.0])
        assert np.allclose(d.eta1, [1.0, 0.0, 0.0])

    def test_resonant_right_against_cubic_oracle(self):
        h = build_rotating_hamiltonian(RESONANT_RIGHT)
        d = dressed_states(h, Chirality.RIGHT)
        oracle = cubic_eigenvalues_oracle(h.matrix)
        assert np.allclose(d.lambdas, oracle, atol=1e-10)
        assert np.allclose(d.lambdas, [-0.1, -0.1, 0.2], atol=1e-10)
        # |1> projection: 2/3 on the degenerate block, 1/3 on the singlet
        block = d.eta1_sq[0] + d.eta1_sq[1]
        assert abs(block - 2.0 / 3.0) < 1e-10
        assert abs(d.eta1_sq[2] - 1.0 / 3.0) < 1e-10
        assert abs(block - block_weight_oracle(h.matrix, -0.1, oracle)) < 1e-9

    def test_resonant_left_spectrum_negated(self):
        h = build_rotating_hamiltonian(RESONANT_RIGHT.mirror())
        d = dressed_states(h, Chirality.LEFT)
        assert np.allclose(d.lambdas, [-0.2, 0.1, 0.1], atol=1e-10)
        assert np.allclose(d.lambdas, cubic_eigenvalues_oracle(h.matrix), atol=1e-10)

    def test_rejects_non_hermitian(self):
        # the triad's constructor raises, so the matrix never reaches the solver
        with pytest.raises(ValidationError, match="deviates from Hermitian"):
            dressed_states(
                HermitianTriad(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)),
                Chirality.RIGHT,
            )

    def test_completeness_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            re = rng.normal(size=(3, 3))
            im = rng.normal(size=(3, 3))
            m = re + 1j * im
            h = HermitianTriad((m + m.conj().T) / 2.0)
            d = dressed_states(h, Chirality.RIGHT)
            assert abs(np.sum(d.eta1_sq) - 1.0) <= 1e-10

    def test_eigen_residual_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cfg = random_config(rng)
            h = build_rotating_hamiltonian(cfg)
            lam, vecs = np.linalg.eigh(h.matrix)
            d = dressed_states(h, cfg.chirality)
            assert np.allclose(d.lambdas, lam)
            for i in range(3):
                residual = h.matrix @ vecs[:, i] - lam[i] * vecs[:, i]
                assert np.linalg.norm(residual) <= 1e-10

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            cfg = random_config(rng)
            d = dressed_states(build_rotating_hamiltonian(cfg), cfg.chirality)
            assert abs(np.sum(d.lambdas) - (cfg.delta21 + cfg.delta31)) <= 1e-10

    def test_gauge_deterministic(self):
        h = build_rotating_hamiltonian(RESONANT_RIGHT)
        d1 = dressed_states(h, Chirality.RIGHT)
        d2 = dressed_states(h, Chirality.RIGHT)
        assert np.array_equal(d1.eta1, d2.eta1)

    def test_fully_degenerate_even_split(self):
        h = build_rotating_hamiltonian(DriveConfig(0, 0, 0, 0.0, 0.0))
        d = dressed_states(h, Chirality.RIGHT)
        assert np.allclose(d.lambdas, 0.0)
        assert np.allclose(d.eta1_sq, 1.0 / 3.0)


class TestCharacteristicInvariants:
    def test_resonant_right(self):
        h = build_rotating_hamiltonian(RESONANT_RIGHT)
        trace, pair, det = characteristic_invariants(h)
        assert abs(trace) < 1e-14
        assert abs(pair - (-0.03)) < 1e-14
        assert abs(det - 0.002) < 1e-14

    def test_resonant_left_det_negated(self):
        h = build_rotating_hamiltonian(RESONANT_RIGHT.mirror())
        trace, pair, det = characteristic_invariants(h)
        assert abs(trace) < 1e-14
        assert abs(pair - (-0.03)) < 1e-14
        assert abs(det - (-0.002)) < 1e-14

    def test_no_drive(self):
        h = build_rotating_hamiltonian(DriveConfig(0, 0, 0, 2.0, 5.0))
        assert characteristic_invariants(h) == (7.0, 10.0, 0.0)

    def test_rejects_non_hermitian(self):
        # the triad's constructor raises, so the matrix never reaches the invariants
        with pytest.raises(ValidationError, match="deviates from Hermitian"):
            characteristic_invariants(
                HermitianTriad(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
            )

    def test_matches_eigenvalue_products(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            cfg = random_config(rng)
            h = build_rotating_hamiltonian(cfg)
            trace, pair, det = characteristic_invariants(h)
            lam = np.linalg.eigvalsh(h.matrix)
            assert abs(trace - lam.sum()) < 1e-10
            assert abs(pair - (lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2])) < 1e-10
            assert abs(det - lam.prod()) < 1e-10

    def test_chirality_invariance_of_trace_and_pair(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            cfg = random_config(rng)
            tr_r, pair_r, _ = characteristic_invariants(build_rotating_hamiltonian(cfg))
            tr_l, pair_l, _ = characteristic_invariants(
                build_rotating_hamiltonian(cfg.mirror())
            )
            assert abs(tr_r - tr_l) <= 1e-12
            assert abs(pair_r - pair_l) <= 1e-12

    def test_det_flip_on_resonance(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            om = rng.uniform(0.02, 0.5, size=3)
            cfg = DriveConfig(om[0], om[1], om[2], 0.0, 0.0, Chirality.RIGHT)
            _, _, det_r = characteristic_invariants(build_rotating_hamiltonian(cfg))
            _, _, det_l = characteristic_invariants(
                build_rotating_hamiltonian(cfg.mirror())
            )
            assert abs(det_l + det_r) <= 1e-12


class TestChiralityNullEquivalence:
    def test_one_zero_coupling_same_spectrum(self):
        rng = np.random.default_rng(31)
        for trial in range(120):
            cfg = random_config(rng, zero_coupling=trial % 3)
            d_r = dressed_states(build_rotating_hamiltonian(cfg), Chirality.RIGHT)
            d_l = dressed_states(
                build_rotating_hamiltonian(cfg.mirror()), Chirality.LEFT
            )
            assert np.allclose(d_r.lambdas, d_l.lambdas, atol=1e-12, rtol=0)
            assert np.allclose(d_r.eta1_sq, d_l.eta1_sq, atol=1e-12, rtol=0)


class TestPerturbativeLambda1:
    def test_zero_coupling(self):
        cfg = DriveConfig(0, 0, 0, 10.0, 10.0)
        assert perturbative_lambda1(cfg, 10.0) == 0.0

    def test_matches_exact_for_both_enantiomers(self):
        for chirality in Chirality:
            cfg = DriveConfig(0.1, 0.1, 0.1, 10.0, 10.0, chirality)
            pert = perturbative_lambda1(cfg, 10.0)
            d = dressed_states(build_rotating_hamiltonian(cfg), chirality)
            exact = d.lambdas[np.argmin(np.abs(d.lambdas))]
            assert abs(pert - exact) < 1e-5

    def test_chirality_splitting_scale(self):
        right = DriveConfig(0.1, 0.1, 0.1, 10.0, 10.0, Chirality.RIGHT)
        split = perturbative_lambda1(right, 10.0) - perturbative_lambda1(
            right.mirror(), 10.0
        )
        # leading chirality term is 2*W21*W32*W31/D^2 per enantiomer
        assert abs(split - 4.0 * 0.1**3 / 10.0**2) < 1e-12

    def test_chirality_null_when_omega31_zero(self):
        cfg = DriveConfig(0.2, 0.0, 0.15, 10.0, 10.0, Chirality.RIGHT)
        assert perturbative_lambda1(cfg, 10.0) == perturbative_lambda1(
            cfg.mirror(), 10.0
        )

    def test_rejects_small_detuning(self):
        cfg = DriveConfig(0.3, 0.3, 0.3, 2.0, 2.0)
        with pytest.raises(DetuningTooSmall):
            perturbative_lambda1(cfg, 2.0)

    def test_rejects_mismatched_detunings(self):
        cfg = DriveConfig(0.1, 0.1, 0.1, 10.0, 9.0)
        with pytest.raises(ValueError):
            perturbative_lambda1(cfg, 10.0)

    def test_error_scaling_over_detuning_grid(self):
        rng = np.random.default_rng(37)
        bound_constant = 20.0
        for d in (10.0, 30.0, 100.0):
            for _ in range(20):
                om = rng.uniform(0.05, 0.4, size=3)
                cfg = DriveConfig(om[0], om[1], om[2], d, d, Chirality.RIGHT)
                pert = perturbative_lambda1(cfg, d)
                dressed = dressed_states(build_rotating_hamiltonian(cfg), cfg.chirality)
                exact = dressed.lambdas[np.argmin(np.abs(dressed.lambdas))]
                bound = bound_constant * max_coupling(cfg)**4 / d**3
                assert abs(pert - exact) <= bound


class TestNoiseParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseParams(0.0)
        with pytest.raises(ValueError):
            NoiseParams(-1.0)

    def test_default_unit(self):
        assert NoiseParams().gamma == 1.0
