"""Rotating-frame model of the driven cyclic three-level triad.

The three excited states |1>, |2>, |3> of a chiral molecule are coupled
pairwise by three classical drives under three-photon resonance
(v31 = v21 + v32).  In the co-rotating frame the drive block becomes the
time-independent Hermitian matrix

    H = [[0,    W21*, W31*],
         [W21,  d21,  W32*],
         [W31,  W32,  d31 ]]

in the basis (|1>, |2>, |3>), with detunings d_ij = (w_i - w_j) - v_ij.
The two enantiomers differ only in the sign of the 3-1 coupling: the
right-handed molecule uses +omega31, the left-handed one -omega31.  All
energies are expressed in units of the dissipation rate gamma.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteResult, ValidationError

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-9


class Chirality(enum.Enum):
    """Handedness tag of an enantiomer."""

    LEFT = "L"
    RIGHT = "R"

    def mirror(self) -> "Chirality":
        return Chirality.LEFT if self is Chirality.RIGHT else Chirality.RIGHT


@dataclass(frozen=True)
class DriveConfig:
    """Drive couplings and detunings of the cyclic triad.

    omega31 always stores the right-handed value; the sign actually used
    in the Hamiltonian is resolved from ``chirality``.  Couplings may be
    complex, detunings are real.  Units of gamma throughout.
    """

    omega21: complex = 0.1
    omega31: complex = 0.1
    omega32: complex = 0.1
    delta21: float = 0.0
    delta31: float = 0.0
    chirality: Chirality = Chirality.RIGHT

    def __post_init__(self):
        for name in ("omega21", "omega31", "omega32"):
            if not np.isfinite(complex(getattr(self, name))):
                raise ValidationError(f"{name} must be finite")
        for name in ("delta21", "delta31"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValidationError(f"{name} must be finite")

    def mirror(self) -> "DriveConfig":
        """Same molecule, opposite handedness (stored couplings unchanged)."""
        return replace(self, chirality=self.chirality.mirror())


@dataclass(frozen=True)
class HermitianTriad:
    """3x3 complex matrix in the basis (|1>, |2>, |3>), Hermitian within HERMITICITY_TOL.

    Construction raises ValidationError for a non-finite entry or a
    matrix that is not Hermitian.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValidationError("triad matrix must be 3x3")
        if not np.all(np.isfinite(m)):  # before the defect: inf - inf would warn
            raise ValidationError("triad matrix entries must be finite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        defect = float(np.max(np.abs(m - m.conj().T)))  # max-entry deviation from H^dagger
        if defect > HERMITICITY_TOL:
            raise ValidationError(f"matrix deviates from Hermitian by {defect:.3e}")


@dataclass(frozen=True)
class DressedTriad:
    """Dressed states of the driven triad.

    lambdas are the eigenvalues sorted ascending; eta1[i] is the overlap
    <1|lambda_i> of the i-th dressed state with the probe-coupled state.
    Within a degenerate eigenvalue block the squared overlaps are the
    block projection of |1> split evenly among its members.
    """

    lambdas: np.ndarray
    eta1: np.ndarray
    chirality: Chirality

    def __post_init__(self):
        for name, dtype in (("lambdas", float), ("eta1", complex)):
            array = np.array(getattr(self, name), dtype=dtype)  # a read-only copy
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.lambdas.shape != (3,) or self.eta1.shape != (3,):
            raise ValidationError("dressed triad needs 3 eigenvalues and 3 overlaps")

    def __reduce__(self):  # rerun the constructor: a pickle or copy stays read-only
        return DressedTriad, (self.lambdas, self.eta1, self.chirality)

    @property
    def eta1_sq(self) -> np.ndarray:
        return np.abs(self.eta1) ** 2

    def dominant_line(self) -> int | None:
        """Index of the line with the largest |eta_1|^2; None if that line is ambiguous.

        It is ambiguous when another line's weight lies within DEGENERACY_TOL
        of the top weight while its energy differs by more than DEGENERACY_TOL.
        Lines of one degenerate block share their weight and their energy.
        """
        weights = self.eta1_sq
        top = int(np.argmax(weights))
        with np.errstate(over="ignore"):  # an energy gap past the float range is inf: no tie
            gaps = np.abs(self.lambdas - self.lambdas[top])
        rivals = (weights[top] - weights <= DEGENERACY_TOL) & (gaps > DEGENERACY_TOL)
        return None if rivals.any() else top


@dataclass(frozen=True)
class NoiseParams:
    """Uniform dissipation rate gamma (> 0) that fixes the unit scale."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError("gamma > 0")


def build_rotating_hamiltonian(cfg: DriveConfig) -> HermitianTriad:
    """Assemble the rotating-frame triad Hamiltonian for one enantiomer."""
    w21 = complex(cfg.omega21)
    w31 = complex(cfg.omega31 if cfg.chirality is Chirality.RIGHT else -cfg.omega31)
    w32 = complex(cfg.omega32)
    h = np.array(
        [
            [0.0, np.conj(w21), np.conj(w31)],
            [w21, cfg.delta21, np.conj(w32)],
            [w31, w32, cfg.delta31],
        ],
        dtype=complex,
    )
    return HermitianTriad(h)


def _gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate a unit vector's global phase so its largest component is real positive.

    That component is at least 1/sqrt(3) in modulus, so it is never 0.
    """
    pivot = vec[int(np.argmax(np.abs(vec)))]
    return vec / (pivot / abs(pivot))


def dressed_states(h: HermitianTriad, chirality: Chirality) -> DressedTriad:
    """Diagonalize the triad and report eigenvalues + overlaps with |1>.

    ``h`` is Hermitian by construction.  Raises NonFiniteResult if an
    eigenvalue overflows.  Eigenvalues come out sorted ascending; each
    eigenvector is gauge fixed (largest component real positive).
    Degenerate blocks (eigenvalues within DEGENERACY_TOL) report the evenly
    split block projection of |1>, which is the only gauge-independent content.
    """
    lam, vecs = np.linalg.eigh(h.matrix)
    if not np.all(np.isfinite(lam)):
        raise NonFiniteResult("dressed energies overflow")
    eta = np.empty(3, dtype=complex)
    for i in range(3):
        eta[i] = _gauge_fix(vecs[:, i])[0]

    # Even split of the |1> projection inside each degenerate block.
    lam, i = lam.tolist(), 0  # Python floats: a gap past the float range is inf, with no warning
    while i < 3:
        j = i + 1
        while j < 3 and lam[j] - lam[i] <= DEGENERACY_TOL:
            j += 1
        if j - i > 1:
            weight = float(np.sum(np.abs(vecs[0, i:j]) ** 2))
            eta[i:j] = math.sqrt(weight / (j - i))
        i = j

    return DressedTriad(lambdas=lam, eta1=eta, chirality=chirality)


@functools.lru_cache(maxsize=1)
def dressed_pair(cfg: DriveConfig) -> tuple[DressedTriad, DressedTriad]:
    """Dressed states of both enantiomers of one drive; the last drive's pair is cached."""
    return tuple(
        dressed_states(build_rotating_hamiltonian(replace(cfg, chirality=c)), c)
        for c in (Chirality.LEFT, Chirality.RIGHT)
    )


def characteristic_invariants(h: HermitianTriad) -> tuple[float, float, float]:
    """Coefficients of the characteristic polynomial: trace, pair sum, det.

    Returns (sum lambda_i, sum_{i<j} lambda_i lambda_j, prod lambda_i); all
    three are real, as ``h`` is Hermitian by construction.
    """
    m = h.matrix
    trace = float(np.trace(m).real)
    pair = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            pair += (m[a, a] * m[b, b] - m[a, b] * m[b, a]).real
    det = float(np.linalg.det(m).real)
    return trace, pair, det

