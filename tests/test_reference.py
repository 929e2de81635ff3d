"""Printed and compared numbers against a 30-digit reference that shares no code with chirospec.

The reference restates the model from its definitions: the rotating-frame
triad Hamiltonian of ``model.py``'s docstring, the two amplitude kinds of
``biphoton.py``'s, and the transmission term of ``spectrum.py``'s,

    P(ds) = -sum_i |eta_1i|^2 Re[psi(ds) / (lambda_i - ds + i*gamma) * Q_i],

with each mode integral Q_i taken over the whole line.  It reads the
configs as YAML, takes the dressed energies and overlaps from
``mpmath.eighe`` and each Q_i from ``mpmath.quad``, all at 30 digits.
chirospec gives only the numbers under test.  The regime map's cut kernel
takes each Q_i over the whole line in closed form, through the Faddeeva
function w(z) = exp(-z^2) erfc(-iz), which is checked here too; the
spectrum CSVs, of the shipped configs and of perfbench seeds, integrate
over the scan window and are within their printed resolution of the
integral.  ``transmission_point`` is the same formula
at one detector pair, and ``zero_bandwidth_point`` is the closed form

    P(dpl) = -|eta_1|^2 Re[phi(dpl)^2 / (lambda - dpl + i*gamma)^2],

with lambda the dressed energy of largest |eta_1|^2 and
phi(d) = exp(-d^2 / (2 sigma^2)).
"""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from chirospec.analysis import sweep_amplitude
from chirospec.biphoton import BiphotonAmplitude, default_grid
from chirospec.cli import build_scan_grid, main
from chirospec.config import parse_config
from chirospec.model import DriveConfig, NoiseParams, dressed_pair
from chirospec import spectrum
from chirospec.spectrum import (
    DetectorPair, TransmissionKernel, full_curves, transmission_point, zero_bandwidth_point,
)

mpmath = pytest.importorskip("mpmath")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DIGITS = 30
#: A sweep cell's crystal delays, as the map's config states them.
T_S_PER_T0, T_L_PER_T0 = 2.4, 2.5
#: Breakpoints this many Gaussian widths either side of a row's peak, besides
#: the peak and lambda_i, help the quadrature find a narrow row.
FLANK_WIDTHS = 8
#: Points sampled across each curve's nonzero values, besides its peak.
SAMPLES = 16


def config_document(name: str) -> dict:
    return yaml.safe_load((CONFIGS / name).read_text(encoding="utf-8"))


def dressed_modes(drive: dict) -> tuple:
    """Per enantiomer (left, right): ``[(lambda, |<1|lambda>|^2)]``, equal energies' weights summed."""
    w21, w31, w32 = (mpmath.mpmathify(drive[key]) for key in ("omega21", "omega31", "omega32"))
    d21, d31 = (mpmath.mpmathify(drive.get(key, 0.0)) for key in ("delta21", "delta31"))
    enantiomers = []
    for signed31 in (-w31, w31):  # the left-handed molecule flips the 3-1 coupling
        h = mpmath.matrix([
            [0, mpmath.conj(w21), mpmath.conj(signed31)],
            [w21, d21, mpmath.conj(w32)],
            [signed31, w32, d31],
        ])
        energies, vectors = mpmath.eighe(h)
        modes = {}
        for i in range(3):
            key = mpmath.nstr(energies[i], DIGITS - 5)  # equal energies share one Q_i
            lam, weight = modes.get(key, (energies[i], 0))
            modes[key] = (lam, weight + abs(vectors[0, i]) ** 2)
        enantiomers.append(list(modes.values()))
    return tuple(enantiomers)


def amplitude_row(probe: dict, omega_l, t0=None):
    """``(psi, mu, width)``: the JSA at idler omega_l as a function of ds, its peak and width."""
    assert not {"omega_s_center", "omega_l_center", "omega_pump"} & probe.keys()
    wl = mpmath.mpmathify(omega_l)
    if probe["kind"] == "uncorrelated":
        sigma = mpmath.mpmathify(probe["sigma"])
        return (lambda d: mpmath.exp(-(d * d + wl * wl) / (2 * sigma**2))), mpmath.mpf(0), sigma
    # energy matching puts the pump at omega_sc + omega_lc = 0
    pump = 1 / (2 * mpmath.mpmathify(probe["sigma_p"]) ** 2)
    if t0 is None:
        t_s, t_l = (mpmath.mpmathify(probe[key]) for key in ("t_s", "t_l"))
    else:
        t_s, t_l = T_S_PER_T0 * mpmath.mpmathify(t0), T_L_PER_T0 * mpmath.mpmathify(t0)

    def psi(d):
        return mpmath.exp(-pump * (d + wl) ** 2 - (d * t_s / 2 + wl * t_l / 2) ** 2)

    curvature = pump + t_s * t_s / 4
    mu = -wl * (pump + t_s * t_l / 4) / curvature
    return psi, mu, 1 / mpmath.sqrt(curvature)


def reference_curves(doc: dict, omega_l, points, t0=None) -> list:
    """The left and right curves of ``doc``'s drive at idler omega_l, at ``points``."""
    with mpmath.workdps(DIGITS):
        psi, mu, width = amplitude_row(doc["probe"], omega_l, t0)
        gamma = mpmath.mpmathify(doc["noise"]["gamma"])
        edges = [-mpmath.inf, mu - FLANK_WIDTHS * width, mu, mu + FLANK_WIDTHS * width, mpmath.inf]
        curves = []
        for modes in dressed_modes(doc["drive"]):
            terms = []
            for lam, weight in modes:
                q = mpmath.quad(lambda d: psi(d) / (lam - d + 1j * gamma), sorted(edges + [lam]))
                terms.append((lam, weight * q))
            values = []
            for ds in points:
                ds = mpmath.mpmathify(ds)
                total = sum(wq / (lam - ds + 1j * gamma) for lam, wq in terms)
                values.append(float(-(psi(ds) * total).real))
            curves.append(np.array(values))
        return curves


def sampled_indices(*curves: np.ndarray) -> list:
    """SAMPLES indices spread over the curves' nonzero values, and each curve's peak."""
    nonzero = np.flatnonzero(np.any(curves, axis=0))
    picks = nonzero[np.linspace(0, nonzero.size - 1, SAMPLES).round().astype(int)]
    return sorted(set(picks.tolist()) | {int(np.argmax(np.abs(c))) for c in curves})


def assert_near_reference(doc, omega_l, points, curves, bound, t0=None):
    picks = sampled_indices(*curves)
    reference = reference_curves(doc, omega_l, points[picks], t0)
    for values, expected in zip(curves, reference, strict=True):
        peak = np.max(np.abs(values))
        assert peak > 0.0
        assert np.max(np.abs(values[picks] - expected)) <= bound * peak


#: A drive whose modes have distinct weights, so a weight paired with the
#: wrong mode shows; every canonical mode weighs 1/3 (per degenerate block).
UNEVEN_DRIVE = {"omega21": 0.15, "omega31": 0.07, "omega32": 0.12, "delta21": 0.3, "delta31": -0.2}

#: (drive, T0 index, idler index) of canonical map cells.  The T0 = 0 row's
#: outermost idlers are where a trapezoid over the scan window would leave
#: out most (1.15e-7 of the peak); the closed form shows no such truncation.
MAP_CELLS = [(None, 0, 0), (None, 0, 19), (None, 19, 13), (UNEVEN_DRIVE, 10, 6)]


@pytest.mark.parametrize(
    "drive, t0_index, omega_l_index", MAP_CELLS,
    ids=[f"{'uneven' if d else 'canonical'}-t0_{i}-idler_{j}" for d, i, j in MAP_CELLS],
)
def test_cut_kernel_curves_match_the_reference(drive, t0_index, omega_l_index):
    doc = config_document("regime_map.yaml")
    if drive is not None:
        doc["drive"] = dict(drive)
    cfg = parse_config(yaml.safe_dump(doc))
    t0 = cfg.sweep.t0_values()[t0_index]
    omega_l = cfg.sweep.omega_l_values()[omega_l_index]
    scan = build_scan_grid(cfg, sweep_amplitude(cfg.probe, max(cfg.sweep.t0_values())))
    kernel = TransmissionKernel(dressed_pair(cfg.drive), cfg.noise, scan, cut=True)
    (curves,) = kernel.curves(sweep_amplitude(cfg.probe, t0), [omega_l])
    curves = full_curves(scan, *curves)
    # within 1e-12 of the peak; the four cells read 2.6e-16 to 6.0e-16
    assert_near_reference(doc, omega_l, scan.points, curves, 1e-12, t0)


#: |Re z| scales and Im z values of the Faddeeva points: the range the map's
#: arguments sqrt(curv) (lambda_i - mu + i gamma) span, and far beyond it.
FADDEEVA_REALS = (1.0, 1e3, 1e6)
FADDEEVA_IMAGS = tuple(10.0**k for k in range(-6, 7))
#: Points past the rational form's reach, up to the end of the float range,
#: where w(z) is i / (sqrt(pi) z) to double precision.
FADDEEVA_FAR = (1e150j, 1e300 + 1e300j, -1.2e308 + 1.2e308j)


def reference_w(z: complex) -> complex:
    """exp(-z^2) erfc(-iz) at DIGITS digits; the phase of exp(-z^2) needs the digits of |z|^2."""
    with mpmath.workdps(DIGITS + 2 * max(0, math.ceil(math.log10(abs(z))))):
        z = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))


def test_faddeeva_matches_the_reference():
    # within 1e-12 relative; these points read at most 4.6e-14, and 60 000 random points
    # over the same ranges at most 3.1e-13 against scipy.special.wofz
    points = [complex(x, y) for reach in FADDEEVA_REALS
              for x in (0.0, 0.31 * reach, -0.77 * reach, reach) for y in FADDEEVA_IMAGS]
    for z in points + list(FADDEEVA_FAR):
        expected = reference_w(z)
        value = spectrum._w(z)
        assert abs(value - expected) <= 1e-12 * abs(expected), z
    assert spectrum._w(complex(math.inf, 1.0)) == spectrum._w(complex(0.0, math.inf)) == 0


#: (config, idler indices) of the shipped spectra whose CSVs are checked.
SPECTRA = [("entangled_probe.yaml", (1, 6)), ("classical_probe.yaml", (0, 12))]


def assert_csvs_near_reference(tmp_path, path, doc, idlers):
    """Run ``spectrum`` on the config at ``path`` and check the given idlers' CSVs."""
    out = tmp_path / "out"
    assert main(["spectrum", "-c", str(path), "--threads", "1", "--out", str(out)]) == 0
    omega_ls = parse_config(path.read_text(encoding="utf-8")).idler
    for k in idlers:
        tables = [np.loadtxt(out / f"curve_{side}_{k:03d}.csv", delimiter=",", skiprows=1)
                  for side in ("left", "right")]
        points = tables[0][:, 0]
        assert np.array_equal(tables[1][:, 0], points)
        assert_near_reference(doc, omega_ls[k], points, [t[:, 1] for t in tables], 1e-9)


@pytest.mark.parametrize("name, idlers", SPECTRA, ids=[name for name, _ in SPECTRA])
def test_spectrum_csv_values_match_the_reference(tmp_path, name, idlers):
    assert_csvs_near_reference(tmp_path, CONFIGS / name, config_document(name), idlers)


#: perfbench seed: (omega21, omega31, omega32) and the common idler offset that
#: ``perfbench/gen.make_configs`` draws.  Seed 57's map has no distinguishable cell.
PERFBENCH_SEEDS = {5: ((0.143, 0.161, 0.169), 0.044), 57: ((0.056, 0.138, 0.053), 0.001)}
#: The scan step perfbench pins for each spectrum config, centered at 0 with half-width 6.2.
PERFBENCH_STEPS = {"entangled_probe.yaml": 0.002, "classical_probe.yaml": 0.05}


def perfbench_document(name: str, seed: int) -> dict:
    """The config that perfbench runs for the shipped ``name`` at ``seed``."""
    couplings, offset = PERFBENCH_SEEDS[seed]
    doc = config_document(name)
    doc["drive"].update(zip(("omega21", "omega31", "omega32"), couplings))
    doc["scan"] = {"center": 0.0, "half_width": 6.2, "step": PERFBENCH_STEPS[name]}
    idler = doc["idler"]
    if "values" in idler:
        idler["values"] = [round(v + offset, 3) for v in idler["values"]]
    else:
        idler["min"], idler["max"] = (round(idler[key] + offset, 3) for key in ("min", "max"))
    return doc


#: (seed, config, idler index) of perfbench spectra whose CSVs are checked;
#: every idler of both seeds read 1.0e-11 to 4.7e-10 of peak.
SEED_SPECTRA = [(5, "entangled_probe.yaml", 6), (57, "entangled_probe.yaml", 0),
                (5, "classical_probe.yaml", 9), (57, "classical_probe.yaml", 12)]


@pytest.mark.parametrize(
    "seed, name, idler", SEED_SPECTRA, ids=[f"seed_{s}-{n}" for s, n, _ in SEED_SPECTRA]
)
def test_perfbench_seed_csv_values_match_the_reference(tmp_path, seed, name, idler):
    doc = perfbench_document(name, seed)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert_csvs_near_reference(tmp_path, path, doc, (idler,))


CANONICAL_DRIVE = {"omega21": 0.1, "omega31": 0.1, "omega32": 0.1}
#: Both detunings at 10 gamma: no two dressed energies are equal, and one line
#: carries almost all the weight.
LARGE_DETUNING_DRIVE = config_document("dressed_large_detuning.yaml")["drive"]

#: (name, drive, probe, detector pairs (omega_s_bar, omega_l_bar)): criterion 7's
#: working points with an off-grid pair each, and criterion 6's probe and drive
#: at three of its pinned detunings, on its default grids.
DETECTOR_POINTS = [
    ("criterion_7_uncorrelated", CANONICAL_DRIVE, {"kind": "uncorrelated", "sigma": 1.0},
     [(0.0, 0.0), (0.0123, -0.5)]),
    ("criterion_7_entangled", CANONICAL_DRIVE,
     {"kind": "entangled", "sigma_p": 1.0, "t_s": 24.0, "t_l": 25.0},
     [(-1.03, 0.99), (0.9871, -0.99)]),
    ("criterion_6", LARGE_DETUNING_DRIVE,
     {"kind": "entangled", "sigma_p": 0.05, "t_s": 20.0, "t_l": 20.0},
     [(-1.5, 1.5), (0.3125, -0.3125), (1.125, -1.125)]),
]


@pytest.mark.parametrize(
    "drive, probe, pairs", [case[1:] for case in DETECTOR_POINTS],
    ids=[case[0] for case in DETECTOR_POINTS],
)
def test_transmission_point_matches_the_reference(drive, probe, pairs):
    # within 1e-10 of the value: the uncorrelated probe reads 2.2e-11, the others 1e-14 or less
    doc = {"drive": drive, "noise": {"gamma": 1.0}, "probe": probe}
    kind, params = probe["kind"], {k: v for k, v in probe.items() if k != "kind"}
    amp = getattr(BiphotonAmplitude, kind)(**params)
    noise = NoiseParams(1.0)
    for omega_s, omega_l in pairs:
        det = DetectorPair(omega_s, omega_l)
        reference = reference_curves(doc, omega_l, [omega_s])
        for dressed, expected in zip(dressed_pair(DriveConfig(**drive)), reference, strict=True):
            grid = default_grid(amp, noise.gamma, dressed.lambdas)
            value = transmission_point(dressed, amp, noise, det, grid)
            assert abs(value - expected[0]) <= 1e-10 * abs(expected[0])


def test_zero_bandwidth_point_matches_the_reference():
    # within 1e-13 of the value; it read at most 4.3e-15
    noise = NoiseParams(1.0)
    pair = dressed_pair(DriveConfig(**LARGE_DETUNING_DRIVE))
    with mpmath.workdps(DIGITS):
        for dressed, modes in zip(pair, dressed_modes(LARGE_DETUNING_DRIVE), strict=True):
            lam, weight = max(modes, key=lambda mode: mode[1])
            for sigma in (1.0, 0.7):
                for dpl in (-2.5, -0.4, 0.0, 0.6, 1.7, 3.0):
                    phi = mpmath.exp(-mpmath.mpf(dpl) ** 2 / (2 * mpmath.mpf(sigma) ** 2))
                    ratio = phi / (lam - dpl + 1j * noise.gamma)
                    expected = float(-weight * (ratio * ratio).real)
                    value = zero_bandwidth_point(dressed, noise, dpl, sigma)
                    assert abs(value - expected) <= 1e-13 * abs(expected)
