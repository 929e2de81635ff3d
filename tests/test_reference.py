"""Printed and compared numbers against a 30-digit reference that shares no code with chirospec.

The reference restates the model from its definitions: the rotating-frame
triad Hamiltonian of ``model.py``'s docstring, the two amplitude kinds of
``biphoton.py``'s, and the transmission term of ``spectrum.py``'s,

    P(ds) = -sum_i |eta_1i|^2 Re[psi(ds) / (lambda_i - ds + i*gamma) * Q_i],

with each mode integral Q_i taken over the whole line.  It reads the
configs as YAML, takes the dressed energies and overlaps from
``mpmath.eighe`` and each Q_i from ``mpmath.quad``, all at 30 digits.
chirospec gives only the numbers under test.  The regime map's cut kernel
integrates each row over the scan window, which at the canonical map's
T0 = 0 row leaves out up to 1.15e-7 of a curve's peak; the spectrum CSVs
are within their printed resolution of the integral.
"""

from pathlib import Path

import numpy as np
import pytest
import yaml

from chirospec.analysis import sweep_amplitude
from chirospec.cli import build_scan_grid, main
from chirospec.config import parse_config
from chirospec.model import dressed_pair
from chirospec.spectrum import TransmissionKernel, full_curves

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

#: (drive, T0 index, idler index) of canonical map cells; the T0 = 0 row's
#: outermost idlers show the scan window's truncation most.
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
    curves = full_curves(scan, *kernel.curves(sweep_amplitude(cfg.probe, t0), omega_l))
    assert_near_reference(doc, omega_l, scan.points, curves, 1.2e-7, t0)


#: (config, idler indices) of the shipped spectra whose CSVs are checked.
SPECTRA = [("entangled_probe.yaml", (1, 6)), ("classical_probe.yaml", (0, 12))]


@pytest.mark.parametrize("name, idlers", SPECTRA, ids=[name for name, _ in SPECTRA])
def test_spectrum_csv_values_match_the_reference(tmp_path, name, idlers):
    doc = config_document(name)
    out = tmp_path / "out"
    assert main(["spectrum", "-c", str(CONFIGS / name), "--threads", "1", "--out", str(out)]) == 0
    omega_ls = parse_config((CONFIGS / name).read_text(encoding="utf-8")).idler
    for k in idlers:
        tables = [np.loadtxt(out / f"curve_{side}_{k:03d}.csv", delimiter=",", skiprows=1)
                  for side in ("left", "right")]
        points = tables[0][:, 0]
        assert np.array_equal(tables[1][:, 0], points)
        assert_near_reference(doc, omega_ls[k], points, [t[:, 1] for t in tables], 1e-9)
