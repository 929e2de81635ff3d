"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria (all at the strong-dissipation working point unless stated):
  1  dressed-state oracle at the reference parameters
  2  chirality-null transmission curves for 200 random configs
  3  classical probe indistinguishability across the scan range
  4  quantum probe distinguishability (sign flips, >= 6 signature pairs)
  5  regime map structure, reference-row consistency, thread scaling
  6  zero-bandwidth sign prediction vs full quadrature at large detuning
  7  numerical hygiene: quadrature convergence and byte-stable outputs
"""

import os
import time

import numpy as np
import pytest

import working_point as wp
from chirospec.analysis import compare_pair, curve_pair, regime_map, sweep_amplitude
from chirospec.biphoton import BiphotonAmplitude, FrequencyGrid, default_grid
from chirospec.cli import main
from chirospec.model import (
    Chirality,
    DriveConfig,
    build_rotating_hamiltonian,
    characteristic_invariants,
    dressed_states,
)
from chirospec.spectrum import (
    DetectorPair,
    transmission_point,
    zero_bandwidth_point,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_dressed_state_oracle():
    start = time.perf_counter()
    h_r = build_rotating_hamiltonian(wp.DRIVE)
    h_l = build_rotating_hamiltonian(wp.DRIVE.mirror())
    d_r = dressed_states(h_r, Chirality.RIGHT)
    d_l = dressed_states(h_l, Chirality.LEFT)

    eig_ok = np.allclose(
        d_r.lambdas, [-0.1, -0.1, 0.2], atol=1e-10, rtol=0
    ) and np.allclose(d_l.lambdas, [-0.2, 0.1, 0.1], atol=1e-10, rtol=0)

    tr_r, pair_r, det_r = characteristic_invariants(h_r)
    tr_l, pair_l, det_l = characteristic_invariants(h_l)
    inv_ok = (
        abs(tr_r - tr_l) <= 1e-12
        and abs(pair_r - pair_l) <= 1e-12
        and abs(det_l + det_r) <= 1e-12
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        eig_ok and inv_ok and elapsed < 1.0,
        f"eigenvalues match cubic oracle, invariants consistent ({elapsed:.3f}s)",
    )


def test_criterion_2_chirality_null_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = FrequencyGrid.build(0.0, 6.0, 0.1)
    amp = BiphotonAmplitude.uncorrelated(sigma=1.0)
    worst = 0.0
    for trial in range(200):
        omegas = rng.uniform(0.02, 0.5, size=3)
        omegas[trial % 3] = 0.0
        cfg = DriveConfig(
            omega21=omegas[0],
            omega31=omegas[1],
            omega32=omegas[2],
            delta21=rng.uniform(-2.0, 2.0),
            delta31=rng.uniform(-2.0, 2.0),
            chirality=Chirality.RIGHT,
        )
        wl = rng.uniform(-2.0, 2.0)
        left, right = curve_pair(cfg, amp, wp.NOISE, wl, grid)
        worst = max(worst, float(np.max(np.abs(left - right))))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-12 and elapsed < 60.0,
        f"200 one-coupling-zero configs, worst pointwise gap {worst:.2e} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_3_classical_indistinguishable():
    start = time.perf_counter()
    scan = wp.scan_grid(wp.UNCORRELATED_PROBE)
    worst_metric = 0.0
    all_same = True
    for wl in wp.WL_AXIS:
        left, right = curve_pair(
            wp.DRIVE, wp.UNCORRELATED_PROBE, wp.NOISE, float(wl), scan
        )
        sig_l, sig_r, metric, _ = compare_pair(left, right)
        worst_metric = max(worst_metric, metric)
        all_same = all_same and sig_l == sig_r
    elapsed = time.perf_counter() - start
    report(
        3,
        worst_metric < 0.05 and all_same and elapsed < 60.0,
        f"uncorrelated probe: max metric {worst_metric:.4f}, signatures identical "
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_quantum_distinguishable(quantum_scan_timed):
    results, elapsed = quantum_scan_timed
    sign_flips = [
        wl
        for wl, (sig_l, sig_r, _, _) in results.items()
        if sig_l.dominant_sign == -sig_r.dominant_sign != 0
    ]
    pairs = {
        (sig_l.compact(), sig_r.compact())
        for sig_l, sig_r, _, _ in results.values()
    }
    report(
        4,
        len(sign_flips) >= 1 and len(pairs) >= 6 and elapsed < 300.0,
        f"{len(sign_flips)} idler points with opposite-sign signatures, "
        f"{len(pairs)} distinct signature pairs ({elapsed:.1f}s)",
    )


def _connected_regions(labels: np.ndarray) -> list[set]:
    """4-connected components of the nonzero cells."""
    todo = {
        (i, j)
        for i in range(labels.shape[0])
        for j in range(labels.shape[1])
        if labels[i, j] != 0
    }
    regions = []
    while todo:
        seed = todo.pop()
        region = {seed}
        frontier = [seed]
        while frontier:
            i, j = frontier.pop()
            for n in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if n in todo:
                    todo.remove(n)
                    region.add(n)
                    frontier.append(n)
        regions.append(region)
    return regions


def test_criterion_5_regime_map(default_sweep_timed, quantum_scan_results):
    rm, elapsed = default_sweep_timed
    regions = _connected_regions(rm.labels)
    big_regions = [r for r in regions if len(r) >= 2]
    structure_ok = len(big_regions) >= 2

    # the reference delay scale reproduces the dense-scan signature pairs
    row = regime_map(
        wp.DRIVE,
        wp.ENTANGLED_TEMPLATE,
        wp.NOISE,
        [wp.T0_REFERENCE],
        wp.WL_AXIS,
        wp.scan_grid(wp.ENTANGLED_PROBE),
        threads=1,
    )
    row_ok = True
    for j, wl in enumerate(wp.WL_AXIS):
        sig_l, sig_r, _, dist = quantum_scan_results[float(wl)]
        label = row.labels[0, j]
        if dist:
            row_ok = row_ok and label > 0 and row.legend[label] == (sig_l, sig_r)
        else:
            row_ok = row_ok and label == 0
    report(
        5,
        structure_ok and row_ok and elapsed < 1800.0,
        f"{len(big_regions)} contiguous regions of >= 2 cells; reference row "
        f"matches the dense scan ({elapsed:.1f}s sweep)",
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason=f"thread-scaling measurement needs >= 4 cores, host has {os.cpu_count()}",
)
def test_criterion_5_thread_scaling():
    worst = sweep_amplitude(wp.ENTANGLED_TEMPLATE, float(wp.T0_AXIS[-1]))
    scan = wp.scan_grid(worst)
    args = (wp.DRIVE, wp.ENTANGLED_TEMPLATE, wp.NOISE, wp.T0_AXIS,
            wp.WL_AXIS, scan)
    start = time.perf_counter()
    serial = regime_map(*args, threads=1)
    t_serial = time.perf_counter() - start
    start = time.perf_counter()
    parallel = regime_map(*args, threads=4)
    t_parallel = time.perf_counter() - start
    assert np.array_equal(serial.labels, parallel.labels)
    speedup = t_serial / t_parallel
    report(
        5,
        speedup >= 3.0,
        f"4-thread speedup {speedup:.2f}x ({t_serial:.1f}s -> {t_parallel:.1f}s)",
    )


def test_criterion_6_zero_bandwidth_consistency():
    start = time.perf_counter()
    big_d = 10.0
    amp = BiphotonAmplitude.entangled(sigma_p=0.05, t_s=20.0, t_l=20.0)
    agree = total = 0
    for chirality in Chirality:
        cfg = DriveConfig(0.1, 0.1, 0.1, big_d, big_d, chirality)
        dressed = dressed_states(build_rotating_hamiltonian(cfg), chirality)
        lam1 = dressed.lambdas[int(np.argmax(dressed.eta1_sq))]
        grid = default_grid(amp, wp.NOISE.gamma, dressed.lambdas)
        for dpl in np.linspace(-2.5, 2.5, 81):
            if abs((lam1 - dpl) ** 2 - 1.0) < 0.05:
                continue  # boundary band where the sign is undefined
            det = DetectorPair(float(dpl), amp.omega_p - float(dpl))
            p_full = transmission_point(dressed, amp, wp.NOISE, det, grid)
            p_zb = zero_bandwidth_point(dressed, wp.NOISE, float(dpl), 1.0)
            total += 1
            agree += int(np.sign(p_full) == np.sign(p_zb))
    fraction = agree / total
    elapsed = time.perf_counter() - start
    report(
        6,
        fraction >= 0.95 and elapsed < 300.0,
        f"sign agreement {agree}/{total} = {fraction:.3f} outside the boundary "
        f"band ({elapsed:.1f}s)",
    )


def test_criterion_7_numerical_hygiene(tmp_path):
    start = time.perf_counter()
    # quadrature halving-step convergence at the working-point parameters
    converged = True
    for amp, det in (
        (wp.UNCORRELATED_PROBE, DetectorPair(0.0, 0.0)),
        (wp.ENTANGLED_PROBE, DetectorPair(-1.03, 0.99)),
    ):
        dressed = dressed_states(
            build_rotating_hamiltonian(wp.DRIVE), Chirality.RIGHT
        )
        grid = default_grid(amp, wp.NOISE.gamma, dressed.lambdas)
        p_coarse = transmission_point(dressed, amp, wp.NOISE, det, grid)
        p_fine = transmission_point(
            dressed, amp, wp.NOISE, det, grid.halved_step()
        )
        converged = converged and abs(p_fine - p_coarse) <= 1e-6 * abs(p_fine)

    # byte-identical outputs across reruns and thread counts
    spectrum_cfg = (
        "probe:\n  kind: entangled\n  sigma_p: 1.0\n  t_s: 24.0\n  t_l: 25.0\n"
        "scan:\n  half_width: 3.0\n  step: 0.002\n"
        "idler:\n  values: [0.955, 0.99]\n"
    )
    map_cfg = (
        "probe:\n  kind: entangled\n  sigma_p: 1.0\n"
        "scan:\n  half_width: 3.0\n  step: 0.0013\n"
        "sweep:\n  t0: {min: 9.0, max: 12.0, count: 2}\n"
        "  omega_l: {min: 0.95, max: 1.03, count: 2}\n"
    )
    byte_stable = True
    for tag, text, command in (
        ("spectrum_run", spectrum_cfg, "spectrum"),
        ("map_run", map_cfg, "regime-map"),
    ):
        outputs = []
        for run, threads in (("r1", "1"), ("r2", "2"), ("r3", "1")):
            out_dir = tmp_path / f"{tag}_{run}"
            cfg_path = tmp_path / f"{tag}_{run}.yaml"
            cfg_path.write_text(
                text + f"output:\n  directory: {out_dir}\n", encoding="utf-8"
            )
            assert main([command, "-c", str(cfg_path), "--threads", threads]) == 0
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out_dir.iterdir())
                    if p.name != "run_record.txt"
                }
            )
        byte_stable = byte_stable and outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - start
    report(
        7,
        converged and byte_stable,
        f"halving-step convergence < 1e-6, outputs byte-identical across "
        f"threads and reruns ({elapsed:.1f}s)",
    )
