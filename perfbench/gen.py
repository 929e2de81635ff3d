"""Seeded YAML inputs for the benchmark workloads.

``make_configs(seed)`` returns the YAML text of the three configs the
workloads run: ``regime_map``, ``entangled_probe`` and ``classical_probe``.
Seed 0 reproduces the shipped files under ``configs/`` byte for byte.
Any other seed draws the three drive couplings from the strong-dissipation
region (each in [0.05, 0.2] gamma) and shifts the idler values or the idler
axis by one common offset.  Curve counts and scan-grid sizes do not depend
on the seed: the T0 axis, the probe and the idler spacing stay fixed, and
the scan grid is pinned to the one the shipped config derives, because the
derived half-width follows the dressed energies and so the couplings.

``tiny=True`` gives the smoke-test size: a 3x3 sweep and one idler value
per spectrum config, on the same seeded parameters.

The generator does not import chirospec: the program under test only ever
sees the YAML text.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0

# Shipped parameter values (seed 0).
_COUPLINGS = (0.1, 0.1, 0.1)
_MAP_OMEGA_L = (-1.254, 1.254)
_ENTANGLED_IDLERS = (-1.2, -1.03, -0.99, -0.955, 0.0, 0.955, 0.99, 1.03, 1.2)
_CLASSICAL_IDLER = (-1.254, 1.254, 0.132)

# Scan grids the shipped configs derive (center 0, half-width 6.2); the
# steps are the maximum steps the derivation passes to the grid builder,
# so that pinning them reproduces the derived point counts exactly.
_SCAN_HALF_WIDTH = 6.2
_SCAN_STEP = {
    "regime_map": 0.0013333333333333335,  # 9301 points
    "entangled_probe": 0.002,  # 6201 points
    "classical_probe": 0.05,  # 249 points
}

#: Curves one command produces at full size, for curves-per-second figures.
CURVES = {"regime_map": 800, "entangled_probe": 18, "classical_probe": 40}
#: Scan points per curve at full size.
POINTS = {"regime_map": 9301, "entangled_probe": 6201, "classical_probe": 249}

_HEADERS = {
    "regime_map": (
        "# Canonical 20x20 sweep of the delay scale T0 and the idler frequency.\n"
        "# Crystal delays follow t_s = 2.4*T0, t_l = 2.5*T0.  Nonzero labels mark\n"
        "# (T0, idler) cells where the two enantiomers are distinguishable.\n"
    ),
    "entangled_probe": (
        "# Frequency-entangled probe (unit-width pump, crystal delays 24 and 25)\n"
        "# at the same strong-dissipation drive as classical_probe.yaml.\n"
        "# The idler list samples the phase-mismatch transition bands where the\n"
        "# enantiomer curves change shape; it yields eight distinct left/right\n"
        "# signature pairs, including points where the dominant signs are opposite.\n"
    ),
    "classical_probe": (
        "# Uncorrelated Gaussian probe in the strong-dissipation region.\n"
        "# The two enantiomers' transmission curves come out indistinguishable\n"
        "# at every idler frequency (manifest: distinguishable = false).\n"
    ),
}


def _num(x: float) -> str:
    return repr(float(x))


def _drive(couplings, detunings: bool) -> str:
    w21, w31, w32 = couplings
    text = (
        "drive:\n"
        f"  omega21: {_num(w21)}\n"
        f"  omega31: {_num(w31)}\n"
        f"  omega32: {_num(w32)}\n"
    )
    if detunings:
        text += "  delta21: 0.0\n  delta31: 0.0\n"
    return text


def _scan(name: str) -> str:
    return (
        "scan:\n"
        "  center: 0.0\n"
        f"  half_width: {_num(_SCAN_HALF_WIDTH)}\n"
        f"  step: {_num(_SCAN_STEP[name])}\n"
    )


def _idler_count(lo: float, hi: float, step: float) -> int:
    """Number of idler values an {min, max, step} block expands to."""
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def make_configs(seed: int = DEFAULT_SEED, tiny: bool = False) -> dict[str, str]:
    """YAML text of each workload config for ``seed``."""
    shipped = seed == DEFAULT_SEED
    if shipped:
        couplings = _COUPLINGS
        offset = 0.0
    else:
        rng = random.Random(seed)
        couplings = tuple(round(rng.uniform(0.05, 0.2), 3) for _ in range(3))
        offset = round(rng.uniform(-0.05, 0.05), 3)

    def header(name: str) -> str:
        if shipped and not tiny:
            return _HEADERS[name]
        size = "tiny" if tiny else "full"
        return f"# perfbench input '{name}', seed {seed}, {size} size.\n"

    def scan(name: str) -> str:
        return "" if shipped else _scan(name)

    lo, hi = (round(v + offset, 3) for v in _MAP_OMEGA_L)
    t0_count, wl_count = (3, 3) if tiny else (20, 20)
    regime_map = (
        header("regime_map")
        + _drive(couplings, detunings=False)
        + "noise:\n  gamma: 1.0\n"
        + "probe:\n  kind: entangled\n  sigma_p: 1.0\n"
        + scan("regime_map")
        + "sweep:\n"
        + f"  t0: {{min: 0.0, max: 15.0, count: {t0_count}}}\n"
        + f"  omega_l: {{min: {_num(lo)}, max: {_num(hi)}, count: {wl_count}}}\n"
        + "output:\n  directory: out_regime_map\n"
    )

    idlers = [round(v + offset, 3) for v in _ENTANGLED_IDLERS]
    if tiny:
        idlers = idlers[-1:]
    entangled = (
        header("entangled_probe")
        + _drive(couplings, detunings=True)
        + "noise:\n  gamma: 1.0\n"
        + "probe:\n  kind: entangled\n  sigma_p: 1.0\n  t_s: 24.0\n  t_l: 25.0\n"
        + scan("entangled_probe")
        + "idler:\n"
        + f"  values: [{', '.join(_num(v) for v in idlers)}]\n"
        + "output:\n  directory: out_entangled\n"
    )

    lo, hi, step = _CLASSICAL_IDLER
    lo, hi = round(lo + offset, 3), round(hi + offset, 3)
    if _idler_count(lo, hi, step) != _idler_count(*_CLASSICAL_IDLER):
        raise AssertionError(f"seed {seed}: idler axis changed its length")
    idler_block = (
        f"  value: {_num(hi)}\n"
        if tiny
        else f"  min: {_num(lo)}\n  max: {_num(hi)}\n  step: {_num(step)}\n"
    )
    classical = (
        header("classical_probe")
        + _drive(couplings, detunings=True)
        + "noise:\n  gamma: 1.0\n"
        + "probe:\n  kind: uncorrelated\n  sigma: 1.0\n"
        + scan("classical_probe")
        + "idler:\n"
        + idler_block
        + "output:\n  directory: out_classical\n"
    )
    return {
        "regime_map": regime_map,
        "entangled_probe": entangled,
        "classical_probe": classical,
    }


def expected_sizes(tiny: bool = False) -> dict[str, tuple[int, int]]:
    """(curves, points per curve) each command must produce at this size."""
    if not tiny:
        return {name: (CURVES[name], POINTS[name]) for name in CURVES}
    return {
        "regime_map": (18, POINTS["regime_map"]),
        "entangled_probe": (2, POINTS["entangled_probe"]),
        "classical_probe": (2, POINTS["classical_probe"]),
    }
