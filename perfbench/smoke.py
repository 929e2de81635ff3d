"""Smoke test of the benchmark itself, at a tiny size (3x3 sweep, one idler).

    python3 perfbench/smoke.py

Run from the repository root.  It checks that the generator reproduces the
shipped configs at seed 0 and keeps curve and scan-point counts for other
seeds, that every metric named in BENCHMARK.json is printed with its unit,
that the tracer patches every by-name import and counts calls, that a
corrupted output counts as failed, and that the benchmark refuses to run
without the program's sources.  Not part of the tier-1 test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run
import tracing

ROOT = run.ROOT
sys.path.insert(0, str(run.SRC))


def check_generator() -> None:
    from chirospec.analysis import sweep_amplitude
    from chirospec.cli import build_scan_grid
    from chirospec.config import parse_config

    for name, text in gen.make_configs(gen.DEFAULT_SEED).items():
        shipped = (ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8")
        assert text == shipped, f"seed 0 does not reproduce configs/{name}.yaml"
    for tiny in (False, True):
        for seed in (0, 1, 2, 3, 41, 99, 123456):
            for name, text in gen.make_configs(seed, tiny).items():
                cfg = parse_config(text)
                if cfg.sweep is not None:
                    curves = 2 * cfg.sweep.t0_count * cfg.sweep.omega_l_count
                    amp = sweep_amplitude(cfg.probe, max(cfg.sweep.t0_values()))
                else:
                    curves, amp = 2 * len(cfg.idler), cfg.probe
                points = build_scan_grid(cfg, amp).points.size
                want = gen.expected_sizes(tiny)[name]
                assert (curves, points) == want, (seed, tiny, name, curves, points)
        assert gen.make_configs(5, tiny) == gen.make_configs(5, tiny)


def check_patch_sites() -> None:
    import chirospec.cli  # noqa: F401  (loads every module)

    tracer = tracing.Tracer()
    tracer.install()
    for key, importers in {
        "analysis.classify_lineshape": ("cli",),
        "analysis.curve_pair": ("cli",),
        "analysis.discriminability": ("cli",),
        "analysis.regime_map": ("cli",),
        "model.dressed_states": ("spectrum", "cli"),
        "biphoton.jsa_value": ("spectrum",),
        "spectrum.transmission_curve": ("analysis",),
    }.items():
        module = key.split(".")[0]
        for site in (module, *importers):
            assert site in tracer.patched[key], (key, site, tracer.patched[key])


def quiet_run(*args, **kwargs) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        result = run.run(*args, **kwargs)
    return result, out.getvalue()


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[section]}
        for workload in run.WORKLOADS:
            result, text = quiet_run(workload, 1, 0.1, trace, tiny=True)
            assert result["correct"] and result["failed"] == 0, (workload, trace, text)
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (workload, trace, got)
            lines = text.splitlines()
            for name, unit in units.items():
                assert any(
                    ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines
                ), (workload, name, unit)
            assert "ops_failed = 0, ops_attempted = " in text
            if trace and workload == "regime_map_serial":
                m = {k: v["value"] for k, v in result["metrics"].items()}
                assert m["analysis.classify_lineshape.calls"] == 4 * 9, m
                assert m["model.dressed_states.calls"] >= 2 * 9, m
                assert m["analysis.signature_useful_ratio"] == 0.5, m
                assert m["spectrum.points"] == 18 * gen.POINTS["regime_map"], m


def check_corruption() -> None:
    def corrupt(out: Path) -> None:
        victim = sorted(p for p in out.iterdir() if p.suffix == ".csv")[0]
        data = bytearray(victim.read_bytes())
        data[-3] ^= 1
        victim.write_bytes(bytes(data))

    for workload in ("regime_map_serial", "spectrum_configs"):
        result, text = quiet_run(workload, 1, 0.1, False, tiny=True, tamper=corrupt)
        assert not result["correct"], text
        assert result["failed"] == result["attempted"] >= 1, text


def check_refuses_without_sources() -> None:
    bare = run.RUN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regime_map_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> None:
    for check in (check_generator, check_metrics, check_corruption,
                  check_refuses_without_sources, check_patch_sites):
        check()
        print(f"ok {check.__name__}")


if __name__ == "__main__":
    main()
