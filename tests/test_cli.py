"""End-to-end tests of the command-line interface and its file contracts."""

import re
from pathlib import Path

import numpy as np
import pytest

from chirospec.biphoton import MAX_GRID_POINTS
from chirospec.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SPECTRUM_CFG = """\
drive:
  omega21: 0.1
  omega31: 0.1
  omega32: 0.1
probe:
  kind: uncorrelated
  sigma: 1.0
scan:
  half_width: 4.0
  step: 0.05
idler:
  values: [0.0, 0.5]
output:
  directory: {out}
"""

QUANTUM_CFG = """\
probe:
  kind: entangled
  sigma_p: 1.0
  t_s: 24.0
  t_l: 25.0
scan:
  half_width: 3.0
  step: 0.002
idler:
  values: [0.99]
output:
  directory: {out}
"""

MAP_CFG = """\
probe:
  kind: entangled
  sigma_p: 1.0
scan:
  half_width: 3.0
  step: 0.0013
sweep:
  t0: {{min: 9.0, max: 12.0, count: 3}}
  omega_l: {{min: 0.95, max: 1.03, count: 3}}
output:
  directory: {out}
"""


def write_cfg(tmp_path, template, name="cfg.yaml", out="out"):
    path = tmp_path / name
    path.write_text(template.format(out=tmp_path / out), encoding="utf-8")
    return path


def read_outputs(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.name != "run_record.txt"
    }


class TestSpectrumCommand:
    def test_writes_expected_files(self, tmp_path):
        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        assert main(["spectrum", "-c", str(cfg), "--threads", "1"]) == 0
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        assert names == {
            "curve_left_000.csv",
            "curve_right_000.csv",
            "curve_left_001.csv",
            "curve_right_001.csv",
            "manifest.txt",
            "run_record.txt",
        }

    def test_csv_format(self, tmp_path):
        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        main(["spectrum", "-c", str(cfg), "--threads", "1"])
        text = (tmp_path / "out" / "curve_left_000.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "delta_s_bar,P_c"
        row = re.compile(r"^-?\d\.\d{9}e[+-]\d{2},-?\d\.\d{9}e[+-]\d{2}$")
        for line in lines[1:]:
            assert row.match(line), line
        assert "\r" not in text
        assert text.endswith("\n")

    def test_byte_identical_across_threads_and_reruns(self, tmp_path):
        runs = []
        for tag, threads in (("a", "1"), ("b", "2"), ("c", "1")):
            cfg = write_cfg(tmp_path, SPECTRUM_CFG, name=f"cfg_{tag}.yaml", out=f"out_{tag}")
            assert main(["spectrum", "-c", str(cfg), "--threads", threads]) == 0
            runs.append(read_outputs(tmp_path / f"out_{tag}"))
        assert runs[0] == runs[1] == runs[2]

    def test_classical_manifest_indistinguishable(self, tmp_path):
        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        main(["spectrum", "-c", str(cfg), "--threads", "1"])
        manifest = (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8")
        assert "idler.000.distinguishable = false" in manifest
        assert "idler.001.distinguishable = false" in manifest

    def test_quantum_manifest_distinguishable(self, tmp_path):
        cfg = write_cfg(tmp_path, QUANTUM_CFG)
        main(["spectrum", "-c", str(cfg), "--threads", "1"])
        manifest = (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8")
        assert "idler.000.distinguishable = true" in manifest
        left = re.search(r"signature_left = (\S+)", manifest).group(1)
        right = re.search(r"signature_right = (\S+)", manifest).group(1)
        assert left != right

    def test_run_record_checksums_stable(self, tmp_path):
        import hashlib

        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        main(["spectrum", "-c", str(cfg), "--threads", "1"])
        record = (tmp_path / "out" / "run_record.txt").read_text(encoding="utf-8")
        digest = hashlib.sha256(
            (tmp_path / "out" / "curve_left_000.csv").read_bytes()
        ).hexdigest()
        assert f"checksum.curve_left_000.csv = {digest}" in record
        assert "version = " in record
        assert "config.noise.gamma = 1.0" in record

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        dest = tmp_path / "elsewhere"
        assert main(["spectrum", "-c", str(cfg), "--out", str(dest), "--threads", "1"]) == 0
        assert (dest / "manifest.txt").exists()

    def test_requires_idler(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("probe:\n  kind: uncorrelated\n", encoding="utf-8")
        assert main(["spectrum", "-c", str(path)]) == 2


class TestRegimeMapCommand:
    def test_outputs_and_determinism(self, tmp_path):
        runs = []
        for tag, threads in (("a", "1"), ("b", "2")):
            cfg = write_cfg(tmp_path, MAP_CFG, name=f"map_{tag}.yaml", out=f"map_{tag}")
            assert main(["regime-map", "-c", str(cfg), "--threads", threads]) == 0
            runs.append(read_outputs(tmp_path / f"map_{tag}"))
        assert runs[0] == runs[1]
        assert set(runs[0]) == {"regime_map.csv", "legend.csv"}

    def test_map_rows_and_legend(self, tmp_path):
        cfg = write_cfg(tmp_path, MAP_CFG)
        main(["regime-map", "-c", str(cfg), "--threads", "1"])
        map_lines = (tmp_path / "out" / "regime_map.csv").read_text().splitlines()
        assert map_lines[0] == "t0,omega_l_bar,label"
        assert len(map_lines) == 1 + 9
        labels = [int(line.rsplit(",", 1)[1]) for line in map_lines[1:]]
        assert max(labels) >= 1
        legend_lines = (tmp_path / "out" / "legend.csv").read_text().splitlines()
        assert legend_lines[0] == "label,signature_left,signature_right"
        legend_ids = {int(line.split(",")[0]) for line in legend_lines[1:]}
        assert legend_ids == {label for label in labels if label > 0}

    def test_requires_sweep(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("idler: 0.0\n", encoding="utf-8")
        assert main(["regime-map", "-c", str(path)]) == 2

    def test_coarse_10x10_sweep_has_two_labels(self, tmp_path):
        # idler axis aligned so two grid columns land in the
        # sign-transition windows at +/-0.99
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "probe:\n  kind: entangled\n  sigma_p: 1.0\n"
            "sweep:\n  t0: {min: 0.0, max: 15.0, count: 10}\n"
            "  omega_l: {min: -1.782, max: 1.782, count: 10}\n"
            f"output:\n  directory: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main(["regime-map", "-c", str(path), "--threads", "2"]) == 0
        legend = (tmp_path / "out" / "legend.csv").read_text().splitlines()
        assert len(legend) - 1 >= 2


class TestDressedCommand:
    def test_resonant_report(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("drive:\n  omega31: 0.1\n", encoding="utf-8")
        assert main(["dressed", "-c", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[left]" in out and "[right]" in out
        assert "-2.000000000e-01" in out  # left lambda_1
        assert "-1.000000000e-01" in out  # right lambda_1
        assert "2.000000000e-01" in out
        assert "[discrimination_window]" in out

    def test_no_drive_empty_window(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "drive:\n  omega21: 0.0\n  omega31: 0.0\n  omega32: 0.0\n",
            encoding="utf-8",
        )
        assert main(["dressed", "-c", str(path)]) == 0
        out = capsys.readouterr().out
        assert "empty" in out

    def test_large_detuning_window_measure(self, tmp_path, capsys):
        from chirospec.model import (
            Chirality,
            DriveConfig,
            build_rotating_hamiltonian,
            dressed_states,
        )

        path = tmp_path / "cfg.yaml"
        path.write_text(
            "drive:\n  delta21: 10.0\n  delta31: 10.0\n", encoding="utf-8"
        )
        assert main(["dressed", "-c", str(path)]) == 0
        out = capsys.readouterr().out
        lams = {}
        for chirality in Chirality:
            cfg = DriveConfig(0.1, 0.1, 0.1, 10.0, 10.0, chirality)
            d = dressed_states(build_rotating_hamiltonian(cfg), chirality)
            lams[chirality] = d.lambdas[int(np.argmax(d.eta1_sq))]
        expected = 2.0 * abs(lams[Chirality.LEFT] - lams[Chirality.RIGHT])
        measure = float(re.search(r"total_measure = (\S+)", out).group(1))
        assert measure == pytest.approx(expected, rel=1e-6)


class TestShippedConfigs:
    def test_classical_probe_config_all_indistinguishable(self, tmp_path):
        cfg = CONFIG_DIR / "classical_probe.yaml"
        out = tmp_path / "out"
        assert main(["spectrum", "-c", str(cfg), "--out", str(out), "--threads", "2"]) == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "idler_count = 20" in manifest
        assert "distinguishable = true" not in manifest

    def test_entangled_probe_config_six_plus_pairs(self, tmp_path):
        cfg = CONFIG_DIR / "entangled_probe.yaml"
        out = tmp_path / "out"
        assert main(["spectrum", "-c", str(cfg), "--out", str(out), "--threads", "2"]) == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        pairs = set(
            zip(
                re.findall(r"signature_left = (\S+)", manifest),
                re.findall(r"signature_right = (\S+)", manifest),
            )
        )
        assert len(pairs) >= 6
        assert "distinguishable = true" in manifest

    def test_dressed_large_detuning_config(self, capsys):
        cfg = CONFIG_DIR / "dressed_large_detuning.yaml"
        assert main(["dressed", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "[discrimination_window]" in out
        assert "empty" not in out


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("noise:\n  gamma: -1\n", encoding="utf-8")
        assert main(["dressed", "-c", str(path)]) == 2

    def test_missing_file_is_2(self):
        assert main(["dressed", "-c", "/does/not/exist.yaml"]) == 2

    def test_unresolving_scan_step_is_2(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "probe:\n  kind: entangled\n  t_s: 24.0\n  t_l: 25.0\n"
            "scan:\n  half_width: 3.0\n  step: 0.05\n"
            "idler: 0.0\n",
            encoding="utf-8",
        )
        assert main(["spectrum", "-c", str(path), "--threads", "1"]) == 2

    def test_oversized_scan_grid_is_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        text = QUANTUM_CFG.format(out=tmp_path / "out")
        path.write_text(text.replace("step: 0.002", "step: 1.0e-12"), encoding="utf-8")
        assert main(["spectrum", "-c", str(path), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("chirospec: config error:")
        assert str(MAX_GRID_POINTS) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_is_3(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        blocker = tmp_path / "blocked"
        blocker.write_text("", encoding="utf-8")  # a file where a dir must go
        cfg.write_text(
            SPECTRUM_CFG.format(out=blocker / "sub"), encoding="utf-8"
        )
        assert main(["spectrum", "-c", str(cfg), "--threads", "1"]) == 3
