"""End-to-end tests of the command-line interface and its file contracts."""

import contextlib
import hashlib
import io
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirospec import analysis, cli, model, spectrum
from chirospec.biphoton import MAX_GRID_POINTS, FrequencyGrid, default_grid
from chirospec.cli import (
    CSV_BLOCK_ROWS, MAX_SPECTRUM_ROWS, _curve_rows, _e9_tables, _write_curve, main,
)
from chirospec.config import MAX_IDLER_COUNT, MAX_SWEEP_CELLS, parse_config
from chirospec.errors import NonFiniteResult
from chirospec.model import dressed_pair
from chirospec.spectrum import TransmissionKernel

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

#: 2 x 2 sweeps of small T0: idlers near the probe's centre, and idlers whose square overflows.
NEAR_SWEEP, FAR_SWEEP = (
    f"sweep:\n  t0: {{min: 0.0, max: 1.0, count: 2}}\n  omega_l: {{min: {lo}, max: {hi}, count: 2}}"
    for lo, hi in (("0.0", "1.0"), ("1.0e+200", "2.0e+200"))
)


def in_process_pool(monkeypatch):
    """Make ``run_jobs`` pools run in process; returns the worker counts asked for."""
    pools = []

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            pools.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, jobs):
            return map(func, jobs)

    class InProcessContext:
        Pool = InProcessPool

    monkeypatch.setattr(analysis, "_WORKER", {})
    monkeypatch.setattr(multiprocessing, "get_context", lambda: InProcessContext)
    return pools


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
        for command, template in (("spectrum", SPECTRUM_CFG), ("regime-map", MAP_CFG)):
            out = tmp_path / command
            cfg = write_cfg(tmp_path, template, name=f"{command}.yaml", out=command)
            assert main([command, "-c", str(cfg), "--threads", "1"]) == 0
            record = (out / "run_record.txt").read_text(encoding="utf-8")
            checksums = dict(re.findall(r"^checksum\.(\S+) = (\S+)$", record, re.M))
            on_disk = {
                name: hashlib.sha256(data).hexdigest()
                for name, data in read_outputs(out).items()
            }
            assert checksums == on_disk
            assert "version = " in record
            assert "config.noise.gamma = 1.0" in record
            stats = dict(re.findall(r"^((?:count|time)\.\S+) = (\S+)$", record, re.M))
            if command == "spectrum":
                rows = len((out / "curve_left_000.csv").read_text(encoding="utf-8").splitlines())
                assert stats.keys() == {"count.curves", "count.scan_points", "count.workers",
                                        "time.write_s"}
                assert (stats["count.curves"], stats["count.scan_points"]) == ("4", str(rows - 1))
                assert float(stats["time.write_s"]) >= 0.0
            else:
                assert stats.keys() == {"count.cells", "count.curves", "count.scan_points",
                                        "count.workers", "time.map_s"}
                assert (stats["count.cells"], stats["count.curves"]) == ("9", "18")
                wall_time = re.search(r"^wall_time_s = (\S+)$", record, re.M).group(1)
                assert 0.0 <= float(stats["time.map_s"]) <= float(wall_time)
                assert int(stats["count.scan_points"]) > 0
            assert stats["count.workers"] == "1"

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        dest = tmp_path / "elsewhere"
        assert main(["spectrum", "-c", str(cfg), "--out", str(dest), "--threads", "1"]) == 0
        assert (dest / "manifest.txt").exists()

    def test_requires_idler(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("probe:\n  kind: uncorrelated\n", encoding="utf-8")
        assert main(["spectrum", "-c", str(path)]) == 2

    def test_starts_no_pool_at_any_thread_count(self, tmp_path):
        # 64 threads on 64 cores: the idlers still run in process
        cfg = write_cfg(tmp_path, SPECTRUM_CFG, out="out_64")
        script = (
            "import os, sys\n"
            "os.cpu_count = lambda: 64\n"
            "import chirospec.cli\n"
            f"code = chirospec.cli.main(['spectrum', '-c', {str(cfg)!r}, '--threads', '64'])\n"
            "assert code == 0, code\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        record = (tmp_path / "out_64" / "run_record.txt").read_text(encoding="utf-8")
        assert "count.workers = 1\n" in record
        serial = write_cfg(tmp_path, SPECTRUM_CFG, name="serial.yaml", out="out_1")
        assert main(["spectrum", "-c", str(serial), "--threads", "1"]) == 0
        assert read_outputs(tmp_path / "out_64") == read_outputs(tmp_path / "out_1")

    def test_run_record_echoes_long_directory_whole(self, tmp_path):
        # long enough that a YAML emitter of width 80 wraps it
        name = " ".join(["results of the entangled probe run"] * 4)
        cfg = write_cfg(tmp_path, SPECTRUM_CFG, out=name)
        assert main(["spectrum", "-c", str(cfg), "--threads", "1"]) == 0
        record = (tmp_path / name / "run_record.txt").read_text(encoding="utf-8")
        echoed = re.search(r"^config\.output\.directory = (.*)$", record, re.M).group(1)
        assert yaml.safe_load(echoed) == str(tmp_path / name)


def reference_curve_csv(delta_s, values) -> bytes:
    """The per-number writer the block writer replaced: one f-string per row."""
    lines = ["delta_s_bar,P_c"]
    for d, v in zip(delta_s, values):
        lines.append(f"{d:.9e},{v:.9e}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# Numbers whose %.9e form is easy to get wrong: signed zeros, subnormals,
# the extremes, values that round up into the next decade, exact ties at
# the tenth digit, powers of ten and their neighbours, three-digit
# exponents, and values that are not finite.
POWERS_OF_TEN = [float(f"1e{k}") for k in range(-300, 301)]
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 9.9999999995e-5, -9.9999999995e-5, 9.99999999951,
    0.99999999995, 1e-5, 1.0, -1.0,
    1234567890.5, 1234567891.5, 12345678905.0, -9999999999.5,
    *POWERS_OF_TEN,
    *np.nextafter(POWERS_OF_TEN, 0.0).tolist(),
    *np.nextafter(POWERS_OF_TEN, np.inf).tolist(),
    -1.5e-100, 9.99999999951e99, -2.5e-308, 1.2345678901e200, -7.77e-222,
    float("inf"), float("-inf"), float("nan"),
]
BLOCK_LENGTHS = [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                 2 * CSV_BLOCK_ROWS + 1]


STREAM_CFG = """\
probe:
  kind: uncorrelated
  sigma: 1.0
scan:
  half_width: 4.0
  step: 0.05
idler:
  values: [-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75]
output:
  directory: {out}
"""

MEMORY_CFG = """\
probe:
  kind: entangled
  sigma_p: 1.0
  t_s: 24.0
  t_l: 25.0
scan: {{half_width: 6.2, step: 0.004}}
idler:
  values: {idlers}
output:
  directory: {out}
"""

PEAK_MEMORY_SCRIPT = """\
import resource, sys
from chirospec.cli import main
assert main(["spectrum", "-c", sys.argv[1], "--threads", "1"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
# Linux carries a process's peak memory across exec into the program it
# starts, so a child of the test process would report the test's own peak.
# A small interpreter in between starts the measured one instead.
PEAK_MEMORY_LAUNCHER = """\
import subprocess, sys
sys.exit(subprocess.call([sys.executable, "-c", sys.argv[1], sys.argv[2]]))
"""


def fork_pool(monkeypatch):
    """Real two-worker pools started by fork, so they see this test's patches."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda: fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


class TestStreamedSpectrum:
    def test_more_threads_than_idlers_keep_the_bytes(self, tmp_path):
        # the idlers run in process at any --threads: 64 threads, 7 idlers, same bytes
        runs = []
        for tag, threads in (("a", "1"), ("b", "2"), ("c", "64")):
            cfg = write_cfg(tmp_path, STREAM_CFG, name=f"cfg_{tag}.yaml", out=f"out_{tag}")
            assert main(["spectrum", "-c", str(cfg), "--threads", threads]) == 0
            runs.append(read_outputs(tmp_path / f"out_{tag}"))
        assert len(runs[0]) == 2 * 7 + 1
        assert runs[0] == runs[1] == runs[2]

    def test_peak_memory_does_not_grow_with_idler_count(self, tmp_path):
        # 3101-point curves: holding 200 idlers' curves would add about 10 MB
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        peaks = {}
        for count in (20, 200):
            idlers = [round(-1.0 + 2.0 * k / (count - 1), 6) for k in range(count)]
            path = tmp_path / f"cfg_{count}.yaml"
            path.write_text(
                MEMORY_CFG.format(idlers=idlers, out=tmp_path / f"out_{count}"),
                encoding="utf-8",
            )
            done = subprocess.run(
                [sys.executable, "-c", PEAK_MEMORY_LAUNCHER, PEAK_MEMORY_SCRIPT, str(path)],
                env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            peaks[count] = int(done.stdout.split()[-1])
            assert len(list((tmp_path / f"out_{count}").iterdir())) == 2 * count + 2
        assert peaks[200] <= 1.1 * peaks[20], peaks

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failure_on_third_idler_leaves_no_manifest(
        self, tmp_path, monkeypatch, capsys, threads
    ):
        original = TransmissionKernel.curves

        def failing(kernel, amp, omega_l_values):
            for omega_l_bar, curves in zip(omega_l_values, original(kernel, amp, omega_l_values)):
                if omega_l_bar == -0.25:
                    raise NonFiniteResult("curve is not finite")
                yield curves

        monkeypatch.setattr(TransmissionKernel, "curves", failing)
        cfg = write_cfg(tmp_path, STREAM_CFG)
        assert main(["spectrum", "-c", str(cfg), "--threads", threads]) == 4
        assert capsys.readouterr().err == "chirospec: numerical failure: curve is not finite\n"
        assert multiprocessing.active_children() == []
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {f"curve_{side}_{k:03d}.csv" for side in ("left", "right") for k in (0, 1)}

    def test_writer_failure_is_3_and_keeps_only_written_curves(self, tmp_path, monkeypatch,
                                                              capsys):
        written = []

        def failing_write(path, rows, support, values):
            if len(written) == 4:
                raise OSError("disk full")
            written.append(path.name)
            return _write_curve(path, rows, support, values)

        monkeypatch.setattr(cli, "_write_curve", failing_write)
        cfg = write_cfg(tmp_path, STREAM_CFG)
        assert main(["spectrum", "-c", str(cfg), "--threads", "2"]) == 3
        assert capsys.readouterr().err == "chirospec: i/o error: disk full\n"
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(written)


@st.composite
def curve_columns(draw):
    """Two columns of random float64 bit patterns (every exponent is as
    likely), with drawn floats and edge cases placed at drawn rows."""
    n = draw(st.sampled_from(BLOCK_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = rng.integers(0, 2**64, size=(2, n), dtype=np.uint64)
    columns = columns.view(np.float64)
    columns[~np.isfinite(columns)] = 1.0
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
    )
    placed = st.tuples(st.integers(0, 1), st.integers(0, n - 1), number)
    for column, row, x in draw(st.lists(placed, max_size=32)):
        columns[column, row] = x
    return columns[0], columns[1]


class TestCurveCsvOracle:
    @settings(max_examples=200, deadline=None)
    @given(columns=curve_columns())
    @example(columns=(np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1])))
    def test_block_writer_matches_reference(self, columns, tmp_path_factory):
        delta_s, values = columns
        path = tmp_path_factory.mktemp("csv") / "curve.csv"
        digest = _write_curve(path, _curve_rows(delta_s), slice(None), values)
        expected = reference_curve_csv(delta_s, values)
        assert path.read_bytes() == expected
        assert digest == hashlib.sha256(expected).hexdigest()


class TestCurveCsvNearTies:
    def test_ten_digit_near_ties_round_as_python(self, tmp_path):
        # d5 at the eleventh digit: the double lies within about 1e-6 of
        # the rounding boundary, inside the band that goes to Python's %
        rng = np.random.default_rng(20261019)
        digits = rng.integers(10**9, 10**10, size=100_000).tolist()
        exponents = rng.integers(-320, 301, size=100_000).tolist()
        values = np.array([float(f"{d}5e{k}") for d, k in zip(digits, exponents)])
        path = tmp_path / "curve.csv"
        _write_curve(path, _curve_rows(values[::-1]), slice(None), values)
        expected = "delta_s_bar,P_c\n" + "".join(
            "%.9e,%.9e\n" % pair for pair in zip(values[::-1].tolist(), values.tolist())
        )
        assert path.read_bytes() == expected.encode("utf-8")


NEG_ZERO, POS_ZERO = "-0.000000000e+00", "0.000000000e+00"
ROWS = 2 * CSV_BLOCK_ROWS + 3  # two full blocks and a short last one


def zero_blocks(block_0, block_1, last):
    """A curve and its P_c texts, one (value, text) pair per block."""
    pairs = [block_0] * CSV_BLOCK_ROWS + [block_1] * CSV_BLOCK_ROWS + [last] * 3
    return np.array([v for v, _ in pairs]), [t for _, t in pairs]


def mixed_zero_blocks():
    """-0.0 everywhere but one +0.0 in the second block and 1.25 in the last."""
    values, texts = zero_blocks((-0.0, NEG_ZERO), (-0.0, NEG_ZERO), (-0.0, NEG_ZERO))
    values[CSV_BLOCK_ROWS + 188], texts[CSV_BLOCK_ROWS + 188] = 0.0, POS_ZERO
    values[ROWS - 2], texts[ROWS - 2] = 1.25, "1.250000000e+00"
    return values, texts


class TestCurveCsvZeroBlocks:
    """Whole blocks of signed zeros, as where the probe amplitude underflows."""

    @pytest.mark.parametrize(
        "values,texts",
        [
            zero_blocks((-0.0, NEG_ZERO), (-0.0, NEG_ZERO), (-0.0, NEG_ZERO)),
            zero_blocks((0.0, POS_ZERO), (0.0, POS_ZERO), (0.0, POS_ZERO)),
            zero_blocks((-0.0, NEG_ZERO), (-2.5e-7, "-2.500000000e-07"), (0.0, POS_ZERO)),
            zero_blocks((3.0, "3.000000000e+00"), (-0.0, NEG_ZERO), (-0.0, NEG_ZERO)),
            mixed_zero_blocks(),
        ],
        ids=["all-negative-zero", "all-positive-zero", "zero-block-first",
             "zero-blocks-last", "mixed-in-blocks"],
    )
    def test_matches_plain_formatting(self, tmp_path, values, texts):
        delta_s = np.arange(ROWS) * 0.25 - 10.0
        expected = "delta_s_bar,P_c\n" + "".join(
            f"{d:.9e},{t}\n" for d, t in zip(delta_s.tolist(), texts)
        )
        digest = _write_curve(tmp_path / "curve.csv", _curve_rows(delta_s), slice(None), values)
        assert (tmp_path / "curve.csv").read_bytes() == expected.encode("utf-8")
        assert digest == hashlib.sha256(expected.encode("utf-8")).hexdigest()


#: Rows of the support tests' grid: three full blocks and a short last one.
GRID_ROWS = 3 * CSV_BLOCK_ROWS + 5
#: Supports on that grid: empty, whole, one point at each edge (the last past the
#: end, as ``row_support`` may give it), shorter than a block, and over several blocks.
SUPPORTS = {
    "empty": slice(0, 0),
    "empty-inside": slice(700, 700),
    "whole": slice(None),
    "first-point": slice(0, 1),
    "last-point": slice(GRID_ROWS - 1, GRID_ROWS + 1),
    "short": slice(100, 100 + CSV_BLOCK_ROWS - 1),
    "several-blocks": slice(5, 5 + 2 * CSV_BLOCK_ROWS + 7),
}


def support_values(size, seed):
    """Random values of both signs with +0.0, -0.0 and 3-digit exponents at drawn rows."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    specials = [0.0, -0.0, -1.5e-123, 2.5e200, -7.25e-308, 5e-324, -3.0]
    rows = rng.integers(0, size, len(specials)) if size else []
    for row, x in zip(rows, specials):
        values[row] = x
    return values


class TestCurveCsvSupport:
    """A curve written from its support-length values: -0.0 on every other row."""

    @pytest.mark.parametrize("name", SUPPORTS)
    def test_matches_python_formatting(self, tmp_path, name):
        delta_s = np.arange(GRID_ROWS) * 0.0125 - 9.0
        delta_s[[1, 2, 3]] = 0.0, -0.0, 1.25e-150
        rows = _curve_rows(delta_s)
        # another curve first, over the whole grid, so that stale P_c fields would show
        _write_curve(tmp_path / "before.csv", rows, slice(None), support_values(GRID_ROWS, 1))
        support = SUPPORTS[name]
        start, stop, _ = support.indices(GRID_ROWS)
        values = support_values(stop - start, 2)
        digest = _write_curve(tmp_path / "curve.csv", rows, support, values)
        full = np.full(GRID_ROWS, -0.0)
        full[support] = values
        expected = ("delta_s_bar,P_c\n" + "".join(
            "%.9e,%.9e\n" % pair for pair in zip(delta_s.tolist(), full.tolist())
        )).encode("utf-8")
        written = (tmp_path / "curve.csv").read_bytes()
        assert written == expected
        assert digest == hashlib.sha256(written).hexdigest()


class TestCurveCsvTables:
    def test_scale_tables_equal_the_per_exponent_parse(self):
        scale1, scale2 = _e9_tables()[:2]
        exponents = range(-324, 309)
        expected1 = np.array([float(f"1e{(9 - e) >> 1}") for e in exponents])
        expected2 = np.array([float(f"1e{(10 - e) >> 1}") for e in exponents])
        assert scale1.tobytes() == expected1.tobytes()
        assert scale2.tobytes() == expected2.tobytes()


class TestRegimeMapCommand:
    def test_outputs_and_determinism(self, tmp_path):
        runs = []
        for tag, threads in (("a", "1"), ("b", "2")):
            cfg = write_cfg(tmp_path, MAP_CFG, name=f"map_{tag}.yaml", out=f"map_{tag}")
            assert main(["regime-map", "-c", str(cfg), "--threads", threads]) == 0
            runs.append(read_outputs(tmp_path / f"map_{tag}"))
        assert runs[0] == runs[1]
        assert set(runs[0]) == {"regime_map.csv", "legend.csv"}

    def test_pool_has_at_most_one_worker_per_core(self, tmp_path, monkeypatch):
        pools = in_process_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        runs = []
        for tag, threads in (("a", "1"), ("b", "64")):
            cfg = write_cfg(tmp_path, MAP_CFG, name=f"map_{tag}.yaml", out=f"map_{tag}")
            assert main(["regime-map", "-c", str(cfg), "--threads", threads]) == 0
            runs.append(read_outputs(tmp_path / f"map_{tag}"))
        assert pools == [3]
        assert runs[0] == runs[1]

    def test_one_job_per_t0_row(self, tmp_path, monkeypatch):
        in_process_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        original, jobs = analysis.run_jobs, []

        def recorded_run_jobs(func, context, job_list, threads):
            jobs.append(job_list)
            return original(func, context, job_list, threads)

        monkeypatch.setattr(analysis, "run_jobs", recorded_run_jobs)
        cfg = write_cfg(tmp_path, MAP_CFG)
        assert main(["regime-map", "-c", str(cfg), "--threads", "2"]) == 0
        assert jobs == [[9.0, 10.5, 12.0]]

    def test_failing_row_in_a_pool_is_4_and_leaves_no_worker(self, tmp_path, monkeypatch,
                                                            capsys):
        fork_pool(monkeypatch)  # the workers inherit the patched kernel
        original = TransmissionKernel.curves

        def failing(kernel, amp, *args):
            if amp.t_s == analysis.SWEEP_T_S_RATIO * 10.5:  # the second of 3 rows
                raise NonFiniteResult("curve is not finite")
            return original(kernel, amp, *args)

        monkeypatch.setattr(TransmissionKernel, "curves", failing)
        cfg = write_cfg(tmp_path, MAP_CFG)
        assert main(["regime-map", "-c", str(cfg), "--threads", "2"]) == 4
        assert capsys.readouterr().err == "chirospec: numerical failure: curve is not finite\n"
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out").exists()

    def test_serial_run_never_imports_multiprocessing(self, tmp_path):
        cfg = write_cfg(tmp_path, MAP_CFG)
        script = (
            "import sys\n"
            "import chirospec.cli\n"
            f"code = chirospec.cli.main(['regime-map', '-c', {str(cfg)!r}, '--threads', '1'])\n"
            "assert code == 0, code\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "regime_map.csv").is_file()

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


class TestDressedPairOncePerCommand:
    @pytest.mark.parametrize(
        "command, template",
        [("spectrum", SPECTRUM_CFG), ("regime-map", MAP_CFG)],
        ids=["spectrum", "regime-map"],
    )
    def test_each_enantiomer_diagonalized_once(self, tmp_path, monkeypatch, command, template):
        original, calls = model.dressed_states, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(model, "dressed_states", counted)
        model.dressed_pair.cache_clear()
        cfg = write_cfg(tmp_path, template)
        assert main([command, "-c", str(cfg), "--threads", "1"]) == 0
        assert len(calls) == 2


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

    def test_near_achiral_drive_exits_0(self, tmp_path, capsys):
        # the two lambdas differ by less than the resolution of lambda +- gamma
        path = tmp_path / "cfg.yaml"
        path.write_text("drive: {omega31: 1.0e-17}\n", encoding="utf-8")
        assert main(["dressed", "-c", str(path)]) == 0
        captured = capsys.readouterr()
        assert "[discrimination_window]\n  empty\n" in captured.out
        assert captured.err == ""

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


# The config echo of the shipped configs' run records, one line per value.
# classical_probe.yaml is the one shipped config with an uncorrelated probe, which
# echoes no omega_pump, and with the {min, max, step} idler form, echoed as its values.
CLASSICAL_ECHO = """\
config.drive.delta21 = 0.0
config.drive.delta31 = 0.0
config.drive.omega21 = 0.1
config.drive.omega31 = 0.1
config.drive.omega32 = 0.1
config.idler.values = -1.254
config.idler.values = -1.1219999999999999
config.idler.values = -0.99
config.idler.values = -0.858
config.idler.values = -0.726
config.idler.values = -0.594
config.idler.values = -0.46199999999999997
config.idler.values = -0.32999999999999996
config.idler.values = -0.19799999999999995
config.idler.values = -0.06599999999999984
config.idler.values = 0.06600000000000006
config.idler.values = 0.19799999999999995
config.idler.values = 0.33000000000000007
config.idler.values = 0.4620000000000002
config.idler.values = 0.5940000000000001
config.idler.values = 0.726
config.idler.values = 0.8580000000000001
config.idler.values = 0.9900000000000002
config.idler.values = 1.1220000000000003
config.idler.values = 1.254
config.noise.gamma = 1.0
config.output.directory = out_classical
config.probe.kind = uncorrelated
config.probe.omega_l_center = 0.0
config.probe.omega_s_center = 0.0
config.probe.sigma = 1.0
config.probe.sigma_p = 1.0
config.probe.t_l = 0.0
config.probe.t_s = 0.0
"""
ENTANGLED_ECHO = """\
config.drive.delta21 = 0.0
config.drive.delta31 = 0.0
config.drive.omega21 = 0.1
config.drive.omega31 = 0.1
config.drive.omega32 = 0.1
config.idler.values = -1.2
config.idler.values = -1.03
config.idler.values = -0.99
config.idler.values = -0.955
config.idler.values = 0.0
config.idler.values = 0.955
config.idler.values = 0.99
config.idler.values = 1.03
config.idler.values = 1.2
config.noise.gamma = 1.0
config.output.directory = out_entangled
config.probe.kind = entangled
config.probe.omega_l_center = 0.0
config.probe.omega_pump = 0.0
config.probe.omega_s_center = 0.0
config.probe.sigma = 1.0
config.probe.sigma_p = 1.0
config.probe.t_l = 25.0
config.probe.t_s = 24.0
"""
REGIME_MAP_ECHO = """\
config.drive.delta21 = 0.0
config.drive.delta31 = 0.0
config.drive.omega21 = 0.1
config.drive.omega31 = 0.1
config.drive.omega32 = 0.1
config.noise.gamma = 1.0
config.output.directory = out_regime_map
config.probe.kind = entangled
config.probe.omega_l_center = 0.0
config.probe.omega_pump = 0.0
config.probe.omega_s_center = 0.0
config.probe.sigma = 1.0
config.probe.sigma_p = 1.0
config.probe.t_l = 0.0
config.probe.t_s = 0.0
config.sweep.omega_l.count = 20
config.sweep.omega_l.max = 1.254
config.sweep.omega_l.min = -1.254
config.sweep.t0.count = 20
config.sweep.t0.max = 15.0
config.sweep.t0.min = 0.0
"""


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

    @pytest.mark.parametrize(
        "name, command, expected",
        [
            ("classical_probe.yaml", "spectrum", CLASSICAL_ECHO),
            ("entangled_probe.yaml", "spectrum", ENTANGLED_ECHO),
            ("regime_map.yaml", "regime-map", REGIME_MAP_ECHO),
        ],
    )
    def test_run_record_config_lines(self, tmp_path, name, command, expected):
        cfg = parse_config((CONFIG_DIR / name).read_text(encoding="utf-8"))
        path = tmp_path / "run_record.txt"
        cli._write_run_record(path, command, cfg, {}, 0.0, {})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("config.")] == expected.splitlines()

    def test_dressed_large_detuning_config(self, capsys):
        cfg = CONFIG_DIR / "dressed_large_detuning.yaml"
        assert main(["dressed", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "[discrimination_window]" in out
        assert "empty" not in out

    def test_tied_dominant_lines_leave_the_window_undefined(self, capsys):
        # the canonical drive: all six |eta1|^2 are 1/3, on lines of different energy
        assert main(["dressed", "-c", str(CONFIG_DIR / "entangled_probe.yaml")]) == 0
        out = capsys.readouterr().out
        assert out.endswith(
            "[discrimination_window]\n"
            "  undefined: lines of different energy tie for the largest |eta1|^2\n"
        )
        assert "total_measure" not in out


class TestScanGrid:
    def test_derived_scan_grid_is_default_grid(self):
        # rebuilding from the built grid's own step gave this probe one interval more
        cfg = parse_config("probe: {kind: uncorrelated, sigma: 0.64}\nidler: 0.0\n")
        lambdas = np.concatenate([dressed.lambdas for dressed in dressed_pair(cfg.drive)])
        expected = default_grid(cfg.probe, cfg.noise.gamma, lambdas)
        assert expected.points.size == 389
        scan = cli.build_scan_grid(cfg, cfg.probe)
        assert scan.points.tobytes() == expected.points.tobytes()
        assert (scan.center, scan.half_width, scan.step) == (
            expected.center, expected.half_width, expected.step
        )

    @pytest.mark.parametrize("command, section", [
        ("spectrum", "idler: 0.0\n"),
        ("regime-map", "sweep: {t0: {min: 1.0, max: 2.0, count: 2},"
                       " omega_l: {min: 0.0, max: 1.0, count: 2}}\n"),
    ])
    def test_derived_grid_passes_the_resolution_check(self, tmp_path, capsys, command,
                                                      section):
        # the check caps the width to resolve at 1, so at gamma 100 the grid must too
        text = (
            "noise: {gamma: 100.0}\nprobe: {kind: uncorrelated, sigma: 50.0}\n" + section
            + f"output:\n  directory: {tmp_path / 'out'}\n"
        )
        (tmp_path / "cfg.yaml").write_text(text, encoding="utf-8")
        assert main([command, "-c", str(tmp_path / "cfg.yaml"), "--threads", "1"]) == 0
        assert capsys.readouterr().err == ""
        cfg = parse_config(text)
        scan = cli.build_scan_grid(cfg, cfg.probe)
        assert scan.step <= 1.0 / 20.0 and scan.half_width > 600.0
        record = (tmp_path / "out" / "run_record.txt").read_text(encoding="utf-8")
        assert f"count.scan_points = {scan.points.size}\n" in record

    def test_explicit_scan_skips_derived_grid(self, tmp_path, capsys):
        # the derived grid of this probe is too large, but the command never uses it
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "probe: {kind: uncorrelated, sigma: 1.0e-6}\n"
            "scan: {half_width: 1.0e-5, step: 1.0e-8}\nidler: 0.0\n"
            f"output:\n  directory: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main(["spectrum", "-c", str(path), "--threads", "1"]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out" / "curve_left_000.csv").read_text(encoding="utf-8")
        assert rows.count("\n") == 1 + FrequencyGrid.build(0.0, 1.0e-5, 1.0e-8).points.size


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

    @pytest.mark.parametrize("command, section", [
        ("spectrum", "idler: 0.0\n"),
        ("regime-map", "sweep: {t0: {min: 1.0, max: 2.0, count: 2},"
                       " omega_l: {min: 0.0, max: 1.0, count: 2}}\n"),
    ])
    def test_scan_step_that_does_not_resolve_gamma_is_2(self, tmp_path, capsys, command,
                                                         section):
        # the step resolves the probe, but leaves one scan point per 90 line widths
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "noise: {gamma: 0.001}\nprobe: {kind: uncorrelated, sigma: 1.0}\n"
            "scan: {half_width: 4.0, step: 0.09}\n" + section
            + f"output:\n  directory: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main([command, "-c", str(path), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("chirospec: config error:")
        assert "resolve gamma" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_oversized_scan_grid_is_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        text = QUANTUM_CFG.format(out=tmp_path / "out")
        path.write_text(text.replace("step: 0.002", "step: 1.0e-12"), encoding="utf-8")
        assert main(["spectrum", "-c", str(path), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("chirospec: config error:")
        assert str(MAX_GRID_POINTS) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section, limit",
        [
            ("spectrum", "idler: {min: 0, max: 1.0e+9, step: 1}", MAX_IDLER_COUNT),
            ("spectrum", "idler: {min: -1.0e+308, max: 1.0e+308, step: 1.0e-300}",
             MAX_IDLER_COUNT),
            ("spectrum", f"idler: {{values: {[0.0] * (MAX_IDLER_COUNT + 1)}}}",
             MAX_IDLER_COUNT),
            ("regime-map",
             "sweep:\n  t0: {min: 0.0, max: 15.0, count: 1000000000}\n"
             "  omega_l: {min: -1.0, max: 1.0, count: 1000000000}",
             MAX_SWEEP_CELLS),
            # 2 x 33 idlers x 800 001 points: 52 800 066 rows, about 1.8 GB of CSV
            ("spectrum",
             "probe: {kind: uncorrelated, sigma: 1.0}\n"
             "scan: {half_width: 40.0, step: 1.0e-4}\n"
             "idler: {min: -1.0, max: 1.0, step: 0.0625}",
             "33 idlers x 800001 scan points would write 52800066 CSV rows, "
             f"above {MAX_SPECTRUM_ROWS}\n"),
        ],
        ids=["idler_range", "idler_span_overflows", "idler_list", "sweep_cells",
             "spectrum_rows"],
    )
    def test_oversized_idler_or_sweep_is_2(self, tmp_path, capsys, command, section, limit):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            f"{section}\noutput:\n  directory: {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert main([command, "-c", str(path), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("chirospec: config error:")
        assert str(limit) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section, field",
        [
            ("spectrum", "scan: {center: 1.0e+10}\nidler: 0.0", "scan.center"),
            ("spectrum",
             "probe: {kind: entangled, omega_s_center: 1.0e+300}\nidler: 0.0",
             "probe.omega_s_center"),
            ("regime-map",
             "probe: {kind: entangled}\n"
             "sweep:\n  t0: {min: 0.0, max: 1.0e+308, count: 2}\n"
             "  omega_l: {min: -1.0, max: 1.0, count: 2}",
             "sweep.t0.max"),
            ("regime-map",
             "sweep:\n  t0: {min: 0.0, max: 1.0, count: 2}\n"
             "  omega_l: {min: -1.0e+308, max: 1.0e+308, count: 2}",
             "sweep.omega_l"),
            ("spectrum", "scan: {half_width: 0.5, step: 0.1}\nidler: 0.0", "scan points"),
            ("spectrum",
             "scan: {center: 1000.0, half_width: 1.0e-13, step: 1.0e-14}\nidler: 0.0",
             "scan.center"),
        ],
        ids=["scan_center", "probe_center", "sweep_t0_overflows", "sweep_span_overflows",
             "scan_too_short", "scan_points_collapse"],
    )
    def test_unusable_grid_names_field_is_2(self, tmp_path, capsys, command, section, field):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            f"{section}\noutput:\n  directory: {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert main([command, "-c", str(path), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("chirospec: config error:")
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["spectrum", "regime-map", "dressed"])
    @pytest.mark.parametrize(
        "section, message",
        [("noise: {gamma: -1.0}", "gamma > 0"), ("probe: {sigma: -2.0}", "sigma > 0")],
        ids=["gamma", "sigma"],
    )
    def test_rejected_parameter_is_2_for_any_command(
        self, tmp_path, capsys, command, section, message
    ):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            f"{section}\nidler: 0.0\noutput:\n  directory: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main([command, "-c", str(path)]) == 2
        assert capsys.readouterr().err == f"chirospec: config error: {message}\n"

    @pytest.mark.parametrize("command", ["spectrum", "regime-map", "dressed"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("noise: {gamma: 1" + "0" * 400 + "}", "noise.gamma must be finite"),
            ('output: {directory: "a\\0b"}\nidler: 0.0', "output.directory"),
            ('output: {directory: "a\\ud800b"}\nidler: 0.0', "output.directory"),
            ("idler: " + "[" * 3000 + "]" * 3000, "nested too deeply"),
            ("drive: [", 'found \'<stream end>\' in "cfg.yaml", line 2, column 1'),
            ("drive:\n  omega21: 0.1\n   omega31: 0.1", 'in "cfg.yaml", line 3, column 11'),
            ("- 1", "config document must be a mapping"),
        ],
        ids=["integer_beyond_float", "nul_in_directory", "lone_surrogate_in_directory",
             "deep_nesting", "unclosed_flow", "misindented_key", "not_a_mapping"],
    )
    def test_unrepresentable_input_is_2(self, tmp_path, monkeypatch, capsys, command,
                                        text, message):
        monkeypatch.chdir(tmp_path)  # the default and the rejected directories are relative
        (tmp_path / "cfg.yaml").write_text(text + "\n", encoding="utf-8")
        assert main([command, "-c", "cfg.yaml"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("chirospec: config error:")
        assert message in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    def test_overflowing_dressed_energies_is_4(self, tmp_path, capsys):
        # finite couplings whose eigenvalues exceed the largest float
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "drive: {omega21: 1.0e+308, omega31: 1.0e+308, omega32: 1.0e+308}\n",
            encoding="utf-8",
        )
        assert main(["dressed", "-c", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "chirospec: numerical failure: dressed energies overflow\n"

    def test_overflowing_row_gaussian_is_4(self, tmp_path, monkeypatch, capsys):
        # an idler so far off that the map kernel's closed form of its row overflows:
        # the kernel finds it before it samples any row
        def forbidden(*args):
            raise AssertionError("a JSA row sampled before the row's Gaussian form")

        monkeypatch.setattr(spectrum, "jsa_value", forbidden)
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scan: {center: 0.0, half_width: 6.0, step: 0.05}\n"
            "sweep:\n  t0: {min: 0.0, max: 1.0, count: 2}\n"
            "  omega_l: {min: 1.0e+200, max: 2.0e+200, count: 2}\n"
            f"output: {{directory: {tmp_path / 'out'}}}\n",
            encoding="utf-8",
        )
        assert main(["regime-map", "-c", str(path), "--threads", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "chirospec: numerical failure: the JSA row's Gaussian form overflows\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section",
        [
            ("spectrum", "probe: {kind: entangled, sigma_p: 1.0e+200}\nidler: 0.0"),
            ("spectrum", "probe: {kind: uncorrelated, sigma: 1.0e+200}\nidler: 0.0"),
            ("spectrum", "idler: 1.0e+200"),
            ("regime-map", "probe: {kind: entangled, sigma_p: 1.0e+200}\n" + NEAR_SWEEP),
            ("regime-map", FAR_SWEEP),
        ],
        ids=["spectrum-sigma_p", "spectrum-sigma", "spectrum-idler", "map-sigma_p", "map-idler"],
    )
    def test_huge_width_or_idler_ends_in_one_line_without_a_warning(self, tmp_path, command,
                                                                   section):
        # a width or an idler whose square overflows a float: no traceback and no warning
        path = tmp_path / "cfg.yaml"
        path.write_text(
            f"scan: {{center: 0.0, half_width: 6.0, step: 0.05}}\n{section}\n"
            f"output: {{directory: {tmp_path / 'out'}}}\n",
            encoding="utf-8",
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "chirospec.cli", command,
             "-c", str(path), "--threads", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode in (0, 2, 3, 4), done.stderr
        assert done.stderr.count("\n") == (done.returncode != 0), done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr

    @pytest.mark.parametrize(
        "command, config, error, reported",
        [
            ("spectrum", "entangled_probe.yaml",
             MemoryError("Unable to allocate 16.0 GiB for an array"),
             "Unable to allocate 16.0 GiB for an array"),
            ("regime-map", "regime_map.yaml", MemoryError(), "an allocation failed"),
        ],
    )
    def test_memory_error_is_4(self, command, config, error, reported, tmp_path,
                               monkeypatch, capsys):
        def exhausted(*args):
            raise error

        monkeypatch.setattr(TransmissionKernel, "curves", exhausted)
        out = tmp_path / "out"
        args = [command, "-c", str(CONFIG_DIR / config), "--out", str(out), "--threads", "1"]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"chirospec: out of memory: {reported}\n"
        assert not out.exists()

    def test_undecodable_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"\xff\xfe")
        assert main(["dressed", "-c", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("chirospec: config error:")

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch):
        def broken(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "discrimination_window", broken)
        # a drive with one dominant line per triad, so the window is computed
        with pytest.raises(ValueError, match="internal fault"):
            main(["dressed", "-c", str(CONFIG_DIR / "dressed_large_detuning.yaml")])

    def test_unwritable_output_is_3(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        blocker = tmp_path / "blocked"
        blocker.write_text("", encoding="utf-8")  # a file where a dir must go
        cfg.write_text(
            SPECTRUM_CFG.format(out=blocker / "sub"), encoding="utf-8"
        )
        assert main(["spectrum", "-c", str(cfg), "--threads", "1"]) == 3


#: Numbers a drawn config holds: the float range's extremes, and moderate values.
EXTREMES = [1e-320, 1e-300, 1e-150, 1e154, 1e200, 1e300, 1.7e308]
POSITIVE = st.sampled_from(EXTREMES) | st.sampled_from([0.05, 0.5, 1.0, 2.5, 24.0, 49.0])
NUMBERS = st.sampled_from([0.0, -0.0]) | POSITIVE | POSITIVE.map(lambda x: -x) | st.floats(-3.0, 3.0)
#: Most scan points of a drawn scan, so that every draw stays small.
DRAWN_SCAN_POINTS = 2000


@st.composite
def config_documents(draw):
    """A config as nested sections: every numeric key of every section drawn or left out.

    Keys that must be positive are drawn positive, and ranges in order.  Most scans
    take a step that resolves gamma and the narrowest probe feature of both commands
    ten times, so that many draws pass validation.  A scan has at most
    DRAWN_SCAN_POINTS points.
    """

    def section(**keys):
        drawn = {key: draw(st.none() | values) for key, values in keys.items()}
        return {key: value for key, value in drawn.items() if value is not None}

    def axis(values):
        low, high = sorted(draw(st.lists(values, min_size=2, max_size=2, unique=True)))
        return {"min": low, "max": high, "count": draw(st.integers(2, 3))}

    noise = section(gamma=POSITIVE)
    probe = {
        "kind": draw(st.sampled_from(["uncorrelated", "entangled"])),
        **section(omega_s_center=NUMBERS, omega_l_center=NUMBERS, sigma=POSITIVE,
                  sigma_p=POSITIVE, t_s=POSITIVE, t_l=POSITIVE, omega_pump=NUMBERS),
    }
    sweep = {"t0": axis(POSITIVE), "omega_l": axis(NUMBERS)}
    scan = section(center=NUMBERS)
    if draw(st.integers(0, 3)):  # three scans in four resolve
        delays = [probe.get("t_s", 0.0), probe.get("t_l", 0.0), 2.5 * sweep["t0"]["max"]]
        widths = [noise.get("gamma", 1.0), 1.0, probe.get("sigma", 1.0), probe.get("sigma_p", 1.0)]
        scan["step"] = min(widths + [1.0 / t for t in delays if t > 0]) / 10.0
        scan["half_width"] = scan["step"] * draw(st.integers(8, DRAWN_SCAN_POINTS // 2))
    else:
        scan["half_width"], scan["step"] = half_width, step = draw(POSITIVE), draw(POSITIVE)
        if not 2 * half_width / step <= DRAWN_SCAN_POINTS:
            scan["step"] = half_width / draw(st.integers(5, DRAWN_SCAN_POINTS // 2))
    return {
        "drive": section(**dict.fromkeys(["omega21", "omega31", "omega32"], POSITIVE),
                         delta21=NUMBERS, delta31=NUMBERS),
        "noise": noise,
        "probe": probe,
        "scan": scan,
        "idler": {"values": draw(st.lists(NUMBERS, min_size=1, max_size=3))},
        "sweep": sweep,
    }


def flow_yaml(node) -> str:
    """``node`` as YAML flow text, each float written %.17e so that PyYAML reads it as a float."""
    if isinstance(node, dict):
        return "{" + ", ".join(f"{key}: {flow_yaml(value)}" for key, value in node.items()) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(flow_yaml, node)) + "]"
    return f"{node:.17e}" if isinstance(node, float) else str(node)


def run_in_process(directory, command, doc):
    """``(exit code, stdout, stderr)`` of ``cli.main`` on ``doc``, with every warning an error."""
    text = "".join(f"{name}: {flow_yaml(node)}\n" for name, node in doc.items())
    path = Path(directory) / f"{command}.yaml"
    path.write_text(text + f"output: {{directory: {Path(directory) / command}}}\n",
                    encoding="utf-8")
    args = [command, "-c", str(path)] + ([] if command == "dressed" else ["--threads", "1"])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(args)
    return code, out.getvalue(), err.getvalue()


#: An energy gap past the float range: numpy warned of an overflow in ``dominant_line``.
OVERFLOWING_GAP = {"drive": {"omega21": 1e308}}
#: A JSA exponent of inf / inf: numpy warned of an invalid value in ``jsa_value``.
INFINITE_OVER_INFINITE = {
    "probe": {"kind": "uncorrelated", "sigma": 1e154, "omega_s_center": -1e200,
              "omega_l_center": -1e154},
    "scan": {"center": 0.05, "half_width": 6.0, "step": 0.01},
    "idler": {"values": [-0.1]},
}
#: A live map row whose Gaussian form is not finite: NaN reached the Faddeeva function.
NON_FINITE_GAUSSIAN = {
    "probe": {"kind": "entangled", "sigma_p": 0.5},
    "sweep": {"t0": {"min": 2.5, "max": 49.0, "count": 2},
              "omega_l": {"min": -1.7e308, "max": 1.0, "count": 3}},
}

#: Found by the property test below.  A width whose square underflows: x / 0 in ``jsa_value``.
UNDERFLOWING_WIDTH = {
    "probe": {"kind": "uncorrelated", "sigma": 1e-300},
    "scan": {"center": 0.0, "half_width": 8e-301, "step": 1e-301},
    "idler": {"values": [0.05]},
}
#: Energies and gamma near the float range's end: the kernels' denominators overflow.
OVERFLOWING_DENOMINATOR = {
    "drive": {"delta21": -1.7e308},
    "noise": {"gamma": 1.7e308},
    "probe": {"kind": "entangled"},
    "scan": {"center": 0.0, "half_width": 2.5, "step": 0.025},
    "idler": {"values": [0.0]},
    "sweep": {"t0": {"min": 0.0, "max": 1.0, "count": 2},
              "omega_l": {"min": 0.0, "max": 1.0, "count": 2}},
}
#: A dressed energy near the float range's end: the Faddeeva function's argument overflows.
OVERFLOWING_FADDEEVA_ARGUMENT = {**OVERFLOWING_DENOMINATOR, "drive": {"omega31": 1.7e308},
                                 "noise": {"gamma": 1.0}}
#: Dressed energies the whole float range apart: their gap overflows in ``dressed_states``.
OVERFLOWING_ENERGY_SPREAD = {"drive": {"omega31": 1.7e308, "delta21": -1.7e308}}


class TestOneLineExit:
    """Every input ends in exit 0 with nothing on stderr, or in exit 2, 3 or 4 with one line."""

    @settings(max_examples=250, deadline=None)
    @given(config_documents())
    @example(OVERFLOWING_GAP)
    @example(INFINITE_OVER_INFINITE)
    @example(NON_FINITE_GAUSSIAN)
    @example(UNDERFLOWING_WIDTH)
    @example(OVERFLOWING_DENOMINATOR)
    @example(OVERFLOWING_FADDEEVA_ARGUMENT)
    @example(OVERFLOWING_ENERGY_SPREAD)
    def test_any_config_ends_in_one_line(self, doc):
        sections = {"dressed": (), "spectrum": ("idler",), "regime-map": ("sweep",)}
        with tempfile.TemporaryDirectory() as work:
            for command, own in sections.items():
                kept = {k: v for k, v in doc.items() if k in own or k not in ("idler", "sweep")}
                code, _, err = run_in_process(work, command, kept)
                assert (code, err.count("\n")) in ((0, 0), (2, 1), (3, 1), (4, 1)), (command, err)
                assert err.endswith("\n") or not err

    @pytest.mark.parametrize(
        "doc", [OVERFLOWING_DENOMINATOR, OVERFLOWING_FADDEEVA_ARGUMENT],
        ids=["denominator", "faddeeva-argument"],
    )
    def test_overflow_configs_exit_alike_from_both_kernels(self, tmp_path, doc):
        # the uncut kernel (spectrum) and the cut one (regime-map): Q_i past the float range is 0
        for command, own in (("spectrum", "idler"), ("regime-map", "sweep")):
            kept = {k: v for k, v in doc.items() if k == own or k not in ("idler", "sweep")}
            assert run_in_process(tmp_path, command, kept)[::2] == (0, ""), command

    def test_infinite_over_infinite_exponent_is_4_in_one_line(self, tmp_path):
        code, _, err = run_in_process(tmp_path, "spectrum", INFINITE_OVER_INFINITE)
        assert code == 4
        assert err == "chirospec: numerical failure: spectrum curve contains non-finite values\n"

    def test_non_finite_row_gaussian_is_4_before_any_faddeeva_call(self, tmp_path, monkeypatch):
        def forbidden(z):
            raise AssertionError("the Faddeeva function called on a row without a Gaussian form")

        monkeypatch.setattr(spectrum, "_w", forbidden)
        code, _, err = run_in_process(tmp_path, "regime-map", NON_FINITE_GAUSSIAN)
        assert code == 4
        assert err == "chirospec: numerical failure: the JSA row's Gaussian form overflows\n"
        assert not (tmp_path / "regime-map").exists()
