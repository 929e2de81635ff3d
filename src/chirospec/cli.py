"""Command-line front end: spectrum curves, regime maps, dressed-state reports.

    chirospec spectrum   -c FILE [--out DIR] [--threads N]
    chirospec regime-map -c FILE [--out DIR] [--threads N]
    chirospec dressed    -c FILE

Outputs are UTF-8 CSV files with a header row, LF line endings and
%.9e numeric formatting, plus a flat key-value manifest and a run
record (config echo, version, wall time, sha256 per output).  Given the
same config the output bytes are identical for any thread count.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 numerical failure
or out of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from contextlib import closing
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from . import __version__
from .analysis import (
    compare_pair,
    discrimination_window,
    regime_map,
    run_jobs,
    sweep_amplitude,
)
from .biphoton import BiphotonAmplitude, FrequencyGrid, default_grid_parameters
from .config import ExperimentConfig, config_mapping, parse_config
from .errors import ConfigError, NonFiniteResult, ValidationError
from .model import Chirality, dressed_pair
from .spectrum import TransmissionKernel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

#: Rows formatted per string when a curve CSV is written.
CSV_BLOCK_ROWS = 512
_CURVE_HEADER = b"delta_s_bar,P_c\n"


def _fmt(x: float) -> str:
    return f"{x:.9e}"


def build_scan_grid(cfg: ExperimentConfig, amp: BiphotonAmplitude) -> FrequencyGrid:
    """Signal-detector scan grid: explicit ``scan`` values win, the rest are default_grid's.

    A grid that cannot be built is rejected naming the field of its center.
    """
    lambdas = np.concatenate([dressed.lambdas for dressed in dressed_pair(cfg.drive)])
    derived = default_grid_parameters(amp, cfg.noise.gamma, lambdas)
    explicit = (cfg.scan_center, cfg.scan_half_width, cfg.scan_step)
    center, half_width, step = (
        default if value is None else value for default, value in zip(derived, explicit)
    )
    source = "probe.omega_s_center" if cfg.scan_center is None else "scan.center"
    try:
        return FrequencyGrid.build(center, half_width, step)
    except ValidationError as exc:
        raise ValidationError(f"scan grid centered at {source} = {center:g}: {exc}") from exc


def _write_text(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8 and return the sha256 of the bytes written."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _curve_row_blocks(delta_s: np.ndarray) -> list[str]:
    """Row templates of a curve CSV, ``CSV_BLOCK_ROWS`` rows per block.

    Each row holds its formatted ``delta_s`` value and a ``%.9e`` slot for
    ``P_c``, so the shared scan column is formatted once per command.
    """
    points = delta_s.tolist()
    blocks = []
    for start in range(0, len(points), CSV_BLOCK_ROWS):
        chunk = points[start:start + CSV_BLOCK_ROWS]
        blocks.append(("%.9e,%%.9e\n" * len(chunk)) % tuple(chunk))
    return blocks


def _write_curve(path: Path, row_blocks: list[str], values: np.ndarray) -> str:
    """Write one curve CSV block by block; return the sha256 of its bytes.

    ``row_blocks`` comes from ``_curve_row_blocks`` of the grid the curve
    was sampled on.  Filling one block at a time keeps every transient
    string small: one string per curve fragments the heap and raises the
    peak memory of the command.
    """
    digest = hashlib.sha256(_CURVE_HEADER)
    with open(path, "wb") as fh:
        fh.write(_CURVE_HEADER)
        for k, block in enumerate(row_blocks):
            chunk = values[k * CSV_BLOCK_ROWS:(k + 1) * CSV_BLOCK_ROWS]
            if chunk.any() or not np.signbit(chunk).all():
                rows = block % tuple(chunk.tolist())
            else:  # all -0.0, as where the probe amplitude underflows
                rows = block.replace("%.9e", "-0.000000000e+00")
            data = rows.encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _flat_config_items(node: dict, prefix: str = "config"):
    """Dotted key-value pairs of a canonical config mapping, keys sorted.

    Each item of a list is one pair under the list's key, and every value
    is one line of YAML that reads back as the value.
    """
    for key in sorted(node):
        path, value = f"{prefix}.{key}", node[key]
        if isinstance(value, dict):
            yield from _flat_config_items(value, path)
            continue
        for item in value if isinstance(value, list) else [value]:
            text = yaml.safe_dump(item, width=math.inf).removesuffix("...\n").strip()
            if "\n" in text:  # a string with line breaks: escape them
                text = yaml.safe_dump(item, width=math.inf, default_style='"').strip()
            yield path, text


def _write_run_record(
    path: Path, command: str, cfg: ExperimentConfig, digests: dict[str, str],
    wall_time: float,
) -> None:
    lines = [
        "tool = chirospec",
        f"version = {__version__}",
        f"command = {command}",
        f"wall_time_s = {wall_time:.3f}",
    ]
    for key, value in _flat_config_items(config_mapping(cfg)):
        lines.append(f"{key} = {value}")
    for name, digest in digests.items():
        lines.append(f"checksum.{name} = {digest}")
    _write_text(path, "\n".join(lines) + "\n")


def _idler_result(context, omega_l_bar: float):
    """Left and right values and the ``compare_pair`` result of one idler."""
    kernel, amp = context
    left, right = kernel.curves(amp, omega_l_bar)
    return left, right, compare_pair(left, right)


def cmd_spectrum(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Write per-idler left/right curves, a manifest, and a run record.

    Each idler's curves are written as soon as its result arrives, so the
    command holds a bounded number of curves for any idler count.  The
    output directory is made when the first result arrives; a failure
    after that leaves the curves written so far, but no manifest and no
    run record.
    """
    if cfg.idler is None:
        raise ValidationError("spectrum command needs an idler section")
    started = time.time()
    scan = build_scan_grid(cfg, cfg.probe)
    context = (TransmissionKernel(dressed_pair(cfg.drive), cfg.noise, scan), cfg.probe)
    # TransmissionKernel.curves samples every curve on scan.points.
    row_blocks = _curve_row_blocks(scan.points)
    digests: dict[str, str] = {}
    manifest = [f"idler_count = {len(cfg.idler)}"]
    with closing(run_jobs(_idler_result, context, list(cfg.idler), threads)) as results:
        for index, (left, right, (sig_l, sig_r, metric, dist)) in enumerate(results):
            if index == 0:
                out_dir.mkdir(parents=True, exist_ok=True)
            tag = f"{index:03d}"
            for name, values in (("left", left), ("right", right)):
                file_name = f"curve_{name}_{tag}.csv"
                digests[file_name] = _write_curve(out_dir / file_name, row_blocks, values)
            manifest.extend(
                [
                    f"idler.{tag}.omega_l_bar = {_fmt(cfg.idler[index])}",
                    f"idler.{tag}.file_left = curve_left_{tag}.csv",
                    f"idler.{tag}.file_right = curve_right_{tag}.csv",
                    f"idler.{tag}.signature_left = {sig_l.compact()}",
                    f"idler.{tag}.signature_right = {sig_r.compact()}",
                    f"idler.{tag}.metric = {_fmt(metric)}",
                    f"idler.{tag}.distinguishable = {'true' if dist else 'false'}",
                ]
            )
    digests["manifest.txt"] = _write_text(
        out_dir / "manifest.txt", "\n".join(manifest) + "\n"
    )
    _write_run_record(
        out_dir / "run_record.txt", "spectrum", cfg, digests, time.time() - started
    )
    return EXIT_OK


def cmd_regime_map(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Sweep (T0, idler frequency), write the label table and its legend."""
    if cfg.sweep is None:
        raise ValidationError("regime-map command needs a sweep section")
    started = time.time()
    t0_values = cfg.sweep.t0_values()
    omega_l_values = cfg.sweep.omega_l_values()
    # The largest delays dictate the quadrature step for every cell.
    try:
        worst = sweep_amplitude(cfg.probe, max(t0_values))
    except ValidationError as exc:
        raise ValidationError(f"sweep.t0.max = {max(t0_values):g}: {exc}") from exc
    scan = build_scan_grid(cfg, worst)
    rm = regime_map(
        cfg.drive, cfg.probe, cfg.noise, t0_values, omega_l_values, scan,
        threads=threads,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    map_lines = ["t0,omega_l_bar,label"]
    for i, t0 in enumerate(rm.t0_axis):
        for j, wl in enumerate(rm.omega_l_axis):
            map_lines.append(f"{_fmt(t0)},{_fmt(wl)},{rm.labels[i, j]}")
    digests = {
        "regime_map.csv": _write_text(
            out_dir / "regime_map.csv", "\n".join(map_lines) + "\n"
        )
    }

    legend_lines = ["label,signature_left,signature_right"]
    for label in sorted(rm.legend):
        sig_l, sig_r = rm.legend[label]
        legend_lines.append(f"{label},{sig_l.compact()},{sig_r.compact()}")
    digests["legend.csv"] = _write_text(
        out_dir / "legend.csv", "\n".join(legend_lines) + "\n"
    )

    _write_run_record(
        out_dir / "run_record.txt", "regime-map", cfg, digests, time.time() - started
    )
    return EXIT_OK


def cmd_dressed(cfg: ExperimentConfig, stream=None) -> int:
    """Print dressed energies, overlaps, and the discrimination window."""
    stream = stream if stream is not None else sys.stdout
    left, right = dressed_pair(cfg.drive)
    for dressed in (left, right):
        name = "left" if dressed.chirality is Chirality.LEFT else "right"
        print(f"[{name}]", file=stream)
        for i in range(3):
            print(
                f"  lambda_{i + 1} = {_fmt(dressed.lambdas[i])}"
                f"  |eta1|^2 = {_fmt(dressed.eta1_sq[i])}",
                file=stream,
            )
    top_l = left.lambdas[int(np.argmax(left.eta1_sq))]
    top_r = right.lambdas[int(np.argmax(right.eta1_sq))]
    intervals = discrimination_window(top_l, top_r, cfg.noise.gamma)
    print("[discrimination_window]", file=stream)
    if not intervals:
        print("  empty", file=stream)
    for lo, hi in intervals:
        print(f"  ({_fmt(lo)}, {_fmt(hi)})", file=stream)
    print(f"  total_measure = {_fmt(sum(hi - lo for lo, hi in intervals))}", file=stream)
    return EXIT_OK


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirospec",
        description="Coincidence spectroscopy of chiral molecules with "
        "entangled photon pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_output in (("spectrum", True), ("regime-map", True), ("dressed", False)):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="YAML experiment config")
        if needs_output:
            p.add_argument("--out", default=None, help="output directory override")
            p.add_argument(
                "--threads",
                type=int,
                default=os.cpu_count() or 1,
                help="worker processes (never affects output bytes)",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "dressed":
            return cmd_dressed(cfg)
        out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
        threads = max(1, args.threads)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out_dir, threads)
        return cmd_regime_map(cfg, out_dir, threads)
    except ConfigError as exc:
        print(f"chirospec: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"chirospec: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteResult as exc:
        print(f"chirospec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"chirospec: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
