"""Command-line front end: spectrum curves, regime maps, dressed-state reports.

    chirospec spectrum   -c FILE [--out DIR] [--threads N]
    chirospec regime-map -c FILE [--out DIR] [--threads N]
    chirospec dressed    -c FILE

Outputs are UTF-8 CSV files with a header row, LF line endings and
%.9e numeric formatting, plus a flat key-value manifest and a run
record (config echo, version, wall time, counts, sha256 per output).
Curve numbers come from a vectorized formatter that equals Python's
%.9e byte for byte: correctly rounded, ties to even.  A curve is -0.0
outside the support its JSA row was sampled on; those rows are copied
from one text made per command, and only the support's are formatted.
Given the same config the output bytes are identical for any thread count.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 numerical failure
or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from . import __version__
from .analysis import compare_cell, discrimination_window, pool_workers, regime_map, sweep_amplitude
from .biphoton import BiphotonAmplitude, FrequencyGrid, default_grid_parameters
from .config import ExperimentConfig, config_mapping, parse_config
from .errors import NonFiniteResult, ValidationError
from .model import Chirality, dressed_pair
from .spectrum import TransmissionKernel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

#: Rows per write of a curve CSV.
CSV_BLOCK_ROWS = 512
#: Most curve CSV rows one spectrum may write: about 1.7 GB at 34 B per row.
MAX_SPECTRUM_ROWS = 50_000_000
#: Bytes of the widest %.9e number, "-1.234567890e-308".
_FIELD = 17
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


@functools.cache
def _e9_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of ``_format_e9``, built on first use.

    For each exponent ``e`` in -324..308: the factors ``10**s1`` and
    ``10**s2`` with ``s1 = floor((9 - e) / 2)`` and ``s2 = 9 - e - s1``
    (correctly rounded, as ``float`` parses them; the 318 powers
    ``10**-150 .. 10**167`` are parsed once each), and ``"e%+03d"`` as four
    bytes plus a fifth that is a digit or NUL.  Also ``"\\0D.D"`` and
    ``"-D.D"`` heads for the first two digits, and ``"%04d"`` of 0..9999.
    Text tables are read as native integers, so one gather writes four
    bytes.
    """
    exponents = range(-324, 309)
    powers = np.array([float(f"1e{k}") for k in range(-150, 168)])  # each s1 and s2 once
    e = np.array(exponents)
    scale1 = powers[((9 - e) >> 1) + 150]
    scale2 = powers[((10 - e) >> 1) + 150]
    heads = b"".join(
        sign + b"%d.%d" % divmod(k, 10) for sign in (b"\0", b"-") for k in range(100)
    )
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T + ord("0")
    exps = [b"e%+03d" % e for e in exponents]
    return (
        scale1,
        scale2,
        np.frombuffer(heads, np.uint32),
        np.ascontiguousarray(digits).view(np.uint32)[:, 0],
        np.frombuffer(b"".join(x[:4] for x in exps), np.uint32),
        np.frombuffer(b"".join(x[4:].ljust(1, b"\0") for x in exps), np.uint8),
    )


def _words(field: np.ndarray, start: int) -> np.ndarray:
    """Bytes ``start:start + 4`` of each row of ``field`` as one uint32 column."""
    return field[:, start:start + 4].view(np.uint32)[:, 0]


def _format_e9(values: np.ndarray, field: np.ndarray) -> None:
    """Write ``b"%.9e" % v`` of each value into its row of ``field``, NUL-padded.

    ``field`` is an (n, 17) uint8 array whose rows are contiguous; every
    byte of it is written.  Removing the NULs leaves exactly Python's
    ``%.9e``: correctly rounded, ties to even.  With ``e = floor(log10|v|)``,
    the ten digits are ``rint(m)`` of ``m = |v| * 10**s1 * 10**s2``,
    ``s1 + s2 = 9 - e``: each factor is a correctly rounded double and each
    intermediate is a normal double, even for subnormal ``v``, so ``m`` is
    within 4.5e-16 relative, below 5e-6 absolute, of the exact value.  A
    value goes to Python's ``%`` instead when ``rint(m)`` is not ten digits
    (a wrong ``e``, or rounding up into the next decade), when ``m`` lies
    within 1e-5 of a tie (every exact tie does), or when it is not finite.
    """
    scale1, scale2, heads, quads, exp4, exp1 = _e9_tables()
    # Each array is as long as the curve: dropping each one when done
    # keeps the peak memory of a command down.
    m = np.abs(values)
    finite = m <= sys.float_info.max  # NaN compares false
    live = m > 0.0
    live &= finite
    np.copyto(m, 1.0, where=~live)  # zeros and non-finite values get e = 0
    e = np.log10(m)
    e = np.floor(e, out=e).astype(np.intp)
    e += 324  # the tables start at e = -324
    m *= scale1[e]
    m *= scale2[e]
    _words(field, 12)[:] = exp4[e]
    field[:, 16] = exp1[e]
    del e
    q = np.rint(m)
    m -= q
    fallback = np.abs(m, out=m) > 0.5 - 1e-5
    del m
    fallback |= q < 1e9
    fallback |= q >= 1e10
    fallback |= ~finite
    live &= ~fallback
    q *= live  # zeros print ten zero digits; fallbacks keep the tables in range
    q = q.astype(np.int64)
    upper = q // 10000  # digits 1-6
    q -= upper * 10000  # digits 7-10
    _words(field, 8)[:] = quads[q]
    q = upper // 10000  # digits 1-2
    upper -= q * 10000  # digits 3-6
    _words(field, 4)[:] = quads[upper]
    np.add(q, 100, out=q, where=np.signbit(values))
    _words(field, 0)[:] = heads[q]
    for i in np.flatnonzero(fallback).tolist():
        text = b"%.9e" % float(values[i])
        field[i] = np.frombuffer(text.ljust(_FIELD, b"\0"), np.uint8)


def _curve_rows(delta_s: np.ndarray) -> tuple[np.ndarray, bytearray, np.ndarray]:
    """Row buffer of a curve CSV, its text at -0.0 and each row's offset in that text.

    A row is ``delta_s``, ``,``, a ``P_c`` field and ``\\n``, each number in a
    NUL-padded ``_FIELD``-byte field.  Made once per command: the scan
    column, every ``P_c`` field at -0.0, the NUL-free text of those rows,
    built ``CSV_BLOCK_ROWS`` rows at a time so that no transient is as
    large as it, and the int64 byte offset of each row and of the end.
    """
    n = delta_s.size
    rows = np.zeros((n, 2 * _FIELD + 2), np.uint8)
    _format_e9(delta_s, rows[:, :_FIELD])
    rows[:, _FIELD] = ord(",")
    _format_e9(np.array([-0.0]), rows[:1, _FIELD + 1:-1])
    rows[1:, _FIELD + 1:-1] = rows[0, _FIELD + 1:-1]
    rows[:, -1] = ord("\n")
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.count_nonzero(rows, axis=1), out=offsets[1:])
    text = bytearray(int(offsets[-1]))
    for start in range(0, n, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, n)
        text[offsets[start]:offsets[stop]] = rows[start:stop].tobytes().replace(b"\0", b"")
    return rows, text, offsets


def _write_curve(path: Path, curve_rows: tuple, support: slice, values: np.ndarray) -> str:
    """Write one curve CSV; return the sha256 of its bytes.

    ``curve_rows`` comes from ``_curve_rows`` of the grid the curve was
    sampled on, and ``values`` is the curve on ``support``, a slice of unit
    step; every other row is -0.0 and is written from slices of the -0.0
    text.  Only the support's ``P_c`` fields are formatted, over the
    buffer's, and written and hashed ``CSV_BLOCK_ROWS`` rows at a time, so
    every transient bytes object is small: one per curve fragments the
    heap and raises the peak memory of the command.
    """
    rows, text, offsets = curve_rows
    start, stop, _ = support.indices(len(rows))
    block = rows[start:stop]
    _format_e9(values, block[:, _FIELD + 1:-1])
    text = memoryview(text)
    pieces = itertools.chain(
        (_CURVE_HEADER, text[:offsets[start]]),
        (
            block[k:k + CSV_BLOCK_ROWS].tobytes().replace(b"\0", b"")
            for k in range(0, len(block), CSV_BLOCK_ROWS)
        ),
        (text[offsets[stop]:],),
    )
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in pieces:
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _config_leaves(node: dict, prefix: str):
    """``(dotted key, value)`` of every scalar of a nested mapping, keys sorted.

    Each item of a list is one leaf under the list's key.
    """
    for key in sorted(node):
        path, value = f"{prefix}.{key}", node[key]
        if isinstance(value, dict):
            yield from _config_leaves(value, path)
        else:
            for item in value if isinstance(value, list) else [value]:
                yield path, item


def _flat_config_items(node: dict, prefix: str = "config") -> list[tuple[str, str]]:
    """Dotted key-value pairs of a canonical config mapping, keys sorted.

    Every value is one line of YAML that reads back as the value.  All
    values but strings come from one ``safe_dump`` of them as a block list,
    a ``- value`` line each, which writes each as its own dump would.
    """
    leaves = list(_config_leaves(node, prefix))
    others = [value for _, value in leaves if not isinstance(value, str)]
    dumped = iter(yaml.safe_dump(others, width=math.inf).splitlines() if others else ())
    items = []
    for path, value in leaves:
        if not isinstance(value, str):
            text = next(dumped).removeprefix("- ")
        else:
            text = yaml.safe_dump(value, width=math.inf).removesuffix("...\n").strip()
            if "\n" in text:  # a string with line breaks: escape them
                text = yaml.safe_dump(value, width=math.inf, default_style='"').strip()
        items.append((path, text))
    return items


def _write_run_record(
    path: Path, command: str, cfg: ExperimentConfig, digests: dict[str, str],
    wall_time: float, stats: dict[str, object],
) -> None:
    """Write the run record; ``stats`` holds its ``count.*`` and ``time.*`` lines."""
    lines = [
        "tool = chirospec",
        f"version = {__version__}",
        f"command = {command}",
        f"wall_time_s = {wall_time:.3f}",
    ]
    lines.extend(f"{key} = {value}" for key, value in stats.items())
    for key, value in _flat_config_items(config_mapping(cfg)):
        lines.append(f"{key} = {value}")
    for name, digest in digests.items():
        lines.append(f"checksum.{name} = {digest}")
    _write_text(path, "\n".join(lines) + "\n")


def cmd_spectrum(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Write per-idler left/right curves, a manifest, and a run record.

    The idlers run in process, one at a time; each idler's curves are compared by
    ``compare_cell``, on its JSA row's support as the regime map's are, and written as
    soon as they are computed, so the command holds one idler's curves for any idler
    count.  A spectrum of more than MAX_SPECTRUM_ROWS CSV rows is rejected before any
    file is written.  The output directory is made after the first idler's curves; a
    failure after that leaves the curves written so far, but no manifest and no run record.
    """
    if cfg.idler is None:
        raise ValidationError("spectrum command needs an idler section")
    started = time.time()
    scan = build_scan_grid(cfg, cfg.probe)
    csv_rows = 2 * len(cfg.idler) * scan.points.size
    if csv_rows > MAX_SPECTRUM_ROWS:
        raise ValidationError(
            f"{len(cfg.idler)} idlers x {scan.points.size} scan points would write "
            f"{csv_rows} CSV rows, above {MAX_SPECTRUM_ROWS}"
        )
    kernel = TransmissionKernel(dressed_pair(cfg.drive), cfg.noise, scan)
    rows = _curve_rows(scan.points)
    digests: dict[str, str] = {}
    manifest = [f"idler_count = {len(cfg.idler)}"]
    write_s = 0.0
    for index, (support, *curves) in enumerate(kernel.curves(cfg.probe, cfg.idler)):
        sig_l, sig_r, metric, dist = compare_cell(scan, support, *curves)
        if index == 0:
            out_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{index:03d}"
        write_started = time.perf_counter()
        for name, values in zip(("left", "right"), curves):
            file_name = f"curve_{name}_{tag}.csv"
            digests[file_name] = _write_curve(out_dir / file_name, rows, support, values)
        write_s += time.perf_counter() - write_started
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
    stats = {
        "count.curves": 2 * len(cfg.idler),
        "count.scan_points": scan.points.size,
        "count.workers": 1,
        "time.write_s": f"{write_s:.3f}",
    }
    _write_run_record(
        out_dir / "run_record.txt", "spectrum", cfg, digests, time.time() - started, stats
    )
    return EXIT_OK


def cmd_regime_map(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Sweep (T0, idler frequency), write the label table and its legend."""
    if cfg.sweep is None:
        raise ValidationError("regime-map command needs a sweep section")
    started = time.time()
    t0_values = cfg.sweep.t0_values()
    omega_l_values = cfg.sweep.omega_l_values()
    # The largest delays dictate the scan step for every cell.
    try:
        worst = sweep_amplitude(cfg.probe, max(t0_values))
    except ValidationError as exc:
        raise ValidationError(f"sweep.t0.max = {max(t0_values):g}: {exc}") from exc
    scan = build_scan_grid(cfg, worst)
    map_started = time.perf_counter()
    rm = regime_map(
        cfg.drive, cfg.probe, cfg.noise, t0_values, omega_l_values, scan,
        threads=threads,
    )
    map_s = time.perf_counter() - map_started

    out_dir.mkdir(parents=True, exist_ok=True)
    map_lines = ["t0,omega_l_bar,label"]
    omega_l_texts = [_fmt(wl) for wl in rm.omega_l_axis]
    for t0, labels in zip(rm.t0_axis, rm.labels.tolist()):
        t0_text = _fmt(t0)
        map_lines.extend(f"{t0_text},{wl},{label}" for wl, label in zip(omega_l_texts, labels))
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

    cells = rm.labels.size
    stats = {
        "count.cells": cells,
        "count.curves": 2 * cells,
        "count.scan_points": scan.points.size,
        "count.workers": pool_workers(threads, len(t0_values)),
        "time.map_s": f"{map_s:.3f}",
    }
    _write_run_record(
        out_dir / "run_record.txt", "regime-map", cfg, digests, time.time() - started, stats
    )
    return EXIT_OK


def cmd_dressed(cfg: ExperimentConfig, stream=None) -> int:
    """Print dressed energies, overlaps, and the window of the two dominant lines, if any."""
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
    tops = [dressed.dominant_line() for dressed in (left, right)]
    print("[discrimination_window]", file=stream)
    if None in tops:
        print("  undefined: lines of different energy tie for the largest |eta1|^2", file=stream)
        return EXIT_OK
    intervals = discrimination_window(
        left.lambdas[tops[0]], right.lambdas[tops[1]], cfg.noise.gamma
    )
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
        raise ValidationError(f"cannot read config file: {exc}") from exc
    return parse_config(text, path)


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
                help="worker processes of the regime map; spectrum runs in process "
                "(never affects output bytes)",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "dressed":
            return cmd_dressed(cfg)
        out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out_dir)
        return cmd_regime_map(cfg, out_dir, max(1, args.threads))
    except ValidationError as exc:
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
