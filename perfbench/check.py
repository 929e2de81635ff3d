"""Output checks: reference digests plus structure the program must keep.

Every output file but ``run_record.txt`` (which embeds the wall time) is
hashed with sha256.  A command's digest is the sha256 of its
``"<sha256>  <file name>\\n"`` lines in name order, as ``sha256sum`` prints
them.  ``reference_hashes.json`` holds the digest of each command for the
recorded seeds and, at the default seed, the hash of every file.  Both map
workloads are checked against the same digest, so the pool writes the same
bytes as the serial path.

A later change that alters output numbers on purpose re-records the table:

    PYTHONPATH=src python3 perfbench/check.py --record 0-99
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_hashes.json"
RUN_RECORD = "run_record.txt"
COMMANDS = {
    "regime_map": "regime-map",
    "entangled_probe": "spectrum",
    "classical_probe": "spectrum",
}


def file_hashes(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.name != RUN_RECORD
    }


def digest(hashes: dict[str, str]) -> str:
    lines = "".join(f"{h}  {name}\n" for name, h in sorted(hashes.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_digest(table: dict, name: str, seed: int) -> str | None:
    return table["digests"][name].get(str(seed))


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n")


def structure_problems(name: str, out_dir: Path, curves: int, points: int) -> list[str]:
    """What is wrong with one command's output, from the files alone."""
    problems: list[str] = []
    if not out_dir.is_dir():
        return [f"{out_dir} missing"]
    hashes = file_hashes(out_dir)
    record = out_dir / RUN_RECORD
    if not record.is_file():
        return [f"{RUN_RECORD} missing"]
    recorded = {}
    for line in _lines(record):
        key, sep, value = line.partition(" = ")
        if sep and key.startswith("checksum."):
            recorded[key.removeprefix("checksum.")] = value
    if recorded != hashes:
        problems.append(f"{RUN_RECORD} checksums disagree with the files")

    if name == "regime_map":
        rows = _lines(out_dir / "regime_map.csv")
        legend = _lines(out_dir / "legend.csv")
        if rows[0] != "t0,omega_l_bar,label" or rows[-1] != "":
            problems.append("regime_map.csv header or final newline")
        rows = [r.split(",") for r in rows[1:-1]]
        if len(rows) != curves // 2 or any(len(r) != 3 for r in rows):
            problems.append(f"regime_map.csv: {len(rows)} cells, want {curves // 2}")
        labels = {int(r[2]) for r in rows if len(r) == 3}
        known = {int(r.split(",")[0]) for r in legend[1:-1]}
        if not labels <= known | {0} or known != set(range(1, len(known) + 1)):
            problems.append("regime_map.csv labels disagree with legend.csv")
    else:
        manifest = dict(
            line.split(" = ", 1) for line in _lines(out_dir / "manifest.txt") if line
        )
        idlers = curves // 2
        if manifest.get("idler_count") != str(idlers):
            problems.append(f"manifest idler_count {manifest.get('idler_count')}")
        for k in range(idlers):
            for side in ("left", "right"):
                path = out_dir / f"curve_{side}_{k:03d}.csv"
                if not path.is_file():
                    problems.append(f"{path.name} missing")
                    continue
                n = path.read_bytes().count(b"\n")
                if n != points + 1:
                    problems.append(f"{path.name}: {n - 1} points, want {points}")
        if len(hashes) != curves + 1:
            problems.append(f"{len(hashes)} output files, want {curves + 1}")
    return problems


def _record(seeds: list[int]) -> None:
    """Run every command at each seed and store its digests."""
    import gen

    work = Path(".perfbench_record")
    table = (
        load_reference()
        if REFERENCE.exists()
        else {"digests": {n: {} for n in COMMANDS}, "files_default_seed": {}}
    )
    try:
        for seed in seeds:
            for name, text in gen.make_configs(seed).items():
                cfg = work / f"{name}.yaml"
                out = work / f"out_{name}"
                work.mkdir(exist_ok=True)
                cfg.write_text(text, encoding="utf-8")
                shutil.rmtree(out, ignore_errors=True)
                subprocess.run(
                    [sys.executable, "-m", "chirospec.cli", COMMANDS[name],
                     "-c", str(cfg), "--out", str(out), "--threads", "2"],
                    check=True,
                )
                curves, points = gen.expected_sizes()[name]
                problems = structure_problems(name, out, curves, points)
                if problems:
                    raise SystemExit(f"seed {seed} {name}: {problems}")
                hashes = file_hashes(out)
                table["digests"][name][str(seed)] = digest(hashes)
                if seed == gen.DEFAULT_SEED:
                    table["files_default_seed"][name] = hashes
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name in COMMANDS:
        table["digests"][name] = dict(
            sorted(table["digests"][name].items(), key=lambda kv: int(kv[0]))
        )
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", required=True, metavar="FIRST-LAST")
    first, _, last = parser.parse_args().record.partition("-")
    _record(list(range(int(first), int(last or first) + 1)))
