"""chirospec benchmark: CLI workloads timed end to end, and a traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout that holds ``src/chirospec``; the
program is imported from there, never from an installed copy.  Each
workload is a closed loop of one client: a command starts in a fresh
process only after the previous one returned.  Inputs come from
``gen.make_configs(seed)``; seed 0 is the shipped configs.  Every
command's outputs are checked (see ``check.py``).

``--trace 0`` repeats the workload's commands for ``--seconds`` and prints
the end-to-end metrics.  ``--trace 1`` makes one untraced pass, one traced
pass and the traced serial/pool map pair, and prints the per-layer metrics.
Human-readable lines come first; the last stdout line is one JSON object.
See ``README.md`` in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
CHILD = Path(__file__).resolve().parent / "child.py"

#: Pool size of regime_map_pool: the host's core count, at most 2.
POOL_WORKERS = min(len(os.sched_getaffinity(0)), 2)
#: Set-up is timed in every command process, topped up to this many samples.
MIN_SETUP_SAMPLES = 9
#: End-to-end times are reported in reference seconds: measured seconds times
#: this over the run's import time of numpy and PyYAML.  The shared host this
#: was tuned on changes speed by up to 2x within minutes; the import time,
#: measured in the same processes, moves with it and does not depend on
#: chirospec, so the ratio keeps runs comparable.
REFERENCE_IMPORT_S = 0.1
#: No command starts after this many seconds, so a run ends within 180 s.
DEADLINE_S = 165.0

WORKLOADS = {
    "regime_map_serial": (("regime_map", 1),),
    "regime_map_pool": (("regime_map", POOL_WORKERS),),
    "spectrum_configs": (("entangled_probe", 1), ("classical_probe", 1)),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "curves_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.dressed_states.calls": "count",
    "model.dressed_states.self_s": "s",
    "biphoton.jsa_value.calls": "count",
    "biphoton.jsa_value.points": "count",
    "biphoton.jsa_value.self_s": "s",
    "spectrum.transmission_curve.calls": "count",
    "spectrum.points": "count",
    "spectrum.transmission_curve.self_s": "s",
    "spectrum.curve_ms_p50": "ms",
    "spectrum.curve_ms_p90": "ms",
    "analysis.classify_lineshape.calls": "count",
    "analysis.classify_lineshape.self_s": "s",
    "analysis.signature_useful_ratio": "ratio",
    "analysis.discriminability.self_s": "s",
    "analysis.regime_map.self_s": "s",
    "analysis.pool.workers": "count",
    "analysis.pool.speedup": "x",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "cli.write_mb_per_s": "MB/s",
    "config.parse_config.self_s": "s",
    "cli.build_scan_grid.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}

#: In a pool map these functions run in the workers, whose spans are lost;
#: regime_map_pool takes their figures from the traced serial map instead.
WORKER_SIDE = (
    "model.", "biphoton.", "spectrum.", "analysis.classify_lineshape",
    "analysis.discriminability", "analysis.signature_useful_ratio",
)


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class Bench:
    """Inputs, output checks and counters of one benchmark run."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.dir = RUN_DIR / f"{workload}-seed{seed}{'-tiny' if tiny else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "inputs").mkdir(parents=True)
        (self.dir / "trace").mkdir()
        self.inputs = {}
        for name, text in gen.make_configs(seed, tiny).items():
            self.inputs[name] = self.dir / "inputs" / f"{name}.yaml"
            self.inputs[name].write_text(text, encoding="utf-8")
        self.sizes = gen.expected_sizes(tiny)
        table = check.load_reference()
        self.reference = {
            name: None if tiny else check.reference_digest(table, name, seed)
            for name in self.inputs
        }
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.cal: list[float] = []
        self.versions: dict = {}
        self.deadline = time.monotonic() + DEADLINE_S
        self.traces = 0
        self.layers: dict[str, dict] = {}
        self.measured: dict[str, list[float]] = {}
        #: Test hook: called with each output directory before it is checked.
        self.tamper = None

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def _child(self, argv: list[str]) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *argv],
            stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.time_left() + 10.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise HarnessError("a command outlived the run's deadline")
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise HarnessError(f"command process exited {proc.returncode} without a report")
        if Path(report["chirospec_file"]).resolve().parent != (SRC / "chirospec").resolve():
            raise HarnessError(f"chirospec imported from {report['chirospec_file']}")
        self.setup.append(report["setup_s"])
        self.cal.append(report["cal_s"])
        self.versions = report["versions"]
        return report

    def setup_probe(self, name: str) -> None:
        self._child([
            "--command", check.COMMANDS[name], "--config", str(self.inputs[name]),
            "--out", str(self.dir / "unused"), "--setup-only",
        ])

    def command(self, name: str, threads: int, trace: bool = False) -> dict:
        """Run one command in a fresh process and check what it wrote."""
        out = self.dir / "out" / name
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "--command", check.COMMANDS[name], "--config", str(self.inputs[name]),
            "--out", str(out), "--threads", str(threads),
        ]
        if trace:
            self.traces += 1
            trace_path = self.dir / "trace" / f"{self.traces:02d}-{name}-t{threads}.json"
            argv += ["--trace", str(trace_path)]
        report = self._child(argv)
        report.update(files=0, bytes=0)
        self.attempted += 1
        problems = []
        if report["rc"] != 0:
            problems.append(f"exit code {report['rc']}")
        else:
            if self.tamper is not None:
                self.tamper(out)
            try:
                problems += check.structure_problems(name, out, *self.sizes[name])
                files = sorted(out.iterdir())
                report["files"] = len(files)
                report["bytes"] = sum(
                    p.stat().st_size for p in files if p.name != check.RUN_RECORD
                )
                got = check.digest(check.file_hashes(out))
            except (OSError, ValueError, IndexError) as exc:
                problems.append(f"unreadable output: {exc}")
            else:
                want = self.reference[name]
                if want is None:
                    want = self.first_digest.setdefault(name, got)
                if got != want:
                    problems.append("output bytes differ from the reference")
        if problems:
            self.failed += 1
            self.problems.append(f"{name} --threads {threads}: {'; '.join(problems)}")
            print(f"FAILED {self.problems[-1]}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        if trace:
            with open(trace_path, encoding="utf-8") as fh:
                report["trace"] = json.load(fh)
        return report

    def run_pass(self, commands, trace: bool = False) -> list[dict]:
        return [self.command(name, threads, trace) for name, threads in commands]

    def cross_check(self, commands) -> None:
        """Without a recorded reference, the other worker count must agree."""
        if any(self.reference[name] is None for name, _ in commands):
            self.run_pass([(name, 2 if threads == 1 else 1) for name, threads in commands])


def timed_run(bench: Bench, seconds: float) -> dict:
    """Closed loop over the workload's commands for ``seconds``."""
    commands = WORKLOADS[bench.workload]
    walls, rss = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reports = bench.run_pass(commands)
        walls.append(sum(r["wall_s"] for r in reports))
        rss.append(max(r["maxrss_kb"] for r in reports))
        # Two calibration samples per pass: a one-command pass also gets one
        # right after it, so the samples bracket every long command.
        while len(bench.cal) < 2 * len(walls):
            bench.setup_probe(commands[0][0])
        last = time.monotonic() - t
        if time.monotonic() - start >= seconds or bench.time_left() < 2 * last:
            break
    bench.cross_check(commands)
    while len(bench.setup) < MIN_SETUP_SAMPLES and bench.time_left() > 5:
        bench.setup_probe(commands[0][0])
    curves = sum(bench.sizes[name][0] for name, _ in commands)
    # The host switches between a fast and a slow mode, so a median flips
    # between modes; trimmed means follow the share of time spent in each,
    # and passes and calibration samples see the same share.
    wall = _trimmed_mean(walls)
    cal = _trimmed_mean(bench.cal)
    # Set-up contains its own calibration sample, so each pair is timed together.
    setup = statistics.median(s / c for s, c in zip(bench.setup, bench.cal))
    print(f"passes: {len(walls)}, set-up and calibration samples: {len(bench.setup)}")
    print(f"measured wall_s per pass: min {min(walls):.4f} "
          f"median {statistics.median(walls):.4f} max {max(walls):.4f}")
    print(f"measured setup_s median {statistics.median(bench.setup):.4f}, numpy+PyYAML "
          f"import median {statistics.median(bench.cal):.4f}, trimmed mean {cal:.4f}")
    bench.measured = {"wall_s": walls, "setup_s": bench.setup, "cal_s": bench.cal}
    wall_ref = wall * REFERENCE_IMPORT_S / cal
    return {
        "setup_s": setup * REFERENCE_IMPORT_S,
        "wall_s": wall_ref,
        "curves_per_s": curves / wall_ref,
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }


def _trimmed_mean(values: list[float], share: float = 0.1) -> float:
    """Mean without the lowest and highest ``share`` of the values."""
    cut = int(len(values) * share)
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def traced_run(bench: Bench) -> dict:
    """One untraced pass, one traced pass and the traced serial/pool map pair."""
    commands = WORKLOADS[bench.workload]
    untraced = sum(r["wall_s"] for r in bench.run_pass(commands))
    own = bench.run_pass(commands, trace=True)
    pair = {}
    for threads in (1, POOL_WORKERS):
        if commands == (("regime_map", threads),):
            pair[threads] = own
        else:
            pair[threads] = bench.run_pass((("regime_map", threads),), trace=True)

    def summary(reports):
        s = tracing.summarize([r["trace"] for r in reports])
        if abs(sum(s["layer_self_s"].values()) - s["wall_s"]) > 0.1 * s["wall_s"]:
            bench.problems.append("layer self times miss the traced wall time by >10%")
        return s

    main = summary(own)
    serial, pooled = summary(pair[1]), summary(pair[POOL_WORKERS])
    src = serial if bench.workload == "regime_map_pool" else main

    def pick(metric: str) -> dict:
        return src if metric.startswith(WORKER_SIDE) else main

    def calls(key: str) -> int:
        return pick(key)["calls"].get(key, 0)

    def self_s(key: str, s: dict | None = None) -> float:
        return (s or pick(key))["self_s"].get(key, 0.0)

    m = {}
    for key in ("model.dressed_states", "biphoton.jsa_value",
                "spectrum.transmission_curve", "analysis.classify_lineshape"):
        m[f"{key}.calls"] = calls(key)
    for key in ("model.dressed_states", "biphoton.jsa_value",
                "spectrum.transmission_curve", "analysis.classify_lineshape",
                "analysis.discriminability", "config.parse_config",
                "cli.build_scan_grid"):
        m[f"{key}.self_s"] = self_s(key)
    m["biphoton.jsa_value.points"] = src["points"].get("biphoton.jsa_value", 0)
    m["spectrum.points"] = src["points"].get("spectrum.transmission_curve", 0)
    curve_ms = src["curve_ms"] * 2 if len(src["curve_ms"]) == 1 else src["curve_ms"]
    for q in (50, 90):
        m[f"spectrum.curve_ms_p{q}"] = tracing.percentile(curve_ms, q) if curve_ms else 0.0
    m["analysis.signature_useful_ratio"] = src["distinct_classified"] / max(
        1, calls("analysis.classify_lineshape")
    )
    m["analysis.regime_map.self_s"] = self_s("analysis.regime_map", pooled)
    m["analysis.pool.workers"] = POOL_WORKERS
    m["analysis.pool.speedup"] = serial["wall_s"] / pooled["wall_s"]
    m["cli.self_s"] = self_s("cli.main", main)
    m["cli.files_written"] = sum(r["files"] for r in own)
    m["cli.bytes_written"] = sum(r["bytes"] for r in own)
    m["cli.write_mb_per_s"] = m["cli.bytes_written"] / 1e6 / m["cli.self_s"]
    # Shares are printed rather than reported as metrics: in the pool map the
    # worker-side layers have no parent-side spans, so theirs read 0 there.
    for layer, value in main["layer_self_s"].items():
        share = 100.0 * value / main["wall_s"]
        bench.layers[layer] = {"self_s": value, "share_pct": share}
        print(f"layer {layer}: self {value:.6f} s, {share:.2f}% of the traced wall time")
    m["trace.wall_s"] = main["wall_s"]
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = main["wall_s"] - untraced
    m["trace.uncovered_s"] = main["uncovered_s"]
    print("patched:", json.dumps(own[0]["trace"]["patched"], sort_keys=True))
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        tamper=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "chirospec" / "__init__.py").is_file():
        raise HarnessError(f"no chirospec sources under {SRC}")
    bench = Bench(workload, seed, tiny)
    bench.tamper = tamper
    values = traced_run(bench) if trace else timed_run(bench, seconds)
    units = PER_LAYER if trace else END_TO_END
    host = {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        **bench.versions,
        "pool_workers": POOL_WORKERS,
    }
    print("host:", json.dumps(host, sort_keys=True))
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    print(f"ops_failed = {bench.failed}, ops_attempted = {bench.attempted}")
    for problem in bench.problems:
        print(f"problem: {problem}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(bench.dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "host": host,
                   "problems": bench.problems, "layers": bench.layers,
                   "measured": bench.measured, **result}, fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
