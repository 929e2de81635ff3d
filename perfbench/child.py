"""Run one chirospec command in this fresh process and report its timings.

    python3 perfbench/child.py --command regime-map --config FILE --out DIR
        [--threads N] [--trace SPANS.json] [--setup-only]

Set-up time covers what every CLI call pays before its first curve:
``import chirospec`` (numpy and PyYAML included), ``parse_config`` and
``build_scan_grid``.  Its first part, importing numpy and PyYAML, does not
depend on chirospec and is reported on its own as ``cal_s``, the host-speed
calibration sample.  The command is then timed from ``cli.main`` entry to
return.  The last stdout line is a JSON object with the exit code, the
times, the peak resident memory of this process and the versions of the
libraries in use.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True, choices=("spectrum", "regime-map"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t_setup = time.perf_counter()
    import numpy
    import yaml

    cal_s = time.perf_counter() - t_setup
    import chirospec
    from chirospec import cli
    from chirospec.analysis import sweep_amplitude
    from chirospec.config import parse_config

    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    amp = cfg.probe
    if args.command == "regime-map":
        amp = sweep_amplitude(cfg.probe, max(cfg.sweep.t0_values()))
    cli.build_scan_grid(cfg, amp)
    setup_s = time.perf_counter() - t_setup

    report = {
        "setup_s": setup_s,
        "cal_s": cal_s,
        "chirospec_file": chirospec.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "pyyaml": yaml.__version__,
        },
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(command=os.getpid())
            tracer.install()
        argv = [args.command, "-c", args.config, "--out", args.out,
                "--threads", str(args.threads)]
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a harness error
            traceback.print_exc()
            rc = 1
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.dump(args.trace, wall_s)
        report.update(rc=rc, wall_s=wall_s)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))


if __name__ == "__main__":
    main()
