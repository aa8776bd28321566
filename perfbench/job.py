"""One job process: build a workload's inputs, run the job once, check it.

run.py starts these one at a time in the root of the checkout, each a fresh
interpreter, so greencorr's process-global caches start cold as they do for a
user of ``green verify``.
The result goes to the JSON file named by --result:

    setup_s      from --spawned-at (the starter's monotonic clock just before
                 the process was created) until the inputs are built
    job_s        wall time of the job after set-up
    peak_rss_mb  peak resident set of this process
    attempted, failed, errors
    metrics      per-layer metrics, with --trace 1 only

With --trace 1 the tracer is installed right after greencorr is imported, so set-up is traced
too, and the spans are written to spans.tsv beside the result.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", required=True, type=float)
    ap.add_argument("--result", required=True, type=Path)
    return ap.parse_args(argv)


def run_verify(args, wl, ref, out_dir: Path, marks: dict):
    from greencorr import cli

    # the CLI builds the scenario itself: set-up ends when that returns
    build = cli.Config.scenario

    def scenario(cfg):
        sc = build(cfg)
        marks["setup_end"] = time.monotonic()
        return sc

    cli.Config.scenario = scenario
    try:
        rc = cli.run(wl.verify_argv(Path.cwd(), args.seed, out_dir))
    finally:
        cli.Config.scenario = build
    marks["job_end"] = time.monotonic()
    outcome = wl.Outcome()
    wl.check_verify(rc, out_dir, ref, outcome)
    return outcome


def run_inputs(args, wl, ref, marks: dict):
    setup, job = {"mackey_odd_p": (wl.mackey_setup, wl.mackey_run),
                  "groupoid_sweep": (wl.groupoid_setup, wl.groupoid_run)
                  }[args.workload]
    inputs = setup(args.seed, ref)
    marks["setup_end"] = time.monotonic()
    marks["sizes"] = wl.input_sizes(args.workload, inputs)
    outcome = job(inputs, ref)
    marks["job_end"] = time.monotonic()
    return outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads as wl

    ref = wl.load_reference(HERE / "reference", args.workload)
    import greencorr  # noqa: F401  (import time is part of set-up)
    import numpy

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=args.result.parent.name)
        tracer.install()
    out_dir = args.result.parent / "out"
    marks: dict = {}
    if args.workload == "verify_d8_p2":
        outcome = run_verify(args, wl, ref, out_dir, marks)
        marks.setdefault("sizes", wl.input_sizes(args.workload, None))
    else:
        outcome = run_inputs(args, wl, ref, marks)
    result = {
        "setup_s": marks["setup_end"] - args.spawned_at,
        "job_s": marks["job_end"] - marks["setup_end"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "sizes": marks["sizes"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.remove()
        result["metrics"] = tracer.metrics()
        result["spans"] = tracer.write_spans(args.result.parent / "spans.tsv")
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
