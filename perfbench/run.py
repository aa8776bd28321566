"""Benchmark of greencorr, end to end, in fresh processes.

    python3 perfbench/run.py --workload verify_d8_p2 --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout.  Load is a closed loop: this process
starts one job process at a time (perfbench/job.py), waits for it, and starts
the next while another job still fits in --seconds; every run makes at least
one job.  Jobs take a few seconds each, so that a run averages over a dozen
processes (see NOTES.md, "Load and timing").

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, job_s, peak_rss_mb, ok_share); with --trace 1
it holds the per-layer metrics of tracer.py instead, plus trace.job_s, the
traced job time.  Everything else a run leaves (job results, reports, spans
and the run conditions) is under .perfbench-runs/ in the checkout.

Exit code 2, with no result line, when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

DEADLINE_S = 170.0  # every run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB",
                    "ok_share": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_of(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    """Starts job processes one at a time and keeps their results."""

    def __init__(self, root: Path, args, run_dir: Path, env: dict):
        self.root, self.args, self.run_dir, self.env = root, args, run_dir, env
        self.started = time.monotonic()
        self.count = 0

    def spawn(self) -> dict | None:
        """Run one job process; None if it failed to produce a result."""
        self.count += 1
        job_dir = self.run_dir / f"job{self.count:03d}"
        job_dir.mkdir(parents=True)
        result = job_dir / "result.json"
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            return None
        cmd = [sys.executable, str(HERE / "job.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--trace", str(self.args.trace),
               "--result", str(result)]
        with open(job_dir / "log.txt", "w") as log:
            spawned_at = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd + ["--spawned-at", repr(spawned_at)], cwd=self.root,
                    env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=remaining)
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                return None
        if proc.returncode != 0 or not result.exists():
            return None
        return json.loads(result.read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    needed = ["src/greencorr/__init__.py", wl.VERIFY_CONFIG]
    missing = [p for p in needed if not (root / p).is_file()]
    if missing:
        print(f"error: run from a greencorr checkout; missing {missing}",
              file=sys.stderr)
        return 2
    ref = wl.load_reference(HERE / "reference", args.workload)
    planned = wl.planned_ops(args.workload, ref)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({var: str(nproc) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    run_id = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir = root / ".perfbench-runs" / run_id
    runner = Runner(root, args, run_dir, env)

    setups: list[float] = []
    jobs: list[dict] = []
    walls: list[float] = []
    attempted = failed = 0
    loop_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        res = runner.spawn()
        wall = time.monotonic() - t0
        walls.append(wall)
        if res is None:
            attempted += planned
            failed += planned
        else:
            attempted += res["attempted"]
            failed += res["failed"]
            setups.append(res["setup_s"])
            jobs.append(res)
        elapsed = time.monotonic() - loop_start
        if elapsed + wall > args.seconds or elapsed + wall > DEADLINE_S - 10:
            break

    # a run whose jobs all died still prints valid JSON: the process wall
    # times stand in for job_s and unknown values read 0
    job_times = [j["job_s"] for j in jobs] or walls
    conditions = {
        "run_id": run_id,
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": jobs[0]["numpy"] if jobs else None,
        "nproc": nproc,
        "thread_caps": {var: nproc for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": jobs[0]["sizes"] if jobs else None,
        "jobs": len(jobs),
        "setup_samples": len(setups),
    }
    if args.trace:
        names = tracer.metric_units()
        metrics = {name: {"value": statistics.median(
                              [j["metrics"][name] for j in jobs] or [0]),
                          "unit": unit}
                   for name, unit in names.items()}
        metrics["trace.job_s"] = {"value": statistics.fmean(job_times),
                                  "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(setups or [0.0]),
            # the mean, not the median: the host runs in a fast and a slow
            # phase, and the median of a run jumps from one to the other as
            # their shares cross one half (NOTES.md, "Load and timing")
            "job_s": statistics.fmean(job_times),
            "peak_rss_mb": statistics.median(
                [j["peak_rss_mb"] for j in jobs] or [0.0]),
            "ok_share": 1 - failed / attempted,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    summary = {"conditions": conditions,
               "job_s_all": job_times,
               "setup_s_all": setups,
               "fail_share": failed / attempted,
               "errors": [e for j in jobs for e in j["errors"]][:20],
               "metrics": metrics}
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "run.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"conditions {json.dumps(conditions, sort_keys=True)}")
    if len(job_times) >= 2:
        q = statistics.quantiles(job_times, n=4)
        print(f"job_s over {len(job_times)} jobs: mean "
              f"{statistics.fmean(job_times):.4f}, median "
              f"{statistics.median(job_times):.4f}, quartiles "
              f"{q[0]:.4f} {q[2]:.4f}")
    print(f"fail_share {failed}/{attempted} = {failed / attempted:.4f}")
    for err in summary["errors"]:
        print(f"failed: {err}")
    for name, m in metrics.items():
        if not args.trace or not name.endswith(".calls") or m["value"]:
            print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
