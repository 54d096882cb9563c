"""Benchmark of the ma-multicast CLI: closed loop, one client, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job is one CLI command run
through `ma_multicast.expcli.main` in a fresh Python process (perfbench/job.py)
with the BLAS thread counts pinned to 1, so every job pays what a user pays
per CLI call and no cache survives from one job to the next.  Every job's
artifact is checked (checks.py); a job fails on a nonzero exit code, an
exception or a violated check.

--trace 0 runs jobs for S seconds and reports the end-to-end metrics.  Times
are wall times adjusted to the host's current speed (HostSpeed).
--trace 1 runs a fixed number of jobs, sized from S, each once untraced and
once traced, and reports the per-layer metrics from the traced copies
(tracing.py) plus the tracing overhead.  The last line of stdout is the
result as one JSON object; the line before it records the environment.
Per-job records and, with --trace 1, every span go to perfbench/_out/.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
OUT = HERE / "_out"
JOB_DIR = OUT / f"job-{os.getpid()}"
JOB_PY = HERE / "job.py"

SETUP_SAMPLES = 9
JOB_TIMEOUT_S = 60.0
TAIL_PERCENTILE = 80
# Reported times are wall times scaled to a host on which reference_seconds()
# takes this long (about its time on an idle 2-core host of the kind the
# benchmark was defined on).  See HostSpeed.
REFERENCE_NOMINAL_S = 0.010
WINDOW_S = 5.0

END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    f"job_s.p{TAIL_PERCENTILE}": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rate.proposed": "bps/Hz",
    "rate.all_schemes": "bps/Hz",
}


def per_layer_units():
    """Unit of every per-layer metric, by name."""
    units = {}
    for name in tracing.layer_metrics([], 1):
        stat = name.rsplit(".", 1)[1]
        units[name] = {
            "calls": "calls/job",
            "s": "s/job",
            "self_s": "s/job",
            "unique_frac": "frac",
            "converged_frac": "frac",
            "iterations": "iter/job",
            "outer_iterations": "iter/job",
            "bytes": "bytes/job",
            "skips": "skips/job",
        }[stat]
    units["rate.ao"] = "bps/Hz"
    units["validate.gap_rate_max"] = "bps/Hz"
    units["host.scale"] = "x"
    units["trace.overhead_frac"] = "frac"
    return units


def reference_seconds():
    """Seconds this process takes for a fixed loop of interpreter and small numpy work.

    Never change this loop: it defines the time scale of every reported time.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    x = np.linspace(0.0, 1.0, 16)
    for _ in range(800):
        y = np.exp(1j * x).sum()
        np.cumsum(x)
        x = x + 1e-9 * abs(y)
    return time.perf_counter() - start


class HostSpeed:
    """Reference-loop samples taken right before and after every measurement.

    The host this benchmark runs on is shared, and its speed drifts by up to
    a third over spells of tens of seconds; CPU time drifts with it.  A wall
    time is scaled by REFERENCE_NOMINAL_S over the median reference time
    within WINDOW_S of the measurement, which follows the drift but not the
    jitter of single samples.  The loop is the benchmark's own code, so a
    change to the program cannot move it.
    """

    def __init__(self):
        self.samples = []  # (time taken, reference seconds)

    def _sample(self):
        self.samples.append((time.perf_counter(), reference_seconds()))

    def around(self, measure):
        """Run measure() between two samples; returns (its result, start, end)."""
        self._sample()
        start = time.perf_counter()
        result = measure()
        end = time.perf_counter()
        self._sample()
        return result, start, end

    def scale(self, start, end):
        refs = [r for t, r in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_NOMINAL_S / statistics.median(refs)


def job_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("MA_MULTICAST_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(args):
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _spawn(argv, cwd, env, stderr):
    """Run argv to completion; returns (exit code, wall seconds, CPU seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr
    )
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no job behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def setup_once(config_path, env, host):
    """Seconds to import ma_multicast and load a config in a fresh interpreter.

    Returns (seconds, start, end); start and end place it for host.scale.
    """
    argv = [sys.executable, str(JOB_PY), "setup", str(config_path)]
    out, start, end = host.around(
        lambda: subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True
        )
    )
    return float(out.stdout.strip().splitlines()[-1]), start, end


def run_job(workload, job_id, config, env, traced, host):
    """Run and check one job; returns its record (and spans when traced)."""
    job_dir = JOB_DIR
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    config_path = job_dir / "config.json"
    if config is not None:
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    out_path = job_dir / workload.artifact
    spans_path = job_dir / "spans.json"
    argv = [sys.executable, str(JOB_PY), "run", str(job_id), str(spans_path) if traced else "-", "--"]
    argv += workload.argv(str(config_path), str(out_path))
    with open(job_dir / "stderr.txt", "w", encoding="utf-8") as err:
        (code, wall, cpu, rss), start, end = host.around(lambda: _spawn(argv, job_dir, env, err))
    try:
        outcome = workload.evaluate(config, code, out_path)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        outcome = None
        problems = [f"artifact unreadable: {exc!r}"]
    else:
        problems = outcome.problems
    if problems:
        tail = (job_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"job {job_id} failed: {problems[:3]} {tail}", file=sys.stderr)
    record = {
        "job": job_id,
        "config_seed": None if config is None else config.get("seed"),
        "traced": traced,
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "start": start,
        "end": end,
        "peak_rss_mb": rss,
        "problems": problems,
        "outcome": None if problems else outcome,
    }
    spans, absent = [], []
    if traced and spans_path.exists():
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        spans, absent = [tuple(s) for s in doc["spans"]], doc["absent"]
    return record, spans, absent


def set_host_adjusted(records, host):
    for r in records:
        r["host_scale"] = host.scale(r["start"], r["end"])
        r["job_s"] = r["wall_s"] * r["host_scale"]


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean_of(records, field):
    values = [getattr(r["outcome"], field) for r in records if r["outcome"] is not None]
    values = [v for v in values if not math.isnan(v)]
    return sum(values) / len(values) if values else 0.0


def end_to_end(records, setup_s):
    walls = [r["job_s"] for r in records]
    solves = sum(r["outcome"].solves for r in records if r["outcome"] is not None)
    return {
        "setup_s": setup_s,
        "job_s.p50": statistics.median(walls),
        f"job_s.p{TAIL_PERCENTILE}": percentile(walls, TAIL_PERCENTILE),
        "solves_per_s": solves / sum(walls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "rate.proposed": _mean_of(records, "rate_proposed"),
        "rate.all_schemes": _mean_of(records, "rate_all"),
    }


def per_layer(traced, untraced, spans):
    metrics = tracing.layer_metrics(spans, len(traced))
    metrics["rate.ao"] = _mean_of(traced, "rate_ao")
    gaps = [r["outcome"].gap_rate_max for r in traced if r["outcome"] is not None]
    gaps = [g for g in gaps if not math.isnan(g)]
    metrics["validate.gap_rate_max"] = max(gaps) if gaps else 0.0
    metrics["host.scale"] = statistics.median(r["host_scale"] for r in traced + untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["job_s"] for r in traced)
        / statistics.median(r["job_s"] for r in untraced)
        - 1.0
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "ma_multicast" / "__init__.py", DEFAULT_CONFIG) if not p.is_file()]
    if missing:
        print(f"not a source checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = job_env()
    OUT.mkdir(exist_ok=True)
    default_config = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    configs = workload.configs(default_config, args.seed)

    host = HostSpeed()
    records, spans, absent = [], [], []
    if args.trace == 0:
        setup_once(DEFAULT_CONFIG, env, host)  # warms the page and bytecode caches
        # set-up samples are spread over the run so a slow spell of the host
        # does not land on all of them
        setups = []
        start = time.perf_counter()
        job_id = 0
        while job_id == 0 or time.perf_counter() - start < args.seconds:
            if len(setups) * args.seconds <= SETUP_SAMPLES * (time.perf_counter() - start):
                setups.append(setup_once(DEFAULT_CONFIG, env, host))
            records.append(run_job(workload, job_id, next(configs), env, False, host)[0])
            job_id += 1
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_once(DEFAULT_CONFIG, env, host))
        set_host_adjusted(records, host)
        setup_s = statistics.median(sec * host.scale(a, b) for sec, a, b in setups)
        metrics = end_to_end(records, setup_s)
        units = END_TO_END
    else:
        setup_once(DEFAULT_CONFIG, env, host)  # warms the page and bytecode caches
        pairs = max(1, round(args.seconds / (2.0 * workload.nominal_job_s)))
        for job_id in range(pairs):
            config = next(configs)
            order = (False, True) if job_id % 2 == 0 else (True, False)
            for traced in order:
                record, job_spans, absent = run_job(workload, job_id, config, env, traced, host)
                records.append(record)
                spans += job_spans
        set_host_adjusted(records, host)
        traced = [r for r in records if r["traced"]]
        untraced = [r for r in records if not r["traced"]]
        metrics = per_layer(traced, untraced, spans)
        units = per_layer_units()
        with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    failed = sum(1 for r in records if r["problems"])
    env_info = environment(args)
    env_info["absent"] = absent
    for r in records:
        if r["outcome"] is not None:
            r["outcome"] = {k: None if v != v else v for k, v in vars(r["outcome"]).items()}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env_info, "metrics": metrics, "jobs": records}, indent=1),
        encoding="utf-8",
    )
    shutil.rmtree(JOB_DIR, ignore_errors=True)
    print("environment: " + json.dumps(env_info))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
