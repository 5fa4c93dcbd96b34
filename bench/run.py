"""heraldkit benchmark: `python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout.  The workload runs in one child
process (`workloads.py`) against `src/` of this checkout, with BLAS and
OpenMP pinned to one thread through the child's environment, and this
process and its children are bound to one CPU, so that every time is
rescaled by a speed reference measured on that same CPU (speed.py).  With
`--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1` the child records spans around
heraldkit's public functions and the JSON holds the per-layer metrics.
Details (environment, per-operation failures, check errors) go to
`bench/out/result-<workload>.json` and to the line before the last.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("search", "table", "pipeline")
DEADLINE_S = 170.0
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = "import heraldkit.cli"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pin() -> dict:
    """Bind this process (and so its children) to one CPU and one BLAS thread.

    Returns the environment for the children.  Must run before numpy is
    imported here.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def wait_child(proc: subprocess.Popen, deadline: float):
    """Wait for `proc` until `deadline`; returns (exit code, peak RSS in MB)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"child pid {proc.pid} exceeded the deadline and was killed")
        time.sleep(0.05)


def fresh_import_seconds(env: dict, deadline: float, extra=()) -> tuple[float, str]:
    """Wall time of a fresh interpreter that imports heraldkit.cli, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"`{IMPORT_PROBE}` failed: {proc.stderr.strip()[-400:]}")
    return dt, proc.stderr


def import_breakdown(stderr: str) -> dict:
    """Cumulative seconds of scipy.signal and of heraldkit from -X importtime output."""
    out = {"import.scipy_signal_s": 0.0, "import.heraldkit_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        seconds = int(cumulative) * 1e-6
        if name.strip() == "scipy.signal":
            out["import.scipy_signal_s"] = seconds
        # top-level entries carry one space before the name
        if name.startswith(" heraldkit") and not name.startswith("  "):
            out["import.heraldkit_s"] += seconds
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (the result line, the full record)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (SRC / "heraldkit" / "__init__.py").is_file():
        raise BenchError(f"no heraldkit sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    result_path = OUT / f"result-{args.workload}.json"
    result_path.unlink(missing_ok=True)
    env = pin()
    from speed import Speed, Watch

    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result_path)]
    log = OUT / f"child-{args.workload}.log"
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            code, rss_mb = wait_child(proc, deadline)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
    shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not result_path.exists():
        tail = log.read_text()[-1500:]
        raise BenchError(f"workload child exited with {code}:\n{tail}")
    record = json.loads(result_path.read_text())
    if not record["heraldkit_from_checkout"]:
        raise BenchError(f"heraldkit was imported from {record['environment']['heraldkit']}")

    if args.trace:
        # -X importtime in fresh interpreters; the median of each figure
        runs = [import_breakdown(fresh_import_seconds(env, deadline, ("-X", "importtime"))[1])
                for _ in range(IMPORTTIME_REPEATS)]
        metrics = dict(record["per_layer"])
        for name in runs[0]:
            metrics[name] = {"value": statistics.median(r[name] for r in runs), "unit": "s"}
    else:
        # the child has already imported once, so bytecode caches are warm
        speed = Speed()
        setup, setup_wall = [], []
        for _ in range(SETUP_REPEATS):
            # no timer ticks: the samples would compete with the child
            with Watch(speed, ticks=False) as w:
                fresh_import_seconds(env, deadline)
            setup.append(w.scaled)
            setup_wall.append(w.wall)
        record["detail"]["setup_wall_s"] = statistics.median(setup_wall)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "primary_per_s": {"value": record["metrics"]["primary_per_s"], "unit": "1/s"},
            "secondary_per_s": {"value": record["metrics"]["secondary_per_s"], "unit": "1/s"},
        }
    record["peak_rss_mb"] = rss_mb
    record["cpu"] = sorted(os.sched_getaffinity(0))
    record["source_sha256"] = source_digest()
    record["git_sha"] = git_sha()
    record["bench_wall_s"] = time.monotonic() - start
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heraldkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    summary = {k: record[k] for k in ("workload", "seed", "rounds", "failures",
                                      "check_errors", "detail", "environment",
                                      "source_sha256", "git_sha")}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
