"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload na_sweep --seed 1 --seconds 25 --trace 0

Tasks run as a closed loop with one client: back to back, in this process,
with `DARKFOCUS_WORKERS` at the CLI default of 1 and BLAS threads capped at
the number of usable cores.  With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it runs the same tasks once untraced and once under
the tracer and reports the per-layer metrics.  The last line of standard
output is the result as one JSON object; the full record, with provenance and
per-task outcomes, is appended to `--results` (default
`.perfbench/results.jsonl` in the checkout).
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS_ENV = "DARKFOCUS_WORKERS"
# setup is repeated and its median reported, to damp the noise of one setup
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_s_p50": "s",
    "peak_rss_mb": "MiB",
}


def _cap_threads():
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= NPROC:
            os.environ[var] = str(NPROC)
    os.environ.pop(WORKERS_ENV, None)


def _import_program():
    """Import darkfocus from this checkout's sources, or exit non-zero if they
    are absent; return the seconds from interpreter start to imported."""
    sys.path.insert(0, str(SRC))
    try:
        import darkfocus
        from darkfocus import cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import darkfocus from {SRC}: {exc}")
    if Path(darkfocus.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: darkfocus was imported from {darkfocus.__file__}, not {SRC}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads  # noqa: F401

    return time.perf_counter() - PROCESS_START


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload, seed, seconds, trace, inputs):
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "nproc": NPROC, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        WORKERS_ENV: os.environ.get(WORKERS_ENV, "unset (CLI default 1)"),
        "setup_repeats": 1 if trace else SETUP_REPEATS,
        "tasks": [t["sizes"] for t in inputs["tasks"]],
    }


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_tasks(workload, inputs, work):
    """Run every task back to back; return (wall_s, task times, per-task Checks)."""
    import workloads

    times, outcomes = [], []
    start = time.perf_counter()
    for i in range(len(inputs["tasks"])):
        t0 = time.perf_counter()
        try:
            checks = workload.task(inputs, i, work)
        except Exception as exc:  # a task that raises is a failed task
            checks = workloads.Checks()
            checks.fail(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        outcomes.append(checks)
    return time.perf_counter() - start, times, outcomes


def run(workload_name, seed, seconds, trace, scale=1.0, work=None, import_s=0.0):
    """Run one workload; return the full result record.  `import_s` is added
    to `setup_s`."""
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[workload_name]
    n_tasks = max(1, round(seconds / workload.nominal_task_s))
    work = work or OUT / f"work-{os.getpid()}"
    setup_times = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        inputs_dir = _fresh(work / "inputs")
        t0 = time.perf_counter()
        inputs = workload.setup(seed, n_tasks, inputs_dir, scale)
        setup_times.append(time.perf_counter() - t0)
    wall_s, task_times, outcomes = run_tasks(workload, inputs, _fresh(work / "tasks"))

    if trace:
        from darkfocus import calibration

        tracer = Tracer()
        tracer.install()
        try:
            inputs = workload.setup(seed, n_tasks, _fresh(work / "inputs"), scale)
            # the KS null table is cached per process; a task must build its own
            calibration._KS_NULL_CACHE.clear()
            t0 = time.perf_counter()
            traced_wall_s, task_times, outcomes = run_tasks(
                workload, inputs, _fresh(work / "tasks"))
        finally:
            tracer.uninstall()
        unattributed = traced_wall_s - tracer.root_time(t0, t0 + traced_wall_s)
        metrics = tracer.metrics(traced_wall_s - wall_s, unattributed)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload_name}-{seed}.json")
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": wall_s,
            "task_s_p50": statistics.median(task_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    shutil.rmtree(work, ignore_errors=True)

    n_failed = sum(1 for c in outcomes if c.failed)
    return {
        "correct": not any(c.wrong for c in outcomes),
        "attempted": len(outcomes),
        "failed": n_failed,
        "metrics": metrics,
        "error_rate": n_failed / len(outcomes),
        "task_failures": [c.failed for c in outcomes],
        "task_wrong": [c.wrong for c in outcomes],
        "task_s": task_times,
        "import_s": import_s,
        "setup_repeat_s": setup_times,
        "provenance": provenance(workload_name, seed, seconds, trace, inputs),
    }


def main(argv=None, import_s=0.0):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                        help="JSON-lines file the full record is appended to")
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, args.trace, import_s=import_s)
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for i, (failed, wrong) in enumerate(zip(record["task_failures"], record["task_wrong"])):
        for reason in failed:
            print(f"task {i} failed: {reason}")
        for reason in wrong:
            print(f"task {i} wrong: {reason}")
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"error_rate: {record['error_rate']:.6g} ratio "
          f"({record['failed']}/{record['attempted']} tasks failed)")
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    _cap_threads()
    sys.exit(main(import_s=_import_program()))
