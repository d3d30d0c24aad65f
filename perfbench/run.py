"""zaklab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload audit-dense --seed 0 --seconds 20 --trace 0

Run from the repository root.  Each operation is one experiment run
(`ExperimentSpec.from_dict(config)` then `zaklab.experiments.run(spec,
output_dir)`) in a fresh single process (perfbench/worker.py), started only
after the previous one has ended: a closed loop with one client.  Operations
repeat until --seconds have passed (at least one runs).

--trace 0 prints the end-to-end metrics, medians over the operations:
  wall_s       wall time of the run() call
  setup_s      interpreter start, import zaklab, config parse, spec and grid
               build; sampled in every operation and in SETUP_SAMPLES extra
               set-up-only processes
  peak_rss_mb  ru_maxrss of the operation's own process
--trace 1 runs pairs of an untraced and a traced operation and prints the
per-layer metrics of layers.py (medians over the traced operations), with
the traced - untraced wall time as tracing overhead.

An operation fails when it raises, exits abnormally or fails a check of
workloads.py; `failed` / `attempted` in the result is the failed fraction.
Earlier stdout lines carry the environment and the per-operation samples;
the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 4
# every invocation must end within 180 s; no operation starts once the
# previous one says it would end past this
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(root: Path) -> dict:
    """The worker's environment: the checkout's sources first on the path,
    and BLAS threads capped at the CPUs this process may run on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, cpus))
        except ValueError:
            wanted = cpus
        env[var] = str(max(1, min(wanted, cpus)))
    return env


def environment(root: Path, env: dict) -> dict:
    import numpy
    import scipy

    def blas(module):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    src = root / "src" / "zaklab"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        # information only: never a metric, never gates anything
        "src_zaklab_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


def operation(root: Path, env: dict, job: dict, timeout: float) -> dict:
    """Start one worker, wait for it to end, and return its record.

    The record gains `setup_s`; a worker that fails to produce one yields a
    record whose `problems` say why."""
    out_dir = root / ".perfbench_runs" / str(os.getpid())
    job = dict(job, out_dir=str(out_dir))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job),
                              capture_output=True, text=True, cwd=root, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"worker exited {proc.returncode}: {' | '.join(tail)}"]}
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready") - start
    return record


def measure(root: Path, env: dict, name: str, seed: int, seconds: float, trace: bool,
            toy: bool) -> dict:
    job = {"workload": name, "config": workloads.make_config(root, name, seed, toy),
           "use_reference": seed == 0 and not toy, "trace": False, "setup_only": False}
    began = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - began)

    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            rec = operation(root, env, dict(job, setup_only=True), remaining())
            if "setup_s" in rec:
                setups.append(rec["setup_s"])

    samples, attempted, failed = [], 0, 0
    last = 0.0
    while not samples or (time.monotonic() - began < seconds and remaining() > last):
        t0 = time.monotonic()
        pair = [operation(root, env, job, remaining())]
        if trace:
            pair.append(operation(root, env, dict(job, trace=True), remaining()))
        last = time.monotonic() - t0
        for rec in pair:
            attempted += 1
            failed += bool(rec["problems"]) or "wall_s" not in rec
        print(json.dumps({"sample": pair}), flush=True)
        if any("wall_s" not in rec for rec in pair) or (trace and "layers" not in pair[1]):
            break
        samples.append(pair)
    if not samples:
        raise RuntimeError("no operation completed")

    if trace:
        metrics = {}
        for key in samples[0][1]["layers"]:
            metrics[key] = statistics.median(p[1]["layers"][key] for p in samples)
        untraced = statistics.median(p[0]["wall_s"] for p in samples)
        metrics["trace.wall_s_untraced"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.wall_s_traced"] - untraced
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced
        import layers  # here, so that an untraced run does not load the tracer
        units = layers.UNITS
    else:
        setups += [p[0]["setup_s"] for p in samples]
        metrics = {
            "wall_s": statistics.median(p[0]["wall_s"] for p in samples),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p[0]["peak_rss_mb"] for p in samples),
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload to seconds (for the harness's own tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/zaklab/__init__.py", workloads.WORKLOADS[args.workload]["config"])
               if not (root / p).is_file()]
    if missing:
        print(f"run.py: not a zaklab checkout (missing {', '.join(missing)}); "
              "run it from the repository root", file=sys.stderr)
        return 2

    env = child_env(root)
    print(json.dumps({"environment": environment(root, env)}), flush=True)
    try:
        result = measure(root, env, args.workload, args.seed, args.seconds, bool(args.trace),
                         args.toy)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
