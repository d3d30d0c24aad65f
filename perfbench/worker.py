"""One benchmark operation in a fresh process.

Reads a job as JSON on stdin, builds the experiment through the public path
(ExperimentSpec.from_dict, then zaklab.experiments.run with no optional
arguments), checks the outputs and prints one JSON record as its last line
of stdout.  run.py starts it; it is not meant to be run by hand.

The record carries `ready`, the time.monotonic() stamp at which set-up
(interpreter start, imports, config parse, spec and grid build) finished;
the parent subtracts the stamp it took before starting this process.
"""

import json
import resource
import sys
import time
import warnings
from pathlib import Path


def main() -> int:
    job = json.loads(sys.stdin.read())
    from zaklab import experiments

    spec = experiments.ExperimentSpec.from_dict(job["config"])
    spec.make_grid()
    ready = time.monotonic()
    record = {"ready": ready}
    if job["setup_only"]:
        print(json.dumps(record))
        return 0

    tracer = None
    if job["trace"]:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)

    problems = []
    manifest = None
    with warnings.catch_warnings(record=job["trace"]) as caught:
        if job["trace"]:
            warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            manifest = experiments.run(spec, job["out_dir"])
        except Exception as exc:  # noqa: BLE001 - a failed run is a counted failure
            problems.append(f"run raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
    record["wall_s"] = wall
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if manifest is not None:
        import workloads
        run_dir = Path(manifest.run_dir)
        problems += workloads.check(job["workload"], run_dir, job["use_reference"])
        if tracer is not None:
            n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            record["layers"] = layers.metrics(tracer, spec.to_dict(), run_dir, wall, n_warn)
            record["missing"] = tracer.missing
    record["problems"] = problems
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
