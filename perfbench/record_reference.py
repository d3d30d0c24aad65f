"""Record the seed-0 outputs that the reference checks compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the repository root, on the commit whose outputs are the
reference; it overwrites perfbench/reference.json.  Takes about 90 s.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from zaklab import experiments


def main() -> int:
    root = Path.cwd()
    reference = {}
    for name, wl in workloads.WORKLOADS.items():
        spec = experiments.ExperimentSpec.from_dict(workloads.make_config(root, name, 0))
        out_dir = Path(tempfile.mkdtemp(dir=root))
        try:
            manifest = experiments.run(spec, out_dir)
            reference[name] = workloads.observables(wl["kind"], Path(manifest.run_dir))
        finally:
            shutil.rmtree(out_dir)
        print(f"{name}: recorded", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
