"""Golden digests: every kind's outputs against a committed record.

SPECS runs each of the five kinds on both committed configs at small sizes.
tests/golden/digests.json holds, per output file, its SHA-256 (a manifest's
run_dir masked, so the record does not depend on the output path) and its
parsed numbers, plus the environment it was recorded in.  In that
environment the test compares bytes.  Elsewhere numpy's SIMD exp, sin and
cos may round differently, so it compares the numbers at RTOL/ATOL instead
and names the files whose bytes differ in a warning.

A change that alters outputs on purpose re-records the digests, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py

and says so, with the reason, in CHANGES.md: the diff of digests.json shows
what moved.
"""

import csv
import hashlib
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from zaklab.experiments import CONFIG_KEYS, KINDS, ExperimentSpec, run

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("golden") / "digests.json"

# Outside the recorded environment numbers must agree to
# |a - b| <= RTOL * max(|a|, |b|) + ATOL.  A rounding-level change of the
# ground state (sech computed as cosh**-1.0) moves the numbers by far less.
RTOL, ATOL = 1e-6, 1e-9

# Per config: the overrides of every kind, then those of one kind.
SIZES = {"two_soliton": {"n_points": 256, "sample_stride": 20, "t_final": 2.0},
         "standing_wave": {"n_points": 128, "sample_stride": 20, "t_final": 1.0}}
KIND_SIZES = {"coercivity_sweep": {"n_points": 64, "omegas_sweep": [1.0],
                                   "speeds_sweep": [0.0, 0.5]},
              "convergence_order": {"dt": 0.01, "t_final": 0.2}}
SPECS = {f"{config}/{kind}": (config, kind) for config in SIZES for kind in KINDS}


def _spec(config: str, kind: str) -> ExperimentSpec:
    data = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    data["kind"] = kind
    blocks = {key.name: key.metadata["block"] for key in CONFIG_KEYS}
    for key, value in {**SIZES[config], **KIND_SIZES.get(kind, {})}.items():
        data.setdefault(blocks[key], {})[key] = value
    return ExperimentSpec.from_dict(data)


def environment() -> dict:
    """What the bytes of a run depend on besides the code."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "simd": [t for t in __cpu_dispatch__ if __cpu_features__[t]]}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _digest(path: Path, run_dir: Path) -> dict:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = data.replace(json.dumps(str(run_dir)).encode(), b'"<run_dir>"')
        numbers = json.loads(data)
    else:
        header, *rows = csv.reader(data.decode().splitlines())
        numbers = {name: [_cell(row[i]) for row in rows] for i, name in enumerate(header)}
    return {"sha256": hashlib.sha256(data).hexdigest(), "numbers": numbers}


def digests(output_dir: Path) -> dict:
    """{"<config>/<kind>/<file>": digest} of every file every spec writes."""
    out = {}
    for name, (config, kind) in SPECS.items():
        run_dir = Path(run(_spec(config, kind), output_dir=output_dir).run_dir)
        for path in sorted(run_dir.iterdir()):
            out[f"{name}/{path.name}"] = _digest(path, run_dir)
    return out


def _far(got, want, where: str) -> list:
    """Where got and want (parsed JSON values) differ beyond RTOL/ATOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [d for k in want for d in _far(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r}"]
        return [d for i, (a, b) in enumerate(zip(got, want)) for d in _far(a, b, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        if abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL:
            return []
    elif got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _far_table(got: dict, want: dict, name: str) -> list:
    """_far over a CSV's columns; a modulation table only on the rows that
    converged in both runs (a failed fit may settle on another 2 pi branch
    of gamma from a rounding-level change)."""
    if "converged" in want and len(got.get("converged", ())) == len(want["converged"]):
        keep = [a == b == "True" for a, b in zip(got["converged"], want["converged"])]
        got, want = ({c: [v for v, k in zip(col, keep) if k] for c, col in t.items()}
                     for t in (got, want))
    return _far(got, want, name)


def test_outputs_match_the_golden_digests(tmp_path):
    record = json.loads(RECORD.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(record["files"]), "files written differ from the record"
    differ = [name for name, d in got.items() if d["sha256"] != record["files"][name]["sha256"]]
    if record["environment"] == environment():
        assert not differ, f"bytes differ from the record in {differ}"
        return
    far = [d for name, d in got.items() for d in
           (_far_table if name.endswith(".csv") else _far)(
               d["numbers"], record["files"][name]["numbers"], name)]
    assert not far, f"numbers beyond rtol {RTOL:g}, atol {ATOL:g}: {far[:20]}"
    if differ:
        warnings.warn(f"environment {environment()} is not the record's "
                      f"{record['environment']}; the numbers agree, the bytes differ in {differ}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = digests(Path(tmp))
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps({"environment": environment(), "files": files},
                                 indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(files)} files to {RECORD}", file=sys.stderr)
