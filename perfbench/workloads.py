"""Benchmark workloads: how each one's config is drawn from a seed, and how
its outputs are checked.

Seed 0 is the committed config with the workload's stated overrides and
nothing else.  Any other seed draws small perturbations from
numpy.random.default_rng(seed):

* two-soliton workloads: all soliton centres sigma move by one common
  U(-0.05, 0.05) and all phases gamma by one common U(-0.5, 0.5).  Translation
  and phase rotation are exact symmetries of the Zakharov system, so each
  seed keeps the geometry of the interaction near t = 0, where Newton fails,
  and does about the same work (modulate-track: 277 converged / 24 failed
  frames at seed 0, 278 / 23 at seeds 3 and 5);
* coercivity-n512: each sweep pulsation is scaled by 1 + U(-0.05, 0.05) and
  each sweep speed moves by U(-0.05, 0.05).

Reference agreement is checked at seed 0 only, against `reference.json`,
which `record_reference.py` recorded from the commit that added the
benchmark.  The invariant checks, the acceptance criteria of the experiment,
apply at every seed.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# ExperimentSpec's default coercivity sweep, which configs/standing_wave.json
# does not override; non-zero seeds perturb these points.
DEFAULT_OMEGAS = (0.5, 1.0, 2.0)
DEFAULT_SPEEDS = (-0.9, 0.0, 0.9)

WORKLOADS = {
    "audit-dense": {
        "kind": "weinstein_audit",
        "config": "configs/two_soliton.json",
        "numerics": {"sample_stride": 10},
        "knobs": {},
        "toy": {"numerics": {"n_points": 512, "dt": 0.002, "sample_stride": 50},
                "knobs": {"t_final": 20.0}},
    },
    "modulate-track": {
        "kind": "modulation_track",
        "config": "configs/two_soliton.json",
        "numerics": {},
        "knobs": {},
        "toy": {"numerics": {"n_points": 512, "dt": 0.002, "sample_stride": 200},
                "knobs": {"t_final": 8.0}},
    },
    "coercivity-n512": {
        "kind": "coercivity_sweep",
        "config": "configs/standing_wave.json",
        "numerics": {"n_points": 512},
        "knobs": {},
        "toy": {"numerics": {"n_points": 64},
                "knobs": {"omegas_sweep": [1.0], "speeds_sweep": [0.0, 0.5]}},
    },
}

# Tolerances of the reference checks at seed 0.
ERR_BOLD_H_TOL = 1e-9      # absolute, per frame (the integrator-equivalence bound)
PI_TOL = 1e-9              # absolute, per component, frames converged in both
LAMBDA_REL_TOL = 1e-8      # relative, per constrained eigenvalue
# Invariant of the modulation track: frames after the soliton interaction
# (t >= 5) must all converge.
TRACK_SETTLED_T = 5.0


def make_config(root: Path, name: str, seed: int, toy: bool = False) -> dict:
    """The experiment config dict (with its kind) for one workload and seed."""
    wl = WORKLOADS[name]
    data = json.loads((root / wl["config"]).read_text())
    data["kind"] = wl["kind"]
    data.setdefault("numerics", {}).update(wl["numerics"])
    data.setdefault("knobs", {}).update(wl["knobs"])
    if toy:
        data["numerics"].update(wl["toy"]["numerics"])
        data["knobs"].update(wl["toy"]["knobs"])
    if seed != 0:
        _perturb(data, np.random.default_rng(seed))
    return data


def _perturb(data: dict, rng) -> None:
    if data["kind"] == "coercivity_sweep":
        knobs = data["knobs"]
        omegas = knobs.get("omegas_sweep", DEFAULT_OMEGAS)
        speeds = knobs.get("speeds_sweep", DEFAULT_SPEEDS)
        knobs["omegas_sweep"] = [float(w * (1.0 + rng.uniform(-0.05, 0.05))) for w in omegas]
        knobs["speeds_sweep"] = [float(c + rng.uniform(-0.05, 0.05)) for c in speeds]
        return
    shift, phase = rng.uniform(-0.05, 0.05), rng.uniform(-0.5, 0.5)
    for sol in data["solitons"]:
        sol["sigma"] = float(sol.get("sigma", 0.0) + shift)
        sol["gamma"] = float(sol.get("gamma", 0.0) + phase)


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [row[key] for row in rows] for key in rows[0]}


def observables(kind: str, run_dir: Path) -> dict:
    """The outputs the reference checks compare, read from a run directory."""
    if kind == "weinstein_audit":
        cols = _read_csv(run_dir / "errors.csv")
        return {"t": [float(x) for x in cols["t"]],
                "err_bold_H": [float(x) for x in cols["err_bold_H"]]}
    if kind == "modulation_track":
        cols = _read_csv(run_dir / "modulation.csv")
        pi_cols = [k for k in cols if re.fullmatch(r"(omega|sigma|gamma)_\d+", k)]
        return {"t": [float(x) for x in cols["t"]],
                "converged": [x == "True" for x in cols["converged"]],
                "pi": [[float(cols[k][i]) for k in pi_cols] for i in range(len(cols["t"]))]}
    reports = json.loads((run_dir / "coercivity.json").read_text())
    nls = json.loads((run_dir / "manifest.json").read_text())["notes"]["nls_block"]
    return {"h2_lambda": [r["lambda_min_constrained"] for r in reports],
            "nls_lambda": [nls["lambda_min_constrained"], nls["lambda_min_constrained_doubled"]]}


def check(name: str, run_dir: Path, use_reference: bool) -> list:
    """Problems found in one run's outputs; an empty list means correct."""
    problems = []
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if manifest.get("incomplete"):
        problems.append(f"manifest incomplete: {manifest['notes'].get('error', manifest['notes'])}")
        return problems
    kind = WORKLOADS[name]["kind"]
    obs = observables(kind, run_dir)
    fits = manifest["fits"]
    if kind == "weinstein_audit":
        theta = fits.get("theta_hat")
        edo = fits.get("edo_constant")
        if theta is None or edo is None:
            return problems + ["no theta_hat / edo_constant fit"]
        if not theta["rate"] > 0:
            problems.append(f"theta_hat rate {theta['rate']} <= 0")
        if not theta["r_squared"] > 0.99:
            problems.append(f"theta_hat r_squared {theta['r_squared']} <= 0.99")
        if edo["violations"] != 0:
            problems.append(f"{edo['violations']} EDO violations")
    elif kind == "modulation_track":
        t = np.array(obs["t"])
        conv = np.array(obs["converged"])
        unsettled = int(np.count_nonzero(~conv & (t >= TRACK_SETTLED_T)))
        if unsettled:
            problems.append(f"{unsettled} frames at t >= {TRACK_SETTLED_T} did not converge")
    elif kind == "coercivity_sweep":
        lams = obs["h2_lambda"] + obs["nls_lambda"]
        if not all(lam > 0 for lam in lams):
            problems.append(f"non-positive constrained lambda_min in {lams}")
    if use_reference:
        problems += _check_reference(name, obs)
    return problems


def _check_reference(name: str, obs: dict) -> list:
    ref = json.loads(REFERENCE_PATH.read_text())[name]
    if name == "audit-dense":
        got, want = np.array(obs["err_bold_H"]), np.array(ref["err_bold_H"])
        if got.shape != want.shape or not np.array_equal(obs["t"], ref["t"]):
            return [f"frame times differ from the reference ({got.size} vs {want.size} frames)"]
        worst = float(np.max(np.abs(got - want)))
        return [] if worst <= ERR_BOLD_H_TOL else [f"err_bold_H differs by {worst:.3e}"]
    if name == "modulate-track":
        conv, ref_conv = np.array(obs["converged"]), np.array(ref["converged"])
        if conv.shape != ref_conv.shape:
            return [f"{conv.size} frames, reference has {ref_conv.size}"]
        problems = []
        if np.count_nonzero(conv) < np.count_nonzero(ref_conv):
            problems.append(f"{np.count_nonzero(conv)} frames converged, "
                            f"reference {np.count_nonzero(ref_conv)}")
        both = conv & ref_conv
        worst = float(np.max(np.abs(np.array(obs["pi"])[both] - np.array(ref["pi"])[both])))
        if worst > PI_TOL:
            problems.append(f"pi differs by {worst:.3e} on frames converged in both")
        return problems
    got = np.array(obs["h2_lambda"] + obs["nls_lambda"])
    want = np.array(ref["h2_lambda"] + ref["nls_lambda"])
    if got.shape != want.shape:
        return [f"{got.size} eigenvalues, reference has {want.size}"]
    worst = float(np.max(np.abs(got - want) / np.abs(want)))
    return [] if worst <= LAMBDA_REL_TOL else [f"lambda_min differs by {worst:.3e} (relative)"]
