import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from zaklab.grid import Grid
from zaklab.profiles import MultiSolitonConfig, SolitonParams
from zaklab.dynamics import BlowUpError, Trajectory, multi_soliton_state
from zaklab.functionals import mass, energy, momentum
from zaklab.experiments import (
    ExperimentSpec,
    RunManifest,
    auto_window,
    edo_constant_fit,
    error_series,
    fit_exponential,
    gmod_series,
    local_series,
    run,
    write_error_csv,
)

ONE = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
TWO = MultiSolitonConfig((SolitonParams(1.0, -0.5, -10.0, 0.0),
                          SolitonParams(1.0, 0.5, 10.0, 1.0)))

CHEAP = dict(n_points=256, box_length=40.0, dt=1e-2, sample_stride=10,
             t_final=0.5)


# --- spec -----------------------------------------------------------------------

def test_spec_defaults_and_grid():
    spec = ExperimentSpec(kind="backward_msw", config=ONE)
    g = spec.make_grid()
    assert (g.n_points, g.box_length) == (1024, 40.0)
    assert spec.scheme == "strang"
    assert spec.L_values == (5.0, 10.0, 20.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec(kind="nope", config=ONE)
    with pytest.raises(TypeError):
        ExperimentSpec(kind="backward_msw", config="not a config")
    with pytest.raises(ValueError, match="dt"):
        ExperimentSpec(kind="backward_msw", config=ONE, dt=0.0)
    with pytest.raises(ValueError, match="t_final"):
        ExperimentSpec(kind="backward_msw", config=ONE, t_final=-1.0)
    with pytest.raises(ValueError, match="sample_stride"):
        ExperimentSpec(kind="backward_msw", config=ONE, sample_stride=0)
    with pytest.raises(ValueError, match="L_values"):
        ExperimentSpec(kind="backward_msw", config=ONE, L_values=(5.0, -1.0))


def test_spec_dict_round_trip():
    spec = ExperimentSpec(kind="local_quantities", config=TWO, n_points=512,
                          t_final=3.0, L_values=(4.0, 8.0))
    data = spec.to_dict()
    again = ExperimentSpec.from_dict(data)
    assert again == spec
    assert again.canonical_json() == spec.canonical_json()


def test_spec_from_dict_rejects_unknown_keys():
    base = ExperimentSpec(kind="backward_msw", config=ONE).to_dict()
    bad = dict(base, extra=1)
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentSpec.from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["numerics"]["dx"] = 0.1
    with pytest.raises(ValueError, match="unknown numerics keys"):
        ExperimentSpec.from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["knobs"]["t_start"] = 0.0
    with pytest.raises(ValueError, match="unknown knobs keys"):
        ExperimentSpec.from_dict(bad)
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec.from_dict({"solitons": base["solitons"]})


def test_spec_rejects_unknown_scheme():
    # the key stays for old configs, but only "strang" parses
    base = ExperimentSpec(kind="backward_msw", config=ONE).to_dict()
    assert ExperimentSpec.from_dict(base).scheme == "strang"
    bad = json.loads(json.dumps(base))
    bad["numerics"]["scheme"] = "rk4"
    with pytest.raises(ValueError, match="scheme"):
        ExperimentSpec.from_dict(bad)
    with pytest.raises(ValueError, match="scheme"):
        ExperimentSpec(kind="backward_msw", config=ONE, scheme="lie")


def test_content_hash_is_stable_and_sensitive():
    a = ExperimentSpec(kind="backward_msw", config=TWO)
    b = ExperimentSpec(kind="backward_msw", config=TWO)
    c = ExperimentSpec(kind="backward_msw", config=TWO, dt=2e-3)
    assert a.content_hash() == b.content_hash()
    assert len(a.content_hash()) == 12
    assert int(a.content_hash(), 16) >= 0
    assert a.content_hash() != c.content_hash()


# --- fitting utilities ------------------------------------------------------------

def test_fit_exponential_recovers_exact_decay():
    t = np.linspace(0.0, 10.0, 101)
    y = 3.0 * np.exp(-0.7 * t)
    fit = fit_exponential(t, y)
    assert fit["rate"] == pytest.approx(0.7, abs=1e-12)
    assert fit["amplitude"] == pytest.approx(3.0, rel=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["decaying"] is True
    assert fit["n_points"] == 101


def test_fit_exponential_window():
    t = np.linspace(0.0, 10.0, 101)
    y = np.exp(-t)
    fit = fit_exponential(t, y, window=(2.0, 8.0))
    assert fit["window"] == [2.0, 8.0]
    assert fit["n_points"] == 61


def test_fit_exponential_errors():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="8 points"):
        fit_exponential(t, np.exp(-t))
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="positive"):
        fit_exponential(t, np.zeros(20))


def test_fit_exponential_flat_series_is_not_decaying():
    t = np.linspace(0.0, 10.0, 50)
    fit = fit_exponential(t, np.full(50, 2.0))
    assert fit["decaying"] is False
    assert fit["rate"] == pytest.approx(0.0, abs=1e-14)


def test_auto_window_selects_clean_decay():
    # decay that saturates at a floor growing linearly toward the final time,
    # like the global error of a reversed integration
    t = np.linspace(0.0, 30.0, 301)
    y = np.exp(-t) + 1e-6 * (30.0 - t)
    win = auto_window(t, y)
    assert win is not None
    lo, hi = win
    assert lo >= np.log(1e2)  # below the 1e-2 ceiling
    assert hi < 16.0          # cut before the noise floor takes over
    fit = fit_exponential(t, y, win)
    assert fit["rate"] == pytest.approx(1.0, rel=0.05)


def test_auto_window_degenerate_inputs():
    t = np.linspace(0.0, 1.0, 5)
    assert auto_window(t, np.exp(-t)) is None
    # pure noise floor: every sample fails the clearance test
    t = np.linspace(0.0, 10.0, 101)
    y = 1e-5 * (10.0 - t) + 1e-300
    assert auto_window(t, y) is None


def test_edo_constant_fit_has_zero_violations_by_construction():
    t = np.linspace(5.0, 15.0, 201)
    g = np.exp(-t) * (1.0 + 0.05 * np.sin(3 * t))
    out = edo_constant_fit(t, g, theta_hat=1.0, window=(6.0, 14.0))
    assert out["violations"] == 0
    assert out["C"] > 0
    assert out["C_first_half"] <= out["C"] + 1e-15
    assert out["n_points"] >= 8
    with pytest.raises(ValueError, match="window"):
        edo_constant_fit(t, g, 1.0, window=(6.0, 6.1))


# --- series helpers ---------------------------------------------------------------

def _exact_traj(grid, config, times):
    return Trajectory(grid, tuple(multi_soliton_state(grid, config, t) for t in times))


def test_error_series_matches_direct_evaluation(tmp_path):
    g = Grid(512, 40.0)
    traj = _exact_traj(g, ONE, (0.0, 0.25, 0.5))
    series = error_series(traj, ONE)
    assert list(series) == ["t", "M", "E", "P", "err_bold_H", "err_h2_square"]
    assert np.array_equal(series["t"], [0.0, 0.25, 0.5])
    st = traj.states[1]
    assert series["M"][1] == mass(st)
    assert series["E"][1] == energy(st)
    assert series["P"][1] == momentum(st)
    # frames are exact reference profiles, so the errors vanish identically
    assert np.max(series["err_bold_H"]) == 0.0
    assert np.max(series["err_h2_square"]) == 0.0

    path = tmp_path / "errors.csv"
    cols = write_error_csv(path, series)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(cols)
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == series["M"][1]


def test_local_and_gmod_series_shapes():
    g = Grid(512, 40.0)
    traj = _exact_traj(g, TWO, (0.0, 0.5))
    loc = local_series(traj, TWO, 5.0)
    assert loc["M_k"].shape == (2, 2)
    assert loc["P_k"].shape == (2, 2)
    assert loc["L"] == 5.0
    gm = gmod_series(traj, TWO)
    # both modified energies vanish when the state equals the reference
    assert np.max(np.abs(gm["H"])) < 1e-18
    assert np.max(np.abs(gm["G_mod"])) < 1e-18


# --- manifest ---------------------------------------------------------------------

def test_manifest_write_and_roles(tmp_path):
    man = RunManifest(kind="backward_msw", spec={"kind": "backward_msw"},
                      derived_constants={"theta0": 0.1}, run_dir="x")
    man.add_file(Path("a/errors.csv"), "error_series")
    out = man.write(tmp_path / "manifest.json")
    data = json.loads(out.read_text())
    assert data["kind"] == "backward_msw"
    assert data["incomplete"] is False
    assert data["files"] == [{"name": "errors.csv", "role": "error_series"}]
    assert data["derived_constants"]["theta0"] == 0.1
    assert data["artifact_version"]


# --- run() over every kind ----------------------------------------------------------

def _read_manifest(manifest):
    return json.loads((Path(manifest.run_dir) / "manifest.json").read_text())


def test_run_backward_msw_is_deterministic(tmp_path):
    spec = ExperimentSpec(kind="backward_msw", config=ONE, **CHEAP)
    digests = []
    for sub in ("a", "b"):
        man = run(spec, output_dir=tmp_path / sub)
        csv_path = Path(man.run_dir) / "errors.csv"
        assert csv_path.exists()
        digests.append(hashlib.sha256(csv_path.read_bytes()).hexdigest())
        data = _read_manifest(man)
        # single-soliton data is exact: noted as such instead of fitted
        assert "exact_solution" in data["notes"]
        assert data["notes"]["max_err_bold_H"] < 1e-3
        assert Path(man.run_dir).name == f"backward_msw_{spec.content_hash()}"
    assert digests[0] == digests[1]


def test_run_marks_incomplete_when_no_window_exists(tmp_path):
    spec = ExperimentSpec(kind="backward_msw", config=TWO, n_points=256,
                          box_length=40.0, dt=1e-2, sample_stride=5,
                          t_final=1.0)
    man = run(spec, output_dir=tmp_path)
    assert man.incomplete is True
    assert man.notes["fit_window"] == "no clean window found"
    assert _read_manifest(man)["incomplete"] is True


def test_run_records_failure_and_reraises(tmp_path):
    spec = ExperimentSpec(kind="backward_msw", config=ONE, **CHEAP,
                          blowup_threshold=1.0)
    with pytest.raises(BlowUpError):
        run(spec, output_dir=tmp_path)
    path = Path(tmp_path) / f"backward_msw_{spec.content_hash()}" / "manifest.json"
    data = json.loads(path.read_text())
    assert data["incomplete"] is True
    assert data["notes"]["error"].startswith("BlowUpError")
    # the manifest of a failed run lists itself, as a finished one does
    assert "manifest" in {f["role"] for f in data["files"]}


def test_run_weinstein_audit_smoke(tmp_path):
    spec = ExperimentSpec(kind="weinstein_audit", config=ONE, **CHEAP)
    man = run(spec, output_dir=tmp_path)
    data = _read_manifest(man)
    roles = {f["role"] for f in data["files"]}
    assert {"error_series", "functional_reports", "manifest"} <= roles
    assert data["notes"]["psi_constants"]["sup_psi_prime"] == pytest.approx(35 / 32)
    assert data["notes"]["young_mu"]["mu"] > 0


def test_run_coercivity_sweep_with_workers(tmp_path):
    spec = ExperimentSpec(kind="coercivity_sweep", config=ONE, n_points=256,
                          box_length=40.0, omegas_sweep=(1.0,),
                          speeds_sweep=(0.0, 0.5))
    man = run(spec, output_dir=tmp_path, workers=2)
    data = _read_manifest(man)
    assert data["notes"]["all_constrained_positive"] is True
    assert data["notes"]["nls_block"]["lambda_min_constrained"] > 0
    reports = json.loads((Path(man.run_dir) / "coercivity.json").read_text())
    assert len(reports) == 2
    assert all(r["lambda_min_constrained"] > 0 for r in reports)
    assert all(r["lambda_min_unconstrained"] < 0 for r in reports)


def test_run_local_quantities_smoke(tmp_path):
    spec = ExperimentSpec(kind="local_quantities", config=ONE, **CHEAP,
                          L_values=(4.0, 8.0))
    man = run(spec, output_dir=tmp_path)
    data = _read_manifest(man)
    assert set(data["notes"]["mass_drift_by_L"]) == {"4", "8"}
    assert (Path(man.run_dir) / "local_L4.csv").exists()
    assert (Path(man.run_dir) / "local_L8.csv").exists()


def test_run_modulation_track_smoke(tmp_path):
    spec = ExperimentSpec(kind="modulation_track", config=ONE, **CHEAP)
    man = run(spec, output_dir=tmp_path)
    data = _read_manifest(man)
    assert data["notes"]["frames_total"] >= 2
    assert data["notes"]["frames_converged"] == data["notes"]["frames_total"]
    assert data["notes"]["frames_failed_by_reason"] == {}
    assert (Path(man.run_dir) / "modulation.csv").exists()


def test_run_convergence_order_smoke(tmp_path):
    spec = ExperimentSpec(kind="convergence_order", config=ONE, **CHEAP)
    man = run(spec, output_dir=tmp_path)
    ratios = _read_manifest(man)["notes"]["ratios"]
    assert 3.0 < ratios["dt_over_half"] < 5.0
    assert 3.0 < ratios["half_over_quarter"] < 5.0
