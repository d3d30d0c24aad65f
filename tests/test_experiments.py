import csv
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from zaklab.grid import Grid, quadrature, spectral_derivative
from zaklab.profiles import SOLITON_KEYS, MultiSolitonConfig, SolitonParams
from zaklab.dynamics import (
    BlowUpError,
    State,
    backward_construct,
    evolve,
    multi_soliton_state,
    soliton_state,
)
from zaklab import experiments
from zaklab.functionals import (
    CutoffFamily,
    _Frame,
    _write_csv,
    energy,
    mass,
    momentum,
)
from zaklab.modulation import track
from zaklab.experiments import (
    CONFIG_KEYS,
    KINDS,
    ExperimentSpec,
    RunManifest,
    auto_window,
    edo_constant_fit,
    error_series,
    fit_exponential,
    gmod_series,
    local_series,
    run,
)

ONE = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
TWO = MultiSolitonConfig((SolitonParams(1.0, -0.5, -10.0, 0.0),
                          SolitonParams(1.0, 0.5, 10.0, 1.0)))

CHEAP = dict(n_points=256, box_length=40.0, dt=1e-2, sample_stride=10,
             t_final=0.5)


# --- spec -----------------------------------------------------------------------

def test_spec_defaults_and_grid():
    spec = ExperimentSpec(kind="weinstein_audit", config=ONE)
    g = spec.make_grid()
    assert (g.n_points, g.box_length) == (1024, 40.0)
    assert spec.L_values == (5.0, 10.0, 20.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec(kind="nope", config=ONE)
    with pytest.raises(TypeError):
        ExperimentSpec(kind="weinstein_audit", config="not a config")
    with pytest.raises(ValueError, match="dt"):
        ExperimentSpec(kind="weinstein_audit", config=ONE, dt=0.0)
    with pytest.raises(ValueError, match="t_final"):
        ExperimentSpec(kind="weinstein_audit", config=ONE, t_final=-1.0)
    with pytest.raises(ValueError, match="sample_stride"):
        ExperimentSpec(kind="weinstein_audit", config=ONE, sample_stride=0)
    # counts must be real ints: a float stride would sample at another rate
    # than the one recorded, and bools are not counts
    for name, value in (("n_points", 512.0), ("n_points", True),
                        ("sample_stride", 2.5), ("sample_stride", True)):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            ExperimentSpec(kind="weinstein_audit", config=ONE, **{name: value})
    for name in ("dt", "t_final"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExperimentSpec(kind="weinstein_audit", config=ONE, **{name: float("inf")})
    for name, value in (("tolerance", float("inf")), ("box_length", float("inf")),
                        ("L_values", (5.0, float("inf"))), ("L_values", (float("nan"),)),
                        ("omegas_sweep", (float("inf"),)), ("speeds_sweep", (float("nan"),))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExperimentSpec(kind="weinstein_audit", config=ONE, **{name: value})
    for value in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="blowup_threshold must be positive"):
            ExperimentSpec(kind="weinstein_audit", config=ONE, blowup_threshold=value)
    # an infinite ceiling means none: the guard still refuses non-finite norms
    assert ExperimentSpec(kind="weinstein_audit", config=ONE,
                          blowup_threshold=float("inf")).blowup_threshold == float("inf")
    with pytest.raises(ValueError, match="L_values"):
        ExperimentSpec(kind="weinstein_audit", config=ONE, L_values=(5.0, -1.0))
    # widths must be strictly increasing for every kind; one width is enough
    for kind in KINDS:
        for widths in ((5.0, 5.0), (20.0, 10.0, 5.0)):
            with pytest.raises(ValueError, match="strictly increasing"):
                ExperimentSpec(kind=kind, config=ONE, L_values=widths)
    # nor may two widths print alike in their local_L<L>.csv names
    with pytest.raises(ValueError, match="L_values must name distinct local_L<L>.csv files"):
        ExperimentSpec(kind="weinstein_audit", config=ONE, L_values=(5.0, 5.0000001))
    assert ExperimentSpec(kind="weinstein_audit", config=ONE, L_values=(5.0,)).L_values == (5.0,)


# Each config key against the values among NaN, +-inf, 0, a negative value,
# a bool, a string and the wrong shape (a list for a scalar key, a scalar for
# a list key) that its admissible set leaves out.
ADMITTED = {("blowup_threshold", math.inf), ("speeds_sweep", 0), ("c", 0),
            ("sigma", 0), ("sigma", -1), ("gamma", 0), ("gamma", -1)}


def _inadmissible():
    for key in SOLITON_KEYS + CONFIG_KEYS:
        many = isinstance(key.default, tuple)
        for value in (math.nan, math.inf, -math.inf, 0, -1, True, "1.0"):
            if (key.name, value) not in ADMITTED:
                yield key.metadata["block"], key.name, [value] if many else value
        yield key.metadata["block"], key.name, 1.0 if many else [1.0]


@pytest.mark.parametrize("block, name, value", _inadmissible())
def test_every_key_refuses_each_inadmissible_value(block, name, value):
    data = ExperimentSpec(kind="weinstein_audit", config=ONE).to_dict()
    if block == "solitons.N":
        data["solitons"][0][name] = value
    else:
        data[block][name] = value
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        ExperimentSpec.from_dict(data)


def test_spec_dict_round_trip():
    spec = ExperimentSpec(kind="weinstein_audit", config=TWO, n_points=512,
                          t_final=3.0, L_values=(4.0, 8.0))
    data = spec.to_dict()
    again = ExperimentSpec.from_dict(data)
    assert again == spec
    assert again.canonical_json() == spec.canonical_json()


def test_spec_from_dict_rejects_unknown_keys():
    base = ExperimentSpec(kind="weinstein_audit", config=ONE).to_dict()
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
    # there is one integrator, so numerics.scheme is no longer a key at all
    base = ExperimentSpec(kind="weinstein_audit", config=ONE).to_dict()
    assert "scheme" not in base["numerics"]
    bad = json.loads(json.dumps(base))
    bad["numerics"]["scheme"] = "strang"
    with pytest.raises(ValueError, match=r"unknown numerics keys: \['scheme'\]"):
        ExperimentSpec.from_dict(bad)
    with pytest.raises(TypeError, match="scheme"):
        ExperimentSpec(kind="weinstein_audit", config=ONE, scheme="strang")


def test_content_hash_is_stable_and_sensitive():
    a = ExperimentSpec(kind="weinstein_audit", config=TWO)
    b = ExperimentSpec(kind="weinstein_audit", config=TWO)
    c = ExperimentSpec(kind="weinstein_audit", config=TWO, dt=2e-3)
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


def test_auto_window_refuses_times_out_of_order():
    # backward_frames order, t_final -> 0, and a repeated time
    t = np.linspace(0.0, 30.0, 301)
    for times in (t[::-1], np.repeat(t, 2)):
        with pytest.raises(ValueError, match="strictly increasing"):
            auto_window(times, np.exp(-times))


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
    return [multi_soliton_state(grid, config, t) for t in times]


def test_error_series_matches_direct_evaluation(tmp_path):
    g = Grid(512, 40.0)
    traj = _exact_traj(g, ONE, (0.0, 0.25, 0.5))
    series = error_series(traj, ONE)
    assert list(series) == ["t", "M", "E", "P", "err_bold_H", "err_h2_square"]
    assert np.array_equal(series["t"], [0.0, 0.25, 0.5])
    st = traj[1]
    assert series["M"][1] == mass(st)
    assert series["E"][1] == energy(st)
    assert series["P"][1] == momentum(st)
    # frames are exact reference profiles, so the errors vanish identically
    assert np.max(series["err_bold_H"]) == 0.0
    assert np.max(series["err_h2_square"]) == 0.0

    path = tmp_path / "errors.csv"
    _write_csv(path, series)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(series)
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == series["M"][1]


_ERRORS_HEADER = ["t", "M", "E", "P", "err_bold_H", "err_h2_square"]
_LOCAL_HEADER = ["t", "M_1", "M_2", "P_1", "P_2"]


@pytest.mark.parametrize("kind, headers", [
    ("simulate", {"errors.csv": _ERRORS_HEADER}),
    ("weinstein_audit", {"errors.csv": _ERRORS_HEADER, "functionals.csv": [
        "t", "M", "E", "P", "M_1", "M_2", "P_1", "P_2", "G", "G0", "G1", "G21", "G3",
        "H", "G_mod", "mass_tail", "energy_tail"],
        "local_L4.csv": _LOCAL_HEADER, "local_L8.csv": _LOCAL_HEADER,
        "local_L16.csv": _LOCAL_HEADER}),
    ("modulation_track", {"modulation.csv": [
        "t", "omega_1", "omega_2", "sigma_1", "sigma_2", "gamma_1", "gamma_2",
        "domega_dt_1", "domega_dt_2", "dsigma_dt_1", "dsigma_dt_2", "dgamma_dt_1",
        "dgamma_dt_2", "gamma_rate_mismatch_1", "gamma_rate_mismatch_2",
        "eps_H", "residual_max", "iterations", "converged", "reason"]}),
])
def test_the_run_tables_keep_their_documented_headers(tmp_path, kind, headers):
    """Every CSV a kind writes, with its header as the README documents it;
    the benchmark harness reads t, err_bold_H, omega_k|sigma_k|gamma_k and
    converged by name."""
    spec = ExperimentSpec(kind=kind, config=TWO, **CHEAP, L_values=(4.0, 8.0, 16.0))
    run_dir = Path(run(spec, output_dir=tmp_path).run_dir)
    assert sorted(p.name for p in run_dir.glob("*.csv")) == sorted(headers)
    for name, header in headers.items():
        with open(run_dir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert len(rows) == 7 and all(len(row) == len(header) for row in rows)  # 6 frames


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
    for series in (error_series, gmod_series):
        with pytest.raises(ValueError, match="no frames"):
            series([], TWO)


# --- manifest ---------------------------------------------------------------------

def test_manifest_write_and_roles(tmp_path):
    man = RunManifest(kind="weinstein_audit", spec={"kind": "weinstein_audit"},
                      derived_constants={"theta0": 0.1}, run_dir="x")
    man.add_file(Path("a/errors.csv"), "error_series")
    out = man.write(tmp_path / "manifest.json")
    data = json.loads(out.read_text())
    assert data["kind"] == "weinstein_audit"
    assert data["incomplete"] is False
    assert data["files"] == [{"name": "errors.csv", "role": "error_series"}]
    assert data["derived_constants"]["theta0"] == 0.1
    assert data["artifact_version"]


# --- run() over every kind ----------------------------------------------------------

def _read_manifest(manifest):
    return json.loads((Path(manifest.run_dir) / "manifest.json").read_text())


def test_run_weinstein_audit_is_deterministic(tmp_path):
    csvs = ["errors.csv", "functionals.csv", "local_L5.csv", "local_L10.csv", "local_L20.csv"]
    for config in (ONE, TWO):
        spec = ExperimentSpec(kind="weinstein_audit", config=config, **CHEAP)
        digests = []
        for sub in ("a", "b"):
            man = run(spec, output_dir=tmp_path / sub)
            assert Path(man.run_dir).name == f"{spec.kind}_{spec.content_hash()}"
            data = _read_manifest(man)
            roles = {f["role"] for f in data["files"]}
            assert {"error_series", "functional_reports", "manifest"} <= roles
            notes = data["notes"]
            assert notes["psi_constants"]["sup_psi_prime"] == pytest.approx(35 / 32)
            assert notes["young_mu"]["mu"] > 0
            if config is ONE:  # single-soliton data is exact: noted as such instead of fitted
                assert "exact_solution" in notes
                assert notes["max_err_bold_H"] < 1e-3
            digests.append([hashlib.sha256((Path(man.run_dir) / name).read_bytes()).hexdigest()
                            for name in csvs])
        assert digests[0] == digests[1]
        # a rerun into the same directory rewrites every file with the same bytes
        run_dir = tmp_path / "a" / f"{spec.kind}_{spec.content_hash()}"
        first = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        assert set(first) == {*csvs, "manifest.json"}
        run(spec, output_dir=tmp_path / "a")
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == first


def test_run_modulation_track_is_deterministic(tmp_path):
    for config in (ONE, TWO):
        spec = ExperimentSpec(kind="modulation_track", config=config, **CHEAP)
        digests = []
        for sub in ("a", "b"):
            man = run(spec, output_dir=tmp_path / sub)
            assert Path(man.run_dir).name == f"{spec.kind}_{spec.content_hash()}"
            assert {f["role"] for f in _read_manifest(man)["files"]} == {
                "modulation_series", "manifest"}
            digests.append(hashlib.sha256(
                (Path(man.run_dir) / "modulation.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]
        # a rerun into the same directory rewrites every file with the same bytes
        run_dir = tmp_path / "a" / f"{spec.kind}_{spec.content_hash()}"
        first = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        assert set(first) == {"modulation.csv", "manifest.json"}
        run(spec, output_dir=tmp_path / "a")
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == first


def test_run_marks_incomplete_when_no_window_exists(tmp_path):
    spec = ExperimentSpec(kind="weinstein_audit", config=TWO, n_points=256,
                          box_length=40.0, dt=1e-2, sample_stride=5,
                          t_final=1.0)
    man = run(spec, output_dir=tmp_path)
    assert man.incomplete is True
    assert man.notes["fit_window"] == "no clean window found"
    assert _read_manifest(man)["incomplete"] is True


def test_run_records_failure_and_reraises(tmp_path):
    spec = ExperimentSpec(kind="weinstein_audit", config=ONE, **CHEAP,
                          blowup_threshold=1.0)
    with pytest.raises(BlowUpError):
        run(spec, output_dir=tmp_path)
    path = Path(tmp_path) / f"weinstein_audit_{spec.content_hash()}" / "manifest.json"
    data = json.loads(path.read_text())
    assert data["incomplete"] is True
    assert data["notes"]["error"].startswith("BlowUpError")
    # the manifest of a failed run lists itself, as a finished one does
    assert "manifest" in {f["role"] for f in data["files"]}


def test_run_coercivity_sweep(tmp_path):
    spec = ExperimentSpec(kind="coercivity_sweep", config=ONE, n_points=256,
                          box_length=40.0, omegas_sweep=(1.0,),
                          speeds_sweep=(0.0, 0.5))
    man = run(spec, output_dir=tmp_path)
    data = _read_manifest(man)
    assert data["notes"]["all_constrained_positive"] is True
    assert data["notes"]["nls_block"]["lambda_min_constrained"] > 0
    reports = json.loads((Path(man.run_dir) / "coercivity.json").read_text())
    assert len(reports) == 2
    assert all(r["lambda_min_constrained"] > 0 for r in reports)
    assert all(r["lambda_min_unconstrained"] < 0 for r in reports)


def test_runs_never_import_scipy(tmp_path):
    # zaklab runs on numpy alone: with every scipy import made to fail,
    # importing zaklab, a coercivity sweep, an audit and the matrix-free
    # spectrum() must all work
    script = f"""
import sys
sys.modules["scipy"] = None
from zaklab.experiments import ExperimentSpec, run
from zaklab.grid import Grid
from zaklab.profiles import MultiSolitonConfig, SolitonParams
from zaklab.spectral import LinearizedOperator, spectrum

one = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
for kind, knobs in (("coercivity_sweep", dict(omegas_sweep=(1.0,), speeds_sweep=(0.0, 0.5))),
                    ("weinstein_audit", dict(dt=1e-2, sample_stride=10, t_final=0.5))):
    run(ExperimentSpec(kind=kind, config=one, n_points=64, box_length=40.0, **knobs),
        output_dir={str(tmp_path)!r})
spectrum(LinearizedOperator.plus(Grid(64, 40.0)), 2)
"""
    src = str(Path(experiments.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def test_run_local_quantities_smoke(tmp_path):
    # an audit of one width writes its table and drift, and has no widths to compare
    spec = ExperimentSpec(kind="weinstein_audit", config=ONE, **CHEAP, L_values=(4.0,))
    man = run(spec, output_dir=tmp_path)
    notes = _read_manifest(man)["notes"]
    assert set(notes["mass_drift_by_L"]) == {"4"}
    assert notes["drift_window"] == [0.0, spec.t_final]
    assert "monotone_in_L" not in notes
    assert [p.name for p in Path(man.run_dir).glob("local_L*.csv")] == ["local_L4.csv"]


def test_local_csvs_equal_local_series_over_backward_construct(tmp_path):
    # the runner makes every table in one pass over the streamed frames; each
    # is the table the in-process series helpers make of the listed frames,
    # and the streamed run warns nothing and leaves no child behind
    spec = ExperimentSpec(kind="weinstein_audit", config=TWO, **CHEAP,
                          L_values=(4.0, 8.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        man = run(spec, output_dir=tmp_path / "runs")
    _assert_no_child_left()
    assert set(man.notes["monotone_in_L"]) == {"k=1", "k=2"}
    frames = backward_construct(spec.make_grid(), TWO, spec.t_final, spec.dt,
                                sample_stride=spec.sample_stride)
    _write_csv(tmp_path / "errors.csv", error_series(frames, TWO))
    assert (tmp_path / "errors.csv").read_bytes() == \
        (Path(man.run_dir) / "errors.csv").read_bytes()
    for L in spec.L_values:
        path = tmp_path / f"L{L:g}.csv"
        loc = local_series(frames, TWO, L)
        _write_csv(path, {"t": loc["t"], **{f"{q}_{k + 1}": col for q in "MP"
                                            for k, col in enumerate(loc[f"{q}_k"].T)}})
        assert path.read_bytes() == (Path(man.run_dir) / f"local_L{L:g}.csv").read_bytes()


@pytest.mark.parametrize("config", [ONE, TWO], ids=["K1", "K2"])
@pytest.mark.parametrize("batch", [1, 3, 16])
def test_batched_frame_pass_equals_the_per_state_pass(monkeypatch, config, batch):
    # 51 frames: batches of 3 and 16 leave a short last batch
    spec = ExperimentSpec(kind="weinstein_audit", config=config, **dict(CHEAP, sample_stride=1))
    widths = [CutoffFamily.for_config(config, L) for L in (4.0, 8.0)]
    monkeypatch.setattr(experiments, "_BATCH", batch)
    errors, *tables = experiments._backward_tables(
        spec, [_Frame.errors, *map(experiments._local_table, widths)])
    states = backward_construct(spec.make_grid(), config, spec.t_final, spec.dt,
                                sample_stride=spec.sample_stride)
    assert len(states) == len(errors["t"]) == 51
    for i, st in enumerate(states):
        alone = _Frame.of([st], config)
        assert [errors[c][i] for c in errors] == [
            st.t, mass(st), energy(st), momentum(st), alone.eps.bold_H[0], alone.eps.h2_square[0]]
        for fam, local in zip(widths, tables):
            one = _Frame.of([st])
            cols = one.local(fam.chis(one.grid, one.t))
            assert list(local) == ["t"] + list(cols)
            assert [local[c][i] for c in local] == [st.t, *(col[0] for col in cols.values())]


@pytest.mark.parametrize("config", [ONE, TWO], ids=["K1", "K2"])
@pytest.mark.parametrize("batch", [1, 3, 16])
def test_functionals_csv_equals_the_one_state_frame(tmp_path, monkeypatch, config, batch):
    """Each functionals.csv cell of an audit, read back through repr, is bit
    for bit the B = 1 _Frame value of its snapshot, in every batching."""
    spec = ExperimentSpec(kind="weinstein_audit", config=config, **dict(CHEAP, sample_stride=1))
    family = CutoffFamily.for_config(config, spec.L_values[0])
    monkeypatch.setattr(experiments, "_BATCH", batch)
    man = run(spec, output_dir=tmp_path)
    with open(Path(man.run_dir) / "functionals.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    states = backward_construct(spec.make_grid(), config, spec.t_final, spec.dt,
                                sample_stride=spec.sample_stride)
    assert len(rows) == len(states) == 51
    for st, row in zip(states, rows):
        one = _Frame.of([st], config)
        alone = one.reports(spec.K0, family.chis(one.grid, one.t))
        assert header == list(alone)
        for cell, value in zip(row, alone.values()):
            assert cell == (str(value[0]) if value.dtype == bool else repr(float(value[0])))


def _assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # none running, none left to reap
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_consumer_ends_the_integrating_child():
    spec = ExperimentSpec(kind="weinstein_audit", config=ONE, **dict(CHEAP, sample_stride=1))
    boom = ZeroDivisionError("second batch")
    sizes = []

    def table(f):
        sizes.append(f.times.size)
        if len(sizes) == 2:
            raise boom
        return f.errors()

    with pytest.raises(ZeroDivisionError) as err:
        experiments._backward_tables(spec, [table])
    assert err.value is boom
    assert sizes == [experiments._BATCH] * 2
    _assert_no_child_left()


def test_a_blowup_in_the_child_arrives_after_the_frames_before_it():
    # a deepened potential well focuses u, so ||u||_H1 grows step by step;
    # the guard trips on step 101, after six full batches of 16 frames
    g = Grid(256, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.0))
    s = State(g, 0.0, s.u, 3.0 * s.n, s.v)
    h1 = [np.sqrt(quadrature(g, np.abs(st.u) ** 2)
                  + quadrature(g, np.abs(spectral_derivative(g, st.u, 1)) ** 2))
          for st in evolve(s, 0.2, 1e-3)]

    def stream(batches):
        seen = []
        with pytest.raises(BlowUpError) as err, closing(batches):
            for f in batches:
                seen.append((f.t, f.u, f.n, f.v))
        return seen, err.value

    def frames():
        return evolve(s, 0.2, 1e-3, blowup_threshold=0.5 * (h1[100] + h1[101]))

    alone, alone_err = stream(experiments._batches(frames()))
    forked, forked_err = stream(experiments._integrated_batches(frames(), g))
    assert len(alone) == len(forked) == 6
    for a, b in zip(alone, forked):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert (forked_err.t, forked_err.norm) == (alone_err.t, alone_err.norm)
    _assert_no_child_left()


def test_a_child_that_dies_unreported_is_an_error():
    g = Grid(64, 40.0)
    state = soliton_state(g, SolitonParams(1.0, 0.0))

    def frames():  # runs in the child, which ends before it can report
        yield state
        os._exit(3)

    with pytest.raises(RuntimeError, match="exit code 3"), \
            closing(experiments._integrated_batches(frames(), g)) as batches:
        list(batches)
    _assert_no_child_left()


def test_frames_off_the_grid_of_the_stream_are_refused():
    # the parent sizes what it reads by its grid, so another grid must not pass
    frames = [soliton_state(Grid(64, 40.0), SolitonParams(1.0, 0.0))]
    with pytest.raises(ValueError, match="not on the grid"), \
            closing(experiments._integrated_batches(frames, Grid(64, 40.0))) as batches:
        list(batches)
    _assert_no_child_left()


@pytest.mark.parametrize("kind", ["simulate"])  # weinstein_audit: the local-CSV test above
def test_streamed_kinds_warn_nothing(tmp_path, kind):
    spec = ExperimentSpec(kind=kind, config=TWO, **CHEAP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(spec, output_dir=tmp_path)
    _assert_no_child_left()


def test_an_integer_t_final_streams_as_the_in_process_series(tmp_path):
    # 17 frames: the last batch holds only the final frame, stamped with t_final as given
    spec = ExperimentSpec(kind="simulate", config=ONE, n_points=256, box_length=40.0,
                          dt=0.0625, sample_stride=1, t_final=1)
    manifest = run(spec, output_dir=tmp_path / "runs")
    frames = evolve(multi_soliton_state(spec.make_grid(), ONE, 0.0), 1, 0.0625)
    _write_csv(tmp_path / "alone.csv", error_series(frames, ONE))
    streamed = (Path(manifest.run_dir) / "errors.csv").read_bytes()
    assert streamed == (tmp_path / "alone.csv").read_bytes()
    assert streamed.splitlines()[-1].startswith(b"1.0,")


def _run_in_a_pool_worker(spec, out_dir):
    return run(spec, output_dir=out_dir).run_dir


def test_a_pool_worker_can_run_a_streamed_kind(tmp_path):
    # a Pool worker is daemonic, and multiprocessing.Process refuses it children
    spec = ExperimentSpec(kind="weinstein_audit", config=ONE, **CHEAP)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_worker = pool.apply(_run_in_a_pool_worker, (spec, tmp_path / "pool"))
    here = run(spec, output_dir=tmp_path / "here").run_dir
    assert (Path(in_worker) / "errors.csv").read_bytes() == \
        (Path(here) / "errors.csv").read_bytes()
    _assert_no_child_left()


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_a_failed_fork_leaves_no_pipe_open(monkeypatch):
    g = Grid(64, 40.0)
    frames = [soliton_state(g, SolitonParams(1.0, 0.0))]

    def no_fork():
        raise OSError("no fork")

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(experiments.os, "fork", no_fork)
    with pytest.raises(OSError, match="no fork") as err:
        list(experiments._integrated_batches(frames, g))
    # closed at once, not when the traceback (and the generator's frame) is dropped
    assert err.value.__traceback__ is not None
    assert len(os.listdir("/proc/self/fd")) == open_fds


def _traced_peak(spec, out_dir) -> int:
    tracemalloc.start()
    try:
        run(spec, output_dir=out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weinstein_audit_does_not_hold_its_frames(tmp_path):
    # the traced peak of a run grows with its frame count by far less than
    # the frames themselves take; fixed costs cancel in the difference
    base = dict(CHEAP, dt=1e-2, sample_stride=1)
    short = ExperimentSpec(kind="weinstein_audit", config=ONE, **dict(base, t_final=2.0))
    long = ExperimentSpec(kind="weinstein_audit", config=ONE, **dict(base, t_final=20.0))
    run(short, output_dir=tmp_path)  # imports and first-call costs
    growth = _traced_peak(long, tmp_path) - _traced_peak(short, tmp_path)
    extra_frames = 2001 - 201
    frame_bytes = 4 * 8 * base["n_points"]  # complex u, real n and v
    assert growth < 0.5 * extra_frames * frame_bytes


def test_run_modulation_track_smoke(tmp_path):
    spec = ExperimentSpec(kind="modulation_track", config=ONE, **CHEAP)
    man = run(spec, output_dir=tmp_path)
    data = _read_manifest(man)
    assert data["notes"]["frames_total"] >= 2
    assert data["notes"]["frames_converged"] == data["notes"]["frames_total"]
    assert data["notes"]["frames_failed_by_reason"] == {}
    assert (Path(man.run_dir) / "modulation.csv").exists()


def test_modulation_track_integrates_again_when_the_chains_do_not_meet(tmp_path):
    # the committed two-soliton waves at n = 512, t_final = 4, a frame every 0.05:
    # only t = 4 and 3.95 fit cleanly in integration order, and at 3.95 the
    # forward chain from t = 0 sits on another root, so the run lists the frames
    # of a second integration and writes track's table of them
    config = MultiSolitonConfig((SolitonParams(1.0, -0.5, 0.0, 0.0),
                                 SolitonParams(1.0, 0.5, 0.0, 1.0)))
    spec = ExperimentSpec(kind="modulation_track", config=config, n_points=512,
                          box_length=80.0, dt=1e-3, sample_stride=50, t_final=4.0)
    man = run(spec, output_dir=tmp_path / "runs")
    notes = _read_manifest(man)["notes"]
    assert notes["refit"]["t"] == pytest.approx(3.95)
    assert notes["refit"]["pi_gap"] > 1.0
    assert notes["chains_meet_t"] is None
    assert notes["frames_held"] == notes["frames_total"] == 81
    frames = backward_construct(spec.make_grid(), config, spec.t_final, spec.dt,
                                sample_stride=spec.sample_stride)
    _write_csv(tmp_path / "modulation.csv", track(frames, config))
    assert (tmp_path / "modulation.csv").read_bytes() == \
        (Path(man.run_dir) / "modulation.csv").read_bytes()


def test_run_convergence_order_smoke(tmp_path):
    spec = ExperimentSpec(kind="convergence_order", config=ONE, **CHEAP)
    man = run(spec, output_dir=tmp_path)
    ratios = _read_manifest(man)["notes"]["ratios"]
    assert 3.0 < ratios["dt_over_half"] < 5.0
    assert 3.0 < ratios["half_over_quarter"] < 5.0
