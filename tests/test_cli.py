import json
from pathlib import Path

import pytest

from zaklab.cli import main

CHEAP_NUMERICS = {"n_points": 256, "box_length": 40.0, "dt": 0.01,
                  "sample_stride": 10}
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def _one_soliton_config():
    return {
        "solitons": [{"omega": 1.0, "c": 0.0, "sigma": 0.0, "gamma": 0.0}],
        "numerics": dict(CHEAP_NUMERICS),
        "knobs": {"t_final": 0.5},
    }


def _write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# --- parser basics -------------------------------------------------------------

def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "backward-msw" in out
    assert "numerics.dt" in out  # config keys documented in the epilog


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "zaklab" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- validate-config -------------------------------------------------------------

def test_validate_config_round_trip(tmp_path, capsys):
    cfg = _write(tmp_path, _one_soliton_config())
    assert main(["validate-config", "--config", cfg]) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["numerics"]["n_points"] == 256
    assert data["knobs"]["t_final"] == 0.5
    # echoing the canonical form back through the validator is idempotent
    cfg2 = tmp_path / "canonical.json"
    cfg2.write_text(first)
    assert main(["validate-config", "--config", str(cfg2)]) == 0
    assert capsys.readouterr().out == first


def test_equal_speeds_rejected(tmp_path, capsys):
    data = _one_soliton_config()
    data["solitons"] = [{"omega": 1.0, "c": 0.5, "sigma": -5.0, "gamma": 0.0},
                        {"omega": 1.0, "c": 0.5, "sigma": 5.0, "gamma": 0.0}]
    cfg = _write(tmp_path, data)
    assert main(["validate-config", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "distinct" in err


def test_unknown_key_named_in_error(tmp_path, capsys):
    data = _one_soliton_config()
    data["knobs"]["t_fnal"] = 3.0
    cfg = _write(tmp_path, data)
    assert main(["validate-config", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "unknown knobs keys" in err
    assert "t_fnal" in err


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["validate-config", "--config", missing]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_config_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate-config", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_configs_validate(path, capsys):
    assert main(["validate-config", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["solitons"]


# --- values that runners would only reject after the integration ----------------

@pytest.mark.parametrize("subcommand, override, key", [
    ("weinstein-audit", "knobs.K0=20.0", "K0"),
    ("local-quantities", "knobs.L_values=[]", "L_values"),
    ("coercivity", "knobs.omegas_sweep=[1.0,0.0]", "omegas_sweep"),
    ("coercivity", "knobs.speeds_sweep=[0.5,1.0]", "speeds_sweep"),
])
def test_spec_rejects_before_the_run(tmp_path, capsys, subcommand, override, key):
    cfg = _write(tmp_path, _one_soliton_config())
    out_dir = tmp_path / "runs"
    assert main([subcommand, "--config", cfg, "--set", override,
                 "--output-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err
    assert not out_dir.exists()  # rejected before any run directory is made


# --- overrides --------------------------------------------------------------------

def test_override_reflected_in_canonical_output(tmp_path, capsys):
    cfg = _write(tmp_path, _one_soliton_config())
    assert main(["validate-config", "--config", cfg,
                 "--set", "numerics.dt=0.005",
                 "--set", "solitons.0.omega=2.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["numerics"]["dt"] == 0.005
    assert data["solitons"][0]["omega"] == 2.0


def test_bad_override_key(tmp_path, capsys):
    cfg = _write(tmp_path, _one_soliton_config())
    assert main(["validate-config", "--config", cfg,
                 "--set", "numrics.dt=0.005"]) == 1
    assert "unknown config key in override" in capsys.readouterr().err


def test_override_through_a_scalar_value(tmp_path, capsys):
    cfg = _write(tmp_path, _one_soliton_config())
    assert main(["validate-config", "--config", cfg, "--set", "knobs.t_final.x=1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "knobs.t_final.x" in err


def test_override_without_equals(tmp_path, capsys):
    cfg = _write(tmp_path, _one_soliton_config())
    assert main(["validate-config", "--config", cfg, "--set", "numerics.dt"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_kind_mismatch_between_file_and_subcommand(tmp_path, capsys):
    data = _one_soliton_config()
    data["kind"] = "backward_msw"
    cfg = _write(tmp_path, data)
    assert main(["modulate-track", "--config", cfg,
                 "--output-dir", str(tmp_path / "runs")]) == 1
    assert "'kind'" in capsys.readouterr().err


# --- experiment subcommands ----------------------------------------------------------

def test_coercivity_single_point_from_config(tmp_path, capsys):
    cfg = _write(tmp_path, _one_soliton_config())
    out_dir = tmp_path / "runs"
    assert main(["coercivity", "--config", cfg,
                 "--set", "knobs.omegas_sweep=[1.0]", "--set", "knobs.speeds_sweep=[0.0]",
                 "--output-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 1  # stdout carries exactly the manifest path
    manifest_path = Path(lines[0])
    assert manifest_path.name == "manifest.json"
    assert manifest_path.exists()
    reports = json.loads((manifest_path.parent / "coercivity.json").read_text())
    assert len(reports) == 1
    assert reports[0]["lambda_min_constrained"] > 0


def test_coercivity_requires_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coercivity"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_backward_msw_from_config_file(tmp_path, capsys):
    cfg = _write(tmp_path, _one_soliton_config())
    out_dir = tmp_path / "runs"
    assert main(["backward-msw", "--config", cfg,
                 "--output-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert len(lines) == 1
    manifest = json.loads(Path(lines[0]).read_text())
    assert manifest["kind"] == "backward_msw"
    assert (Path(lines[0]).parent / "errors.csv").exists()
    # progress lives on stderr, not stdout
    assert "backward construction" in captured.err


def test_simulate_writes_error_series(tmp_path, capsys):
    cfg = _write(tmp_path, _one_soliton_config())
    out_dir = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out_dir)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    manifest = json.loads(Path(lines[0]).read_text())
    assert manifest["kind"] == "simulate"
    csv_path = Path(lines[0]).parent / "errors.csv"
    header = csv_path.read_text().split("\n", 1)[0]
    assert header == "t,M,E,P,err_bold_H,err_h2_square"


def test_blowup_exits_two(tmp_path, capsys):
    data = _one_soliton_config()
    data["numerics"]["blowup_threshold"] = 1.0
    cfg = _write(tmp_path, data)
    code = main(["simulate", "--config", cfg,
                 "--output-dir", str(tmp_path / "runs")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure in dynamics at t=" in err
    assert "blow-up ceiling" in err
    # the failed run still leaves a manifest saying why
    (manifest_path,) = (tmp_path / "runs").glob("simulate_*/manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["incomplete"] is True
    assert manifest["notes"]["error"].startswith("BlowUpError")
