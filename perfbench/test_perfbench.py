"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

Each workload runs at toy size (--toy), untraced and traced, and every
metric BENCHMARK.json names must be printed with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    env = json.loads(proc.stdout.splitlines()[0])["environment"]
    assert env["src_zaklab_lines"] > 0 and env["nproc"] >= 1


def test_benchmark_json_lists_the_harness_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "audit-dense", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_zero_is_the_committed_config_and_other_seeds_perturb_it():
    committed = json.loads((ROOT / "configs" / "two_soliton.json").read_text())
    zero = workloads.make_config(ROOT, "modulate-track", 0)
    assert zero == dict(committed, kind="modulation_track")
    one = workloads.make_config(ROOT, "modulate-track", 1)
    assert one == workloads.make_config(ROOT, "modulate-track", 1)
    (shift, phase), *rest = [(b["sigma"] - a["sigma"], b["gamma"] - a["gamma"])
                             for a, b in zip(committed["solitons"], one["solitons"])]
    assert all(r == pytest.approx((shift, phase)) for r in rest)
    assert 0 < abs(shift) <= 0.05 and 0 < abs(phase) <= 0.5
    sweep = workloads.make_config(ROOT, "coercivity-n512", 3)["knobs"]
    assert len(sweep["omegas_sweep"]) == len(sweep["speeds_sweep"]) == 3


def test_tracer_reports_missing_targets_and_self_time():
    tr = Tracer()
    tr.span("zaklab.dynamics", "no_such_function")
    tr.count("zaklab.no_such_module", "f")
    assert tr.missing == ["zaklab.dynamics.no_such_function", "zaklab.no_such_module.f"]

    tr.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0]]
    assert tr.self_time("outer") == pytest.approx(6.0)
    assert tr.children_of("outer", "inner") == [3.0, 1.0]
    assert tr.calls("dynamics.no_such_function") == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert layers.tail_percentile(277) == 95.0
    assert layers.tail_percentile(24) == 50.0
    assert layers.tail_percentile(10_000) == 99.9
