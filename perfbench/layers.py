"""Per-layer metrics: which public functions are wrapped, and how the traced
run's spans and counts become the metrics listed in BENCHMARK.json.

Each layer is named by its module.  PER_LAYER gives every metric's unit,
which direction is better, and the end-to-end metric and workload it should
move.  A layer that a workload does not run reports 0.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from tracer import Tracer

_ALL = "all workloads"
_AUDIT = "audit-dense"
_TRACK = "modulate-track"
_COERC = "coercivity-n512"
_TWO = "audit-dense, modulate-track"

# (name, unit, better, moves: (end-to-end metric, workload))
PER_LAYER = [
    ("dynamics.backward_s", "s", "lower", ("wall_s", _TWO)),
    ("dynamics.steps", "count", "lower", ("wall_s", _TWO)),
    ("dynamics.step_us", "us", "lower", ("wall_s", _TRACK)),
    ("dynamics.blowup_checks", "count", "lower", ("wall_s", _AUDIT)),
    ("dynamics.blowup_check_s", "s", "lower", ("wall_s", _AUDIT)),
    ("dynamics.fft_calls_per_step", "count", "lower", ("wall_s", _TRACK)),
    ("dynamics.fft_bytes_per_step", "bytes", "lower", ("wall_s", _TRACK)),
    ("experiments.frames", "count", "higher", ("wall_s", _AUDIT)),
    ("experiments.error_series_ms_per_frame", "ms", "lower", ("wall_s", _AUDIT)),
    ("functionals.functional_report_ms_per_frame", "ms", "lower", ("wall_s", _AUDIT)),
    ("experiments.gmod_series_ms_per_frame", "ms", "lower", ("wall_s", _AUDIT)),
    ("profiles.multi_soliton_calls_per_frame", "count", "lower", ("wall_s", _AUDIT)),
    ("grid.spectral_derivative_calls_per_frame", "count", "lower", ("wall_s", _AUDIT)),
    ("experiments.csv_write_s", "s", "lower", ("wall_s", _AUDIT)),
    ("experiments.csv_bytes", "bytes", "lower", ("wall_s", _AUDIT)),
    ("experiments.run_self_s", "s", "lower", ("wall_s", _ALL)),
    ("modulation.track_s", "s", "lower", ("wall_s", _TRACK)),
    ("modulation.modulate_ms_converged_p50", "ms", "lower", ("wall_s", _TRACK)),
    ("modulation.modulate_ms_converged_tail", "ms", "lower", ("wall_s", _TRACK)),
    ("modulation.modulate_ms_converged_tail_pct", "%", "higher", ("wall_s", _TRACK)),
    ("modulation.modulate_converged_n", "count", "higher", ("wall_s", _TRACK)),
    ("modulation.modulate_ms_failed_p50", "ms", "lower", ("wall_s", _TRACK)),
    ("modulation.modulate_ms_failed_tail", "ms", "lower", ("wall_s", _TRACK)),
    ("modulation.modulate_ms_failed_tail_pct", "%", "higher", ("wall_s", _TRACK)),
    ("modulation.modulate_failed_n", "count", "lower", ("wall_s", _TRACK)),
    ("modulation.frames_converged", "count", "higher", ("wall_s", _TRACK)),
    ("modulation.frames_failed", "count", "lower", ("wall_s", _TRACK)),
    ("modulation.converged_frac", "ratio", "higher", ("wall_s", _TRACK)),
    ("modulation.newton_iters", "count", "lower", ("wall_s", _TRACK)),
    ("modulation.newton_iters_failed", "count", "lower", ("wall_s", _TRACK)),
    ("modulation.failed_time_frac", "ratio", "lower", ("wall_s", _TRACK)),
    ("modulation.residual_evals", "count", "lower", ("wall_s", _TRACK)),
    ("modulation.residual_eval_us", "us", "lower", ("wall_s", _TRACK)),
    ("modulation.jacobian_evals", "count", "lower", ("wall_s", _TRACK)),
    ("modulation.jacobian_ms", "ms", "lower", ("wall_s", _TRACK)),
    ("modulation.runtime_warnings", "count", "lower", ("wall_s", _TRACK)),
    ("spectral.coercivity_nls_calls", "count", "lower", ("wall_s", _COERC)),
    ("spectral.coercivity_nls_s", "s", "lower", ("wall_s", _COERC)),
    ("spectral.h2_points", "count", "lower", ("wall_s", _COERC)),
    ("spectral.h2_point_s", "s", "lower", ("wall_s", _COERC)),
    ("spectral.eigh_calls", "count", "lower", ("wall_s", _COERC)),
    ("spectral.eigh_s", "s", "lower", ("wall_s", _COERC)),
    ("spectral.null_space_s", "s", "lower", ("wall_s", _COERC)),
    ("spectral.max_pencil_order", "count", "lower", ("peak_rss_mb", _COERC)),
    ("spectral.max_pencil_mb", "MB", "lower", ("peak_rss_mb", _COERC)),
    ("trace.wall_s_traced", "s", "lower", ("wall_s", _ALL)),
    ("trace.wall_s_untraced", "s", "lower", ("wall_s", _ALL)),
    ("trace.overhead_s", "s", "lower", ("wall_s", _ALL)),
    ("trace.overhead_frac", "ratio", "lower", ("wall_s", _ALL)),
    ("trace.missing_wraps", "count", "lower", ("wall_s", _ALL)),
]
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

_FFTS = ("fft", "ifft", "rfft", "irfft")
_FFT_NAMES = tuple(f"fft.{f}" for f in _FFTS)
_BACKWARD = "dynamics.backward_construct"
_INTEGRATION = (_BACKWARD, "dynamics.sobolev_norms")
_CSV_WRITERS = ("experiments.write_error_csv", "functionals.write_report_csv",
                "modulation.write_track_csv")


def _pencil(a, b=None, *args, **kwargs):
    return a.shape[0], a.nbytes + (0 if b is None else b.nbytes)


def _converged_iters(result):
    return bool(result.converged), int(result.iterations)


def install(tr: Tracer) -> None:
    """Wrap every traced public function of the program."""
    tr.span("zaklab.experiments", "run")
    tr.span("zaklab.dynamics", "backward_construct", everywhere=True, on_result=len)
    tr.span("zaklab.dynamics", "sobolev_norms")   # the blow-up check's binding only
    for f in _FFTS:
        tr.count("numpy.fft", f, nbytes=lambda args, out: np.asarray(args[0]).nbytes + out.nbytes)
    tr.span("zaklab.experiments", "error_series")
    tr.span("zaklab.experiments", "gmod_series")
    tr.span("zaklab.functionals", "functional_report", everywhere=True)
    tr.count("zaklab.profiles", "multi_soliton", everywhere=True)
    tr.count("zaklab.grid", "spectral_derivative", everywhere=True)
    for writer in _CSV_WRITERS:
        module, attr = writer.split(".")
        tr.span(f"zaklab.{module}", attr, everywhere=True)
    tr.span("zaklab.modulation", "track", everywhere=True)
    tr.span("zaklab.modulation", "modulate", on_result=_converged_iters)
    tr.span("zaklab.modulation", "fd_jacobian")
    tr.span("zaklab.modulation", "orthogonality_residuals")
    tr.span("zaklab.spectral", "coercivity_nls", everywhere=True)
    tr.span("zaklab.spectral", "h2_coercivity", everywhere=True)
    tr.span("zaklab.spectral", "eigh", on_call=_pencil)
    tr.span("zaklab.spectral", "null_space")


def tail_percentile(n: int) -> float:
    """Highest of the reported percentiles with at least ten samples beyond
    it; 50 when there are too few samples for any."""
    for per_mille in (999, 990, 950, 900, 750, 500):
        if n * (1000 - per_mille) >= 10_000:
            return per_mille / 10.0
    return 50.0


def _timing_summary(values_ms) -> tuple:
    if not values_ms:
        return 0.0, 0.0, 0.0, 0
    pct = tail_percentile(len(values_ms))
    return (float(np.percentile(values_ms, 50)), float(np.percentile(values_ms, pct)),
            pct, len(values_ms))


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def metrics(tr: Tracer, spec: dict, run_dir: Path, wall_s: float, warnings: int) -> dict:
    """Every per-layer metric of one traced run, by name (trace.wall_s_untraced,
    trace.overhead_s and trace.overhead_frac are filled in by the caller)."""
    out = {name: 0.0 for name, _, _, _ in PER_LAYER}

    backward = tr.results[_BACKWARD]
    if backward:
        # steps per run are fixed by the spec: the last step is shortened
        # when t_final is not a multiple of dt
        t_final, dt = spec["knobs"]["t_final"], spec["numerics"]["dt"]
        steps = len(backward) * math.ceil(t_final / dt - 1e-9)
        checks = tr.children_of(_BACKWARD, "dynamics.sobolev_norms")
        frames = sum(n for _, n in backward)
        out.update({
            "dynamics.backward_s": tr.total(_BACKWARD),
            "dynamics.steps": steps,
            "dynamics.step_us": 1e6 * tr.self_time(_BACKWARD) / steps,
            "dynamics.blowup_checks": len(checks),
            "dynamics.blowup_check_s": sum(checks),
            "dynamics.fft_calls_per_step":
                sum(tr.calls(f, under=(_BACKWARD,)) for f in _FFT_NAMES) / steps,
            "dynamics.fft_bytes_per_step":
                sum(tr.moved(f, under=(_BACKWARD,)) for f in _FFT_NAMES) / steps,
            "experiments.frames": frames,
            "experiments.error_series_ms_per_frame":
                1e3 * tr.total("experiments.error_series") / frames,
            "functionals.functional_report_ms_per_frame":
                1e3 * tr.total("functionals.functional_report") / frames,
            "experiments.gmod_series_ms_per_frame":
                1e3 * tr.total("experiments.gmod_series") / frames,
            "profiles.multi_soliton_calls_per_frame":
                tr.calls("profiles.multi_soliton", not_under=_INTEGRATION) / frames,
            "grid.spectral_derivative_calls_per_frame":
                tr.calls("grid.spectral_derivative", not_under=_INTEGRATION) / frames,
        })
    out["experiments.csv_write_s"] = sum(tr.total(w) for w in _CSV_WRITERS)
    out["experiments.csv_bytes"] = sum(p.stat().st_size for p in run_dir.glob("*.csv"))
    out["experiments.run_self_s"] = tr.self_time("experiments.run")

    modulate = tr.results["modulation.modulate"]
    if modulate:
        conv = [(d, it) for d, (ok, it) in modulate if ok]
        fail = [(d, it) for d, (ok, it) in modulate if not ok]
        track_s = tr.total("modulation.track")
        residuals = tr.durations("modulation.orthogonality_residuals")
        jacobians = tr.durations("modulation.fd_jacobian")
        for label, group in (("converged", conv), ("failed", fail)):
            p50, tail, pct, n = _timing_summary([1e3 * d for d, _ in group])
            out[f"modulation.modulate_ms_{label}_p50"] = p50
            out[f"modulation.modulate_ms_{label}_tail"] = tail
            out[f"modulation.modulate_ms_{label}_tail_pct"] = pct
            out[f"modulation.modulate_{label}_n"] = n
        out.update({
            "modulation.track_s": track_s,
            "modulation.frames_converged": len(conv),
            "modulation.frames_failed": len(fail),
            "modulation.converged_frac": len(conv) / len(modulate),
            "modulation.newton_iters": sum(it for _, it in conv + fail),
            "modulation.newton_iters_failed": sum(it for _, it in fail),
            "modulation.failed_time_frac":
                sum(d for d, _ in fail) / track_s if track_s > 0 else 0.0,
            "modulation.residual_evals": len(residuals),
            "modulation.residual_eval_us": 1e6 * _mean(residuals),
            "modulation.jacobian_evals": len(jacobians),
            "modulation.jacobian_ms": 1e3 * _mean(jacobians),
        })

    nls = tr.durations("spectral.coercivity_nls")
    h2 = tr.durations("spectral.h2_coercivity")
    eighs = tr.durations("spectral.eigh")
    pencils = tr.args["spectral.eigh"]
    out.update({
        "spectral.coercivity_nls_calls": len(nls),
        "spectral.coercivity_nls_s": sum(nls),
        "spectral.h2_points": len(h2),
        "spectral.h2_point_s": _mean(h2),
        "spectral.eigh_calls": len(eighs),
        "spectral.eigh_s": sum(eighs),
        "spectral.null_space_s": tr.total("spectral.null_space"),
        "spectral.max_pencil_order": max((o for o, _ in pencils), default=0),
        "spectral.max_pencil_mb": max((b for _, b in pencils), default=0) / 2**20,
        "modulation.runtime_warnings": warnings,
        "trace.wall_s_traced": wall_s,
        "trace.missing_wraps": len(tr.missing),
    })
    return out
