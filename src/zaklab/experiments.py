"""Named, reproducible experiment drivers binding the other modules.

Each experiment is described by an ExperimentSpec (soliton configuration,
numerics block, experiment-specific knobs), executes deterministically, and
writes its outputs under a run directory named by a content hash of the
spec, together with a RunManifest listing every emitted file and every
fitted quantity with its window.

The headline experiment is the backward multi-soliton construction: exact
multi-soliton data is prescribed at t_final, integrated backward to 0, and
the bold-H error against the fixed-parameter profiles is fitted to
C e^{-theta t} on an automatically selected window that avoids both the
integrator noise floor (near t_final the error grows linearly in
t_final - t) and the nonlinear regime (error above 1e-2).
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .dynamics import Trajectory, backward_construct, evolve, multi_soliton_state, soliton_state
from .functionals import (
    CutoffFamily,
    _Frame,
    _write_csv,
    cutoff_profile_constants,
    write_report_csv,
)
from .grid import Grid, quadrature
from .modulation import pi_from_config, pi_norm, track, write_track_csv
from .profiles import MultiSolitonConfig, SolitonParams, traveling_wave
from .spectral import coercivity_nls, h2_coercivity, young_mu

__all__ = [
    "KINDS",
    "ExperimentSpec",
    "RunManifest",
    "fit_exponential",
    "auto_window",
    "error_series",
    "write_error_csv",
    "local_series",
    "gmod_series",
    "edo_constant_fit",
    "run",
]

_NUMERICS_KEYS = ("n_points", "box_length", "dt", "sample_stride", "blowup_threshold")
_KNOB_KEYS = ("t_final", "L_values", "K0", "tolerance", "omegas_sweep", "speeds_sweep")
_ERROR_COLUMNS = ("t", "M", "E", "P", "err_bold_H", "err_h2_square")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment bit-for-bit."""

    kind: str
    config: MultiSolitonConfig
    # numerics
    n_points: int = 1024
    box_length: float = 40.0
    dt: float = 1e-3
    sample_stride: int = 100
    blowup_threshold: float = 1e6
    # experiment knobs
    t_final: float = 10.0
    L_values: tuple = (5.0, 10.0, 20.0)
    K0: float = 5.0
    tolerance: float = 1e-10
    omegas_sweep: tuple = (0.5, 1.0, 2.0)
    speeds_sweep: tuple = (-0.9, 0.0, 0.9)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"expected one of {tuple(KINDS)}")
        if not isinstance(self.config, MultiSolitonConfig):
            raise TypeError("config must be a MultiSolitonConfig")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        for name in ("L_values", "omegas_sweep", "speeds_sweep"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        if not self.L_values:
            raise ValueError("L_values must not be empty")
        if any(L <= 0 for L in self.L_values):
            raise ValueError("L_values must be positive")
        if any(w <= 0 for w in self.omegas_sweep):
            raise ValueError(f"omegas_sweep must be positive, got {list(self.omegas_sweep)}")
        if any(abs(c) >= 1 for c in self.speeds_sweep):
            raise ValueError(f"speeds_sweep must lie in (-1, 1), got {list(self.speeds_sweep)}")
        self.make_grid()  # validates n_points / box_length early
        if not 0 < self.K0 < 0.5 * self.box_length:
            raise ValueError(f"K0 must lie in (0, box_length/2), got {self.K0:g} "
                             f"with box_length {self.box_length:g}")

    def make_grid(self) -> Grid:
        return Grid(n_points=self.n_points, box_length=self.box_length)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "solitons": json.loads(self.config.to_json())["solitons"],
            "numerics": {k: getattr(self, k) for k in _NUMERICS_KEYS},
            "knobs": {
                k: list(getattr(self, k)) if isinstance(getattr(self, k), tuple)
                else getattr(self, k)
                for k in _KNOB_KEYS
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Strict parse: unknown keys at any level are an error."""
        allowed_top = {"kind", "solitons", "numerics", "knobs"}
        unknown = set(data) - allowed_top
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in data or "solitons" not in data:
            raise ValueError("config must provide 'kind' and 'solitons'")
        config = MultiSolitonConfig.from_json(json.dumps({"solitons": data["solitons"]}))
        kwargs = {"kind": data["kind"], "config": config}
        for block, keys in (("numerics", _NUMERICS_KEYS), ("knobs", _KNOB_KEYS)):
            values = data.get(block, {})
            unknown = set(values) - set(keys)
            if unknown:
                raise ValueError(f"unknown {block} keys: {sorted(unknown)}")
            kwargs.update(values)
        return cls(**kwargs)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


@dataclass
class RunManifest:
    """What a run produced: spec snapshot, derived constants, files, fits."""

    kind: str
    spec: dict
    derived_constants: dict
    artifact_version: str = __version__
    run_dir: str = ""
    files: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    incomplete: bool = False

    def add_file(self, path: Path, role: str):
        self.files.append({"name": path.name, "role": role})

    def write(self, path: Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path


def fit_exponential(times, values, window=None) -> dict:
    """Least squares of log y = log C - rate * t over an optional window.

    Returns rate (positive when decaying), amplitude C, r_squared, the window
    actually used, the point count, and a decaying flag.  Nonpositive values
    or fewer than 8 points raise.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, y = t[keep], y[keep]
    if t.size < 8:
        raise ValueError(f"need at least 8 points to fit, got {t.size}")
    if np.any(y <= 0):
        raise ValueError("fit_exponential requires positive values")
    logy = np.log(y)
    slope, intercept = np.polyfit(t, logy, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logy - pred) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rate = -float(slope)
    return {
        "rate": rate,
        "amplitude": float(np.exp(intercept)),
        "r_squared": r2,
        "window": [float(t[0]), float(t[-1])],
        "n_points": int(t.size),
        "decaying": bool(rate > 0 and ss_tot > 0),
    }


def auto_window(times, values, floor: float = 1e-10, ceiling: float = 1e-2,
                noise_factor: float = 10.0) -> tuple | None:
    """Select the clean exponential-decay window of a backward error series.

    Keeps samples with value in [floor, ceiling] that also sit clearly above
    the integrator noise floor: near the final time the error of a backward
    run grows linearly in (t_final - t), so its per-unit-time level C_n is
    estimated from the last tenth of the series and samples below
    noise_factor * C_n * (t_final - t) are dropped.  Returns the (t_lo, t_hi)
    of the longest contiguous surviving span with at least 8 points, or None.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size < 8:
        return None
    T = t[-1]
    tail = T - t
    near = tail <= max(0.1 * (T - t[0]), np.min(tail[tail > 0]) * 4)
    near &= tail > 0
    if np.any(near):
        c_noise = float(np.median(y[near] / tail[near]))
    else:
        c_noise = 0.0
    keep = (y >= floor) & (y <= ceiling) & (y > noise_factor * c_noise * tail)

    best = None
    start = None
    for i, flag in enumerate(np.append(keep, False)):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if best is None or i - start > best[1] - best[0]:
                best = (start, i)
            start = None
    if best is None or best[1] - best[0] < 8:
        return None
    return (float(t[best[0]]), float(t[best[1] - 1]))


def _error_row(f: _Frame) -> tuple:
    """One frame's _ERROR_COLUMNS: invariants, then norms of state - R(t)."""
    return (f.state.t, f.M, f.E, f.P, f.eps.bold_H, f.eps.h2_square)


def _series(rows, columns) -> dict:
    """Per-frame rows as one array per column."""
    return {c: np.array(v) for c, v in zip(columns, zip(*rows))}


def error_series(trajectory: Trajectory, config: MultiSolitonConfig) -> dict:
    """Per-frame invariants and profile errors along a trajectory."""
    return _series((_error_row(_Frame(s, config)) for s in trajectory), _ERROR_COLUMNS)


def write_error_csv(path, series: dict) -> list:
    columns = list(_ERROR_COLUMNS)
    _write_csv(path, columns, zip(*(series[c] for c in columns)))
    return columns


def local_series(trajectory: Trajectory, config: MultiSolitonConfig, L: float) -> dict:
    """Localized masses and momenta along a trajectory for one cutoff width."""
    family = CutoffFamily.for_config(config, L)
    frames = (_Frame(s, family=family) for s in trajectory)
    rows = ((f.state.t, f.localized(f.mass_density), f.localized(f.momentum_density))
            for f in frames)
    return {**_series(rows, ("t", "M_k", "P_k")), "L": L}


def gmod_series(trajectory: Trajectory, config: MultiSolitonConfig) -> dict:
    """Modified energies H and G_mod of state - R(t) along a trajectory."""
    def row(f):
        vals = f.eps.modified(f.ref.state.u, f.ref.ux)
        return f.state.t, vals["H"], vals["G_mod"]

    return _series((row(_Frame(s, config)) for s in trajectory), ("t", "H", "G_mod"))


def edo_constant_fit(times, gmod, theta_hat: float, window) -> dict:
    """Smallest C validating |G_mod'| <= C (|G_mod|^{3/4} + 1) e^{-theta t}.

    The derivative is taken by central differences on the sample times; C is
    the maximum ratio over the window (so that constant gives zero
    violations by construction) and its stability is reported by comparing
    against the same maximum over the first half of the window.
    """
    t = np.asarray(times, dtype=float)
    g = np.asarray(gmod, dtype=float)
    dg = np.gradient(g, t)
    lo, hi = window
    keep = (t >= lo) & (t <= hi)
    if np.count_nonzero(keep) < 8:
        raise ValueError("edo window too short")
    tw, gw, dgw = t[keep], g[keep], dg[keep]
    bound = (np.abs(gw) ** 0.75 + 1.0) * np.exp(-theta_hat * tw)
    ratio = np.abs(dgw) / bound
    c_fit = float(np.max(ratio))
    half = tw <= 0.5 * (lo + hi)
    c_half = float(np.max(ratio[half])) if np.any(half) else c_fit
    return {
        "C": c_fit,
        "C_first_half": c_half,
        "violations": int(np.count_nonzero(np.abs(dgw) > c_fit * bound)),
        "window": [lo, hi],
        "n_points": int(tw.size),
        "theta_hat": theta_hat,
    }


def _backward_trajectory(spec: ExperimentSpec) -> Trajectory:
    grid = spec.make_grid()
    log.info(f"backward construction to t=0 from t={spec.t_final} "
             f"(n={spec.n_points}, dt={spec.dt})")
    return backward_construct(
        grid, spec.config, spec.t_final, spec.dt,
        sample_stride=spec.sample_stride, blowup_threshold=spec.blowup_threshold,
    )


def _fit_error_rates(series: dict, manifest: RunManifest, K: int):
    """Fit bold-H and H2-level decay rates; K=1 runs are exact, so skip."""
    if K == 1:
        manifest.notes["exact_solution"] = (
            "single soliton data is an exact solution; the error sits at the "
            "integrator noise floor and no decay rate is fitted"
        )
        manifest.notes["max_err_bold_H"] = float(np.max(series["err_bold_H"]))
        return None
    window = auto_window(series["t"], series["err_bold_H"])
    if window is None:
        manifest.incomplete = True
        manifest.notes["fit_window"] = "no clean window found"
        return None
    fit = fit_exponential(series["t"], series["err_bold_H"], window)
    manifest.fits["theta_hat"] = fit
    h2 = series["err_h2_square"]
    # the squared series spans twice the dynamic range and hits exact zero at
    # the final time, so it gets its own window with widened limits
    h2_window = auto_window(series["t"], h2, floor=1e-18, ceiling=1e-4)
    if h2_window is not None:
        manifest.fits["h2_square_rate"] = fit_exponential(series["t"], h2, h2_window)
    return fit


def _save_error_series(series: dict, run_dir: Path, manifest: RunManifest):
    path = run_dir / "errors.csv"
    write_error_csv(path, series)
    manifest.add_file(path, "error_series")


def _run_simulate(spec, run_dir, manifest):
    """forward-evolve multi-soliton data from t=0"""
    log.info(f"forward evolution 0 -> {spec.t_final} (n={spec.n_points}, dt={spec.dt})")
    state = multi_soliton_state(spec.make_grid(), spec.config, 0.0)
    traj = evolve(state, spec.t_final, spec.dt, sample_stride=spec.sample_stride,
                  blowup_threshold=spec.blowup_threshold)
    _save_error_series(error_series(traj, spec.config), run_dir, manifest)


def _run_backward_msw(spec, run_dir, manifest):
    """backward multi-soliton construction with error-decay fit"""
    series = error_series(_backward_trajectory(spec), spec.config)
    _save_error_series(series, run_dir, manifest)
    _fit_error_rates(series, manifest, spec.config.K)


def _run_weinstein_audit(spec, run_dir, manifest):
    """functional decomposition audit along a backward run"""
    traj = _backward_trajectory(spec)
    L = spec.L_values[0]
    family = CutoffFamily.for_config(spec.config, L)
    log.info(f"functional audit along {len(traj)} frames (L={L})")
    # one frame per state feeds both the error series and the report
    rows, reports = [], []
    for s in traj:
        f = _Frame(s, spec.config, family)
        rows.append(_error_row(f))
        reports.append(f.report(spec.K0))
    series = _series(rows, _ERROR_COLUMNS)
    _save_error_series(series, run_dir, manifest)
    fit = _fit_error_rates(series, manifest, spec.config.K)

    rep_path = run_dir / "functionals.csv"
    write_report_csv(rep_path, reports)
    manifest.add_file(rep_path, "functional_reports")
    manifest.notes["psi_constants"] = cutoff_profile_constants()
    manifest.notes["young_mu"] = young_mu(spec.config)
    manifest.notes["cutoff_L"] = L

    g_vals = np.array([r.G for r in reports])
    t = series["t"]
    drift = np.abs(g_vals - g_vals[-1])
    if fit is not None:
        window = tuple(manifest.fits["theta_hat"]["window"])
        keep = (t >= window[0]) & (t <= window[1]) & (drift > 0)
        if np.count_nonzero(keep) >= 8:
            manifest.fits["weinstein_drift"] = fit_exponential(t[keep], drift[keep])
        gmod = np.array([r.modified["G_mod"] for r in reports])
        theta_hat = manifest.fits["theta_hat"]["rate"]
        manifest.fits["edo_constant"] = edo_constant_fit(t, gmod, theta_hat, window)


def _run_coercivity_sweep(spec, run_dir, manifest):
    """constrained coercivity of the linearized quadratic forms"""
    grid = spec.make_grid()
    nls = coercivity_nls(grid)
    double = coercivity_nls(Grid(2 * spec.n_points, spec.box_length))
    manifest.notes["nls_block"] = {
        "lambda_min_constrained": nls["lambda_min_constrained"],
        "lambda_min_unconstrained": nls["lambda_min_unconstrained"],
        "lambda_min_constrained_doubled": double["lambda_min_constrained"],
    }

    points = [(w, c) for w in spec.omegas_sweep for c in spec.speeds_sweep]
    log.info(f"coercivity sweep over {len(points)} (omega, c) points")
    reports = [h2_coercivity(grid, SolitonParams(omega=w, c=c)) for w, c in points]
    path = run_dir / "coercivity.json"
    path.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    manifest.add_file(path, "coercivity_reports")
    manifest.notes["all_constrained_positive"] = bool(
        all(r["lambda_min_constrained"] > 0 for r in reports))


def _run_local_quantities(spec, run_dir, manifest):
    """localized mass/momentum drift across cutoff widths"""
    traj = _backward_trajectory(spec)
    series = error_series(traj, spec.config)
    fit = _fit_error_rates(series, manifest, spec.config.K)
    window = tuple(manifest.fits["theta_hat"]["window"]) if fit else (0.0, spec.t_final)
    drifts = {}
    for L in spec.L_values:
        loc = local_series(traj, spec.config, L)
        t = loc["t"]
        path = run_dir / f"local_L{L:g}.csv"
        K = spec.config.K
        columns = ["t"] + [f"M_{k+1}" for k in range(K)] + [f"P_{k+1}" for k in range(K)]
        _write_csv(path, columns, ([ti, *m, *p] for ti, m, p in zip(t, loc["M_k"], loc["P_k"])))
        manifest.add_file(path, f"local_series_L{L:g}")
        keep = (t >= window[0]) & (t <= window[1])
        final = loc["M_k"][-1]
        dev = np.max(np.abs(loc["M_k"][keep] - final), axis=0)
        drifts[f"{L:g}"] = [float(d) for d in dev]
    manifest.notes["mass_drift_by_L"] = drifts
    manifest.notes["drift_window"] = list(window)
    Ls = [f"{L:g}" for L in spec.L_values]
    manifest.notes["monotone_in_L"] = {
        f"k={k+1}": bool(all(drifts[Ls[i]][k] > drifts[Ls[i + 1]][k]
                             for i in range(len(Ls) - 1)))
        for k in range(spec.config.K)
    }


def _run_modulation_track(spec, run_dir, manifest):
    """backward run plus per-frame parameter modulation"""
    traj = _backward_trajectory(spec)
    log.info(f"modulating {len(traj)} frames")
    result = track(traj, spec.config, tolerance=spec.tolerance)
    path = run_dir / "modulation.csv"
    write_track_csv(path, result, spec.config)
    manifest.add_file(path, "modulation_series")
    manifest.notes["frames_converged"] = int(np.count_nonzero(result.converged))
    manifest.notes["frames_total"] = int(result.converged.size)
    manifest.notes["frames_failed_by_reason"] = dict(Counter(
        r.reason for r in result.results if not r.converged))
    pi0 = pi_from_config(spec.config)
    gaps = np.array([pi_norm(p, pi0) for p in result.pis])
    window = auto_window(result.times, np.maximum(result.epsilon_H, 1e-300))
    if window is not None and spec.config.K > 1:
        manifest.fits["epsilon_H_rate"] = fit_exponential(
            result.times, result.epsilon_H, window)
        keep = (result.times >= window[0]) & (result.times <= window[1]) & (gaps > 0)
        if np.count_nonzero(keep) >= 8:
            manifest.fits["pi_gap_rate"] = fit_exponential(
                result.times[keep], gaps[keep])


def _run_convergence_order(spec, run_dir, manifest):
    """splitting-order measurement by dt halving"""
    grid = spec.make_grid()
    params = spec.config.solitons[0]
    state = soliton_state(grid, params, 0.0)
    exact = traveling_wave(grid, params, spec.t_final)

    def l2_error(dt):
        final = evolve(state, spec.t_final, dt, sample_stride=10**9,
                       blowup_threshold=spec.blowup_threshold).final
        return float(np.sqrt(quadrature(grid, np.abs(final.u - exact[0]) ** 2)))

    log.info("measuring splitting order by dt halving")
    errors = {}
    for label, dt in (("dt", spec.dt), ("dt_half", spec.dt / 2), ("dt_quarter", spec.dt / 4)):
        errors[label] = l2_error(dt)
    manifest.notes["l2_errors"] = errors
    manifest.notes["ratios"] = {
        "dt_over_half": errors["dt"] / errors["dt_half"],
        "half_over_quarter": errors["dt_half"] / errors["dt_quarter"],
    }


class Kind(NamedTuple):
    """A kind's CLI subcommand and runner; the runner's docstring is the help."""

    subcommand: str
    runner: Callable


KINDS = {
    "simulate": Kind("simulate", _run_simulate),
    "backward_msw": Kind("backward-msw", _run_backward_msw),
    "modulation_track": Kind("modulate-track", _run_modulation_track),
    "weinstein_audit": Kind("weinstein-audit", _run_weinstein_audit),
    "coercivity_sweep": Kind("coercivity", _run_coercivity_sweep),
    "local_quantities": Kind("local-quantities", _run_local_quantities),
    "convergence_order": Kind("convergence-order", _run_convergence_order),
}


def run(spec: ExperimentSpec, output_dir="runs") -> RunManifest:
    """Execute an experiment; outputs land in a content-addressed run dir.

    Deterministic for a given ExperimentSpec (quadratures sum in fixed order, floats are
    serialized by repr), so re-running a spec overwrites its directory with
    identical bytes.  Failures mark the manifest incomplete with the error
    recorded rather than losing already-written outputs.  Progress messages
    go to the "zaklab.experiments" logger at INFO level.
    """
    run_dir = Path(output_dir) / f"{spec.kind}_{spec.content_hash()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config = spec.config
    manifest = RunManifest(
        kind=spec.kind,
        spec=spec.to_dict(),
        derived_constants={"theta0": config.theta0, "omega_minus": config.omega_minus,
                           "omega_plus": config.omega_plus},
        run_dir=str(run_dir),
    )
    manifest_path = run_dir / "manifest.json"
    try:
        KINDS[spec.kind].runner(spec, run_dir, manifest)
    except BaseException as exc:  # an interrupted run is marked incomplete too
        manifest.incomplete = True
        manifest.notes["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest.add_file(manifest_path, "manifest")
        manifest.write(manifest_path)
    return manifest
