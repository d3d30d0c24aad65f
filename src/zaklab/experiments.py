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

import csv
import hashlib
import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .dynamics import Trajectory, backward_construct, evolve, soliton_state
from .functionals import (
    CutoffFamily,
    cutoff_profile_constants,
    energy,
    h2_error_square,
    localized_masses,
    localized_momenta,
    mass,
    modified_energies_vs_reference,
    momentum,
    state_error,
)
from .grid import Grid, quadrature
from .modulation import pi_from_config, pi_norm, track, write_track_csv
from .profiles import MultiSolitonConfig, traveling_wave
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

KINDS = (
    "backward_msw",
    "weinstein_audit",
    "coercivity_sweep",
    "local_quantities",
    "modulation_track",
    "convergence_order",
)

_NUMERICS_KEYS = ("n_points", "box_length", "dt", "sample_stride", "dealias",
                  "scheme", "blowup_threshold")
_KNOB_KEYS = ("t_final", "L_values", "B_values", "K0", "tolerance",
              "omegas_sweep", "speeds_sweep", "seed")


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
    dealias: bool = True
    scheme: str = "strang"
    blowup_threshold: float = 1e6
    # experiment knobs
    t_final: float = 10.0
    L_values: tuple = (5.0, 10.0, 20.0)
    B_values: tuple = ()
    K0: float = 5.0
    tolerance: float = 1e-10
    omegas_sweep: tuple = (0.5, 1.0, 2.0)
    speeds_sweep: tuple = (-0.9, 0.0, 0.9)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.config, MultiSolitonConfig):
            raise TypeError("config must be a MultiSolitonConfig")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        if self.scheme != "strang":
            raise ValueError(f"unknown scheme {self.scheme!r}; the only scheme is 'strang'")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.K0 <= 0:
            raise ValueError("K0 must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        object.__setattr__(self, "L_values", tuple(float(L) for L in self.L_values))
        object.__setattr__(self, "B_values", tuple(float(B) for B in self.B_values))
        object.__setattr__(self, "omegas_sweep", tuple(float(w) for w in self.omegas_sweep))
        object.__setattr__(self, "speeds_sweep", tuple(float(c) for c in self.speeds_sweep))
        if any(L <= 0 for L in self.L_values):
            raise ValueError("L_values must be positive")
        self.make_grid()  # validates n_points / box_length early

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
        numerics = data.get("numerics", {})
        unknown = set(numerics) - set(_NUMERICS_KEYS)
        if unknown:
            raise ValueError(f"unknown numerics keys: {sorted(unknown)}")
        kwargs.update(numerics)
        knobs = data.get("knobs", {})
        unknown = set(knobs) - set(_KNOB_KEYS)
        if unknown:
            raise ValueError(f"unknown knobs keys: {sorted(unknown)}")
        kwargs.update(knobs)
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

    def to_json(self) -> str:
        payload = {
            "artifact_version": self.artifact_version,
            "kind": self.kind,
            "spec": self.spec,
            "derived_constants": self.derived_constants,
            "run_dir": self.run_dir,
            "files": self.files,
            "fits": self.fits,
            "notes": self.notes,
            "incomplete": self.incomplete,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, path: Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
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


def error_series(trajectory: Trajectory, config: MultiSolitonConfig) -> dict:
    """Per-frame invariants and profile errors along a trajectory."""
    rows = {
        "t": [], "M": [], "E": [], "P": [], "err_bold_H": [], "err_h2_square": [],
    }
    for s in trajectory:
        rows["t"].append(s.t)
        rows["M"].append(mass(s))
        rows["E"].append(energy(s))
        rows["P"].append(momentum(s))
        rows["err_bold_H"].append(state_error(s, config))
        rows["err_h2_square"].append(h2_error_square(s, config))
    return {k: np.array(v) for k, v in rows.items()}


def write_error_csv(path, series: dict) -> list:
    columns = ["t", "M", "E", "P", "err_bold_H", "err_h2_square"]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for i in range(series["t"].size):
            writer.writerow([repr(float(series[c][i])) for c in columns])
    return columns


def local_series(trajectory: Trajectory, config: MultiSolitonConfig, L: float) -> dict:
    """Localized masses and momenta along a trajectory for one cutoff width."""
    family = CutoffFamily.for_config(config, L)
    t = []
    m_rows = []
    p_rows = []
    for s in trajectory:
        t.append(s.t)
        m_rows.append(localized_masses(s, family))
        p_rows.append(localized_momenta(s, family))
    return {"t": np.array(t), "M_k": np.stack(m_rows), "P_k": np.stack(p_rows), "L": L}


def gmod_series(trajectory: Trajectory, config: MultiSolitonConfig) -> dict:
    """Modified energies H and G_mod of state - R(t) along a trajectory."""
    t, h_vals, g_vals = [], [], []
    for s in trajectory:
        vals = modified_energies_vs_reference(s, config)
        t.append(s.t)
        h_vals.append(vals["H"])
        g_vals.append(vals["G_mod"])
    return {"t": np.array(t), "H": np.array(h_vals), "G_mod": np.array(g_vals)}


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


def _progress(progress, message):
    if progress is not None:
        progress(message)


def _derived_constants(config: MultiSolitonConfig) -> dict:
    return {
        "theta0": config.theta0,
        "omega_minus": config.omega_minus,
        "omega_plus": config.omega_plus,
    }


def _backward_trajectory(spec: ExperimentSpec, progress=None) -> Trajectory:
    grid = spec.make_grid()
    _progress(progress, f"backward construction to t=0 from t={spec.t_final} "
                        f"(n={spec.n_points}, dt={spec.dt})")
    return backward_construct(
        grid, spec.config, spec.t_final, spec.dt,
        sample_stride=spec.sample_stride, dealias=spec.dealias,
        blowup_threshold=spec.blowup_threshold,
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
    h2 = np.asarray(series["err_h2_square"])
    # the squared series spans twice the dynamic range and hits exact zero at
    # the final time, so it gets its own window with widened limits
    h2_window = auto_window(series["t"], h2, floor=1e-18, ceiling=1e-4)
    if h2_window is not None:
        manifest.fits["h2_square_rate"] = fit_exponential(series["t"], h2, h2_window)
    return fit


def _run_backward_msw(spec, run_dir, manifest, progress):
    traj = _backward_trajectory(spec, progress)
    series = error_series(traj, spec.config)
    path = run_dir / "errors.csv"
    write_error_csv(path, series)
    manifest.add_file(path, "error_series")
    _fit_error_rates(series, manifest, spec.config.K)


def _run_weinstein_audit(spec, run_dir, manifest, progress):
    traj = _backward_trajectory(spec, progress)
    series = error_series(traj, spec.config)
    err_path = run_dir / "errors.csv"
    write_error_csv(err_path, series)
    manifest.add_file(err_path, "error_series")
    fit = _fit_error_rates(series, manifest, spec.config.K)

    L = spec.L_values[0]
    family = CutoffFamily.for_config(spec.config, L)
    _progress(progress, f"functional audit along {len(traj)} frames (L={L})")
    from .functionals import functional_report, write_report_csv
    reports = [functional_report(s, spec.config, family, K0=spec.K0) for s in traj]
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
        gm = gmod_series(traj, spec.config)
        theta_hat = manifest.fits["theta_hat"]["rate"]
        manifest.fits["edo_constant"] = edo_constant_fit(gm["t"], gm["G_mod"],
                                                         theta_hat, window)


def _run_coercivity_sweep(spec, run_dir, manifest, progress, workers=1):
    grid = spec.make_grid()
    nls = coercivity_nls(grid)
    double = coercivity_nls(Grid(2 * spec.n_points, spec.box_length))
    manifest.notes["nls_block"] = {
        "lambda_min_constrained": nls["lambda_min_constrained"],
        "lambda_min_unconstrained": nls["lambda_min_unconstrained"],
        "lambda_min_constrained_doubled": double["lambda_min_constrained"],
    }

    from .profiles import SolitonParams
    points = [(w, c) for w in spec.omegas_sweep for c in spec.speeds_sweep]
    B = spec.B_values[0] if spec.B_values else None

    def solve(point):
        w, c = point
        rep = h2_coercivity(grid, SolitonParams(omega=w, c=c))
        rep["B"] = B
        return rep

    _progress(progress, f"coercivity sweep over {len(points)} (omega, c) points")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(solve, points))
    else:
        reports = [solve(p) for p in points]
    path = run_dir / "coercivity.json"
    path.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    manifest.add_file(path, "coercivity_reports")
    manifest.notes["all_constrained_positive"] = bool(
        all(r["lambda_min_constrained"] > 0 for r in reports))


def _run_local_quantities(spec, run_dir, manifest, progress):
    traj = _backward_trajectory(spec, progress)
    series = error_series(traj, spec.config)
    fit = _fit_error_rates(series, manifest, spec.config.K)
    window = tuple(manifest.fits["theta_hat"]["window"]) if fit else (0.0, spec.t_final)
    t = None
    drifts = {}
    for L in spec.L_values:
        loc = local_series(traj, spec.config, L)
        t = loc["t"]
        path = run_dir / f"local_L{L:g}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            K = spec.config.K
            writer.writerow(["t"] + [f"M_{k+1}" for k in range(K)]
                            + [f"P_{k+1}" for k in range(K)])
            for i in range(t.size):
                writer.writerow([repr(float(t[i]))]
                                + [repr(float(x)) for x in loc["M_k"][i]]
                                + [repr(float(x)) for x in loc["P_k"][i]])
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


def _run_modulation_track(spec, run_dir, manifest, progress):
    traj = _backward_trajectory(spec, progress)
    _progress(progress, f"modulating {len(traj)} frames")
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


def _run_convergence_order(spec, run_dir, manifest, progress):
    grid = spec.make_grid()
    params = spec.config.solitons[0]
    state = soliton_state(grid, params, 0.0)
    exact = traveling_wave(grid, params, spec.t_final)

    def l2_error(dt):
        final = evolve(state, spec.t_final, dt, sample_stride=10**9, dealias=spec.dealias,
                       blowup_threshold=spec.blowup_threshold).final
        return float(np.sqrt(quadrature(grid, np.abs(final.u - exact[0]) ** 2)))

    _progress(progress, "measuring splitting order by dt halving")
    errors = {}
    for label, dt in (("dt", spec.dt), ("dt_half", spec.dt / 2), ("dt_quarter", spec.dt / 4)):
        errors[label] = l2_error(dt)
    manifest.notes["l2_errors"] = errors
    manifest.notes["ratios"] = {
        "dt_over_half": errors["dt"] / errors["dt_half"],
        "half_over_quarter": errors["dt_half"] / errors["dt_quarter"],
    }


def run(spec: ExperimentSpec, output_dir="runs", workers: int = 1,
        progress=None) -> RunManifest:
    """Execute an experiment; outputs land in a content-addressed run dir.

    Deterministic for a given ExperimentSpec (quadratures sum in fixed order, floats are
    serialized by repr), so re-running a spec overwrites its directory with
    identical bytes.  Failures mark the manifest incomplete with the error
    recorded rather than losing already-written outputs.
    """
    run_dir = Path(output_dir) / f"{spec.kind}_{spec.content_hash()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        kind=spec.kind,
        spec=spec.to_dict(),
        derived_constants=_derived_constants(spec.config),
        run_dir=str(run_dir),
    )
    try:
        if spec.kind == "backward_msw":
            _run_backward_msw(spec, run_dir, manifest, progress)
        elif spec.kind == "weinstein_audit":
            _run_weinstein_audit(spec, run_dir, manifest, progress)
        elif spec.kind == "coercivity_sweep":
            _run_coercivity_sweep(spec, run_dir, manifest, progress, workers)
        elif spec.kind == "local_quantities":
            _run_local_quantities(spec, run_dir, manifest, progress)
        elif spec.kind == "modulation_track":
            _run_modulation_track(spec, run_dir, manifest, progress)
        elif spec.kind == "convergence_order":
            _run_convergence_order(spec, run_dir, manifest, progress)
    except Exception as exc:  # noqa: BLE001 - surfaced via the manifest
        manifest.incomplete = True
        manifest.notes["error"] = f"{type(exc).__name__}: {exc}"
        manifest_path = run_dir / "manifest.json"
        manifest.add_file(manifest_path, "manifest")
        manifest.write(manifest_path)
        raise
    manifest_path = run_dir / "manifest.json"
    manifest.add_file(manifest_path, "manifest")
    manifest.write(manifest_path)
    return manifest
