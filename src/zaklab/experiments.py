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

The weinstein-audit kind makes every table of the backward run (errors.csv,
functionals.csv and one local_L<L>.csv per cutoff width) from one
integration.  It and simulate run as two processes: a child forked by
os.fork (POSIX only; a daemonic process may fork too) integrates and sends
each batch of frames as raw bytes through a pipe while the parent computes
the diagnostics of the batch before; the child has ended when the runner
returns or raises.  modulate-track fits each frame as it streams, in one
process, and holds only the collision frames (modulation.track_backward);
if its two fit chains disagree it integrates again.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import Counter
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .dynamics import DEFAULT_BLOWUP_THRESHOLD, backward_frames, evolve
from .dynamics import multi_soliton_state, soliton_state
from .functionals import (
    CutoffFamily,
    _Frame,
    _write_csv,
    cutoff_profile_constants,
)
from .grid import Grid, quadrature
from .modulation import pi_from_config, track, track_backward
from .profiles import CEILING, COUNT, FINITE, POSITIVE, POSITIVES, SPEEDS, Admits, config_key
from .profiles import MultiSolitonConfig, SolitonParams, traveling_wave
from .spectral import coercivity_nls, h2_coercivity, young_mu

__all__ = [
    "KINDS",
    "ExperimentSpec",
    "RunManifest",
    "fit_exponential",
    "auto_window",
    "error_series",
    "local_series",
    "gmod_series",
    "edo_constant_fit",
    "run",
]

# The per-frame diagnostics run on batches of frames stacked as (B, n) arrays,
# which pays numpy's per-call overhead once per batch.  audit-dense on 2-vCPU
# hosts, batch size against wall time and peak RSS (the frames' caches grow
# with B; 32 peaks above the 89 MB of one-frame-at-a-time diagnostics):
#     B     quiet host      busy host (median of 3)
#     1     7.4 s  68 MB    15.5 s  68 MB
#     4     7.0 s  70 MB    11.3 s  68 MB
#     8     6.8 s  74 MB    10.3 s  71 MB
#     16    6.6 s  78 MB    11.0 s  78 MB
#     32    6.7 s  92 MB    11.5 s  91 MB
_BATCH = 16

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment bit-for-bit."""

    kind: str
    config: MultiSolitonConfig
    n_points: int = config_key("numerics", COUNT, 1024)
    box_length: float = config_key("numerics", POSITIVE, 40.0)
    dt: float = config_key("numerics", POSITIVE, 1e-3)
    sample_stride: int = config_key("numerics", COUNT, 100)
    blowup_threshold: float = config_key("numerics", CEILING, DEFAULT_BLOWUP_THRESHOLD)
    t_final: float = config_key("knobs", POSITIVE, 10.0)
    L_values: tuple = config_key("knobs", POSITIVES, (5.0, 10.0, 20.0))
    K0: float = config_key("knobs", Admits("finite, in (0, box_length/2)", FINITE.test), 5.0)
    tolerance: float = config_key("knobs", POSITIVE, 1e-10)
    omegas_sweep: tuple = config_key("knobs", POSITIVES, (0.5, 1.0, 2.0))
    speeds_sweep: tuple = config_key("knobs", SPEEDS, (-0.9, 0.0, 0.9))

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"expected one of {tuple(KINDS)}")
        if not isinstance(self.config, MultiSolitonConfig):
            raise TypeError("config must be a MultiSolitonConfig")
        for key in CONFIG_KEYS:
            value = key.metadata["admits"].parse(key.name, getattr(self, key.name))
            object.__setattr__(self, key.name, value)
        # the checks that span keys
        if any(a >= b for a, b in zip(self.L_values, self.L_values[1:])):
            raise ValueError(f"L_values must be strictly increasing, got {list(self.L_values)}")
        widths = [f"{L:g}" for L in self.L_values]  # as the local_L<L>.csv names print them
        if len(set(widths)) < len(widths):
            raise ValueError(f"L_values must name distinct local_L<L>.csv files, "
                             f"got {list(self.L_values)}, printed {widths}")
        self.make_grid()  # validates n_points / box_length early
        if not 0 < self.K0 < 0.5 * self.box_length:
            raise ValueError(f"K0 must lie in (0, box_length/2), got {self.K0:g} "
                             f"with box_length {self.box_length:g}")

    def make_grid(self) -> Grid:
        return Grid(n_points=self.n_points, box_length=self.box_length)

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "solitons": [asdict(s) for s in self.config.solitons]}
        for key in CONFIG_KEYS:
            value = getattr(self, key.name)
            block = data.setdefault(key.metadata["block"], {})
            block[key.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Strict parse: unknown keys at any level are an error."""
        blocks = dict.fromkeys(key.metadata["block"] for key in CONFIG_KEYS)
        unknown = set(data) - {"kind", "solitons", *blocks}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in data or "solitons" not in data:
            raise ValueError("config must provide 'kind' and 'solitons'")
        entries = data["solitons"]
        if not (isinstance(entries, (list, tuple)) and entries
                and all(isinstance(e, dict) for e in entries)):
            raise ValueError(f"solitons must be a non-empty list of objects, got {entries!r}")
        sols = []
        for i, entry in enumerate(entries):
            try:
                sols.append(SolitonParams(**entry))
            except (TypeError, ValueError) as exc:  # a key unknown, missing or inadmissible
                raise ValueError(f"solitons.{i}: {exc}") from None
        kwargs = {"kind": data["kind"], "config": MultiSolitonConfig(tuple(sols))}
        for block in blocks:
            values = data.get(block, {})
            if not isinstance(values, dict):
                raise ValueError(f"{block} must be a JSON object, got {values!r}")
            unknown = set(values) - {k.name for k in CONFIG_KEYS if k.metadata["block"] == block}
            if unknown:
                raise ValueError(f"unknown {block} keys: {sorted(unknown)}")
            kwargs.update(values)
        return cls(**kwargs)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


CONFIG_KEYS = tuple(key for key in fields(ExperimentSpec) if key.metadata)


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


def auto_window(times, values, floor: float = 1e-10, ceiling: float = 1e-2) -> tuple | None:
    """Select the clean exponential-decay window of a backward error series.

    Keeps samples with value in [floor, ceiling] that also sit clearly above
    the integrator noise floor: near the final time the error of a backward
    run grows linearly in (t_final - t), so its per-unit-time level C_n is
    estimated from the last tenth of the series and samples below
    10 C_n (t_final - t) are dropped.  Returns the (t_lo, t_hi) of the
    longest contiguous surviving span with at least 8 points, or None.
    The times must be strictly increasing (backward_frames streams them the
    other way).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if np.any(np.diff(t) <= 0):
        raise ValueError("auto_window needs strictly increasing times")
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
    keep = (y >= floor) & (y <= ceiling) & (y > 10.0 * c_noise * tail)

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


def _batches(states, config: MultiSolitonConfig | None = None):
    """One _Frame for each run of _BATCH consecutive states."""
    states = iter(states)
    while batch := list(islice(states, _BATCH)):
        yield _Frame.of(batch, config)


def _integrated_batches(frames, grid: Grid, config: MultiSolitonConfig | None = None):
    """_batches(frames, config), with frames run in a forked child.

    The child iterates _batches(frames), an integration on grid, and writes
    each frame's t, u, n and v as raw bytes through a one-way pipe; the
    parent reads them into fresh arrays and yields their _Frame while the
    child integrates the next batch.  A blocking pipe lets the child run one
    batch ahead, so memory stays bounded whichever side is slower.  An
    exception of the integration (a BlowUpError) is raised here after the
    batches before it, as _batches would raise it.  The child comes from
    os.fork, not multiprocessing.Process, so a daemonic process (a Pool
    worker) may stream too.  Close the generator when done
    (contextlib.closing): that ends the child if the stream stopped early.
    """
    import signal  # these two here, not at import: only these runs pay for them
    from multiprocessing.connection import Pipe

    recv, send = Pipe(duplex=False)
    pid = 0
    reported = False
    try:
        with send:
            pid = os.fork()
            if pid == 0:
                _send_batches(frames, grid, recv, send)  # does not return
        n = grid.n_points
        while times := recv.recv_bytes():
            t = np.frombuffer(times).reshape(-1, 1).copy()
            fields = (np.empty((t.size, n), complex), np.empty((t.size, n)), np.empty((t.size, n)))
            for a in fields:  # a flat byte view: recv_bytes_into sizes by the first axis
                recv.recv_bytes_into(a.reshape(-1).view(np.uint8))
            yield _Frame(grid, t, *fields, config)
        error, reported = recv.recv(), True
    except EOFError:  # the child ended without reporting, e.g. killed for memory
        pass
    finally:
        recv.close()
        if pid:
            os.kill(pid, signal.SIGTERM)  # unreaped, so still our child; a no-op once it has ended
            status = os.waitpid(pid, 0)[1]
    if not reported:
        raise RuntimeError("the integrating process ended with exit code "
                           f"{os.waitstatus_to_exitcode(status)}")
    if error is not None:
        raise error


def _send_batches(frames, grid: Grid, recv, send):
    """The child of _integrated_batches: per batch t, u, n and v as raw bytes;
    an empty message, then the exception or None.  Exits; never returns."""
    import signal

    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C and ends the child
        signal.signal(signal.SIGTERM, signal.SIG_DFL)  # ends it, whatever the parent's handler
        recv.close()
        error = None
        try:
            for f in _batches(frames):
                if f.grid is not grid:  # States fix dtype and shape; the grid fixes n
                    raise ValueError("the frames are not on the grid of the stream")
                for a in (f.t, f.u, f.n, f.v):
                    send.send_bytes(a.reshape(-1).view(np.uint8))
        except Exception as exc:  # noqa: BLE001 - reported to the parent, which raises it
            error = exc
        send.send_bytes(b"")
        send.send(error)
        code = 0
    finally:
        os._exit(code)  # no atexit handlers, no flush of buffers copied from the parent


def _tables(batches, tables) -> list:
    """Each table function's columns over a stream of _Frames, in stream order.

    A table function maps a _Frame to its {name: (B,) column} dict; each
    batch is dropped once its tables are made, and each table's per-batch
    columns are concatenated once at the end.  The stream is closed on the
    way out (which ends an integrating child if a table function raises).
    """
    parts = [[] for _ in tables]
    with closing(batches):
        for f in batches:
            for part, table in zip(parts, tables):
                part.append(table(f))
    if not parts[0]:
        raise ValueError("the stream gave no frames")
    return [{c: np.concatenate([p[c] for p in part]) for c in part[0]} for part in parts]


def _local_table(family: CutoffFamily):
    """The table function of local_L<L>.csv: t, then family's M_k and P_k."""
    return lambda f: {"t": f.times, **f.local(family.chis(f.grid, f.t))}


def error_series(frames, config: MultiSolitonConfig) -> dict:
    """Per-frame invariants and profile errors over an iterable of States."""
    return _tables(_batches(frames, config), [_Frame.errors])[0]


def local_series(frames, config: MultiSolitonConfig, L: float) -> dict:
    """Localized masses and momenta over an iterable of States for one cutoff width."""
    cols = _tables(_batches(frames), [_local_table(CutoffFamily.for_config(config, L))])[0]
    ks = range(1, config.K + 1)
    return {"t": cols["t"], "M_k": np.stack([cols[f"M_{k}"] for k in ks], axis=-1),
            "P_k": np.stack([cols[f"P_{k}"] for k in ks], axis=-1), "L": L}


def gmod_series(frames, config: MultiSolitonConfig) -> dict:
    """Modified energies H and G_mod of state - R(t) over an iterable of States."""
    def table(f):
        return {"t": f.times, **f.eps.modified(f.ref.u, f.ref.ux)}

    return _tables(_batches(frames, config), [table])[0]


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


def _backward(spec: ExperimentSpec, grid: Grid):
    """backward_frames of the spec's run: its frames from t_final down to 0."""
    log.info(f"backward construction to t=0 from t={spec.t_final} "
             f"(n={spec.n_points}, dt={spec.dt})")
    return backward_frames(grid, spec.config, spec.t_final, spec.dt, spec.sample_stride,
                           spec.blowup_threshold)


def _backward_tables(spec: ExperimentSpec, tables) -> list:
    """_tables of the backward run's streamed batches, in increasing time.
    The frames stream in integration order (t_final -> 0), so each column is
    reversed once at the end."""
    grid = spec.make_grid()
    batches = _integrated_batches(_backward(spec, grid), grid, spec.config)
    return [{c: v[::-1].copy() for c, v in cols.items()} for cols in _tables(batches, tables)]


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


def _save(run_dir: Path, manifest: RunManifest, name: str, role: str, columns: dict):
    path = run_dir / name
    _write_csv(path, columns)
    manifest.add_file(path, role)


def _run_simulate(spec, run_dir, manifest):
    """forward-evolve multi-soliton data from t=0"""
    log.info(f"forward evolution 0 -> {spec.t_final} (n={spec.n_points}, dt={spec.dt})")
    grid = spec.make_grid()
    frames = evolve(multi_soliton_state(grid, spec.config, 0.0), spec.t_final, spec.dt,
                    sample_stride=spec.sample_stride, blowup_threshold=spec.blowup_threshold)
    errors, = _tables(_integrated_batches(frames, grid, spec.config), [_Frame.errors])
    _save(run_dir, manifest, "errors.csv", "error_series", errors)


def _run_weinstein_audit(spec, run_dir, manifest):
    """backward construction: error-decay fit, functional audit and localized drifts"""
    first, *others = (CutoffFamily.for_config(spec.config, L) for L in spec.L_values)
    log.info(f"functional audit and localized quantities of every frame "
             f"(L={list(spec.L_values)})")
    errors, reports, *tables = _backward_tables(spec, [
        _Frame.errors, lambda f: f.reports(spec.K0, first.chis(f.grid, f.t)),
        *map(_local_table, others)])
    _save(run_dir, manifest, "errors.csv", "error_series", errors)
    fit = _fit_error_rates(errors, manifest, spec.config.K)

    _save(run_dir, manifest, "functionals.csv", "functional_reports", reports)
    manifest.notes["psi_constants"] = cutoff_profile_constants()
    manifest.notes["young_mu"] = young_mu(spec.config)
    manifest.notes["cutoff_L"] = first.L

    t = errors["t"]
    window = (0.0, spec.t_final) if fit is None else tuple(fit["window"])
    in_window = (t >= window[0]) & (t <= window[1])
    if fit is not None:
        drift = np.abs(reports["G"] - reports["G"][-1])
        keep = in_window & (drift > 0)
        if np.count_nonzero(keep) >= 8:
            manifest.fits["weinstein_drift"] = fit_exponential(t[keep], drift[keep])
        manifest.fits["edo_constant"] = edo_constant_fit(t, reports["G_mod"], fit["rate"], window)

    # the first width's masses and momenta are columns of the reports already
    ks = range(1, spec.config.K + 1)
    local = {c: reports[c] for c in ["t", *(f"{q}_{k}" for q in "MP" for k in ks)]}
    drifts = {}
    for L, loc in zip(spec.L_values, [local, *tables]):
        _save(run_dir, manifest, f"local_L{L:g}.csv", f"local_series_L{L:g}", loc)
        drifts[f"{L:g}"] = [float(np.max(np.abs(loc[f"M_{k}"][in_window] - loc[f"M_{k}"][-1])))
                            for k in ks]
    manifest.notes["mass_drift_by_L"] = drifts
    manifest.notes["drift_window"] = list(window)
    if len(spec.L_values) > 1:  # one width has nothing to compare
        rows = list(drifts.values())
        manifest.notes["monotone_in_L"] = {
            f"k={k}": all(a[k - 1] > b[k - 1] for a, b in zip(rows, rows[1:])) for k in ks}


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


def _run_modulation_track(spec, run_dir, manifest):
    """backward run plus per-frame parameter modulation"""
    grid = spec.make_grid()
    columns, notes = track_backward(_backward(spec, grid), spec.config, spec.tolerance)
    if columns is None:  # the fit chains took different roots
        log.info(f"integrating again: {notes['refit']}")
        columns = track(list(_backward(spec, grid))[::-1], spec.config, spec.tolerance)
        notes["frames_held"] = len(columns["t"])
    manifest.notes.update(notes)
    _save(run_dir, manifest, "modulation.csv", "modulation_series", columns)
    reasons = Counter(columns["reason"])
    manifest.notes["frames_converged"] = reasons.pop("converged", 0)
    manifest.notes["frames_total"] = len(columns["reason"])
    manifest.notes["frames_failed_by_reason"] = dict(reasons)
    pis = np.stack([columns[f"{name}_{k + 1}"] for name in ("omega", "sigma", "gamma")
                    for k in range(spec.config.K)], axis=1)
    gaps = np.abs(pis - pi_from_config(spec.config)).sum(axis=1)
    times, eps_h = columns["t"], columns["eps_H"]
    window = auto_window(times, np.maximum(eps_h, 1e-300))
    if window is not None and spec.config.K > 1:
        manifest.fits["epsilon_H_rate"] = fit_exponential(times, eps_h, window)
        keep = (times >= window[0]) & (times <= window[1]) & (gaps > 0)
        if np.count_nonzero(keep) >= 8:
            manifest.fits["pi_gap_rate"] = fit_exponential(times[keep], gaps[keep])


def _run_convergence_order(spec, run_dir, manifest):
    """splitting-order measurement by dt halving, on the config's first soliton alone"""
    grid = spec.make_grid()
    params = spec.config.solitons[0]
    state = soliton_state(grid, params, 0.0)
    exact = traveling_wave(grid, params, spec.t_final)

    def l2_error(dt):
        *_, final = evolve(state, spec.t_final, dt, sample_stride=10**9,
                           blowup_threshold=spec.blowup_threshold)
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
    "modulation_track": Kind("modulate-track", _run_modulation_track),
    "weinstein_audit": Kind("weinstein-audit", _run_weinstein_audit),
    "coercivity_sweep": Kind("coercivity", _run_coercivity_sweep),
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
