"""Soliton parameter fitting by orthogonality root-finding.

A state near a K-soliton profile is decomposed as state = S(pi) + eps with
pi = (omega_1..omega_K, sigma_1..sigma_K, gamma_1..gamma_K) chosen so that
eps_u is orthogonal to the 3K symmetry directions of each wave:

    Re int phi_{omega_k}(x_k) e^{-i Gamma_k} eps_u = 0      (omega-type)
    Re int x_k phi_{omega_k}(x_k) e^{-i Gamma_k} eps_u = 0  (sigma-type)
    Im int Lambda_{omega_k}(x_k) e^{-i Gamma_k} eps_u = 0   (gamma-type)

with x_k = x - c_k t - sigma_k and Gamma_k = c_k x/2 - c_k^2 t/4 +
omega_k^0 t + gamma_k (the reference pulsation runs the phase clock).  These
conditions are solved per snapshot by a damped Newton iteration (the
modulation theory of Weinstein, SIAM J. Math. Anal. 1985).  Each iteration
makes one call to residuals_and_jacobian, which builds each soliton's
directions once (profiles._directions) and returns the residuals together
with their analytic 3K x 3K Jacobian.  The Jacobian has two kinds of term:

  * profile terms, in every column j, from eps_u = u - S(pi):
    dS/domega_j = a_j Lambda_{omega_j} e^{i Gamma_j},
    dS/dsigma_j = -a_j phi_{omega_j}' e^{i Gamma_j}, dS/dgamma_j = i S_j,
    with a_j = sqrt(1 - c_j^2);
  * test-function terms, on the diagonal blocks j = k only:
    dphi/domega = Lambda_omega, dphi/dsigma = -phi',
    d(x_k phi)/dsigma = -phi - x_k phi', dLambda/dsigma = -Lambda',
    dLambda/domega = (-LambdaQ(r y)/r + y LambdaQ'(r y)) / (2 omega) with
    r = sqrt(omega), and d e^{-i Gamma_k}/dgamma_k = -i e^{-i Gamma_k}.

Along a trajectory each frame warm-starts from the previous one and gamma is
kept on a continuous branch.  track fits frames in increasing time;
track_backward fits a backward run as it streams and holds only the frames
where the solitons still interact, streaming the run again if its two fit
chains do not meet.

The residual vector, the unknown vector, and the Jacobian all use the fixed
component order (all omega, all sigma, all gamma).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import State
from .functionals import _Frame
from .profiles import MultiSolitonConfig, _checked_pi, _directions, pi_from_config

__all__ = [
    "pi_from_config",
    "FitEvaluation",
    "residuals_and_jacobian",
    "ModulationResult",
    "REASONS",
    "modulate",
    "leading_diagonal_constants",
    "track",
    "track_backward",
]

log = logging.getLogger(__name__)

# Newton gives up once the best residual has not improved for this many
# consecutive iterations.
STAGNATION_ITERS = 5

# Every way modulate can exit, as reported in ModulationResult.reason.
REASONS = ("converged", "stagnation", "singular", "damping", "max_iter")

class FitEvaluation(NamedTuple):
    """Residuals, their analytic Jacobian and the profile S(pi) at one pi."""

    pi: np.ndarray
    residuals: np.ndarray
    jacobian: np.ndarray
    profile: tuple          # (S^u, S^n, S^v)

    @property
    def residual_max(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def residuals_and_jacobian(state, pi, config: MultiSolitonConfig, *,
                           _work=None) -> FitEvaluation:
    """The 3K orthogonality residuals and their analytic Jacobian in one pass.

    Row i, column j of the Jacobian is d(residual_i)/d(pi_j); both use the
    fixed (omega, sigma, gamma) order.  The terms are listed in the module
    docstring.  _work is modulate's list of the two work arrays, filled on
    first use; every call without it makes its own.
    """
    work = [] if _work is None else _work
    g = state.grid
    t = state.t
    K = config.K
    pi = _checked_pi(pi, K)
    h, n_pts = g.spacing, g.n_points

    # The i-th residual of a field F is h Re sum(probes[i] * F); fields[j] is
    # d(eps_u)/d(pi_j) for j < 3K, and eps_u itself in the last slot.
    if not work:
        work += [np.empty((rows, n_pts), dtype=complex) for rows in (3 * K, 3 * K + 1)]
    probes, fields = work
    s_u = np.zeros(n_pts, dtype=complex)
    s_n = np.zeros(n_pts)
    s_v = np.zeros(n_pts)
    blocks = []
    for k, p in enumerate(config.solitons):
        x_k, f, df, lam, dlam, lam_omega, cos, sin = _directions(
            g, p.c, pi[k], p.c * t + pi[K + k], pi[2 * K + k], t, p.omega)
        e_phase = cos + 1j * sin                        # e^{i Gamma_k}
        e_back = cos - 1j * sin                         # e^{-i Gamma_k}
        a = np.sqrt(1.0 - p.c**2)
        s_k = a * f * e_phase
        n_k = -(f**2)
        s_u += s_k
        s_n += n_k
        s_v += p.c * n_k

        fields[k] = -a * lam * e_phase
        fields[K + k] = a * df * e_phase
        fields[2 * K + k] = -1j * s_k
        probes[k] = f * e_back
        probes[K + k] = x_k * probes[k]
        probes[2 * K + k] = -1j * lam * e_back
        blocks.append((e_back, x_k, f, df, lam, dlam, lam_omega))

    eps_u = state.u - s_u
    fields[3 * K] = eps_u
    quad = h * (probes @ fields.T).real
    res = quad[:, 3 * K].copy()
    jac = quad[:, :3 * K].copy()

    for k, (e_back, x_k, f, df, lam, dlam, lam_omega) in enumerate(blocks):
        w = e_back * eps_u
        re_w, im_w = w.real, w.imag
        idx = np.ix_((k, K + k, 2 * K + k), (k, K + k, 2 * K + k))
        jac[idx] += h * np.array([
            [lam @ re_w, -(df @ re_w), f @ im_w],
            [(x_k * lam) @ re_w, -((f + x_k * df) @ re_w), (x_k * f) @ im_w],
            [lam_omega @ im_w, -(dlam @ im_w), -(lam @ re_w)],
        ])
    return FitEvaluation(pi=pi, residuals=res, jacobian=jac, profile=(s_u, s_n, s_v))


@dataclass(frozen=True)
class ModulationResult:
    """One fit of modulate: the pulsations, positions and phases pi (in the
    fixed omega, sigma, gamma order), epsilon = state - S(pi) as a State, the
    3K orthogonality residuals at pi, the Newton iterations run, the bold-H
    norm of epsilon and the exit reason (one of REASONS); converged is
    reason == "converged"."""

    pi: np.ndarray
    epsilon: State
    residuals: np.ndarray
    iterations: int
    epsilon_H_norm: float
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason == "converged"

    @property
    def residual_max(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def _result(state, ev: FitEvaluation, iterations: int, reason: str) -> ModulationResult:
    s_u, s_n, s_v = ev.profile
    eps = State(state.grid, state.t, state.u - s_u, state.n - s_n, state.v - s_v)
    return ModulationResult(pi=ev.pi, epsilon=eps, residuals=ev.residuals, iterations=iterations,
                            epsilon_H_norm=float(_Frame.of([eps]).bold_H[0]), reason=reason)


def modulate(state, config: MultiSolitonConfig, pi_guess=None,
             tolerance: float = 1e-10, max_iter: int = 50) -> ModulationResult:
    """Newton-solve the 3K orthogonality relations from a warm guess.

    Steps that would push a pulsation out of (0, inf) are halved up to 20
    times.  The solve exits, with ModulationResult.reason set to

      * "converged": max |residual| <= tolerance;
      * "stagnation": the best residual did not improve for STAGNATION_ITERS
        consecutive iterations;
      * "singular": the Jacobian could not be solved;
      * "damping": 20 halvings left a pulsation non-positive;
      * "max_iter": max_iter iterations ran out.

    On every exit but "converged" the best iterate seen is returned.  The
    fit allocates one pair of work arrays and reuses it across its
    iterations (see residuals_and_jacobian).
    """
    work = []
    K = config.K
    pi = pi_from_config(config) if pi_guess is None else np.array(pi_guess, dtype=float)
    best, stalled = None, 0
    for it in range(max_iter + 1):
        ev = residuals_and_jacobian(state, pi, config, _work=work)
        if ev.residual_max <= tolerance:
            return _result(state, ev, it, "converged")
        if best is None or ev.residual_max < best.residual_max:
            best, stalled = ev, 0
        else:
            stalled += 1
            if stalled == STAGNATION_ITERS:
                return _result(state, best, it, "stagnation")
        if it == max_iter:
            return _result(state, best, it, "max_iter")
        try:
            delta = np.linalg.solve(ev.jacobian, -ev.residuals)
        except np.linalg.LinAlgError:
            return _result(state, best, it, "singular")
        scale = 1.0
        for _ in range(20):
            if np.all(pi[:K] + scale * delta[:K] > 0):
                break
            scale *= 0.5
        else:
            return _result(state, best, it, "damping")
        pi = pi + scale * delta


def leading_diagonal_constants(state, config: MultiSolitonConfig) -> dict:
    """Jacobian diagonals at Pi^0 rescaled to the universal ground-state constants.

    At eps = 0 the residual Jacobian's diagonal blocks reduce to quadratures
    of the Q-family: the omega and gamma diagonals carry a factor
    -sqrt(1-c^2)/sqrt(omega), the sigma diagonal sqrt(1-c^2) sqrt(omega).
    Dividing those factors out recovers the dimensionless constants
    (int Q LambdaQ, int y Q Q', int Q LambdaQ) = (1, -2, 1).
    """
    K = config.K
    jac = residuals_and_jacobian(state, pi_from_config(config), config).jacobian
    d_omega = np.empty(K)
    d_sigma = np.empty(K)
    d_gamma = np.empty(K)
    for k, p in enumerate(config.solitons):
        w = np.sqrt(1.0 - p.c**2)
        root = np.sqrt(p.omega)
        d_omega[k] = -jac[k, k] * root / w
        d_sigma[k] = jac[K + k, K + k] / (w * root)
        d_gamma[k] = -jac[2 * K + k, 2 * K + k] * root / w
    return {"d_omega": d_omega, "d_sigma": d_sigma, "d_gamma": d_gamma}


class _Row(NamedTuple):
    """One frame's modulation.csv row before the rates: its time, pi (gamma
    on the branch of the frame fitted before it) and the fit's scalars."""

    t: float
    pi: np.ndarray
    eps_H: float
    residual_max: float
    iterations: int
    converged: bool
    reason: str


def _chain(frames, config: MultiSolitonConfig, tolerance: float):
    """Yield (frame, _Row) for each frame, fitted in the order given with
    track's warm starts and gamma unwrapping."""
    K = config.K
    pi0 = pi_from_config(config)
    guess, prev_pi = pi0, None
    for frame in frames:
        res = modulate(frame, config, pi_guess=guess, tolerance=tolerance)
        pi = res.pi.copy()
        if prev_pi is not None:
            two_pi = 2.0 * np.pi
            shift = two_pi * np.round((prev_pi[2 * K:] - pi[2 * K:]) / two_pi)
            if np.any(shift != 0.0):  # adding a zero shift would turn -0.0 into +0.0
                pi[2 * K:] += shift
        yield frame, _Row(frame.t, pi, res.epsilon_H_norm, res.residual_max, res.iterations,
                          res.converged, res.reason)
        guess = pi if res.converged else pi0
        prev_pi = pi if res.converged else prev_pi


def _columns(rows, config: MultiSolitonConfig) -> dict:
    """The modulation.csv columns of _Rows: at least one, in strictly
    increasing time, else ValueError (the rates need both)."""
    K = config.K
    times = np.array([row.t for row in rows])
    if not times.size or np.any(np.diff(times) <= 0):
        raise ValueError("modulation needs at least one frame, in strictly increasing time "
                         "for track or decreasing (as backward_frames streams) for track_backward")
    pis = np.stack([row.pi for row in rows])
    rates = np.gradient(pis, times, axis=0) if len(times) >= 2 else np.zeros_like(pis)
    omega0 = np.array([p.omega for p in config.solitons])
    mismatch = rates[:, 2 * K:] - (pis[:, :K] - omega0)
    names = [f"{name}_{k + 1}" for name in ("omega", "sigma", "gamma", "domega_dt",
                                            "dsigma_dt", "dgamma_dt", "gamma_rate_mismatch")
             for k in range(K)]
    _, _, eps_h, residual_max, iterations, converged, reason = zip(*rows)
    return {"t": times, **dict(zip(names, np.hstack([pis, rates, mismatch]).T)),
            "eps_H": np.array(eps_h), "residual_max": list(residual_max),
            "iterations": list(iterations), "converged": np.array(converged),
            "reason": list(reason)}


def track(frames, config: MultiSolitonConfig, tolerance: float = 1e-10) -> dict:
    """Modulate every frame (States in strictly increasing time, at least
    one, else ValueError), warm-starting each solve from its predecessor, and
    return the modulation.csv columns: t, then per soliton pi, its
    finite-difference rates and the gamma rate mismatch
    dgamma/dt - (omega - omega^0), then each fit's eps_H, residual_max,
    iterations, converged and reason.  Only each fit's scalars are kept.

    The first frame starts from Pi^0; after a failed frame the next one
    restarts from Pi^0.  gamma components are unwrapped to the 2*pi branch
    nearest the previous frame so the rates are finite-differenceable.
    """
    return _columns([row for _, row in _chain(frames, config, tolerance)], config)


# A frame fitted in integration order is clean, and the solitons no longer
# interact, while its fit converges with eps_H below EPS_H_CLEAN.  On the
# committed two-soliton run (n = 2048, t_final = 30) the integration-order
# eps_H rises to 0.0940 at t = 6.2 and 0.1035 at t = 6.1 (track's agree to
# 1e-10), so the 62 frames t <= 6.1 are held.  The chains take different
# roots only on t in [2.3, 3.6] (eps_H 2.00 against track's 6.35 at t = 3).
EPS_H_CLEAN = 0.1

# The two chains meet at the boundary frame when their pi agree to this
# (the benchmark's reference check on pi).
CHAINS_MEET = 1e-9


def track_backward(run, config: MultiSolitonConfig, tolerance: float = 1e-10):
    """track of a backward run, fitted as it streams.

    run() streams the run: States in strictly decreasing time, as
    backward_frames yields them.  Each is fitted from the pi of the later
    one (the first from Pi^0, gamma unwrapped against the later one) and
    dropped, until a fit is not clean (see EPS_H_CLEAN).  That frame and
    every later one are held unfitted, with the boundary (the last clean
    frame), and track's forward chain runs over them in increasing time.  If
    both chains converge at the boundary with pi within CHAINS_MEET, the
    forward rows and the integration-order rows above the boundary make the
    columns.

    Returns (columns, notes): notes has frames_held, the frames below the
    boundary, and chains_meet_t, its time.  When no frame was dropped (fewer
    than two clean fits) the forward chain covered every frame: frames_held
    counts them all and chains_meet_t is None.  When the chains do not meet,
    the held frames are dropped and run() streams again: the columns are
    track's over every frame, frames_held counts them all, chains_meet_t is
    None and notes["refit"] has the boundary's t, the largest |pi| gap and
    the forward fit's reason.
    """
    frames = iter(run())
    above, held, boundary = [], [], []
    for frame, row in _chain(frames, config, tolerance):
        if not (row.converged and row.eps_H < EPS_H_CLEAN):
            held = [frame, *frames][::-1]
            break
        above.append(row)
        boundary = [frame]
    forward = [row for _, row in _chain(held + boundary, config, tolerance)]
    if len(above) < 2:  # no frame was dropped: the forward chain ran over every frame
        return _columns(forward, config), {"frames_held": len(forward), "chains_meet_t": None}
    fwd, back = forward[-1], above[-1]
    gap = float(np.max(np.abs(fwd.pi - back.pi)))
    if fwd.converged and gap <= CHAINS_MEET:
        return (_columns(forward + above[-2::-1], config),
                {"frames_held": len(held), "chains_meet_t": back.t})
    refit = {"t": back.t, "pi_gap": gap, "reason": fwd.reason}
    log.info(f"integrating again: the fit chains do not meet, {refit}")
    del frame, held, boundary  # hold no frame of the first run while the second streams
    columns = track(list(run())[::-1], config, tolerance)
    return columns, {"frames_held": len(columns["t"]), "chains_meet_t": None, "refit": refit}
