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
makes one call to residuals_and_jacobian, which evaluates sech/tanh once per
soliton over the three box images and returns the residuals together with
their analytic 3K x 3K Jacobian.  The Jacobian has two kinds of term:

  * profile terms, in every column j, from eps_u = u - S(pi):
    dS/domega_j = a_j Lambda_{omega_j} e^{i Gamma_j},
    dS/dsigma_j = -a_j phi_{omega_j}' e^{i Gamma_j}, dS/dgamma_j = i S_j,
    with a_j = sqrt(1 - c_j^2);
  * test-function terms, on the diagonal blocks j = k only:
    dphi/domega = Lambda_omega, dphi/dsigma = -phi',
    d(x_k phi)/dsigma = -phi - x_k phi', dLambda/dsigma = -Lambda',
    dLambda/domega = (-LambdaQ(r y)/r + y LambdaQ'(r y)) / (2 omega) with
    r = sqrt(omega), and d e^{-i Gamma_k}/dgamma_k = -i e^{-i Gamma_k}.

sech is formed from e^{-|z|}, so iterates that run to large omega do not
overflow.  Along a trajectory each frame warm-starts from the previous one
and gamma is kept on a continuous branch.

The residual vector, the unknown vector, and the Jacobian all use the fixed
component order (all omega, all sigma, all gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import State
from .grid import quadrature
from .profiles import MultiSolitonConfig, pi_from_config

__all__ = [
    "pi_from_config",
    "pi_norm",
    "FitEvaluation",
    "residuals_and_jacobian",
    "ModulationResult",
    "REASONS",
    "modulate",
    "leading_diagonal_constants",
    "TrackResult",
    "track",
]

# Newton gives up once the best residual has not improved for this many
# consecutive iterations.
STAGNATION_ITERS = 5

# Every way modulate can exit, as reported in ModulationResult.reason.
REASONS = ("converged", "stagnation", "singular", "damping", "max_iter")

_SQRT2 = np.sqrt(2.0)


def pi_norm(pi, pi0) -> float:
    """l1 distance between parameter vectors (sum of componentwise gaps)."""
    return float(np.sum(np.abs(np.asarray(pi) - np.asarray(pi0))))


def _checked_pi(pi, K: int) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (3 * K,):
        raise ValueError(f"pi must have shape ({3 * K},)")
    if np.any(pi[:K] <= 0):
        raise ValueError("modulated pulsations must stay positive")
    return pi


class FitEvaluation(NamedTuple):
    """Residuals, their analytic Jacobian and the profile S(pi) at one pi."""

    pi: np.ndarray
    residuals: np.ndarray
    jacobian: np.ndarray
    profile: tuple          # (S^u, S^n, S^v)

    @property
    def residual_max(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def _sech_tanh(z):
    """sech z and tanh z from e^{-|z|}, finite however large |z| grows."""
    e = np.exp(-np.abs(z))
    e2 = e * e
    return 2.0 * e / (1.0 + e2), np.sign(z) * (1.0 - e2) / (1.0 + e2)


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
    h, L, n_pts = g.spacing, g.box_length, g.n_points

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
        omega = pi[k]
        r = np.sqrt(omega)
        center = p.c * t + pi[K + k]
        x_k = g.wrap(g.x - center)
        # sums over the three box images of sech, sech*tanh, sqrt(2) LambdaQ,
        # sqrt(2) LambdaQ' and the omega-derivative numerator of Lambda_omega
        f = df = lam = dlam = lam_omega = 0.0
        for y in (x_k, x_k - L, x_k + L):
            z = r * y
            sech, tanh = _sech_tanh(z)
            lq = sech * (1.0 - z * tanh)
            dlq = sech * (z * (tanh * tanh - sech * sech) - 2.0 * tanh)
            f = f + sech
            df = df + sech * tanh
            lam = lam + lq
            dlam = dlam + dlq
            lam_omega = lam_omega + (y * dlq - lq / r)
        f = _SQRT2 * r * f                              # phi_omega
        df = -_SQRT2 * omega * df                       # phi_omega'
        lam = lam / (_SQRT2 * r)                        # Lambda_omega
        dlam = dlam / _SQRT2                            # Lambda_omega'
        lam_omega = lam_omega / (2.0 * _SQRT2 * omega)  # d(Lambda_omega)/d(omega)

        phase = (0.5 * p.c * (x_k + center) - 0.25 * p.c**2 * t
                 + p.omega * t + pi[2 * K + k])
        cos, sin = np.cos(phase), np.sin(phase)
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
    pi: np.ndarray
    epsilon: State | None    # state - S(pi); None in the results track keeps
    residuals: np.ndarray
    iterations: int
    converged: bool
    epsilon_H_norm: float
    reason: str              # one of REASONS

    @property
    def residual_max(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def _bold_h(eps: State) -> float:
    """||u||_H1 + ||n||_L2 + ||v||_L2, the H1 part by Parseval."""
    g = eps.grid
    u_hat = np.fft.fft(eps.u)
    h1 = np.sqrt(g.spacing / g.n_points
                 * np.sum((1.0 + g.wavenumbers**2) * np.abs(u_hat) ** 2))
    return float(h1 + np.sqrt(quadrature(g, eps.n**2)) + np.sqrt(quadrature(g, eps.v**2)))


def _result(state, ev: FitEvaluation, iterations: int, reason: str) -> ModulationResult:
    s_u, s_n, s_v = ev.profile
    eps = State(state.grid, state.t, state.u - s_u, state.n - s_n, state.v - s_v)
    return ModulationResult(pi=ev.pi, epsilon=eps, residuals=ev.residuals,
                            iterations=iterations, converged=reason == "converged",
                            epsilon_H_norm=_bold_h(eps), reason=reason)


def modulate(state, config: MultiSolitonConfig, pi_guess=None,
             tolerance: float = 1e-10, max_iter: int = 50, *, _work=None) -> ModulationResult:
    """Newton-solve the 3K orthogonality relations from a warm guess.

    Steps that would push a pulsation out of (0, inf) are halved up to 20
    times.  The solve exits, with ModulationResult.reason set to

      * "converged": max |residual| <= tolerance (converged = True);
      * "stagnation": the best residual did not improve for STAGNATION_ITERS
        consecutive iterations;
      * "singular": the Jacobian could not be solved;
      * "damping": 20 halvings left a pulsation non-positive;
      * "max_iter": max_iter iterations ran out.

    On every exit but "converged" the best iterate seen is returned with
    converged = False.  _work is track's list of Newton work arrays (see
    residuals_and_jacobian); every call without it makes its own.
    """
    work = [] if _work is None else _work
    K = config.K
    pi = pi_from_config(config) if pi_guess is None else np.array(pi_guess, dtype=float)
    ev = residuals_and_jacobian(state, pi, config, _work=work)
    best, stalled = ev, 0

    for it in range(max_iter):
        if ev.residual_max <= tolerance:
            return _result(state, ev, it, "converged")
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
        ev = residuals_and_jacobian(state, pi, config, _work=work)
        if ev.residual_max < best.residual_max:
            best, stalled = ev, 0
        else:
            stalled += 1
            if stalled == STAGNATION_ITERS:
                return _result(state, best, it + 1, "stagnation")

    if ev.residual_max <= tolerance:
        return _result(state, ev, max_iter, "converged")
    return _result(state, best, max_iter, "max_iter")


def leading_diagonal_constants(state, config: MultiSolitonConfig, pi=None) -> dict:
    """Jacobian diagonals rescaled to the universal ground-state constants.

    At eps = 0 the residual Jacobian's diagonal blocks reduce to quadratures
    of the Q-family: the omega and gamma diagonals carry a factor
    -sqrt(1-c^2)/sqrt(omega), the sigma diagonal sqrt(1-c^2) sqrt(omega).
    Dividing those factors out recovers the dimensionless constants
    (int Q LambdaQ, int y Q Q', int Q LambdaQ) = (1, -2, 1).
    """
    if pi is None:
        pi = pi_from_config(config)
    pi = np.asarray(pi, dtype=float)
    K = config.K
    jac = residuals_and_jacobian(state, pi, config).jacobian
    d_omega = np.empty(K)
    d_sigma = np.empty(K)
    d_gamma = np.empty(K)
    for k, p in enumerate(config.solitons):
        w = np.sqrt(1.0 - p.c**2)
        root = np.sqrt(pi[k])
        d_omega[k] = -jac[k, k] * root / w
        d_sigma[k] = jac[K + k, K + k] / (w * root)
        d_gamma[k] = -jac[2 * K + k, 2 * K + k] * root / w
    return {"d_omega": d_omega, "d_sigma": d_sigma, "d_gamma": d_gamma}


@dataclass(frozen=True)
class TrackResult:
    """Per-frame modulation along a trajectory plus finite-difference rates."""

    times: np.ndarray
    results: tuple
    pis: np.ndarray                 # (n_frames, 3K), gamma on a continuous branch
    rates: np.ndarray               # (n_frames, 3K), d(pi)/dt by finite differences
    gamma_rate_mismatch: np.ndarray  # (n_frames, K): dgamma/dt - (omega - omega^0)
    epsilon_H: np.ndarray
    converged: np.ndarray

    def columns(self) -> dict:
        """The modulation.csv columns: t, then per soliton pi, its rates and
        the gamma rate mismatch, then each fit's exit."""
        K = self.gamma_rate_mismatch.shape[1]
        names = [f"{name}_{k + 1}" for name in ("omega", "sigma", "gamma", "domega_dt",
                                                "dsigma_dt", "dgamma_dt", "gamma_rate_mismatch")
                 for k in range(K)]
        values = np.hstack([self.pis, self.rates, self.gamma_rate_mismatch]).T
        return {"t": self.times, **dict(zip(names, values)), "eps_H": self.epsilon_H,
                "residual_max": [r.residual_max for r in self.results],
                "iterations": [r.iterations for r in self.results],
                "converged": self.converged, "reason": [r.reason for r in self.results]}


def track(frames, config: MultiSolitonConfig, tolerance: float = 1e-10) -> TrackResult:
    """Modulate every frame (States in increasing time), warm-starting each
    solve from its predecessor; the stored results drop their epsilon State.

    The first frame starts from Pi^0; after a failed frame the next one
    restarts from Pi^0.  gamma components are unwrapped to the 2*pi branch
    nearest the previous frame so the rates are finite-differenceable.  All
    frames share one pair of Newton work arrays.
    """
    K = config.K
    pi0 = pi_from_config(config)
    times, results, work = [], [], []
    guess = pi0
    prev_pi = None
    for frame in frames:
        res = modulate(frame, config, pi_guess=guess, tolerance=tolerance, _work=work)
        pi = res.pi.copy()
        if prev_pi is not None:
            two_pi = 2.0 * np.pi
            shift = two_pi * np.round((prev_pi[2 * K:] - pi[2 * K:]) / two_pi)
            if np.any(shift != 0.0):
                pi[2 * K:] += shift
        times.append(frame.t)
        results.append(replace(res, pi=pi, epsilon=None))
        guess = pi if res.converged else pi0
        prev_pi = pi if res.converged else prev_pi

    times = np.array(times)
    pis = np.stack([r.pi for r in results])
    if len(times) >= 2:
        rates = np.gradient(pis, times, axis=0)
    else:
        rates = np.zeros_like(pis)
    omega0 = np.array([p.omega for p in config.solitons])
    mismatch = rates[:, 2 * K:] - (pis[:, :K] - omega0)
    return TrackResult(
        times=times,
        results=tuple(results),
        pis=pis,
        rates=rates,
        gamma_rate_mismatch=mismatch,
        epsilon_H=np.array([r.epsilon_H_norm for r in results]),
        converged=np.array([r.converged for r in results]),
    )
