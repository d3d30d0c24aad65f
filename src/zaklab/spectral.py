"""Linearized operators around the ground state and coercive quadratic forms.

Linearizing the cubic Schrödinger reduction around Q(y) = sqrt(2) sech(y)
produces

    L_plus  = -d^2/dy^2 + 1 - 3 Q^2   (acts on the real part),
    L_minus = -d^2/dy^2 + 1 - Q^2     (acts on the imaginary part),

whose kernels are spanned by Q' and Q.  The stability machinery rests on the
quadratic form <L_plus a, a> + <L_minus b, b> being positive definite on the
H^1 sphere once a is orthogonal to Q and yQ and b is orthogonal to
LambdaQ = (Q + yQ')/2.  Each operator, L_plus and L_minus included, is one
LinearizedOperator: a Fourier symbol on its H^1 rows plus a pointwise
multiplier on all rows.  Its action and its pencil matvec (four batched
real-FFT calls) come from that declaration; constrained minima are found
matrix-free by a three-term Lanczos recurrence in numpy on the matvec, stopped
once the lowest Ritz value has converged (residual^2 / gap, checked at
predicted steps); spectrum() finds the lowest eigenpairs of the action by a
block LOBPCG, also matrix-free.
h2_coercivity minimizes, over the (eta_u, eta_n, eta_v) linearization around
one traveling wave, the one-soliton G21 of functionals.weinstein_decompose
(K = 1, so the cutoff is 1): the localized quadratic part of the Weinstein
functional that functionals.csv audits, orthogonal to the wave's directions
from profiles._directions at Pi^0, whose residuals modulate sets to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid
from .profiles import (
    MultiSolitonConfig,
    SolitonParams,
    _directions,
    ground_state,
    lambda_q,
    y_ground_state,
)

__all__ = [
    "LinearizedOperator",
    "spectrum",
    "coercivity_nls",
    "h2_coercivity",
    "young_mu",
]

# Step budget of one Lanczos or LOBPCG solve.  The sweep's Lanczos solves stop
# after 8-60 steps at n = 512 and n = 2048; at c = 0.99 the constrained ones
# take 80-85.  spectrum()'s LOBPCG takes 12-42 on L_plus and L_minus at
# n = 128-16384 and n_eigs = 1-3.
_MAX_STEPS = 512


@dataclass(frozen=True, eq=False)
class LinearizedOperator:
    """A = symbol, (m, m, n // 2 + 1) and Hermitian over the rfft wavenumbers, on
    the H^1 rows 0..m-1 of z (b, n), plus multiplier, (b, b, n) and symmetric, on
    all rows.  The pencil's norm B is 1 + k^2 on H^1 rows and 1 on L^2 rows.

    plus and minus are the one-row operators -d^2/dx^2 + 1 - 3Q^2 and
    -d^2/dx^2 + 1 - Q^2, with Q centered at the origin of the grid.
    """

    grid: Grid
    symbol: np.ndarray
    multiplier: np.ndarray

    @classmethod
    def plus(cls, grid: Grid) -> "LinearizedOperator":
        return cls._schrodinger(grid, 1.0 - 3.0 * ground_state(grid) ** 2)

    @classmethod
    def minus(cls, grid: Grid) -> "LinearizedOperator":
        return cls._schrodinger(grid, 1.0 - ground_state(grid) ** 2)

    @classmethod
    def _schrodinger(cls, grid: Grid, potential) -> "LinearizedOperator":
        k = grid.wavenumbers[: grid.n_points // 2 + 1]
        return cls(grid, (k**2)[None, None], potential[None, None])

    def apply(self, z):
        """A z for z of shape (..., b, n), a stack of fields acted on at once; a
        one-row operator also takes a field (n,)."""
        if np.ndim(z) == 1:
            return self.apply(np.asarray(z)[None])[0]
        m = len(self.symbol)
        az = np.einsum("ijx,...jx->...ix", self.multiplier, z)
        az[..., :m, :] += np.fft.irfft(np.einsum("ijk,...jk->...ik", self.symbol,
                                                 np.fft.rfft(z[..., :m, :])), self.grid.n_points)
        return az

    @cached_property
    def h1_scale(self):  # B^{-1/2} on an H^1 row, over the rfft wavenumbers
        return 1.0 / np.sqrt(1.0 + self.grid.wavenumbers[: self.grid.n_points // 2 + 1] ** 2)

    def scaled_apply(self, z):
        """B^{-1/2} A B^{-1/2} z in four real-FFT calls over the H^1 rows: rfft
        of z, irfft to x space for the multiplier, rfft of that, irfft of the sum."""
        m, s = len(self.symbol), self.h1_scale
        sz_hat = s * np.fft.rfft(z[:m])
        az = np.einsum("ijx,jx->ix", self.multiplier,
                       np.concatenate([np.fft.irfft(sz_hat, self.grid.n_points), z[m:]]))
        az[:m] = np.fft.irfft(s * (np.einsum("ijk,jk->ik", self.symbol, sz_hat)
                                   + np.fft.rfft(az[:m])), self.grid.n_points)
        return az


def spectrum(op: LinearizedOperator, n_eigs: int):
    """Lowest n_eigs eigenpairs of a one-row operator, by block LOBPCG on apply
    (Knyazev 2001).

    The block X has n_eigs + 2 rows from a seeded normal start.  Each step
    preconditions the residuals by (1 + k^2)^{-1} into W and does Rayleigh-Ritz
    on the QR of [X, W, P], P being the last step's part orthogonal to the X it
    started from; it stops once every wanted residual, in the H^{-1} norm, is
    <= 1e-10 max(1, |theta|).  Eigenfields are returned as columns, normalized
    to unit L^2 quadrature.
    """
    n, size = op.grid.n_points, n_eigs + 2
    if n_eigs < 1 or 3 * size > n:
        raise ValueError(f"n_eigs must lie in 1..{n // 3 - 2} for n = {n} points")
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, size)))[0].T
    for _ in range(_MAX_STEPS):
        aq = op.apply(q[:, None])[:, 0]
        theta, c = np.linalg.eigh(q @ aq.T)  # reads the lower triangle
        theta, c = theta[:size], c[:, :size]
        x = c.T @ q
        r_hat = np.fft.rfft(c.T @ aq - theta[:, None] * x)
        # in l^2, rounding in the k^2 symbol (1.7e6 at n = 16384) would hold
        # the residuals of the kernel modes at 2e-10-4e-10
        resid = np.linalg.norm(np.fft.irfft(op.h1_scale * r_hat[:n_eigs], n), axis=1)
        if np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(theta[:n_eigs]))):
            return theta[:n_eigs], x[:n_eigs].T / np.sqrt(op.grid.spacing)
        # q[:size] spans the X this step started from, so p is the step's part off it
        w, p = np.fft.irfft(op.h1_scale**2 * r_hat, n), c[size:].T @ q[size:]
        q = np.linalg.qr(np.concatenate([x, w, p]).T)[0].T
    raise RuntimeError(f"LOBPCG did not converge in {_MAX_STEPS} steps: residuals {resid}")


def _lanczos_min(matvec, v) -> float:
    """Smallest eigenvalue of the symmetric operator matvec, by Lanczos from v.

    The plain three-term recurrence, with no stored basis and no
    reorthogonalization: lost orthogonality only repeats Ritz values that have
    already converged (Paige 1976), so the extreme one stays accurate.  The
    lowest Ritz value theta_1 errs by at most r^2 / gap for its residual
    r = beta_j |s_{j,0}| (Kato-Temple; Parlett 1980), so, with theta_2 -
    theta_1 for the gap, the solve stops once r^2 <= 1e-14 max(1, |theta_1|)
    (theta_2 - theta_1), or r <= 1e-10 max(1, |theta_1|) should a ghost copy
    of theta_1 close that gap, or at once on an invariant subspace (beta = 0).
    T is diagonalized at step 8, then where the decay of r since the last
    check (from r = beta_1 at step 1) predicts the stop, at most 16 steps on.
    """
    alphas, betas = [], []
    v = v / np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    beta, check, last = 0.0, 8, None
    for j in range(1, _MAX_STEPS + 1):
        w = matvec(v) - beta * v_prev
        alpha = float(v @ w)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0 or j == check or j == _MAX_STEPS:
            t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
            theta, s = np.linalg.eigh(t)
            resid, scale = beta * abs(s[-1, 0]), max(1.0, abs(theta[0]))
            gap = theta[1] - theta[0] if j > 1 else 0.0
            goal = max(1e-10 * scale, np.sqrt(1e-14 * scale * gap))
            if resid <= goal:
                return float(theta[0])
            j0, r0 = last or (1, betas[0])
            ahead = (j - j0) * np.log(goal / resid) / np.log(resid / r0) if resid < r0 else 16
            check, last = j + int(np.clip(np.ceil(ahead), 1, 16)), (j, resid)
        v_prev, v = v, w / beta
    raise RuntimeError(f"Lanczos did not converge in {_MAX_STEPS} steps: "
                       f"Ritz residual {resid:.3e} at theta = {theta[0]:.16g}")


def _lowest(op: LinearizedOperator, constraints=None) -> float:
    """Smallest lambda of A z = lambda B z over z L^2-orthogonal to constraints.

    B is diagonal in Fourier space (the weight h, common to A and B, is left
    out of both), so the pencil is the standard problem for B^{-1/2} A B^{-1/2},
    solved by _lanczos_min from op.scaled_apply.  constraints, (k, m, n), lie
    on the H^1 rows; orthogonality to c is orthogonality to B^{-1/2} c.
    """
    shape = op.multiplier.shape[1:]

    def matvec(y):
        return op.scaled_apply(y.reshape(shape)).ravel()

    v = np.ones(op.multiplier[0].size)
    if constraints is None:
        return _lanczos_min(matvec, v)
    basis = np.zeros((len(v), len(constraints)))
    basis[: constraints[0].size] = np.linalg.qr(np.fft.irfft(
        op.h1_scale * np.fft.rfft(constraints), shape[1]).reshape(len(constraints), -1).T)[0]

    # shifted(y) = P S P y + 10 (I - P) y, S = B^{-1/2} A B^{-1/2} and
    # P = I - basis basis^T, with one projection.  Every minimum sought lies
    # below 1 (a high-k mode, or a pure (n, v) field, already gives a Rayleigh
    # quotient below 1), so the constraint directions, at 10, never win.
    def shifted(y):
        c = basis.T @ y
        sp = matvec(y - basis @ c)
        return sp + basis @ (10.0 * c - basis.T @ sp)

    return _lanczos_min(shifted, v - basis @ (basis.T @ v))


def coercivity_nls(grid: Grid) -> dict:
    """Constrained minimum of the linearized quadratic form on the H^1 sphere.

    Minimizes <L_plus a, a> + <L_minus b, b> subject to ||a||_{H^1}^2 +
    ||b||_{H^1}^2 = 1 and the orthogonality constraints <a, Q> = <a, yQ> =
    <b, LambdaQ> = 0 (L^2 pairings).  The form is block diagonal in (a, b),
    so the minimum is the smaller of two independent constrained generalized
    eigenvalues.
    """
    def block(op, constraints):
        return {"constrained": _lowest(op, constraints), "unconstrained": _lowest(op)}

    plus = block(LinearizedOperator.plus(grid),
                 np.stack([ground_state(grid), y_ground_state(grid)])[:, None])
    minus = block(LinearizedOperator.minus(grid), lambda_q(grid)[None, None])
    return {
        "lambda_min_constrained": min(plus["constrained"], minus["constrained"]),
        "lambda_min_unconstrained": min(plus["unconstrained"], minus["unconstrained"]),
        "plus_block": plus,
        "minus_block": minus,
    }


def _h2_operator(grid: Grid, params: SolitonParams, t: float = 0.0):
    """h2_coercivity's operator on [Re eta_u; Im eta_u; eta_n; eta_v], and its constraints."""
    c, w = params.c, np.sqrt(1.0 - params.c**2)
    x_rel, f, _, lam, _, _, cg, sg = _directions(grid, c, params.omega, c * t + params.sigma,
                                                 params.gamma, t, params.omega)
    k = grid.wavenumbers[: grid.n_points // 2 + 1]
    # -c Im(conj(eta_u) d_x eta_u) couples Re and Im eta_u through -c ik
    symbol = np.array([[k**2, -1j * c * k], [1j * c * k, k**2]])
    pot, fc, fs, one, zero = params.nu - f**2, w * f * cg, w * f * sg, np.ones_like(f), 0 * f
    mult = np.array([[pot, zero, fc, zero], [zero, pot, fs, zero],
                     [fc, fs, 0.5 * one, -0.5 * c * one], [zero, zero, -0.5 * c * one, 0.5 * one]])
    constraints = np.array([[f * cg, f * sg], [x_rel * f * cg, x_rel * f * sg],
                            [-lam * sg, lam * cg]])
    return LinearizedOperator(grid, symbol, mult), constraints


def h2_coercivity(grid: Grid, params: SolitonParams, t: float = 0.0) -> dict:
    """Constrained minimum of the one-soliton G21 over the coupled (eta_u,
    eta_n, eta_v), that is of

        int |d_x eta_u|^2 + nu |eta_u|^2 - c (Im(conj(eta_u) d_x eta_u) + eta_n eta_v)
            + (eta_n^2 + eta_v^2)/2 + 2 eta_n Re(conj(u_S) eta_u) + n_S |eta_u|^2

    with (u_S, n_S) the wave at time t, as functionals.weinstein_decompose
    evaluates it.  Unknowns are stacked as z = [Re eta_u; Im eta_u; eta_n; eta_v] in R^{4n};
    normalization is the quadratic bold-H sphere ||eta_u||_{H^1}^2 +
    ||eta_n||^2 + ||eta_v||^2 = 1 and the constraints are the modulation
    directions (phi, x phi, i Lambda_omega) with the wave's phases.
    """
    op, constraints = _h2_operator(grid, params, t)
    return {
        "omega": params.omega,
        "c": params.c,
        "lambda_min_constrained": _lowest(op, constraints),
        "lambda_min_unconstrained": _lowest(op),
        "grid": {"n_points": grid.n_points, "box_length": grid.box_length},
    }


def young_mu(config: MultiSolitonConfig) -> dict:
    """Uniform lower-bound constants for the localized quadratic density.

    That density is the profile-free part of G21's integrand around soliton k,

        q_k = |d_x eta_u|^2 + nu_k |eta_u|^2
              - c_k (Im(conj(eta_u) d_x eta_u) + eta_n eta_v) + (eta_n^2 + eta_v^2)/2.

    mu_1 covers the c = 0 reduction; mu_2 covers c != 0 after splitting the
    Im(conj(eta_u) d_x eta_u) cross term by Young's inequality with the
    pulsation-adapted weight.  mu = min(mu_1, mu_2) makes the pointwise bound
    q_k >= mu (|d_x eta_u|^2 + |eta_u|^2 + eta_n^2 + eta_v^2) hold for
    every soliton in the family.
    """
    mu_1 = min(min(0.5 * p.omega + 0.25 * p.c**2, 0.5) for p in config.solitons)
    mu_2 = min(
        min(p.omega / (p.omega + p.c**2), 0.25 * p.omega, 0.5 * (1.0 - abs(p.c)))
        for p in config.solitons
    )
    return {"mu_1": mu_1, "mu_2": mu_2, "mu": min(mu_1, mu_2)}
