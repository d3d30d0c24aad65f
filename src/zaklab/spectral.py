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
matrix-free by a three-term Lanczos recurrence in numpy on the matvec, and
spectrum() alone builds a dense matrix from the action.  h2_coercivity
minimizes, over the (eta_u, eta_n, eta_v) linearization around one traveling
wave, the one-soliton G21 of functionals.weinstein_decompose (K = 1, so the
cutoff is 1): the localized quadratic part of the Weinstein functional that
functionals.csv audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid
from .profiles import (
    MultiSolitonConfig,
    SolitonParams,
    ground_state,
    lambda_omega,
    lambda_q,
    phi,
    soliton_phase,
    y_ground_state,
)

__all__ = [
    "LinearizedOperator",
    "spectrum",
    "coercivity_nls",
    "h2_coercivity",
    "young_mu",
]

# Largest grid a dense solve accepts, and the n x n float arrays at the peak
# of one: spectrum()'s full eigh holds about six (the matrix, LAPACK's copy of
# it, all n eigenvectors and the workspace), 805 MB at this size; one call at
# n = 2048 raises peak RSS by about 195 MB.  matrix() alone holds four.
_DENSE_MAX_POINTS = 4096
_DENSE_PEAK_ARRAYS = 6
# Step budget of one Lanczos solve.  The coercivity solves converge in 8-64
# steps at n = 512 and n = 2048.
_LANCZOS_STEPS = 512


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
        """A z for z of shape (b, n); a one-row operator also takes a field (n,)."""
        if np.ndim(z) == 1:
            return self.apply(np.asarray(z)[None])[0]
        m = len(self.symbol)
        az = np.einsum("ijx,jx->ix", self.multiplier, z)
        az[:m] += np.fft.irfft(np.einsum("ijk,jk->ik", self.symbol, np.fft.rfft(z[:m])),
                               self.grid.n_points)
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

    def matrix(self):
        """Dense symmetric matrix of a one-row operator: apply() on each unit
        vector, symmetrized.

        Refuses grids above _DENSE_MAX_POINTS before allocating anything.
        """
        n = self.grid.n_points
        if n > _DENSE_MAX_POINTS:
            raise ValueError(f"a dense eigensolve on n = {n} points needs about "
                             f"{_DENSE_PEAK_ARRAYS * n * n * 8} bytes; "
                             f"the limit is n = {_DENSE_MAX_POINTS}")
        mat = np.stack([self.apply(e) for e in np.eye(n)], axis=1)
        return 0.5 * (mat + mat.T)


def spectrum(op: LinearizedOperator, n_eigs: int):
    """Lowest n_eigs eigenpairs of the discretized operator.

    Eigenfields are returned as columns, normalized to unit L^2 quadrature.
    Raises on eigensolver failure with the residual norms attached.
    """
    if not 1 <= n_eigs <= op.grid.n_points:
        raise ValueError("n_eigs must lie in 1..n_points")
    mat = op.matrix()
    vals, vecs = np.linalg.eigh(mat)
    vals, vecs = vals[:n_eigs], vecs[:, :n_eigs]
    resid = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    if not np.all(resid < 1e-6 * max(1.0, np.max(np.abs(vals)))):
        raise RuntimeError(f"eigensolve residuals too large: {resid}")
    vecs = vecs / np.sqrt(op.grid.spacing)
    return vals, vecs


def _lanczos_min(matvec, v) -> float:
    """Smallest eigenvalue of the symmetric operator matvec, by Lanczos from v.

    The plain three-term recurrence, with no stored basis and no
    reorthogonalization: lost orthogonality only repeats Ritz values that have
    already converged (Paige 1976), so the extreme one stays accurate.  Every 8
    steps the tridiagonal T is diagonalized; the solve stops once the lowest
    Ritz pair's residual beta_j |s_{j,0}| is <= 1e-10 max(1, |theta|), or at
    once on an invariant subspace (beta = 0).
    """
    alphas, betas = [], []
    v = v / np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    beta = 0.0
    for j in range(1, _LANCZOS_STEPS + 1):
        w = matvec(v) - beta * v_prev
        alpha = float(v @ w)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0 or j % 8 == 0 or j == _LANCZOS_STEPS:
            t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
            theta, s = np.linalg.eigh(t)
            resid = beta * abs(s[-1, 0])
            if resid <= 1e-10 * max(1.0, abs(theta[0])):
                return float(theta[0])
        v_prev, v = v, w / beta
    raise RuntimeError(f"Lanczos did not converge in {_LANCZOS_STEPS} steps: "
                       f"Ritz residual {resid:.3e} at theta = {theta[0]:.16g}")


def _lowest(op: LinearizedOperator, constraints=None) -> float:
    """Smallest lambda of A z = lambda B z over z L^2-orthogonal to constraints.

    B is diagonal in Fourier space (the weight h, common to A and B, is left
    out of both), so the pencil is the standard problem for B^{-1/2} A B^{-1/2},
    solved by _lanczos_min from op.scaled_apply.  constraints, (k, m, n), lie
    on the H^1 rows; orthogonality to c is orthogonality to B^{-1/2} c.
    """
    shape = op.multiplier.shape[1:]
    basis = np.zeros((op.multiplier[0].size, 0 if constraints is None else len(constraints)))
    if constraints is not None:
        basis[: constraints[0].size] = np.linalg.qr(np.fft.irfft(
            op.h1_scale * np.fft.rfft(constraints), shape[1]).reshape(len(constraints), -1).T)[0]

    def project(y):
        return y - basis @ (basis.T @ y)

    # Constraint directions get eigenvalue 10.  Every minimum sought lies
    # below 1 (a high-k mode, or a pure (n, v) field, already gives a
    # Rayleigh quotient below 1), so the shifted directions never win.
    def matvec(y):
        p = project(y)
        return project(op.scaled_apply(p.reshape(shape)).ravel()) + 10.0 * (y - p)

    return _lanczos_min(matvec, project(np.ones(len(basis))))


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
    center = params.c * t + params.sigma
    x_rel = grid.wrap(grid.x - center)
    f = phi(grid, params.omega, center)
    lam = lambda_omega(grid, params.omega, center)
    gam = soliton_phase(grid, params.c, params.omega, params.gamma, t, center)
    cg, sg, w, c = np.cos(gam), np.sin(gam), np.sqrt(1.0 - params.c**2), params.c
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
