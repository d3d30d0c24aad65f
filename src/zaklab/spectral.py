"""Linearized operators around the ground state and coercive quadratic forms.

Linearizing the cubic Schrödinger reduction around Q(y) = sqrt(2) sech(y)
produces

    L_plus  = -d^2/dy^2 + 1 - 3 Q^2   (acts on the real part),
    L_minus = -d^2/dy^2 + 1 - Q^2     (acts on the imaginary part),

whose kernels are spanned by Q' and Q.  The stability machinery rests on the
quadratic form <L_plus a, a> + <L_minus b, b> being positive definite on the
H^1 sphere once a is orthogonal to Q and yQ and b is orthogonal to
LambdaQ = (Q + yQ')/2.  Each operator is defined once, by its FFT action;
this module estimates such constrained minima matrix-free, by a three-term
Lanczos recurrence in numpy on the pencil whose H^1 / L^2 norm is diagonal
in Fourier space.  spectrum() alone builds a dense matrix, column by column
from that action.  h2_coercivity minimizes, over the full (eta_u, eta_n,
eta_v) linearization around a single traveling wave, the form G21 of
functionals.weinstein_decompose for that one soliton (K = 1, so the cutoff is
1): the localized quadratic part of the Weinstein functional, which the
functionals.csv audit evaluates along runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, spectral_derivative
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
    """-d^2/dx^2 + potential with a sech-squared potential well.

    kind "plus" carries 1 - 3Q^2, kind "minus" carries 1 - Q^2, both centered
    at the origin of the grid.
    """

    kind: str
    grid: Grid
    potential: np.ndarray

    @classmethod
    def plus(cls, grid: Grid) -> "LinearizedOperator":
        q = ground_state(grid)
        return cls(kind="plus", grid=grid, potential=1.0 - 3.0 * q**2)

    @classmethod
    def minus(cls, grid: Grid) -> "LinearizedOperator":
        q = ground_state(grid)
        return cls(kind="minus", grid=grid, potential=1.0 - q**2)

    def apply(self, f):
        f = np.asarray(f)
        if f.shape != (self.grid.n_points,):
            raise ValueError("field shape does not match the operator's grid")
        return -spectral_derivative(self.grid, f, 2) + self.potential * f

    def matrix(self):
        """Dense symmetric matrix: apply() on each unit vector, symmetrized.

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


def _lowest(grid: Grid, h1_blocks, apply, constraints=None) -> float:
    """Smallest lambda of A z = lambda B z over z L^2-orthogonal to constraints.

    z stacks one length-n block per entry of h1_blocks; apply(z) is A z, with
    the quadrature weight h included.  B is the Gram matrix of the norm,
    h (1 + k^2) on H^1 blocks and h on L^2 blocks, diagonal in Fourier space,
    so the pencil becomes the standard problem for B^{-1/2} A B^{-1/2}, which
    the three-term Lanczos of _lanczos_min solves from FFT matvecs alone.
    constraints is an (n_blocks * n, m) array of directions.
    """
    n = grid.n_points
    n_blocks = len(h1_blocks)
    k = np.abs(grid.wavenumbers[: n // 2 + 1])
    inv_sqrt_h1 = 1.0 / np.sqrt(grid.spacing * (1.0 + k**2))
    inv_sqrt_l2 = 1.0 / np.sqrt(grid.spacing)

    def scale(z):  # B^{-1/2} z, blockwise; z is one vector or a column stack
        blocks = np.reshape(z, (n_blocks, n, -1))
        return np.concatenate([
            np.fft.irfft(inv_sqrt_h1[:, None] * np.fft.rfft(b, axis=0), n, axis=0)
            if h1 else inv_sqrt_l2 * b
            for b, h1 in zip(blocks, h1_blocks)
        ]).reshape(np.shape(z))

    size = n_blocks * n
    basis = (np.linalg.qr(scale(constraints))[0] if constraints is not None
             else np.empty((size, 0)))

    def project(y):
        return y - basis @ (basis.T @ y)

    # Constraint directions get eigenvalue 10.  Every minimum sought lies
    # below 1 (a high-k mode, or a pure (n, v) field, already gives a
    # Rayleigh quotient below 1), so the shifted directions never win.
    def matvec(y):
        p = project(y)
        return project(scale(apply(scale(p)))) + 10.0 * (y - p)

    return _lanczos_min(matvec, project(np.ones(size)))


def coercivity_nls(grid: Grid) -> dict:
    """Constrained minimum of the linearized quadratic form on the H^1 sphere.

    Minimizes <L_plus a, a> + <L_minus b, b> subject to ||a||_{H^1}^2 +
    ||b||_{H^1}^2 = 1 and the orthogonality constraints <a, Q> = <a, yQ> =
    <b, LambdaQ> = 0 (L^2 pairings).  The form is block diagonal in (a, b),
    so the minimum is the smaller of two independent constrained generalized
    eigenvalues.
    """
    h = grid.spacing

    def block(op, constraints):
        def apply(z):
            return h * op.apply(z)
        return {"constrained": _lowest(grid, (True,), apply, constraints),
                "unconstrained": _lowest(grid, (True,), apply)}

    plus = block(LinearizedOperator.plus(grid),
                 np.stack([ground_state(grid), y_ground_state(grid)], axis=1))
    minus = block(LinearizedOperator.minus(grid), lambda_q(grid)[:, None])
    return {
        "lambda_min_constrained": min(plus["constrained"], minus["constrained"]),
        "lambda_min_unconstrained": min(plus["unconstrained"], minus["unconstrained"]),
        "plus_block": plus,
        "minus_block": minus,
    }


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
    n = grid.n_points
    h = grid.spacing
    center = params.c * t + params.sigma
    x_rel = grid.wrap(grid.x - center)
    f = phi(grid, params.omega, center)
    lam = lambda_omega(grid, params.omega, center)
    gam = soliton_phase(grid, params.c, params.omega, params.gamma, t, center)
    cg, sg = np.cos(gam), np.sin(gam)
    w = np.sqrt(1.0 - params.c**2)
    c = params.c
    pot = params.nu - f**2

    def apply(z):
        # the symmetric operator of G21: -c Im(conj(eta_u) d_x eta_u)
        # pairs Re eta_u with d_x Im eta_u, the coupling pairs eta_n with eta_u
        a, b, en, ev = np.reshape(z, (4, n))
        return h * np.concatenate([
            -spectral_derivative(grid, a, 2) + pot * a
            - c * spectral_derivative(grid, b, 1) + w * f * cg * en,
            -spectral_derivative(grid, b, 2) + pot * b
            + c * spectral_derivative(grid, a, 1) + w * f * sg * en,
            w * f * (cg * a + sg * b) + 0.5 * en - 0.5 * c * ev,
            0.5 * ev - 0.5 * c * en,
        ])

    zero = np.zeros(n)
    constraints = np.stack([
        np.concatenate([f * cg, f * sg, zero, zero]),
        np.concatenate([x_rel * f * cg, x_rel * f * sg, zero, zero]),
        np.concatenate([-lam * sg, lam * cg, zero, zero]),
    ], axis=1)

    h1_blocks = (True, True, False, False)
    return {
        "omega": params.omega,
        "c": params.c,
        "lambda_min_constrained": _lowest(grid, h1_blocks, apply, constraints),
        "lambda_min_unconstrained": _lowest(grid, h1_blocks, apply),
        "grid": {"n_points": n, "box_length": grid.box_length},
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
