"""Linearized operators around the ground state and coercive quadratic forms.

Linearizing the cubic Schrödinger reduction around Q(y) = sqrt(2) sech(y)
produces

    L_plus  = -d^2/dy^2 + 1 - 3 Q^2   (acts on the real part),
    L_minus = -d^2/dy^2 + 1 - Q^2     (acts on the imaginary part),

whose kernels are spanned by Q' and Q.  The stability machinery rests on the
quadratic form <L_plus a, a> + <L_minus b, b> being positive definite on the
H^1 sphere once a is orthogonal to Q and yQ and b is orthogonal to
LambdaQ = (Q + yQ')/2; this module estimates that constrained minimum by a
dense generalized symmetric eigensolve.  It also evaluates one weighted
quadratic form, h2_form, of the full (eta_u, eta_n, eta_v) linearization
around a single traveling wave: unweighted, or with a cutoff or an
exponential localization weight on its quadratic part.

The localization weight Phi_B interpolates between 1 on [0, B] and
e^{-|x|/B} beyond 2B through a C^2 monotone transition built in log space,
keeping e^{-|x|/B} <= Phi_B <= 3 e^{-|x|/B} everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, null_space

from .grid import Grid, quadrature, spectral_derivative
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
    "derivative_matrix",
    "stiffness_matrix",
    "spectrum",
    "coercivity_nls",
    "WeightPhiB",
    "q_density",
    "coupling_density",
    "h2_form",
    "h2_coercivity",
    "young_mu",
]


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
        """Dense symmetric discretization (spectral stiffness + diagonal)."""
        mat = stiffness_matrix(self.grid) + np.diag(self.potential)
        return 0.5 * (mat + mat.T)


def derivative_matrix(grid: Grid, order: int = 1):
    """Dense spectral differentiation matrix (real, exact on grid modes)."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    mult = (1j * grid.wavenumbers) ** order
    mat = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(grid.n_points), axis=0), axis=0)
    return np.ascontiguousarray(mat.real)


def stiffness_matrix(grid: Grid):
    """Dense matrix of -d^2/dx^2 with the full k^2 symbol.

    Not the same as d1.T @ d1: the real first-derivative matrix annihilates
    the Nyquist mode, so its square misses that channel, whereas the second
    derivative used by apply() keeps it.
    """
    mult = grid.wavenumbers**2
    mat = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(grid.n_points), axis=0), axis=0)
    return np.ascontiguousarray(mat.real)


def spectrum(op: LinearizedOperator, n_eigs: int):
    """Lowest n_eigs eigenpairs of the discretized operator.

    Eigenfields are returned as columns, normalized to unit L^2 quadrature.
    Raises on eigensolver failure with the residual norms attached.
    """
    if not 1 <= n_eigs <= op.grid.n_points:
        raise ValueError("n_eigs must lie in 1..n_points")
    mat = op.matrix()
    vals, vecs = eigh(mat, subset_by_index=[0, n_eigs - 1])
    resid = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    if not np.all(resid < 1e-6 * max(1.0, np.max(np.abs(vals)))):
        raise RuntimeError(f"eigensolve residuals too large: {resid}")
    vecs = vecs / np.sqrt(op.grid.spacing)
    return vals, vecs


def _constrained_min(a, b, constraints):
    """Smallest generalized eigenvalue of (a, b) restricted off the constraints.

    constraints is an (n, m) array of L^2 constraint directions; the problem
    is projected on their orthogonal complement before the symmetric solve.
    """
    z = null_space(constraints.T)
    az = z.T @ a @ z
    bz = z.T @ b @ z
    vals = eigh(0.5 * (az + az.T), 0.5 * (bz + bz.T), subset_by_index=[0, 0],
                eigvals_only=True)
    return float(vals[0])


def coercivity_nls(grid: Grid) -> dict:
    """Constrained minimum of the linearized quadratic form on the H^1 sphere.

    Minimizes <L_plus a, a> + <L_minus b, b> subject to ||a||_{H^1}^2 +
    ||b||_{H^1}^2 = 1 and the orthogonality constraints <a, Q> = <a, yQ> =
    <b, LambdaQ> = 0 (L^2 pairings).  The form is block diagonal in (a, b),
    so the minimum is the smaller of two independent constrained generalized
    eigenvalues.
    """
    h = grid.spacing
    n = grid.n_points
    q = ground_state(grid)
    lam_q = lambda_q(grid)
    stiff = stiffness_matrix(grid)
    a_plus = h * (stiff + np.diag(1.0 - 3.0 * q**2))
    a_minus = h * (stiff + np.diag(1.0 - q**2))
    gram = h * (np.eye(n) + stiff)

    plus_c = _constrained_min(a_plus, gram, np.stack([q, y_ground_state(grid)], axis=1))
    minus_c = _constrained_min(a_minus, gram, lam_q[:, None])
    plus_u = float(eigh(a_plus, gram, subset_by_index=[0, 0], eigvals_only=True)[0])
    minus_u = float(eigh(a_minus, gram, subset_by_index=[0, 0], eigvals_only=True)[0])

    return {
        "lambda_min_constrained": min(plus_c, minus_c),
        "lambda_min_unconstrained": min(plus_u, minus_u),
        "plus_block": {"constrained": plus_c, "unconstrained": plus_u},
        "minus_block": {"constrained": minus_c, "unconstrained": minus_u},
    }


@dataclass(frozen=True)
class WeightPhiB:
    """Even decreasing weight: 1 on [0, B], e^{-|x|/B} beyond 2B.

    On [B, 2B] the weight is e^{m(s) - |x|/B} with s = |x|/B - 1 and m a C^2
    log-margin: a quartic with m(0) = m'(0) = 1 rising to its flat maximum
    1 + s_star/2 at s_star, then a quintic smoothstep descent to m(1) = 0.
    m stays in [0, 1 + s_star/2] and m' <= 1, which gives monotonicity and
    the two-sided bound e^{-|x|/B} <= Phi_B <= 3 e^{-|x|/B} (the realized
    upper constant is e^{1 + s_star/2} ~ 2.93 < 3).
    """

    B: float
    s_star: float = 0.15

    def __post_init__(self):
        if not self.B > 0:
            raise ValueError("weight scale B must be positive")
        if not 0.0 < self.s_star < 1.0:
            raise ValueError("transition knee s_star must lie in (0, 1)")

    @property
    def max_ratio(self) -> float:
        return float(np.exp(1.0 + 0.5 * self.s_star))

    def _log_margin(self, s):
        sst = self.s_star
        peak = 1.0 + 0.5 * sst
        m = np.empty_like(s)
        lo = s <= sst
        m[lo] = 1.0 + s[lo] - s[lo] ** 3 / sst**2 + s[lo] ** 4 / (2.0 * sst**3)
        tau = (s[~lo] - sst) / (1.0 - sst)
        m[~lo] = peak * (1.0 - tau**3 * (10.0 + tau * (-15.0 + 6.0 * tau)))
        return m

    def profile(self, r):
        """The unscaled shape Phi(r) (vectorized; depends on |r| only)."""
        r = np.abs(np.asarray(r, dtype=float))
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.exp(-r)
        near = r <= 1.0
        mid = (r > 1.0) & (r < 2.0)
        out[near] = 1.0
        out[mid] = np.exp(self._log_margin(r[mid] - 1.0) - r[mid])
        return out[0] if scalar else out

    def values(self, grid: Grid, center: float = 0.0):
        """Phi_B(x - center) on the grid (periodically wrapped argument)."""
        return self.profile(grid.wrap(grid.x - center) / self.B)


def q_density(grid: Grid, eta_u, eta_n, eta_v, nu: float, c: float):
    """Pointwise localized quadratic density of the traveling-wave form."""
    ux = spectral_derivative(grid, eta_u, 1)
    return (
        np.abs(ux) ** 2
        + nu * np.abs(eta_u) ** 2
        - c * (eta_n * eta_v + np.imag(np.conj(eta_u) * ux))
        + 0.5 * (eta_n**2 + eta_v**2)
    )


def coupling_density(grid: Grid, eta_u, eta_n, params: SolitonParams, t: float = 0.0):
    """Profile-coupling density 2 sqrt(1-c^2) phi eta_n Re(e^{i Gamma}
    conj(eta_u)) - phi^2 |eta_u|^2 of the wave centered at c t + sigma."""
    center = params.c * t + params.sigma
    f = phi(grid, params.omega, center)
    gam = soliton_phase(grid, params.c, params.omega, params.gamma, t, center)
    w = np.sqrt(1.0 - params.c**2)
    return (
        2.0 * w * f * eta_n * np.real(np.exp(1j * gam) * np.conj(eta_u))
        - f**2 * np.abs(eta_u) ** 2
    )


def h2_form(grid: Grid, eta_u, eta_n, eta_v, params: SolitonParams, t: float = 0.0,
            weight=None) -> float:
    """Quadratic form of the linearization around one traveling wave.

    weight, if given, localizes the quadratic part; the coupling part stays
    unweighted (the profile already localizes it).  It is an array of grid
    values (a cutoff chi, say) or a WeightPhiB, which is centered on the wave
    and needs 2B < box_length/2 to fit in the box.
    """
    dens = q_density(grid, eta_u, eta_n, eta_v, params.nu, params.c)
    if isinstance(weight, WeightPhiB):
        if not 2.0 * weight.B < 0.5 * grid.box_length:
            raise ValueError("weight needs 2B < box_length/2 to fit in the box")
        weight = weight.values(grid, center=params.c * t + params.sigma)
    if weight is not None:
        dens = np.asarray(weight) * dens
    return quadrature(grid, dens + coupling_density(grid, eta_u, eta_n, params, t))


def h2_coercivity(grid: Grid, params: SolitonParams, t: float = 0.0) -> dict:
    """Constrained minimum of h2_form over the coupled (eta_u, eta_n, eta_v).

    Unknowns are stacked as z = [Re eta_u; Im eta_u; eta_n; eta_v] in R^{4n};
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

    d1 = derivative_matrix(grid, 1)
    stiff = stiffness_matrix(grid)
    eye = np.eye(n)
    diag_u = np.diag(params.nu - f**2)

    a = np.zeros((4 * n, 4 * n))
    sl = [slice(k * n, (k + 1) * n) for k in range(4)]
    a[sl[0], sl[0]] = stiff + diag_u
    a[sl[1], sl[1]] = stiff + diag_u
    # -c Im(conj(eta_u) d_x eta_u) = -c (a db - b da) pointwise
    a[sl[0], sl[1]] = -c * d1
    a[sl[1], sl[0]] = c * d1
    a[sl[2], sl[0]] = np.diag(2.0 * w * f * cg)
    a[sl[2], sl[1]] = np.diag(2.0 * w * f * sg)
    a[sl[2], sl[2]] = 0.5 * eye
    a[sl[3], sl[3]] = 0.5 * eye
    a[sl[2], sl[3]] = -c * eye
    a = h * 0.5 * (a + a.T)

    b = np.zeros_like(a)
    b[sl[0], sl[0]] = h * (eye + stiff)
    b[sl[1], sl[1]] = h * (eye + stiff)
    b[sl[2], sl[2]] = h * eye
    b[sl[3], sl[3]] = h * eye

    zero = np.zeros(n)
    constraints = np.stack([
        np.concatenate([f * cg, f * sg, zero, zero]),
        np.concatenate([x_rel * f * cg, x_rel * f * sg, zero, zero]),
        np.concatenate([-lam * sg, lam * cg, zero, zero]),
    ], axis=1)

    lam_c = _constrained_min(a, b, constraints)
    lam_u = float(eigh(a, b, subset_by_index=[0, 0], eigvals_only=True)[0])
    return {
        "omega": params.omega,
        "c": params.c,
        "lambda_min_constrained": lam_c,
        "lambda_min_unconstrained": lam_u,
        "grid": {"n_points": n, "box_length": grid.box_length},
    }


def young_mu(config: MultiSolitonConfig) -> dict:
    """Uniform lower-bound constants for the localized quadratic density.

    mu_1 covers the c = 0 reduction; mu_2 covers c != 0 after splitting the
    Im(conj(eta_u) d_x eta_u) cross term by Young's inequality with the
    pulsation-adapted weight.  mu = min(mu_1, mu_2) makes the pointwise bound
    q_density >= mu (|d_x eta_u|^2 + |eta_u|^2 + eta_n^2 + eta_v^2) hold for
    every soliton in the family.
    """
    mu_1 = min(min(0.5 * p.omega + 0.25 * p.c**2, 0.5) for p in config.solitons)
    mu_2 = min(
        min(p.omega / (p.omega + p.c**2), 0.25 * p.omega, 0.5 * (1.0 - abs(p.c)))
        for p in config.solitons
    )
    return {"mu_1": mu_1, "mu_2": mu_2, "mu": min(mu_1, mu_2)}
