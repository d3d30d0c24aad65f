import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh, null_space

from zaklab import spectral
from zaklab.grid import Grid, quadrature, spectral_derivative
from zaklab.profiles import (
    MultiSolitonConfig,
    SolitonParams,
    ground_state,
    ground_state_prime,
    lambda_omega,
    lambda_q,
    phi,
    soliton_phase,
    y_ground_state,
)
from zaklab.spectral import (
    LinearizedOperator,
    coercivity_nls,
    h2_coercivity,
    spectrum,
    young_mu,
)
from zaklab.functionals import CutoffFamily, weinstein_decompose
from zaklab.dynamics import State, soliton_state
from zaklab.modulation import pi_from_config, residuals_and_jacobian

SEED = 42
GRID = Grid(1024, 40.0)


# --- dense oracle ----------------------------------------------------------------
# The pencils and the constrained eigensolve as the package assembled them
# before its matrix-free solver; the solver must reproduce their minima.  The
# matrix of a one-row operator is the one spectrum() diagonalized before it
# went matrix-free; its LOBPCG must reproduce that eigh.

def _operator_matrix(op: LinearizedOperator):
    """Dense symmetric matrix of a one-row operator: apply() on each unit
    vector, symmetrized."""
    mat = np.stack([op.apply(e) for e in np.eye(op.grid.n_points)], axis=1)
    return 0.5 * (mat + mat.T)


def _derivative_matrix(grid: Grid, order: int = 1):
    """Dense spectral differentiation matrix (real, exact on grid modes)."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    mult = (1j * grid.wavenumbers) ** order
    mat = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(grid.n_points), axis=0), axis=0)
    return np.ascontiguousarray(mat.real)


def _stiffness_matrix(grid: Grid):
    """Dense matrix of -d^2/dx^2 with the full k^2 symbol.

    Not the same as d1.T @ d1: the real first-derivative matrix annihilates
    the Nyquist mode, so its square misses that channel, whereas the second
    derivative used by apply() keeps it.
    """
    mult = grid.wavenumbers**2
    mat = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(grid.n_points), axis=0), axis=0)
    return np.ascontiguousarray(mat.real)


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


def _dense_coercivity_nls(grid: Grid) -> dict:
    h = grid.spacing
    n = grid.n_points
    q = ground_state(grid)
    lam_q = lambda_q(grid)
    stiff = _stiffness_matrix(grid)
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


def _dense_h2_coercivity(grid: Grid, params: SolitonParams, t: float = 0.0) -> dict:
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

    d1 = _derivative_matrix(grid, 1)
    stiff = _stiffness_matrix(grid)
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
    return {"lambda_min_constrained": lam_c, "lambda_min_unconstrained": lam_u}


# --- closure-based matvec oracle --------------------------------------------------
# The pencil matvec as the package wrote it before the fused Fourier-space
# LinearizedOperator.scaled_apply: B^{-1/2} per block around an apply()
# closure, 16 transforms per h2 matvec.  Kept verbatim; the fused solves must
# reproduce its minima.

def _closure_lowest(grid: Grid, h1_blocks, apply, constraints=None) -> float:
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

    def matvec(y):
        p = project(y)
        return project(scale(apply(scale(p)))) + 10.0 * (y - p)

    return spectral._lanczos_min(matvec, project(np.ones(size)))


def _closure_coercivity_nls(grid: Grid) -> dict:
    h = grid.spacing

    def block(op, constraints):
        def apply(z):
            return h * (-spectral_derivative(grid, z, 2) + op.multiplier[0, 0] * z)
        return {"constrained": _closure_lowest(grid, (True,), apply, constraints),
                "unconstrained": _closure_lowest(grid, (True,), apply)}

    return {"plus_block": block(LinearizedOperator.plus(grid),
                                np.stack([ground_state(grid), y_ground_state(grid)], axis=1)),
            "minus_block": block(LinearizedOperator.minus(grid), lambda_q(grid)[:, None])}


def _closure_h2_coercivity(grid: Grid, params: SolitonParams, t: float = 0.0) -> dict:
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
    return {"lambda_min_constrained": _closure_lowest(grid, h1_blocks, apply, constraints),
            "lambda_min_unconstrained": _closure_lowest(grid, h1_blocks, apply)}


# --- the fixed-schedule Lanczos oracle -------------------------------------------
# _lanczos_min as the package wrote it before its stop looked at the Ritz gap:
# the residual alone, checked every 8 steps.  Kept verbatim; the gap-aware stop
# must reproduce its minima.

_LANCZOS_STEPS = spectral._MAX_STEPS


def _fixed_schedule_lanczos_min(matvec, v) -> float:
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


# --- linearized operators ----------------------------------------------------

def test_kernel_identities():
    g = GRID
    plus = LinearizedOperator.plus(g)
    minus = LinearizedOperator.minus(g)
    q = ground_state(g)
    qp = ground_state_prime(g)
    assert np.max(np.abs(minus.apply(q))) < 1e-8
    assert np.max(np.abs(plus.apply(qp))) < 1e-8
    assert np.max(np.abs(minus.apply(y_ground_state(g)) + 2.0 * qp)) < 1e-8
    assert np.max(np.abs(plus.apply(lambda_q(g)) + q)) < 1e-8


@pytest.mark.parametrize("kind", ("plus", "minus"))
def test_apply_is_the_second_derivative_plus_the_potential(kind):
    rng = np.random.default_rng(SEED)
    g = Grid(256, 40.0)
    op = getattr(LinearizedOperator, kind)(g)
    f = rng.standard_normal(g.n_points)
    want = -spectral_derivative(g, f, 2) + op.multiplier[0, 0] * f
    assert np.max(np.abs(op.apply(f) - want)) <= 1e-12


def test_apply_matches_matrix():
    rng = np.random.default_rng(SEED)
    g = Grid(256, 40.0)
    op = LinearizedOperator.plus(g)
    f = rng.standard_normal(g.n_points)
    dense = _stiffness_matrix(g) + np.diag(op.multiplier[0, 0])
    assert np.max(np.abs(op.apply(f) - dense @ f)) < 1e-9
    # the oracle matrix, built from apply(), is the symmetrized stiffness-based matrix
    assert np.max(np.abs(_operator_matrix(op) - 0.5 * (dense + dense.T))) < 1e-12


@pytest.mark.parametrize("kind", ("plus", "h2"))
def test_apply_on_a_stack_is_apply_on_each_member(kind):
    # one call on an (m, b, n) stack, as spectrum() makes on its block, gives
    # the bits of m calls on the (b, n) members
    rng = np.random.default_rng(SEED)
    g = Grid(256, 40.0)
    op = (LinearizedOperator.plus(g) if kind == "plus"
          else spectral._h2_operator(g, SolitonParams(1.0, 0.5, 0.7, 0.2))[0])
    stack = rng.standard_normal((5, len(op.multiplier), g.n_points))
    assert np.array_equal(op.apply(stack), np.stack([op.apply(z) for z in stack]))


def test_derivative_matrix_matches_spectral():
    rng = np.random.default_rng(SEED)
    g = Grid(128, 20.0)
    d1 = _derivative_matrix(g, 1)
    f = np.exp(-g.x**2) * rng.standard_normal()  # smooth, decaying
    assert np.max(np.abs(d1 @ f - spectral_derivative(g, f, 1).real)) < 1e-10


def test_spectrum_of_plus_and_minus():
    g = Grid(2048, 40.0)
    vals_p, vecs_p = spectrum(LinearizedOperator.plus(g), 3)
    assert vals_p[0] == pytest.approx(-3.0, abs=1e-3)
    assert abs(vals_p[1]) < 1e-8
    vals_m, _ = spectrum(LinearizedOperator.minus(g), 2)
    assert vals_m[0] > -1e-8
    assert abs(vals_m[0]) < 1e-8
    # eigenvectors come back L2-normalized on the grid measure
    assert quadrature(g, vecs_p[:, 0] ** 2) == pytest.approx(1.0, rel=1e-10)


def test_spectrum_ground_mode_is_even():
    g = Grid(1024, 40.0)
    _, vecs = spectrum(LinearizedOperator.plus(g), 1)
    mode = vecs[:, 0]
    flipped = np.concatenate(([mode[0]], mode[1:][::-1]))
    assert np.max(np.abs(np.abs(mode) - np.abs(flipped))) < 1e-8


@pytest.mark.parametrize("n", (128, 256))
@pytest.mark.parametrize("n_eigs", (1, 2, 3))
@pytest.mark.parametrize("kind", ("plus", "minus"))
def test_spectrum_matches_the_dense_eigensolve(kind, n_eigs, n):
    op = getattr(LinearizedOperator, kind)(Grid(n, 40.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = spectrum(op, n_eigs)
    want, want_vecs = np.linalg.eigh(_operator_matrix(op))
    want, want_vecs = want[:n_eigs], want_vecs[:, :n_eigs] / np.sqrt(op.grid.spacing)
    assert np.all(np.abs(vals - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
    # only the isolated eigenvalues fix their eigenfields: the continuum
    # above 1 comes in nearly degenerate pairs, whose fields may mix
    for i in range(min(n_eigs, 2 if kind == "plus" else 1)):
        sign = np.sign(vecs[:, i] @ want_vecs[:, i])
        assert np.max(np.abs(sign * vecs[:, i] - want_vecs[:, i])) <= 1e-8


def test_spectrum_runs_a_grid_the_dense_eigensolve_refused_in_little_memory():
    # n = 16384 needed about 12.9 GB densely; the LOBPCG holds its blocks of
    # n-vectors and the FFTs of one apply() call on them
    n = 16384
    op = LinearizedOperator.plus(Grid(n, 40.0))
    tracemalloc.start()
    try:
        vals, _ = spectrum(op, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals[0] == pytest.approx(-3.0, abs=1e-8)
    assert peak < 64 * n * 8


def test_spectrum_checks_n_eigs():
    # a block of n_eigs + 2 rows and its W and P need 3 (n_eigs + 2) <= n
    op = LinearizedOperator.plus(Grid(64, 40.0))
    for n_eigs in (0, 20):
        with pytest.raises(ValueError, match=r"n_eigs must lie in 1\.\.19 for n = 64 points"):
            spectrum(op, n_eigs)
    assert len(spectrum(op, 19)[0]) == 19


def test_spectrum_refuses_to_run_past_its_budget(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match=r"LOBPCG did not converge in 1 steps: residuals \["):
        spectrum(LinearizedOperator.plus(Grid(256, 40.0)), 1)


# --- Lanczos ------------------------------------------------------------------------

def test_lanczos_finds_the_minimum_of_a_known_spectrum():
    rng = np.random.default_rng(SEED)
    diag = rng.uniform(-2.0, 5.0, 400)
    diag[137] = -3.25
    lam = spectral._lanczos_min(lambda y: diag * y, rng.standard_normal(400))
    assert abs(lam + 3.25) <= 1e-14 * 3.25


def test_lanczos_stops_on_an_invariant_subspace():
    # v spans the eigenspaces of -1.5 and 2.5 only, in exact binary
    # arithmetic: the second step has beta = 0 and the solve must return
    # there, without dividing by it
    diag = np.array([-1.5, -1.5, 2.5, 2.5, -4.0, 7.0])
    v = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    calls = []

    def matvec(y):
        calls.append(y)
        return diag * y

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = spectral._lanczos_min(matvec, v)
    assert lam == -1.5
    assert len(calls) == 2


def test_lanczos_refuses_to_run_past_its_budget(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_STEPS", 8)
    diag = np.linspace(0.0, 1.0, 500)
    with pytest.raises(RuntimeError, match="did not converge in 8 steps: Ritz residual"):
        spectral._lanczos_min(lambda y: diag * y, np.ones(500))


def _nls_quadratic_form(grid, eta):
    """<L_plus Re(eta), Re(eta)> + <L_minus Im(eta), Im(eta)>."""
    a, b = np.real(eta), np.imag(eta)
    return quadrature(grid, a * LinearizedOperator.plus(grid).apply(a)
                      + b * LinearizedOperator.minus(grid).apply(b))


def test_nls_quadratic_form_positive_on_gaussian():
    g = Grid(512, 40.0)
    eta = np.exp(-g.x**2) * (1.0 + 0.5j)
    val = _nls_quadratic_form(g, eta)
    assert isinstance(val, float)
    assert val != 0.0
    # the dense blocks that coercivity_nls minimizes give the same value
    q2 = ground_state(g) ** 2
    a, b = eta.real, eta.imag
    dense = g.spacing * (a @ (_stiffness_matrix(g) + np.diag(1.0 - 3.0 * q2)) @ a
                         + b @ (_stiffness_matrix(g) + np.diag(1.0 - q2)) @ b)
    assert dense == pytest.approx(val, rel=1e-10)


# --- constrained coercivity ----------------------------------------------------

def test_coercivity_nls_constrained_positive():
    out = coercivity_nls(Grid(512, 40.0))
    assert out["lambda_min_constrained"] > 0.0
    assert out["lambda_min_unconstrained"] < 0.0
    assert out["plus_block"]["constrained"] > 0.0
    assert out["minus_block"]["constrained"] > 0.0


@pytest.mark.parametrize("n", (16, 512))
def test_coercivity_nls_matches_dense_oracle(n):
    g = Grid(n, 40.0)
    out, ref = coercivity_nls(g), _dense_coercivity_nls(g)
    for block in ("plus_block", "minus_block"):
        for key in ("constrained", "unconstrained"):
            val, want = out[block][key], ref[block][key]
            if abs(want) < 1e-8:  # the minus block's kernel eigenvalue, ~0
                assert abs(val - want) <= 1e-12
            else:
                assert abs(val - want) <= 1e-10 * abs(want)
    for key in ("constrained", "unconstrained"):
        assert out[f"lambda_min_{key}"] == min(out["plus_block"][key], out["minus_block"][key])


def test_coercivity_nls_stable_under_grid_doubling():
    coarse = coercivity_nls(Grid(512, 40.0))["lambda_min_constrained"]
    fine = coercivity_nls(Grid(1024, 40.0))["lambda_min_constrained"]
    assert abs(fine - coarse) / coarse < 0.02


# --- quadratic forms around one soliton -----------------------------------------

def _random_direction(grid, rng, scale=1e-2):
    eta_u = scale * (rng.standard_normal(grid.n_points)
                     + 1j * rng.standard_normal(grid.n_points))
    eta_n = scale * rng.standard_normal(grid.n_points)
    eta_v = scale * rng.standard_normal(grid.n_points)
    return eta_u, eta_n, eta_v


def _g21(grid, eta_u, eta_n, eta_v, p, t):
    """G21 of the one-soliton config (p,) around its wave at time t; K = 1,
    so the cutoff is 1 whatever its width."""
    parts = weinstein_decompose(State(grid, t, eta_u, eta_n, eta_v), soliton_state(grid, p, t),
                                MultiSolitonConfig((p,)), CutoffFamily(L=1.0))
    return parts["G21"]


@pytest.mark.parametrize("p, t", [(SolitonParams(1.0, 0.0), 0.0),
                                  (SolitonParams(2.0, -0.4, 1.5, 0.7), 0.3),
                                  (SolitonParams(1.0, 0.5, 0.0, 0.3), 0.7)])
def test_weighted_h2_form_matches_the_three_old_forms(p, t):
    # oracle: the quadrature of the traveling-wave form written from the
    # closed-form profile, a quadratic density plus the profile coupling.
    # weinstein_decompose sums G(eps) - G22 - G3 + cross rather than one
    # density, so the two agree to rounding (1.1e-16 relative seen), not bits
    rng = np.random.default_rng(SEED + 5)
    g = Grid(512, 40.0)
    eta_u, eta_n, eta_v = _random_direction(g, rng)
    ux = spectral_derivative(g, eta_u, 1)
    q = (np.abs(ux) ** 2 + p.nu * np.abs(eta_u) ** 2
         - p.c * (eta_n * eta_v + np.imag(np.conj(eta_u) * ux))
         + 0.5 * (eta_n**2 + eta_v**2))
    center = p.c * t + p.sigma
    f = phi(g, p.omega, center)
    gam = soliton_phase(g, p.c, p.omega, p.gamma, t, center)
    cpl = (2.0 * np.sqrt(1.0 - p.c**2) * f * eta_n * np.real(np.exp(1j * gam) * np.conj(eta_u))
           - f**2 * np.abs(eta_u) ** 2)
    oracle = quadrature(g, q + cpl)
    assert abs(_g21(g, eta_u, eta_n, eta_v, p, t) - oracle) <= 1e-14 * abs(oracle)


# --- coupled constrained coercivity ----------------------------------------------

@pytest.mark.parametrize("omega", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("c", (-0.9, 0.0, 0.9))
def test_h2_coercivity_sweep_positive(omega, c):
    g = Grid(256, 40.0)
    out = h2_coercivity(g, SolitonParams(omega=omega, c=c))
    assert out["lambda_min_constrained"] > 0.0
    assert out["lambda_min_unconstrained"] < 0.0


@pytest.mark.parametrize("n, omega, c, sigma, gamma, t", [
    *((128, omega, c, 0.0, 0.0, 0.0) for omega in (0.5, 1.0, 2.0) for c in (-0.9, 0.0, 0.9)),
    (512, 1.0, 0.5, 0.0, 0.0, 0.0),
    (16, 1.0, 0.5, 0.0, 0.0, 0.0),
    # shifted and phase-rotated at t != 0: the constraints sit off the origin
    # and the coupling acts through both Re and Im eta_u
    (128, 2.0, -0.4, 1.5, 0.7, 0.3),
])
def test_h2_coercivity_matches_dense_oracle(n, omega, c, sigma, gamma, t):
    g = Grid(n, 40.0)
    p = SolitonParams(omega, c, sigma, gamma)
    out, ref = h2_coercivity(g, p, t), _dense_h2_coercivity(g, p, t)
    for key in ("lambda_min_constrained", "lambda_min_unconstrained"):
        assert abs(out[key] - ref[key]) <= 1e-10 * abs(ref[key])


@pytest.mark.parametrize("p, t", [(SolitonParams(1.0, 0.5), 0.0),
                                  (SolitonParams(2.0, -0.4, 1.5, 0.7), 0.3)])
def test_h2_coercivity_operator_is_the_h2_form(p, t):
    # h z^T (A z) of the operator h2_coercivity declares is the one-soliton G21 on
    # band-limited fields (no Nyquist content, where the two derivatives differ)
    g = Grid(256, 40.0)
    op, _ = spectral._h2_operator(g, p, t)
    rng = np.random.default_rng(SEED + 6)
    low = np.abs(g.wavenumbers) < 0.5 * np.abs(g.wavenumbers).max()

    def field():
        return np.fft.ifft(low * np.fft.fft(rng.standard_normal(g.n_points))).real

    z = np.array([field(), field(), field(), field()])
    form = _g21(g, z[0] + 1j * z[1], z[2], z[3], p, t)
    assert g.spacing * (z.ravel() @ op.apply(z).ravel()) == pytest.approx(form, rel=1e-13)


# --- the fused matvec against the closure-based one --------------------------------

_SHIFTED = (SolitonParams(2.0, -0.4, 1.5, 0.7), 0.3)
_H2_CASES = [*((SolitonParams(omega, c), 0.0) for omega in (0.5, 1.0, 2.0)
               for c in (-0.9, 0.0, 0.9)), _SHIFTED]


@pytest.mark.parametrize("n", (64, 128, 256))
@pytest.mark.parametrize("p, t", _H2_CASES)
def test_fused_h2_solves_match_the_closure_matvec(n, p, t):
    g = Grid(n, 40.0)
    out, ref = h2_coercivity(g, p, t), _closure_h2_coercivity(g, p, t)
    for key in ("lambda_min_constrained", "lambda_min_unconstrained"):
        assert abs(out[key] - ref[key]) <= 1e-12 * abs(ref[key])


@pytest.mark.parametrize("n", (256, 512))
@pytest.mark.parametrize("p, t", _H2_CASES)
def test_h2_constraints_are_the_fit_residual_rows(n, p, t):
    # at Pi^0 the three orthogonality residuals of a K = 1 fit are h times the
    # h2 constraints applied to [Re eps_u; Im eps_u]: G21 is minimized under
    # the conditions modulate sets to zero
    g = Grid(n, 40.0)
    cfg = MultiSolitonConfig((p,))
    rng = np.random.default_rng(SEED + 7)
    eps_u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    st = soliton_state(g, p, t)
    st = State(g, t, st.u + eps_u, st.n, st.v)
    res = residuals_and_jacobian(st, pi_from_config(cfg), cfg).residuals
    _, constraints = spectral._h2_operator(g, p, t)
    want = g.spacing * (constraints.reshape(3, -1) @ np.concatenate([eps_u.real, eps_u.imag]))
    assert np.max(np.abs(res - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", (64, 128, 256))
def test_fused_nls_solves_match_the_closure_matvec(n):
    # relative to max(1, |lambda|), the scale of _lanczos_min's own stopping
    # rule: the minus block's unconstrained minimum is its kernel eigenvalue,
    # -1.7e-4 at n = 64 and closer to 0 above, where the two solves differ by
    # under 1e-15 absolute
    g = Grid(n, 40.0)
    out, ref = coercivity_nls(g), _closure_coercivity_nls(g)
    for block in ("plus_block", "minus_block"):
        for key in ("constrained", "unconstrained"):
            val, want = out[block][key], ref[block][key]
            assert abs(val - want) <= 1e-12 * max(1.0, abs(want))


# --- the gap-aware stop against the fixed schedule ---------------------------------
# The Ritz value's error is at most residual^2 / gap, so the gap-aware stop may
# return a few steps earlier; the minima must agree to 1e-11 relative and 1e-13
# relative to max(1, |lambda|).  c = 0.95 and 0.99 have the smallest gaps.

def _close_to_the_fixed_schedule(val, want):
    return abs(val - want) <= min(1e-11 * abs(want), 1e-13 * max(1.0, abs(want)))


@pytest.mark.parametrize("n", (64, 128, 256))
@pytest.mark.parametrize("p, t", [*_H2_CASES, *((SolitonParams(1.0, c), 0.0) for c in (0.95, 0.99))])
def test_gap_aware_h2_solves_match_the_fixed_schedule(n, p, t, monkeypatch):
    g = Grid(n, 40.0)
    out = h2_coercivity(g, p, t)
    monkeypatch.setattr(spectral, "_lanczos_min", _fixed_schedule_lanczos_min)
    ref = h2_coercivity(g, p, t)
    for key in ("lambda_min_constrained", "lambda_min_unconstrained"):
        assert _close_to_the_fixed_schedule(out[key], ref[key]), (key, out[key], ref[key])


@pytest.mark.parametrize("n", (64, 128, 256))
def test_gap_aware_nls_solves_match_the_fixed_schedule(n, monkeypatch):
    # the minus block's unconstrained minimum, its kernel eigenvalue (-1.7e-4
    # at n = 64, |lambda| < 1e-9 above), is met at step 8 by both rules, from
    # the same matvecs, so it agrees exactly
    g = Grid(n, 40.0)
    out = coercivity_nls(g)
    monkeypatch.setattr(spectral, "_lanczos_min", _fixed_schedule_lanczos_min)
    ref = coercivity_nls(g)
    for block in ("plus_block", "minus_block"):
        for key in ("constrained", "unconstrained"):
            val, want = out[block][key], ref[block][key]
            assert _close_to_the_fixed_schedule(val, want), (block, key, val, want)


def test_gap_aware_stop_saves_matvecs(monkeypatch):
    # both solves of the shifted wave at n = 128: the constrained one stops at
    # step 40 (fixed schedule: 56), the unconstrained one at 17 (16)
    calls = []
    scaled_apply = LinearizedOperator.scaled_apply
    monkeypatch.setattr(LinearizedOperator, "scaled_apply",
                        lambda op, z: calls.append(z) or scaled_apply(op, z))
    g = Grid(128, 40.0)
    h2_coercivity(g, *_SHIFTED)
    assert len(calls) == 57
    calls.clear()
    monkeypatch.setattr(spectral, "_lanczos_min", _fixed_schedule_lanczos_min)
    h2_coercivity(g, *_SHIFTED)
    assert len(calls) == 72


def test_scaled_matvec_is_symmetric():
    rng = np.random.default_rng(SEED + 7)
    g = Grid(128, 40.0)
    ops = [LinearizedOperator.plus(g), LinearizedOperator.minus(g),
           *(spectral._h2_operator(g, p, t)[0] for p, t in _H2_CASES)]
    for op in ops:
        x, y = rng.standard_normal((2, *op.multiplier.shape[1:]))
        gap = np.sum(y * op.scaled_apply(x)) - np.sum(x * op.scaled_apply(y))
        assert abs(gap) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(y)


def test_one_h2_matvec_makes_four_fft_calls(monkeypatch):
    op, constraints = spectral._h2_operator(Grid(128, 40.0), *_SHIFTED)
    solves = []
    monkeypatch.setattr(spectral, "_lanczos_min", lambda matvec, v: solves.append((matvec, v)))
    spectral._lowest(op, constraints)
    (matvec, v), = solves
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2", "rfft2",
                 "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _inner=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    matvec(v)
    assert calls == ["rfft", "irfft", "rfft", "irfft"]


def test_coercivity_solves_are_repeatable():
    g = Grid(256, 40.0)
    p = SolitonParams(omega=1.0, c=0.9)
    assert repr(h2_coercivity(g, p)) == repr(h2_coercivity(g, p))
    assert repr(coercivity_nls(g)) == repr(coercivity_nls(g))


def test_h2_coercivity_stable_under_doubling():
    p = SolitonParams(omega=1.0, c=0.5)
    coarse = h2_coercivity(Grid(256, 40.0), p)["lambda_min_constrained"]
    fine = h2_coercivity(Grid(512, 40.0), p)["lambda_min_constrained"]
    assert abs(fine - coarse) / coarse < 0.02


# --- pointwise lower bound -------------------------------------------------------

def test_young_mu_formulas():
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5), SolitonParams(1.0, 0.5)))
    out = young_mu(cfg)
    assert out["mu_1"] == pytest.approx(min(0.5 + 0.0625, 0.5))
    assert out["mu_2"] == pytest.approx(min(1.0 / 1.25, 0.25, 0.25))
    assert out["mu"] == pytest.approx(min(out["mu_1"], out["mu_2"]))


def test_young_margin_no_violations():
    # sampled worst case of q_k - mu (|d_x eta_u|^2 + |eta_u|^2 + eta_n^2
    # + eta_v^2) over random pointwise values; equality cases exist (pure
    # (eta_n, eta_v) content when mu = 1/2), so it may touch 0 to rounding
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5), SolitonParams(1.0, 0.5)))
    mu = young_mu(cfg)["mu"]
    z = np.random.default_rng(0).standard_normal((6, 1_000_000))
    eu, dxu, en, ev = z[0] + 1j * z[1], z[2] + 1j * z[3], z[4], z[5]
    base = np.abs(dxu) ** 2 + np.abs(eu) ** 2 + en**2 + ev**2
    for p in cfg.solitons:
        dens = (np.abs(dxu) ** 2 + p.nu * np.abs(eu) ** 2
                - p.c * (en * ev + np.imag(np.conj(eu) * dxu)) + 0.5 * (en**2 + ev**2))
        assert np.min(dens - mu * base) >= -1e-12
