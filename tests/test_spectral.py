import numpy as np
import pytest

from zaklab.grid import Grid, quadrature, spectral_derivative
from zaklab.profiles import (
    MultiSolitonConfig,
    SolitonParams,
    ground_state,
    ground_state_prime,
    lambda_q,
    y_ground_state,
)
from zaklab.spectral import (
    LinearizedOperator,
    WeightPhiB,
    coercivity_nls,
    coupling_density,
    derivative_matrix,
    h2_coercivity,
    h2_form,
    q_density,
    spectrum,
    stiffness_matrix,
    young_mu,
)
from zaklab.functionals import CutoffFamily, weinstein_decompose
from zaklab.dynamics import State, multi_soliton_state

SEED = 42
GRID = Grid(1024, 40.0)


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


def test_apply_matches_matrix():
    rng = np.random.default_rng(SEED)
    g = Grid(256, 40.0)
    op = LinearizedOperator.plus(g)
    f = rng.standard_normal(g.n_points)
    assert np.max(np.abs(op.apply(f) - op.matrix() @ f)) < 1e-9


def test_derivative_matrix_matches_spectral():
    rng = np.random.default_rng(SEED)
    g = Grid(128, 20.0)
    d1 = derivative_matrix(g, 1)
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
    dense = g.spacing * (a @ (stiffness_matrix(g) + np.diag(1.0 - 3.0 * q2)) @ a
                         + b @ (stiffness_matrix(g) + np.diag(1.0 - q2)) @ b)
    assert dense == pytest.approx(val, rel=1e-10)


# --- constrained coercivity ----------------------------------------------------

def test_coercivity_nls_constrained_positive():
    out = coercivity_nls(Grid(512, 40.0))
    assert out["lambda_min_constrained"] > 0.0
    assert out["lambda_min_unconstrained"] < 0.0
    assert out["plus_block"]["constrained"] > 0.0
    assert out["minus_block"]["constrained"] > 0.0


def test_coercivity_nls_stable_under_grid_doubling():
    coarse = coercivity_nls(Grid(512, 40.0))["lambda_min_constrained"]
    fine = coercivity_nls(Grid(1024, 40.0))["lambda_min_constrained"]
    assert abs(fine - coarse) / coarse < 0.02


# --- exponential weight ---------------------------------------------------------

def test_weight_ratio_sandwich():
    w = WeightPhiB(B=4.0)
    g = Grid(4096, 80.0)
    vals = w.values(g, 0.0)
    r = np.abs(g.x) / 4.0
    ratio = vals / np.exp(-r)
    assert np.min(ratio) >= 1.0 - 1e-12
    assert np.max(ratio) <= 3.0
    assert np.max(ratio) == pytest.approx(w.max_ratio, abs=1e-6)


def test_weight_plateau_tail_and_monotonicity():
    w = WeightPhiB(B=2.0)
    r = np.linspace(0.0, 10.0, 20001)
    vals = w.profile(r)
    assert np.all(vals[r <= 1.0] == 1.0)
    far = r >= 2.0
    assert np.allclose(vals[far], np.exp(-r[far]), rtol=1e-12)
    assert np.all(np.diff(vals) <= 1e-15)


def test_weight_is_c2_at_the_joins():
    # one-sided second derivatives agree in the limit (only the third
    # derivative jumps); the mismatch at finite h must shrink linearly
    w = WeightPhiB(B=1.0)
    for joint in (1.0, 2.0):
        gaps = []
        for h in (1e-4, 1e-5):
            r = np.array([joint - 2 * h, joint - h, joint,
                          joint + h, joint + 2 * h])
            d2 = np.diff(w.profile(r), 2) / h**2
            gaps.append(abs(d2[0] - d2[-1]))
        assert gaps[0] < 0.05
        assert gaps[1] < 0.2 * gaps[0]


def test_weight_centering_and_scalar_input():
    w = WeightPhiB(B=3.0)
    g = Grid(1024, 40.0)
    vals = w.values(g, center=5.0)
    assert vals[np.argmin(np.abs(g.x - 5.0))] == 1.0
    assert w.profile(0.5) == 1.0
    assert w.profile(4.0) == pytest.approx(np.exp(-4.0))


# --- quadratic forms around one soliton -----------------------------------------

def _random_direction(grid, rng, scale=1e-2):
    eta_u = scale * (rng.standard_normal(grid.n_points)
                     + 1j * rng.standard_normal(grid.n_points))
    eta_n = scale * rng.standard_normal(grid.n_points)
    eta_v = scale * rng.standard_normal(grid.n_points)
    return eta_u, eta_n, eta_v


def test_h2_form_equals_single_soliton_quadratic_part():
    rng = np.random.default_rng(SEED)
    g = GRID
    p = SolitonParams(omega=1.0, c=0.5, sigma=0.0, gamma=0.3)
    cfg = MultiSolitonConfig((p,))
    fam = CutoffFamily.for_config(cfg, L=5.0)
    eta_u, eta_n, eta_v = _random_direction(g, rng)
    t = 0.7
    S = multi_soliton_state(g, cfg, t)
    eps = State(g, t, eta_u, eta_n, eta_v)
    parts = weinstein_decompose(eps, S, cfg, fam)
    val = h2_form(g, eta_u, eta_n, eta_v, p, t=t)
    assert val == pytest.approx(parts["G21"], rel=1e-12)


def test_chi_weighted_form_with_unit_weight():
    rng = np.random.default_rng(SEED + 1)
    g = GRID
    p = SolitonParams(omega=2.0, c=-0.4)
    eta = _random_direction(g, rng)
    full = h2_form(g, *eta, p, t=0.2)
    chi = h2_form(g, *eta, p, 0.2, weight=np.ones(g.n_points))
    assert chi == pytest.approx(full, rel=1e-12)


def test_h2b_form_needs_room_for_the_weight():
    rng = np.random.default_rng(SEED + 2)
    g = Grid(512, 40.0)
    p = SolitonParams(1.0, 0.0)
    eta = _random_direction(g, rng)
    val = h2_form(g, *eta, p, 0.0, weight=WeightPhiB(4.0))
    assert np.isfinite(val)
    with pytest.raises(ValueError):
        h2_form(g, *eta, p, 0.0, weight=WeightPhiB(15.0))  # 2B must fit inside half the box


def test_h2b_form_accepts_weight_object():
    # a WeightPhiB is its values centered on the wave
    rng = np.random.default_rng(SEED + 3)
    g = Grid(512, 40.0)
    p = SolitonParams(1.0, 0.3, sigma=2.0)
    eta = _random_direction(g, rng)
    weight = WeightPhiB(B=4.0)
    assert h2_form(g, *eta, p, 0.5, weight=weight) == h2_form(
        g, *eta, p, 0.5, weight=weight.values(g, center=0.3 * 0.5 + 2.0))


@pytest.mark.parametrize("p, t", [(SolitonParams(1.0, 0.0), 0.0),
                                  (SolitonParams(2.0, -0.4, 1.5, 0.7), 0.3)])
def test_weighted_h2_form_matches_the_three_old_forms(p, t):
    # oracles: the unweighted, chi-weighted and Phi_B-weighted forms as they
    # were written before the merge into one weighted h2_form
    rng = np.random.default_rng(SEED + 5)
    g = Grid(512, 40.0)
    eta_u, eta_n, eta_v = _random_direction(g, rng)
    q = q_density(g, eta_u, eta_n, eta_v, p.nu, p.c)
    cpl = coupling_density(g, eta_u, eta_n, p, t)
    chi = np.ones(g.n_points)
    phi_b = WeightPhiB(4.0).values(g, center=p.c * t + p.sigma)
    assert h2_form(g, eta_u, eta_n, eta_v, p, t) == quadrature(g, q + cpl)
    assert h2_form(g, eta_u, eta_n, eta_v, p, t, weight=chi) == quadrature(g, chi * q + cpl)
    assert h2_form(g, eta_u, eta_n, eta_v, p, t, weight=WeightPhiB(4.0)) == \
        quadrature(g, phi_b * q + cpl)


def test_coupling_density_integrates_into_h2(tmp_path):
    # h2 = integral of |d eta_u|^2 + coupling + nu |eta_u|^2 + quadratic rest
    rng = np.random.default_rng(SEED + 4)
    g = GRID
    p = SolitonParams(1.0, 0.0)
    eta_u, eta_n, eta_v = _random_direction(g, rng)
    du = spectral_derivative(g, eta_u, 1)
    dens = (np.abs(du) ** 2
            + coupling_density(g, eta_u, eta_n, p, t=0.0)
            + p.nu * np.abs(eta_u) ** 2
            + 0.5 * (eta_n**2 + eta_v**2))
    assert quadrature(g, dens) == pytest.approx(
        h2_form(g, eta_u, eta_n, eta_v, p, t=0.0), rel=1e-12)


# --- coupled constrained coercivity ----------------------------------------------

@pytest.mark.parametrize("omega", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("c", (-0.9, 0.0, 0.9))
def test_h2_coercivity_sweep_positive(omega, c):
    g = Grid(256, 40.0)
    out = h2_coercivity(g, SolitonParams(omega=omega, c=c))
    assert out["lambda_min_constrained"] > 0.0
    assert out["lambda_min_unconstrained"] < 0.0


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
    # sampled worst case of q_density - mu (|d_x eta_u|^2 + |eta_u|^2 + eta_n^2
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
