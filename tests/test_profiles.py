import json

import numpy as np
import pytest

from zaklab.grid import Grid, quadrature, spectral_derivative
from zaklab.profiles import (
    MultiSolitonConfig,
    SolitonParams,
    ground_state,
    ground_state_prime,
    lambda_omega,
    lambda_q,
    modulated_profile,
    multi_soliton,
    phi,
    phi_prime,
    soliton_phase,
    traveling_wave,
    y_ground_state,
)

GRID = Grid(1024, 40.0)
OMEGAS = (0.5, 1.0, 2.0)


# --- ground state ----------------------------------------------------------

def test_ground_state_point_values():
    g = GRID
    i0 = np.argmin(np.abs(g.x))
    assert g.x[i0] == 0.0
    assert ground_state(g)[i0] == pytest.approx(np.sqrt(2.0), abs=1e-13)
    assert lambda_q(g)[i0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-13)


def test_ground_state_integrals():
    g = GRID
    q = ground_state(g)
    assert quadrature(g, q**2) == pytest.approx(4.0, abs=1e-12)
    assert quadrature(g, q**4) == pytest.approx(16.0 / 3.0, abs=1e-12)
    qp = ground_state_prime(g)
    assert quadrature(g, qp**2) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert quadrature(g, q * lambda_q(g)) == pytest.approx(1.0, abs=1e-12)
    assert quadrature(g, y_ground_state(g) * qp) == pytest.approx(-2.0, abs=1e-12)


def test_ground_state_prime_is_spectral_derivative():
    g = GRID
    fx = spectral_derivative(g, ground_state(g), 1).real
    assert np.max(np.abs(fx - ground_state_prime(g))) < 1e-10


def test_y_ground_state_periodization():
    # x * ground_state keeps a seam jump; the dedicated evaluator does not
    g = GRID
    yq = y_ground_state(g)
    inner = np.abs(g.x) < 10.0
    # away from the seam the box images contribute only ~|y - L| exp(-|y - L|)
    assert np.max(np.abs((yq - g.x * ground_state(g))[inner])) < 1e-10
    d2 = spectral_derivative(g, yq, 2).real
    exact = yq - ground_state(g) ** 2 * yq + 2.0 * ground_state_prime(g)
    assert np.max(np.abs(d2 - exact)) < 1e-8


# --- scaling family --------------------------------------------------------

@pytest.mark.parametrize("omega", OMEGAS)
def test_phi_ode_and_first_integral(omega):
    g = GRID
    f = phi(g, omega)
    fxx = spectral_derivative(g, f, 2).real
    assert np.max(np.abs(fxx - omega * f + f**3)) < 1e-8
    fx = spectral_derivative(g, f, 1).real
    assert np.max(np.abs(fx**2 - omega * f**2 + 0.5 * f**4)) < 1e-8
    assert np.max(np.abs(fx - phi_prime(g, omega))) < 1e-10


@pytest.mark.parametrize("omega", OMEGAS)
def test_phi_integrals(omega):
    # omega = 0.5 has the widest profile; its box-image cross terms reach 2e-10
    g = GRID
    f = phi(g, omega)
    assert quadrature(g, f**2) == pytest.approx(4.0 * np.sqrt(omega), abs=1e-9)
    assert quadrature(g, f**4) == pytest.approx(
        16.0 / 3.0 * omega**1.5, abs=1e-9)
    assert quadrature(g, phi_prime(g, omega) ** 2) == pytest.approx(
        4.0 / 3.0 * omega**1.5, abs=1e-9)
    # the scaling generator carries a linear-in-y factor, so its box images
    # are the largest of the family (about 2e-9 at omega = 0.5)
    assert quadrature(g, f * lambda_omega(g, omega)) == pytest.approx(
        1.0 / np.sqrt(omega), abs=5e-9)


def test_lambda_omega_is_omega_derivative():
    g = GRID
    omega, h = 1.3, 1e-6
    fd = (phi(g, omega + h) - phi(g, omega - h)) / (2.0 * h)
    assert np.max(np.abs(fd - lambda_omega(g, omega))) < 1e-8


def test_profiles_accept_raw_arrays():
    y = np.linspace(-5.0, 5.0, 201)
    f = phi(y, 2.0, center=1.0)
    assert f.shape == y.shape
    assert np.argmax(f) == np.argmin(np.abs(y - 1.0))
    assert np.max(f) == pytest.approx(2.0)  # sqrt(2 * omega)


# --- traveling waves -------------------------------------------------------

@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("c", (-0.8, 0.0, 0.8))
def test_traveling_wave_invariants(omega, c):
    g = GRID
    p = SolitonParams(omega=omega, c=c, sigma=1.0, gamma=0.5)
    u, n, v = traveling_wave(g, p, t=0.7)
    mass = quadrature(g, np.abs(u) ** 2)
    assert mass == pytest.approx(4.0 * (1.0 - c**2) * np.sqrt(omega), abs=1e-9)
    assert np.max(np.abs(v - c * n)) == 0.0
    # n is minus the envelope squared
    env2 = phi(g, omega, c * 0.7 + 1.0) ** 2
    assert np.max(np.abs(n + env2)) < 1e-12


def test_traveling_wave_energy_momentum_closed_forms():
    g = Grid(2048, 80.0)
    ux = spectral_derivative
    for omega, c in ((1.0, 0.0), (1.0, 0.5), (2.0, -0.3), (0.5, 0.8)):
        p = SolitonParams(omega=omega, c=c)
        u, n, v = traveling_wave(g, p, 0.0)
        du = ux(g, u, 1)
        e = quadrature(g, np.abs(du) ** 2 + n * np.abs(u) ** 2
                       + 0.5 * (n**2 + v**2))
        e_exact = omega**1.5 * (-4.0 / 3.0 + 20.0 / 3.0 * c**2) \
            + c**2 * (1.0 - c**2) * np.sqrt(omega)
        assert e == pytest.approx(e_exact, abs=1e-8)
        mom = quadrature(g, np.imag(np.conj(u) * du) + n * v)
        p_exact = 2.0 * c * (1.0 - c**2) * np.sqrt(omega) \
            + 16.0 / 3.0 * c * omega**1.5
        assert mom == pytest.approx(p_exact, abs=1e-8)


def test_soliton_phase_seam_under_tail():
    g = GRID
    center = 7.0
    gamma = soliton_phase(g, 0.6, 1.0, 0.0, 0.0, center)
    jumps = np.abs(np.diff(gamma))
    seam = np.argmax(jumps)
    # the reconstruction x = wrap(x - center) + center puts the seam half a
    # box away from the soliton, not at the grid edge
    seam_x = g.x[seam]
    assert abs(g.wrap(np.array([seam_x - center]))[0]) > 19.0


def test_multi_soliton_is_superposition():
    g = Grid(2048, 80.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5, -10.0, 0.0),
                              SolitonParams(2.0, 0.5, 10.0, 1.0)))
    u, n, v = multi_soliton(g, cfg, 0.3)
    u1, n1, v1 = traveling_wave(g, cfg.solitons[0], 0.3)
    u2, n2, v2 = traveling_wave(g, cfg.solitons[1], 0.3)
    assert np.max(np.abs(u - u1 - u2)) < 1e-14
    assert np.max(np.abs(n - n1 - n2)) < 1e-14
    assert np.max(np.abs(v - v1 - v2)) < 1e-14


def test_modulated_profile_matches_multi_soliton_at_reference():
    g = Grid(2048, 80.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5, -10.0, 0.0),
                              SolitonParams(2.0, 0.5, 10.0, 1.0)))
    pi0 = np.array([1.0, 2.0, -10.0, 10.0, 0.0, 1.0])
    for t in (0.0, 1.7):
        su, sn, sv = modulated_profile(g, cfg, pi0, t)
        mu, mn, mv = multi_soliton(g, cfg, t)
        assert np.max(np.abs(su - mu)) < 1e-14
        assert np.max(np.abs(sn - mn)) < 1e-14
        assert np.max(np.abs(sv - mv)) < 1e-14


@pytest.mark.parametrize("omega_t, sigma_t, gamma_t, t", [(0.8, 1.0, 0.2, 0.9),
                                                          (1.3, -2.5, 0.4, 1.7)])
def test_modulated_profile_matches_single_modulated_oracle(omega_t, sigma_t, gamma_t, t):
    # oracle: the one-soliton modulated profile as written before traveling_wave
    # and modulated_profile shared a wave builder
    g = Grid(1024, 40.0)
    p0 = SolitonParams(0.8, 0.4, 1.0, 0.2)
    c = p0.c
    center = c * t + sigma_t
    envelope = phi(g, omega_t, center)
    gph = soliton_phase(g, c, p0.omega, gamma_t, t, center)
    u = np.sqrt(1.0 - c**2) * envelope * np.exp(1j * gph)
    n = -(envelope**2)
    want = (u, n, c * n)
    got = modulated_profile(g, MultiSolitonConfig((p0,)), [omega_t, sigma_t, gamma_t], t)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if (omega_t, sigma_t, gamma_t) == (p0.omega, p0.sigma, p0.gamma):
        for a, b in zip(traveling_wave(g, p0, t), want):
            assert np.array_equal(a, b)


def _interaction_sources(grid, config, t):
    """psi_u = sum_{j != k} R_j^u R_k^n and
    psi_v = d/dx ( |sum_k R_k^u|^2 - sum_k |R_k^u|^2 )."""
    parts = [traveling_wave(grid, p, t) for p in config.solitons]
    n_total = np.sum([p[1] for p in parts], axis=0)
    psi_u = sum(uk * (n_total - nk) for uk, nk, _ in parts)
    cross = np.abs(sum(p[0] for p in parts)) ** 2 - sum(np.abs(p[0]) ** 2 for p in parts)
    return psi_u, spectral_derivative(grid, cross, 1)


def test_interaction_sources_decay_with_separation():
    g = Grid(2048, 80.0)
    near = MultiSolitonConfig((SolitonParams(1.0, -0.5, -3.0),
                               SolitonParams(1.0, 0.5, 3.0)))
    far = MultiSolitonConfig((SolitonParams(1.0, -0.5, -15.0),
                              SolitonParams(1.0, 0.5, 15.0)))
    pu_near, pv_near = _interaction_sources(g, near, 0.0)
    pu_far, pv_far = _interaction_sources(g, far, 0.0)
    assert np.max(np.abs(pu_far)) < 1e-4 * np.max(np.abs(pu_near))
    assert np.max(np.abs(pv_far)) < 1e-4 * np.max(np.abs(pv_near))


# --- parameter validation and serialization --------------------------------

def test_soliton_params_validation():
    with pytest.raises(ValueError):
        SolitonParams(omega=0.0, c=0.0)
    with pytest.raises(ValueError):
        SolitonParams(omega=-1.0, c=0.0)
    with pytest.raises(ValueError):
        SolitonParams(omega=1.0, c=1.0)
    with pytest.raises(ValueError):
        SolitonParams(omega=1.0, c=-1.2)
    assert SolitonParams(omega=2.0, c=0.5).nu == pytest.approx(2.0625)


def test_config_requires_increasing_speeds():
    with pytest.raises(ValueError, match="distinct"):
        MultiSolitonConfig((SolitonParams(1.0, 0.3), SolitonParams(1.0, 0.3)))
    with pytest.raises(ValueError):
        MultiSolitonConfig((SolitonParams(1.0, 0.5), SolitonParams(1.0, -0.5)))
    with pytest.raises(ValueError):
        MultiSolitonConfig(())


def test_config_derived_constants():
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5), SolitonParams(4.0, 0.5)))
    assert cfg.K == 2
    assert cfg.omega_minus == pytest.approx(0.5)
    assert cfg.omega_plus == pytest.approx(6.0)
    # sqrt(theta0) = min(speed gaps, sqrt(omega_minus)) / 16
    root = min(1.0, np.sqrt(0.5)) / 16.0
    assert cfg.theta0 == pytest.approx(root**2)
    single = MultiSolitonConfig((SolitonParams(2.0, 0.0),))
    assert single.theta0 == pytest.approx(1.0 / 256.0)


def test_config_json_roundtrip():
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5, -10.0, 0.2),
                              SolitonParams(2.0, 0.5, 10.0, 1.0)))
    text = cfg.to_json()
    cfg2 = MultiSolitonConfig.from_json(text)
    assert cfg2 == cfg
    with pytest.raises(ValueError, match="unknown"):
        MultiSolitonConfig.from_json(json.dumps(
            {"solitons": [{"omega": 1.0, "c": 0.0}], "extra": 1}))
