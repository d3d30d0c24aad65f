"""End-to-end acceptance checks for the package's advertised guarantees.

Each test pins one guarantee at its stated tolerance and, on success, prints
a single summary line with the measured numbers (visible under
``pytest tests/test_acceptance.py -v -s``).  The heavy two-soliton backward
run and its error fit are computed once per session (tests/conftest.py)
and shared by the last three checks.
"""

import time

import numpy as np
import pytest

from zaklab.grid import Grid, quadrature, spectral_derivative
from zaklab.profiles import (
    MultiSolitonConfig,
    SolitonParams,
    ground_state,
    ground_state_prime,
    lambda_q,
    modulated_profile,
    phi,
    soliton_phase,
    y_ground_state,
)
from zaklab.dynamics import State, evolve, multi_soliton_state, soliton_state
from zaklab.functionals import (
    CutoffFamily,
    energy,
    mass,
    momentum,
    weinstein,
    weinstein_decompose,
)
from zaklab.modulation import leading_diagonal_constants, modulate, pi_from_config
from zaklab.spectral import LinearizedOperator, coercivity_nls, h2_coercivity, spectrum
from zaklab.experiments import (
    auto_window,
    edo_constant_fit,
    fit_exponential,
    gmod_series,
    local_series,
)

SEED = 42


def test_c01_ground_state_integrals():
    start = time.perf_counter()
    g = Grid(1024, 40.0)
    q = ground_state(g)
    m2 = quadrature(g, q**2)
    m4 = quadrature(g, q**4)
    elapsed = time.perf_counter() - start
    assert abs(m2 - 4.0) < 1e-10
    assert abs(m4 - 16.0 / 3.0) < 1e-10
    assert elapsed < 1.0
    print(f"\n[c01 PASS] int Q^2 err {abs(m2 - 4.0):.2e}, "
          f"int Q^4 err {abs(m4 - 16/3):.2e}, {elapsed:.2f}s")


def test_c02_scaled_profile_ode():
    start = time.perf_counter()
    g = Grid(1024, 40.0)
    worst_ode = 0.0
    worst_fi = 0.0
    for omega in (0.5, 1.0, 2.0):
        f = phi(g, omega)
        fxx = spectral_derivative(g, f, 2).real
        fx = spectral_derivative(g, f, 1).real
        worst_ode = max(worst_ode, float(np.max(np.abs(-fxx + omega * f - f**3))))
        worst_fi = max(worst_fi, float(np.max(np.abs(fx**2 - omega * f**2 + 0.5 * f**4))))
    elapsed = time.perf_counter() - start
    assert worst_ode < 1e-8
    assert worst_fi < 1e-8
    assert elapsed < 1.0
    print(f"\n[c02 PASS] ODE residual {worst_ode:.2e}, "
          f"first integral {worst_fi:.2e}, {elapsed:.2f}s")


def test_c03_traveling_wave_mass():
    g = Grid(1024, 40.0)
    worst = 0.0
    for omega in (0.5, 1.0, 2.0):
        for c in (-0.8, 0.0, 0.8):
            st = soliton_state(g, SolitonParams(omega=omega, c=c), 0.0)
            target = 4.0 * (1.0 - c**2) * np.sqrt(omega)
            worst = max(worst, abs(mass(st) - target))
    assert worst < 1e-9
    print(f"\n[c03 PASS] worst |mass - 4(1-c^2)sqrt(omega)| = {worst:.2e}")


def test_c04_integrator_conservation_and_order():
    start = time.perf_counter()
    g = Grid(1024, 40.0)

    # conservation over a long moving-soliton run
    moving = soliton_state(g, SolitonParams(omega=1.0, c=0.5), 0.0)
    n_steps = 10_000
    first, *_, last = evolve(moving, 10.0, 1e-3, sample_stride=n_steps)
    mass_drift = abs(mass(last) - mass(first)) / mass(first)
    e_drift = abs(energy(last) - energy(first))
    p_drift = abs(momentum(last) - momentum(first))
    assert mass_drift < 1e-12 * (n_steps / 1000)
    assert e_drift < 1e-6
    assert p_drift < 1e-6

    # accuracy and order on the standing wave
    from zaklab.profiles import traveling_wave
    params = SolitonParams(omega=1.0, c=0.0)
    standing = soliton_state(g, params, 0.0)
    u_exact = traveling_wave(g, params, 1.0)[0]

    def u_error(dt):
        *_, final = evolve(standing, 1.0, dt, sample_stride=10**9)
        return float(np.sqrt(quadrature(g, np.abs(final.u - u_exact) ** 2)))

    err_dt = u_error(1e-3)
    err_half = u_error(5e-4)
    ratio = err_dt / err_half
    elapsed = time.perf_counter() - start
    assert err_dt < 1e-6
    assert 3.5 < ratio < 4.5
    assert elapsed < 60.0
    print(f"\n[c04 PASS] mass drift {mass_drift:.2e}/{n_steps} steps, "
          f"E drift {e_drift:.2e}, P drift {p_drift:.2e}, "
          f"u error {err_dt:.2e}, halving ratio {ratio:.3f}, {elapsed:.1f}s")


def test_c05_linearized_kernel_and_spectrum():
    start = time.perf_counter()
    g = Grid(1024, 40.0)
    plus = LinearizedOperator.plus(g)
    minus = LinearizedOperator.minus(g)
    identities = (
        float(np.max(np.abs(minus.apply(ground_state(g))))),
        float(np.max(np.abs(plus.apply(ground_state_prime(g))))),
        float(np.max(np.abs(minus.apply(y_ground_state(g))
                            + 2.0 * ground_state_prime(g)))),
        float(np.max(np.abs(plus.apply(lambda_q(g)) + ground_state(g)))),
    )
    assert max(identities) < 1e-8

    g2 = Grid(2048, 40.0)
    vals_plus, _ = spectrum(LinearizedOperator.plus(g2), 1)
    vals_minus, _ = spectrum(LinearizedOperator.minus(g2), 1)
    elapsed = time.perf_counter() - start
    assert abs(vals_plus[0] + 3.0) < 1e-3
    assert vals_minus[0] >= -1e-8
    assert elapsed < 30.0
    print(f"\n[c05 PASS] kernel identities max {max(identities):.2e}, "
          f"min eig plus {vals_plus[0]:.6f}, min eig minus {vals_minus[0]:.2e}, "
          f"{elapsed:.1f}s")


def test_c06_constrained_coercivity_stability():
    rep = coercivity_nls(Grid(1024, 40.0))
    rep2 = coercivity_nls(Grid(2048, 40.0))
    lam, lam2 = rep["lambda_min_constrained"], rep2["lambda_min_constrained"]
    assert lam > 0
    assert lam2 > 0
    assert abs(lam2 - lam) <= 0.02 * abs(lam)
    # the soliton-level quadratic form shows the same structure
    h2 = h2_coercivity(Grid(256, 40.0), SolitonParams(omega=1.0, c=0.5))
    h2d = h2_coercivity(Grid(512, 40.0), SolitonParams(omega=1.0, c=0.5))
    assert h2["lambda_min_constrained"] > 0
    assert abs(h2d["lambda_min_constrained"] - h2["lambda_min_constrained"]) \
        <= 0.02 * abs(h2["lambda_min_constrained"])
    print(f"\n[c06 PASS] constrained min {lam:.6f} "
          f"(doubled {lam2:.6f}), soliton-level {h2['lambda_min_constrained']:.4f} "
          f"(doubled {h2d['lambda_min_constrained']:.4f})")


TWO_SEP = MultiSolitonConfig((SolitonParams(1.0, -0.5, -10.0, 0.0),
                              SolitonParams(1.0, 0.5, 10.0, 1.0)))


def test_c07_modulation_fixed_point_and_recovery():
    g = Grid(2048, 80.0)
    st = multi_soliton_state(g, TWO_SEP, 0.0)
    fixed = modulate(st, TWO_SEP, tolerance=1e-12)
    assert fixed.converged
    assert fixed.residual_max < 1e-12

    rng = np.random.default_rng(SEED)
    pi_true = pi_from_config(TWO_SEP) + 1e-2 * rng.standard_normal(6)
    su, sn, sv = modulated_profile(g, TWO_SEP, pi_true, 0.0)
    rec = modulate(State(g, 0.0, su, sn, sv), TWO_SEP, tolerance=1e-12)
    rec_err = float(np.max(np.abs(rec.pi - pi_true)))
    assert rec.converged
    assert rec_err < 1e-8

    worst = {"d_omega": 0.0, "d_sigma": 0.0, "d_gamma": 0.0}
    targets = {"d_omega": 1.0, "d_sigma": -2.0, "d_gamma": 1.0}
    for omega, c in ((1.0, 0.0), (1.0, 0.5), (2.0, -0.3)):
        cfg = MultiSolitonConfig((SolitonParams(omega, c),))
        gs = Grid(1024, 40.0)
        d = leading_diagonal_constants(soliton_state(gs, cfg.solitons[0], 0.0), cfg)
        for key, ref in targets.items():
            worst[key] = max(worst[key], abs(d[key][0] / ref - 1.0))
    assert max(worst.values()) < 0.05
    print(f"\n[c07 PASS] fixed-point residual {fixed.residual_max:.2e}, "
          f"recovery err {rec_err:.2e}, diagonal deviations "
          f"{max(worst.values()):.2%}")


def test_c08_functional_decomposition_and_modulation_gain():
    g = Grid(2048, 80.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5, -15.0, 0.0),
                              SolitonParams(1.0, 0.5, 15.0, 1.0)))
    fam = CutoffFamily.for_config(cfg, 5.0)
    rng = np.random.default_rng(SEED)

    # exact reassembly for an O(1e-2) random remainder
    S = multi_soliton_state(g, cfg, 0.0)
    eps = State(g, 0.0,
                1e-2 * (rng.standard_normal(g.n_points)
                        + 1j * rng.standard_normal(g.n_points)),
                1e-2 * rng.standard_normal(g.n_points),
                1e-2 * rng.standard_normal(g.n_points))
    full = State(g, 0.0, S.u + eps.u, S.n + eps.n, S.v + eps.v)
    parts = weinstein_decompose(eps, S, cfg, fam)
    total = weinstein(full, cfg, fam)
    reassembly = abs(sum(parts.values()) - total) / max(1.0, abs(total))
    assert reassembly < 1e-9

    # profile-term drift under a pulsation shift matches the closed form
    pi0 = pi_from_config(cfg)
    pi_shift = pi0.copy()
    pi_shift[0] += 0.07
    pi_shift[1] -= 0.04
    zero = State(g, 0.0, np.zeros(g.n_points, complex),
                 np.zeros(g.n_points), np.zeros(g.n_points))

    def g0_of(pi):
        su, sn, sv = modulated_profile(g, cfg, pi, 0.0)
        return weinstein_decompose(zero, State(g, 0.0, su, sn, sv), cfg, fam,
                                   omegas_t=pi[:2])["G0"]

    drift = g0_of(pi_shift) - g0_of(pi0)
    closed = sum(
        -(4.0 / 3.0) * (1.0 - p.c**2)
        * (np.sqrt(w1) - np.sqrt(p.omega)) ** 2
        * (np.sqrt(w1) + 2.0 * np.sqrt(p.omega))
        for p, w1 in zip(cfg.solitons, pi_shift[:2])
    )
    drift_err = abs(drift - closed)
    assert drift_err < 1e-6

    # modulation kills the first-variation term by orders of magnitude
    pi_t = pi0.copy()
    pi_t[0] = 1.05
    su, sn, sv = modulated_profile(g, cfg, pi_t, 0.0)
    s_tilde = State(g, 0.0, su, sn, sv)
    delta_u = (1e-3 * phi(g, 1.05, center=-15.0)
               * np.exp(1j * soliton_phase(g, -0.5, 1.0, 0.0, 0.0, -15.0)))
    state = State(g, 0.0, s_tilde.u + delta_u, s_tilde.n, s_tilde.v)
    eps_raw = State(g, 0.0, delta_u, np.zeros(g.n_points), np.zeros(g.n_points))
    g1_raw = weinstein_decompose(eps_raw, s_tilde, cfg, fam,
                                 omegas_t=pi_t[:2])["G1"]
    res = modulate(state, cfg, pi_guess=pi_t)
    assert res.converged
    hu, hn, hv = modulated_profile(g, cfg, res.pi, 0.0)
    s_hat = State(g, 0.0, hu, hn, hv)
    g1_hat = weinstein_decompose(res.epsilon, s_hat, cfg, fam,
                                 omegas_t=res.pi[:2])["G1"]
    ratio = abs(g1_raw) / max(abs(g1_hat), 1e-300)
    assert ratio >= 100.0
    print(f"\n[c08 PASS] reassembly rel err {reassembly:.2e}, "
          f"profile drift err {drift_err:.2e}, "
          f"|G1| {abs(g1_raw):.2e} -> {abs(g1_hat):.2e} "
          f"(gain {ratio:.1e}x)")


def test_c09_backward_error_decays_exponentially(backward_fit):
    series, window, fit = backward_fit
    assert fit["rate"] > 0
    assert fit["r_squared"] > 0.99
    h2_window = auto_window(series["t"], series["err_h2_square"],
                            floor=1e-18, ceiling=1e-4)
    assert h2_window is not None
    h2_fit = fit_exponential(series["t"], series["err_h2_square"], h2_window)
    assert h2_fit["rate"] > 0
    print(f"\n[c09 PASS] theta_hat {fit['rate']:.4f} "
          f"(r^2 {fit['r_squared']:.6f}, window {window}), "
          f"H2-square rate {h2_fit['rate']:.4f}")


def test_c10_localized_mass_drift_shrinks_with_cutoff_width(backward_run,
                                                            backward_fit):
    grid, config, traj = backward_run
    _, window, _ = backward_fit
    drifts = {}
    for L in (5.0, 10.0, 20.0):
        loc = local_series(traj, config, L)
        keep = (loc["t"] >= window[0]) & (loc["t"] <= window[1])
        drifts[L] = np.max(np.abs(loc["M_k"][keep] - loc["M_k"][-1]), axis=0)
    for k in range(config.K):
        assert drifts[5.0][k] > drifts[10.0][k] > drifts[20.0][k]
    print("\n[c10 PASS] max localized-mass drift by width: "
          + ", ".join(f"L={L:g}: {np.max(d):.3e}" for L, d in drifts.items()))


def test_c11_modified_energy_differential_bound(backward_run, backward_fit):
    grid, config, traj = backward_run
    _, window, fit = backward_fit
    gm = gmod_series(traj, config)
    out = edo_constant_fit(gm["t"], gm["G_mod"], fit["rate"], window)
    assert out["violations"] == 0
    assert np.isfinite(out["C"])
    assert out["C"] > 0
    print(f"\n[c11 PASS] differential bound holds with C = {out['C']:.4f} "
          f"({out['n_points']} samples, zero violations)")
