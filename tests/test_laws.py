"""Checks of the laws behind the headline numbers, not only their signs.

The backward error of a multi-soliton construction comes from the overlap of
neighbouring solitons' tails.  A tail decays like e^{-sqrt(omega) |x|} and
adjacent solitons separate at speed c_{k+1} - c_k, so the error decays at
about the interaction rate

    theta_int = min over adjacent pairs of sqrt(min(omega_k, omega_{k+1})) (c_{k+1} - c_k),

the rate that bounds the error in the constructions of Martel (gKdV), Martel
and Merle (NLS) and Cote, Martel and Merle.

The coercivity constant of one traveling wave closes linearly at the sonic
limit: the constrained minimum of h2_coercivity behaves like 0.1 (1 - c^2) as
|c| -> 1, whatever the pulsation.

The proof's coercivity inequality holds on the lab's own trajectory: around
the modulated profile S(pi(t)), whose error eps = u - S(pi) is orthogonal to
the 3K modulation directions, the localized quadratic form of the Weinstein
split at the instantaneous pulsations bounds the pencil norm,
G21 >= lambda ||eps||^2 with ||eps||^2 = ||eps_u||_{H^1}^2 + ||eps_n||^2 + ||eps_v||^2,
for lambda the smallest one-wave constrained constant of h2_coercivity
(Martel, Merle and Tsai; Martel and Merle).

The first variation G1 = <G'(S), eps> is small on the same trajectory: each
modulated wave is a critical point of its own part of G, so G'(S) holds only
the interaction of the waves, and |G1| / ||eps|| decays at about the rate
of the backward error itself.

The modulation equations close on the same trajectory: differentiating the
orthogonality relations in time bounds the parameter rates by the error,
|omega_k'| + |sigma_k'| + |gamma_k' - (omega_k - omega_k^0)| <= C ||eps||, to
first order in eps (Martel, Merle and Tsai), so the rates decay with eps.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from zaklab.dynamics import State
from zaklab.experiments import ExperimentSpec, fit_exponential, run
from zaklab.functionals import CutoffFamily, weinstein_decompose
from zaklab.grid import Grid, quadrature, spectral_derivative
from zaklab.modulation import track
from zaklab.profiles import MultiSolitonConfig, SolitonParams, modulated_profile
from zaklab.spectral import h2_coercivity


def _interaction_rate(config) -> float:
    sols = config.solitons
    return min(np.sqrt(min(a.omega, b.omega)) * (b.c - a.c) for a, b in zip(sols, sols[1:]))


def test_backward_error_decays_at_the_interaction_rate(backward_run, backward_fit):
    # the reference pair (omega 1, c -0.5 and 0.5) fits theta_hat = 0.9745
    # against theta_int = 1 on the window [8.5, 11.0]
    config = backward_run[1]
    _, window, fit = backward_fit
    ratio = fit["rate"] / _interaction_rate(config)
    assert 0.95 < ratio < 1.05, (fit["rate"], window)


def test_three_soliton_audit_decays_at_the_interaction_rate(tmp_path):
    # the theorem holds for any K; with c = -0.6, 0, 0.6 the audit fits
    # theta_hat = 0.5872 against theta_int = 0.6 on [16.7, 19.1] (k_max^2 dt
    # about 0.81, clear of the splitting's resonances); at dt = 1e-3 the ratio
    # reads 1.004 for about twice the run time
    config = MultiSolitonConfig(tuple(SolitonParams(1.0, c) for c in (-0.6, 0.0, 0.6)))
    spec = ExperimentSpec(kind="weinstein_audit", config=config, n_points=512,
                          box_length=80.0, dt=2e-3, sample_stride=50, t_final=30.0)
    manifest = json.loads((Path(run(spec, output_dir=tmp_path).run_dir)
                           / "manifest.json").read_text())
    assert manifest["incomplete"] is False
    assert manifest["fits"]["edo_constant"]["violations"] == 0
    fit = manifest["fits"]["theta_hat"]
    ratio = fit["rate"] / _interaction_rate(config)
    assert 0.95 < ratio < 1.05, (fit["rate"], fit["window"])


@pytest.mark.parametrize("omega", (0.25, 1.0, 4.0))
@pytest.mark.parametrize("c", (0.95, 0.99))
def test_coercivity_closes_linearly_at_the_sonic_limit(omega, c):
    # lambda_min / (1 - c^2) reads 0.1046-0.1075 over these six points at
    # n = 512, box 40 (n = 1024 agrees to four digits); these are the
    # smallest-gap solves, where a loose Lanczos stop would show first
    lam = h2_coercivity(Grid(512, 40.0), SolitonParams(omega, c))["lambda_min_constrained"]
    assert 0.100 < lam / (1.0 - c**2) < 0.110, lam


@pytest.fixture(scope="module")
def modulated_split(backward_run):
    """Per frame of the shared run at t >= 4: the modulation.csv columns of
    its track, and G1, G21 and the pencil norm ||eps||^2 of eps = u - S(pi)
    with cutoffs of width 5 and omegas_t = omega(t)."""
    grid, config, traj = backward_run
    frames = [s for s in traj if s.t >= 4.0]
    columns = track(frames, config)
    pis = np.stack([columns[f"{name}_{k + 1}"] for name in ("omega", "sigma", "gamma")
                    for k in range(config.K)], axis=1)
    family = CutoffFamily.for_config(config, L=5.0)
    g1, g21, norm_sq = [], [], []
    for u, pi in zip(frames, pis):
        S = State(grid, u.t, *modulated_profile(grid, config, pi, u.t))
        eps = State(grid, u.t, u.u - S.u, u.n - S.n, u.v - S.v)
        parts = weinstein_decompose(eps, S, config, family, omegas_t=pi[:config.K])
        g1.append(parts["G1"])
        g21.append(parts["G21"])
        eps_ux = spectral_derivative(grid, eps.u, 1)
        norm_sq.append(quadrature(grid, np.abs(eps.u) ** 2 + np.abs(eps_ux) ** 2
                                  + eps.n**2 + eps.v**2))
    return {**columns, "G1": np.array(g1), "G21": np.array(g21), "norm_sq": np.array(norm_sq)}


def test_modulated_error_obeys_the_coercivity_inequality(backward_run, modulated_split):
    # from t = 4 on every frame of the reference run fits (261 frames); the
    # ratio reads at least 0.2320 (at t = 10.8) against lambda_min = 0.095905,
    # the same for both waves (c = -0.5 and 0.5) on this grid: a margin of 2.42.
    # The law needs the orthogonality: frames fitted only to a residual of
    # 1e-3 give G21 < 0 at t = 17.8
    grid, config, _ = backward_run
    times, converged = modulated_split["t"], modulated_split["converged"]
    assert converged.all(), times[~converged]
    ratios = modulated_split["G21"] / modulated_split["norm_sq"]
    lam = min(h2_coercivity(grid, p)["lambda_min_constrained"] for p in config.solitons)
    worst = int(np.argmin(ratios))
    assert ratios[worst] >= lam, (times[worst], ratios[worst], lam)


def test_first_variation_decays_with_the_backward_error(backward_fit, modulated_split):
    # on theta_hat's window [8.5, 11.0] |G1| / ||eps|| fits a rate of 1.2345
    # (r^2 0.9996, 26 points), 1.267 theta_hat; on [6, 12] it reads 1.1375.
    # Built around S at the reference pulsations (the omega columns left at
    # omega^0) the rate falls to 0.992 theta_hat, while G21 / ||eps||^2 stays
    # at least 0.164, above lambda_min
    _, window, fit = backward_fit
    ratio = np.abs(modulated_split["G1"]) / np.sqrt(modulated_split["norm_sq"])
    g1_fit = fit_exponential(modulated_split["t"], ratio, window)
    assert g1_fit["r_squared"] > 0.99, g1_fit
    assert 1.15 < g1_fit["rate"] / fit["rate"] < 1.40, (g1_fit["rate"], fit["rate"], window)


def test_modulation_rates_are_bounded_by_the_error(backward_run, modulated_split):
    # r = max_k (|domega_dt_k| + |dsigma_dt_k| + |gamma_rate_mismatch_k|) / eps_H
    # reads 0.399-0.551 on t in [4, 14] (largest at t = 7.7) while eps_H falls
    # by four decades: the rates are linear in eps (omega' is, here), so no
    # ||eps||^2 bound is assumed.  The band [0.3, 0.7] leaves margins of 1.33
    # below and 1.27 above.  Past t = 14 Strang's floor enters eps_H and r
    # falls (0.335 at t = 16, 0.106 at t = 20)
    cols, K = modulated_split, backward_run[1].K
    rates = np.max([np.abs(cols[f"domega_dt_{k}"]) + np.abs(cols[f"dsigma_dt_{k}"])
                    + np.abs(cols[f"gamma_rate_mismatch_{k}"]) for k in range(1, K + 1)], axis=0)
    times, eps_h = cols["t"], cols["eps_H"]
    early = times <= 14.0 + 1e-9
    r = rates[early] / eps_h[early]
    assert 0.3 < r.min() and r.max() < 0.7, (r.min(), times[early][np.argmax(r)], r.max())
    # on [5, 14] the rates fit a decay rate of 0.971 (r^2 0.9989) against
    # 0.957 for eps_H, a ratio of 1.015 inside 0.95-1.05
    window = (5.0, 14.0)
    rate_fit = fit_exponential(times, rates, window)
    eps_fit = fit_exponential(times, eps_h, window)
    assert rate_fit["r_squared"] > 0.99, rate_fit
    assert 0.95 < rate_fit["rate"] / eps_fit["rate"] < 1.05, (rate_fit, eps_fit)
