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
"""

import json
from pathlib import Path

import numpy as np
import pytest

from zaklab.experiments import ExperimentSpec, run
from zaklab.grid import Grid
from zaklab.profiles import MultiSolitonConfig, SolitonParams
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
