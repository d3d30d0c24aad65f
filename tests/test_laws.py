"""Checks of the laws behind the headline numbers, not only their signs.

The backward error of a multi-soliton construction comes from the overlap of
neighbouring solitons' tails.  A tail decays like e^{-sqrt(omega) |x|} and
adjacent solitons separate at speed c_{k+1} - c_k, so the error decays at
about the interaction rate

    theta_int = min over adjacent pairs of sqrt(min(omega_k, omega_{k+1})) (c_{k+1} - c_k),

the rate that bounds the error in the constructions of Martel (gKdV), Martel
and Merle (NLS) and Cote, Martel and Merle.
"""

import numpy as np

from zaklab.experiments import auto_window, error_series, fit_exponential


def _interaction_rate(config) -> float:
    sols = config.solitons
    return min(np.sqrt(min(a.omega, b.omega)) * (b.c - a.c) for a, b in zip(sols, sols[1:]))


def test_backward_error_decays_at_the_interaction_rate(backward_run):
    # the reference pair (omega 1, c -0.5 and 0.5) fits theta_hat = 0.9745
    # against theta_int = 1 on the window [8.5, 11.0]
    grid, config, traj = backward_run
    series = error_series(traj, config)
    window = auto_window(series["t"], series["err_bold_H"])
    assert window is not None, "no clean decay window in the backward run"
    fit = fit_exponential(series["t"], series["err_bold_H"], window)
    ratio = fit["rate"] / _interaction_rate(config)
    assert 0.95 < ratio < 1.05, (fit["rate"], window)
