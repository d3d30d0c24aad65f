"""Shared fixtures.

The backward two-soliton construction at the reference configuration is the
expensive object of the suite (4-6 s on a 2-vCPU host); it and the fit of
its error series are built once per session and shared by the decay-rate,
rate-law, localized-drift, and modified-energy tests.
"""

import numpy as np
import pytest

from zaklab import Grid, MultiSolitonConfig, SolitonParams
from zaklab.dynamics import backward_frames
from zaklab.experiments import auto_window, error_series, fit_exponential


REFERENCE_SOLITONS = (
    SolitonParams(omega=1.0, c=-0.5, sigma=0.0, gamma=0.0),
    SolitonParams(omega=1.0, c=0.5, sigma=0.0, gamma=1.0),
)


@pytest.fixture(scope="session")
def two_soliton_config():
    return MultiSolitonConfig(REFERENCE_SOLITONS)


@pytest.fixture(scope="session")
def backward_run(two_soliton_config):
    """(grid, config, trajectory) of the reference backward construction."""
    grid = Grid(2048, 80.0)
    traj = list(backward_frames(grid, two_soliton_config, t_final=30.0, dt=1e-3,
                                sample_stride=100))[::-1]
    return grid, two_soliton_config, traj


@pytest.fixture(scope="session")
def backward_fit(backward_run):
    """Error series, decay window, and rate fit of the shared backward run."""
    grid, config, traj = backward_run
    series = error_series(traj, config)
    window = auto_window(series["t"], series["err_bold_H"])
    assert window is not None, "no clean decay window in the backward run"
    fit = fit_exponential(series["t"], series["err_bold_H"], window)
    return series, window, fit
