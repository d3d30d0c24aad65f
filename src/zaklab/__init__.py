"""Numerical laboratory for the one-dimensional Zakharov system.

Multi-soliton construction by backward integration, pseudospectral
Strang-split dynamics, conserved and localized functionals, Weinstein-type
decompositions, parameter modulation, and linearized-operator spectra.
"""

from ._version import __version__
from .grid import Grid, quadrature, spectral_derivative
from .profiles import (
    MultiSolitonConfig,
    SolitonParams,
    ground_state,
    lambda_q,
    multi_soliton,
    phi,
    traveling_wave,
)
from .dynamics import (
    BlowUpError,
    State,
    backward_construct,
    backward_frames,
    evolve,
    multi_soliton_state,
    soliton_state,
    time_reverse,
)
from .functionals import (
    CutoffFamily,
    energy,
    mass,
    momentum,
    weinstein,
    weinstein_decompose,
)
from .modulation import ModulationResult, TrackResult, modulate, track
from .spectral import (
    LinearizedOperator,
    coercivity_nls,
    h2_coercivity,
    spectrum,
    young_mu,
)
from .experiments import ExperimentSpec, RunManifest, fit_exponential, run

__all__ = [
    "__version__",
    "Grid", "quadrature", "spectral_derivative",
    "SolitonParams", "MultiSolitonConfig", "ground_state", "lambda_q", "phi",
    "traveling_wave", "multi_soliton",
    "State", "BlowUpError", "soliton_state", "multi_soliton_state",
    "evolve", "time_reverse", "backward_frames", "backward_construct",
    "mass", "energy", "momentum", "CutoffFamily",
    "weinstein", "weinstein_decompose",
    "ModulationResult", "TrackResult", "modulate", "track",
    "LinearizedOperator", "spectrum", "coercivity_nls",
    "h2_coercivity", "young_mu",
    "ExperimentSpec", "RunManifest", "fit_exponential", "run",
]
