"""Numerical laboratory for the one-dimensional Zakharov system.

Multi-soliton construction by backward integration, pseudospectral
Strang-split dynamics, conserved and localized functionals, Weinstein-type
decompositions, parameter modulation, and linearized-operator spectra.
"""

from ._version import __version__
from .grid import Grid, quadrature, sobolev_norms, spectral_derivative
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
    Trajectory,
    backward_construct,
    evolve,
    multi_soliton_state,
    soliton_state,
    time_reverse,
)
from .functionals import (
    CutoffFamily,
    FunctionalReport,
    energy,
    functional_report,
    mass,
    modified_energies,
    momentum,
    tail_mass,
    weinstein,
    weinstein_decompose,
)
from .modulation import ModulationResult, TrackResult, modulate, track
from .spectral import (
    LinearizedOperator,
    WeightPhiB,
    coercivity_nls,
    h2_coercivity,
    h2_form,
    spectrum,
    young_mu,
)
from .experiments import ExperimentSpec, RunManifest, fit_exponential, run

__all__ = [
    "__version__",
    "Grid", "quadrature", "sobolev_norms", "spectral_derivative",
    "SolitonParams", "MultiSolitonConfig", "ground_state", "lambda_q", "phi",
    "traveling_wave", "multi_soliton",
    "State", "Trajectory", "BlowUpError", "soliton_state", "multi_soliton_state",
    "evolve", "time_reverse", "backward_construct",
    "mass", "energy", "momentum", "CutoffFamily",
    "weinstein", "weinstein_decompose", "modified_energies", "tail_mass",
    "FunctionalReport", "functional_report",
    "ModulationResult", "TrackResult", "modulate", "track",
    "LinearizedOperator", "WeightPhiB", "spectrum", "coercivity_nls",
    "h2_form", "h2_coercivity", "young_mu",
    "ExperimentSpec", "RunManifest", "fit_exponential", "run",
]
