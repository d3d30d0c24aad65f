"""Solitary-wave profiles of the 1D Zakharov system and their derived fields.

The building block is the NLS ground state Q(y) = sqrt(2)/cosh(y), solving
Q'' = Q - Q^3, and its scaling family

    phi_omega(x) = sqrt(2*omega)/cosh(sqrt(omega)*x),
    phi_omega'' = omega*phi_omega - phi_omega^3,
    (phi_omega')^2 = omega*phi_omega^2 - phi_omega^4/2.

A traveling wave with pulsation omega, speed |c| < 1, translation sigma and
phase gamma is

    u(t,x) = sqrt(1-c^2) * phi_omega(x - c t - sigma) * exp(i*Gamma),
    Gamma  = c x / 2 - c^2 t / 4 + omega t + gamma,
    n(t,x) = -phi_omega(x - c t - sigma)^2,
    v(t,x) = c * n(t,x),

and a multi-soliton is a superposition of K of these with strictly increasing
speeds.  On the periodic box all profile arguments are wrapped to
[-L/2, L/2); the phase factor uses the wrapped coordinate recentred on the
soliton so that the inevitable phase seam sits under the exponentially small
tail at distance L/2 from the soliton, not at the box edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

__all__ = [
    "SolitonParams",
    "MultiSolitonConfig",
    "ground_state",
    "ground_state_prime",
    "lambda_q",
    "y_ground_state",
    "phi",
    "phi_prime",
    "lambda_omega",
    "traveling_wave",
    "multi_soliton",
    "modulated_profile",
    "soliton_phase",
]


@dataclass(frozen=True)
class SolitonParams:
    """Parameters (omega, c, sigma, gamma) of one traveling solitary wave."""

    omega: float
    c: float
    sigma: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not abs(self.c) < 1:
            raise ValueError(f"|c| must be < 1 (subsonic), got {self.c}")

    @property
    def nu(self) -> float:
        """Combined multiplier omega + c^2/4 entering the Weinstein functional."""
        return self.omega + 0.25 * self.c**2


@dataclass(frozen=True)
class MultiSolitonConfig:
    """An ordered family of solitons with strictly increasing speeds.

    Derived constants: omega_minus = min(omega)/2, omega_plus = 3*max(omega)/2,
    and the interaction decay rate theta0 with sqrt(theta0) = min(speed gaps,
    sqrt(omega_minus))/16 (for K = 1 only sqrt(omega_minus) enters).
    """

    solitons: tuple = field(default_factory=tuple)

    def __post_init__(self):
        sols = tuple(self.solitons)
        if len(sols) < 1:
            raise ValueError("need at least one soliton")
        object.__setattr__(self, "solitons", sols)
        speeds = [s.c for s in sols]
        for a, b in zip(speeds, speeds[1:]):
            if not a < b:
                raise ValueError(
                    "soliton speeds must be distinct and strictly increasing "
                    f"(got c = {speeds}): solitons with equal speeds never separate"
                )

    @property
    def K(self) -> int:
        return len(self.solitons)

    @property
    def speeds(self):
        return np.array([s.c for s in self.solitons])

    @property
    def omegas(self):
        return np.array([s.omega for s in self.solitons])

    @property
    def omega_minus(self) -> float:
        return 0.5 * min(s.omega for s in self.solitons)

    @property
    def omega_plus(self) -> float:
        return 1.5 * max(s.omega for s in self.solitons)

    @property
    def theta0(self) -> float:
        gaps = [b - a for a, b in zip(self.speeds, self.speeds[1:])]
        root = min(gaps + [np.sqrt(self.omega_minus)]) / 16.0
        return root**2

    def to_json(self) -> str:
        return json.dumps(
            {
                "solitons": [
                    {"omega": s.omega, "c": s.c, "sigma": s.sigma, "gamma": s.gamma}
                    for s in self.solitons
                ]
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MultiSolitonConfig":
        data = json.loads(text)
        extra = set(data) - {"solitons"}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        sols = []
        for entry in data["solitons"]:
            bad = set(entry) - {"omega", "c", "sigma", "gamma"}
            if bad:
                raise ValueError(f"unknown soliton keys: {sorted(bad)}")
            sols.append(
                SolitonParams(
                    omega=float(entry["omega"]),
                    c=float(entry["c"]),
                    sigma=float(entry.get("sigma", 0.0)),
                    gamma=float(entry.get("gamma", 0.0)),
                )
            )
        return cls(solitons=tuple(sols))


# ---------------------------------------------------------------------------
# profile fields (closed forms; sech kept explicit for numerical range safety)
#
# Grid evaluations are periodized over the two neighbouring box images: a line
# profile sampled directly on the box has O(exp(-L/2))-size derivative jumps
# at the seam, which the spectral Laplacian amplifies by k_max^2 and which
# would poison sup-norm identities near 1e-8.  Raw-array input (line
# coordinates) is evaluated directly.


def _image_coords(grid_or_y, center):
    if isinstance(grid_or_y, Grid):
        y = grid_or_y.wrap(grid_or_y.x - center)
        box = grid_or_y.box_length
        return (y, y - box, y + box)
    return (np.asarray(grid_or_y) - center,)


def _q_of(y):
    return np.sqrt(2.0) / np.cosh(y)


def _q_prime_of(y):
    return -np.sqrt(2.0) * np.tanh(y) / np.cosh(y)


def _lambda_q_of(y):
    return (1.0 - y * np.tanh(y)) / (np.sqrt(2.0) * np.cosh(y))


def ground_state(grid: Grid):
    """Q(y) = sqrt(2)/cosh(y) sampled (periodized) on the grid."""
    return sum(_q_of(y) for y in _image_coords(grid, 0.0))


def ground_state_prime(grid: Grid):
    return sum(_q_prime_of(y) for y in _image_coords(grid, 0.0))


def lambda_q(grid: Grid):
    """Scaling generator (Q + y Q')/2 = (1 - y tanh y) / (sqrt(2) cosh y)."""
    return sum(_lambda_q_of(y) for y in _image_coords(grid, 0.0))


def y_ground_state(grid: Grid):
    """The line function y * Q(y), periodized (x * ground_state(x) would keep
    a value jump at the seam from the unbounded coordinate factor)."""
    return sum(y * _q_of(y) for y in _image_coords(grid, 0.0))


def phi(grid_or_y, omega: float, center: float = 0.0):
    """phi_omega evaluated at wrapped (x - center); accepts a Grid or raw array."""
    root = np.sqrt(omega)
    return sum(np.sqrt(omega) * _q_of(root * y)
               for y in _image_coords(grid_or_y, center))


def phi_prime(grid_or_y, omega: float, center: float = 0.0):
    root = np.sqrt(omega)
    return sum(omega * _q_prime_of(root * y)
               for y in _image_coords(grid_or_y, center))


def lambda_omega(grid_or_y, omega: float, center: float = 0.0):
    """d(phi_omega)/d(omega) = (1/sqrt(omega)) * LambdaQ(sqrt(omega) x), closed form."""
    root = np.sqrt(omega)
    return sum(_lambda_q_of(root * y) / root
               for y in _image_coords(grid_or_y, center))


def soliton_phase(grid: Grid, c: float, omega_phase: float, gamma: float, t: float, center: float):
    """Phase Gamma = c x/2 - c^2 t/4 + omega_phase t + gamma, periodic-safe.

    x is reconstructed as wrap(x - center) + center so the 2 pi phase seam
    coincides with the envelope minimum rather than the box edge.
    """
    x_near = grid.wrap(grid.x - center) + center
    return 0.5 * c * x_near - 0.25 * c**2 * t + omega_phase * t + gamma


def _wave(grid: Grid, params: SolitonParams, omega: float, sigma: float, gamma: float,
          t: float):
    """(u, n, v) of the wave of speed params.c with pulsation omega,
    translation sigma and phase gamma, its phase clock running at
    params.omega (for a modulated wave, gamma absorbs the difference)."""
    c = params.c
    center = c * t + sigma
    envelope = phi(grid, omega, center)
    gph = soliton_phase(grid, c, params.omega, gamma, t, center)
    u = np.sqrt(1.0 - c**2) * envelope * np.exp(1j * gph)
    n = -(envelope**2)
    v = c * n
    return u, n, v


def traveling_wave(grid: Grid, params: SolitonParams, t: float):
    """Exact traveling wave (u, n, v) at time t on the periodic grid."""
    return _wave(grid, params, params.omega, params.sigma, params.gamma, t)


def multi_soliton(grid: Grid, config: MultiSolitonConfig, t: float):
    """Superposition of the exact traveling waves of the config at time t."""
    u = np.zeros(grid.n_points, dtype=complex)
    n = np.zeros(grid.n_points)
    v = np.zeros(grid.n_points)
    for p in config.solitons:
        uk, nk, vk = traveling_wave(grid, p, t)
        u += uk
        n += nk
        v += vk
    return u, n, v


def modulated_profile(grid: Grid, config: MultiSolitonConfig, pi, t: float):
    """Sum of modulated soliton profiles S(pi) at time t.

    pi is the flat parameter vector of length 3K ordered as
    (omega_1..omega_K, sigma_1..sigma_K, gamma_1..gamma_K).
    """
    pi = np.asarray(pi, dtype=float)
    K = config.K
    if pi.shape != (3 * K,):
        raise ValueError(f"pi must have shape ({3*K},), got {pi.shape}")
    u = np.zeros(grid.n_points, dtype=complex)
    n = np.zeros(grid.n_points)
    v = np.zeros(grid.n_points)
    for k, p in enumerate(config.solitons):
        uk, nk, vk = _wave(grid, p, pi[k], pi[K + k], pi[2 * K + k], t)
        u += uk
        n += nk
        v += vk
    return u, n, v
