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

A wave's modulation directions, for both the Newton fit of modulation and
the constraints of spectral.h2_coercivity, come from _directions, which forms
sech from e^{-|z|}, so iterates that run to large omega do not overflow.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, NamedTuple

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
    "lambda_omega",
    "traveling_wave",
    "multi_soliton",
    "pi_from_config",
    "modulated_profile",
    "soliton_phase",
]


class Admits(NamedTuple):
    """The admissible values of a config key: those that pass `test`, stored
    as `convert` makes them (floats, ints for counts, tuples for lists: one
    value, one content hash).  Others are refused with "<key> must be
    <text>", and `zaklab --help` prints `text` by the key."""

    text: str
    test: Callable
    convert: Callable = float

    def parse(self, key: str, value):
        if not self.test(value):
            raise ValueError(f"{key} must be {self.text}, got {value!r}")
        return self.convert(value)

    def list_of(self, text: str) -> "Admits":
        """Non-empty lists of values this admits, stored as tuples."""
        def test(v):
            return isinstance(v, (list, tuple)) and len(v) > 0 and all(map(self.test, v))
        return Admits(text, test, lambda v: tuple(map(self.convert, v)))


COUNT = Admits("a positive integer",
               lambda x: (type(x) is int or isinstance(x, np.integer)) and x >= 1, int)
FINITE = Admits("finite", lambda x: isinstance(x, (int, float, np.integer, np.floating))
                and not isinstance(x, bool) and bool(np.isfinite(x)))
POSITIVE = Admits("finite and > 0", lambda x: FINITE.test(x) and x > 0)
CEILING = Admits("positive, or Infinity for no ceiling", lambda x: x == np.inf or POSITIVE.test(x))
SUBSONIC = Admits("in (-1, 1)", lambda x: FINITE.test(x) and abs(x) < 1)
POSITIVES = POSITIVE.list_of("finite and > 0, in a non-empty list")
SPEEDS = SUBSONIC.list_of("finite and in (-1, 1), in a non-empty list")


def config_key(block: str, admits: Admits, default=MISSING):
    """A dataclass field declaring a config key: block, admissible values, default."""
    shown = "required" if default is MISSING else f"default {json.dumps(default)}"
    return field(default=default, metadata={"block": block, "admits": admits,
                                            "help": f"{shown}; {admits.text}"})


@dataclass(frozen=True)
class SolitonParams:
    """Parameters (omega, c, sigma, gamma) of one traveling solitary wave."""

    omega: float = config_key("solitons.N", POSITIVE)
    c: float = config_key("solitons.N", SUBSONIC)
    sigma: float = config_key("solitons.N", FINITE, 0.0)
    gamma: float = config_key("solitons.N", FINITE, 0.0)

    def __post_init__(self):
        for key in SOLITON_KEYS:
            value = key.metadata["admits"].parse(key.name, getattr(self, key.name))
            object.__setattr__(self, key.name, value)

    @property
    def nu(self) -> float:
        """Combined multiplier omega + c^2/4 entering the Weinstein functional."""
        return self.omega + 0.25 * self.c**2


SOLITON_KEYS = fields(SolitonParams)


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


# ---------------------------------------------------------------------------
# profile fields (closed forms; sech kept explicit for numerical range safety)
#
# Grid evaluations are periodized over the two neighbouring box images: a line
# profile sampled directly on the box has O(exp(-L/2))-size derivative jumps
# at the seam, which the spectral Laplacian amplifies by k_max^2 and which
# would poison sup-norm identities near 1e-8.


_SQRT2 = np.sqrt(2.0)


def _images(grid: Grid, center):
    """Wrapped coordinates x - center and their two neighbouring box images."""
    y = grid.wrap(grid.x - center)
    box = grid.box_length
    return (y, y - box, y + box)


def _q_of(y):
    return np.sqrt(2.0) / np.cosh(y)


def _q_prime_of(y):
    return -np.sqrt(2.0) * np.tanh(y) / np.cosh(y)


def _lambda_q_of(y):
    return (1.0 - y * np.tanh(y)) / (np.sqrt(2.0) * np.cosh(y))


def ground_state(grid: Grid):
    """Q(y) = sqrt(2)/cosh(y) sampled (periodized) on the grid: phi_1."""
    return phi(grid, 1.0)


def ground_state_prime(grid: Grid):
    return sum(_q_prime_of(y) for y in _images(grid, 0.0))


def lambda_q(grid: Grid):
    """Scaling generator (Q + y Q')/2 = (1 - y tanh y) / (sqrt(2) cosh y): Lambda_1."""
    return lambda_omega(grid, 1.0)


def y_ground_state(grid: Grid):
    """The line function y * Q(y), periodized (x * ground_state(x) would keep
    a value jump at the seam from the unbounded coordinate factor)."""
    return sum(y * _q_of(y) for y in _images(grid, 0.0))


def phi(grid: Grid, omega: float, center: float = 0.0):
    """phi_omega evaluated at wrapped (x - center)."""
    return _phi_of(_images(grid, center), omega)


def _phi_of(coords, omega):
    root = np.sqrt(omega)
    return sum(np.sqrt(omega) * _q_of(root * y) for y in coords)


def lambda_omega(grid: Grid, omega: float, center: float = 0.0):
    """d(phi_omega)/d(omega) = (1/sqrt(omega)) * LambdaQ(sqrt(omega) x), closed form."""
    root = np.sqrt(omega)
    return sum(_lambda_q_of(root * y) / root for y in _images(grid, center))


def soliton_phase(grid: Grid, c: float, omega_phase: float, gamma: float, t: float, center: float):
    """Phase Gamma = c x/2 - c^2 t/4 + omega_phase t + gamma, periodic-safe.

    x is reconstructed as wrap(x - center) + center so the 2 pi phase seam
    coincides with the envelope minimum rather than the box edge.
    """
    return _phase_of(grid.wrap(grid.x - center) + center, c, omega_phase, gamma, t)


def _phase_of(x_near, c, omega_phase, gamma, t):
    return 0.5 * c * x_near - 0.25 * c**2 * t + omega_phase * t + gamma


def _sech_tanh(z):
    """sech z and tanh z from e^{-|z|}, finite however large |z| grows."""
    e = np.exp(-np.abs(z))
    e2 = e * e
    return 2.0 * e / (1.0 + e2), np.sign(z) * (1.0 - e2) / (1.0 + e2)


def _directions(grid: Grid, c, omega, center, gamma, t, omega_phase):
    """The modulation directions of the wave of speed c and pulsation omega
    centred at center, summed over the three box images: the wrapped
    x_k = x - center, then phi_omega, phi_omega', Lambda_omega,
    Lambda_omega' and d(Lambda_omega)/d(omega) at x_k, then cos Gamma and
    sin Gamma for the phase of soliton_phase with clock omega_phase."""
    r = np.sqrt(omega)
    images = _images(grid, center)
    # sums of sech, sech*tanh, sqrt(2) LambdaQ, sqrt(2) LambdaQ' and the
    # omega-derivative numerator of Lambda_omega
    f = df = lam = dlam = lam_omega = 0.0
    for y in images:
        z = r * y
        sech, tanh = _sech_tanh(z)
        lq = sech * (1.0 - z * tanh)
        dlq = sech * (z * (tanh * tanh - sech * sech) - 2.0 * tanh)
        f = f + sech
        df = df + sech * tanh
        lam = lam + lq
        dlam = dlam + dlq
        lam_omega = lam_omega + (y * dlq - lq / r)
    phase = _phase_of(images[0] + center, c, omega_phase, gamma, t)
    return (images[0], _SQRT2 * r * f, -_SQRT2 * omega * df, lam / (_SQRT2 * r),
            dlam / _SQRT2, lam_omega / (2.0 * _SQRT2 * omega), np.cos(phase), np.sin(phase))


def _wave(grid: Grid, params: SolitonParams, omega: float, sigma: float, gamma: float,
          t):
    """(u, n, v) of the wave of speed params.c with pulsation omega,
    translation sigma and phase gamma, its phase clock running at
    params.omega (for a modulated wave, gamma absorbs the difference).
    t may be an array (a (B, 1) column gives (B, n_points) fields); the
    wrapped coordinate serves both the envelope and the phase."""
    c = params.c
    center = c * t + sigma
    images = _images(grid, center)
    envelope = _phi_of(images, omega)
    gph = _phase_of(images[0] + center, c, params.omega, gamma, t)
    u = np.sqrt(1.0 - c**2) * envelope * np.exp(1j * gph)
    n = -(envelope**2)
    v = c * n
    return u, n, v


def traveling_wave(grid: Grid, params: SolitonParams, t: float):
    """Exact traveling wave (u, n, v) at time t on the periodic grid."""
    return _wave(grid, params, params.omega, params.sigma, params.gamma, t)


def multi_soliton(grid: Grid, config: MultiSolitonConfig, t):
    """Superposition of the exact traveling waves of the config at time t.

    t broadcasts against the grid: a (B, 1) column of times gives the B
    superpositions stacked as (B, n_points) fields."""
    return modulated_profile(grid, config, pi_from_config(config), t)


def pi_from_config(config: MultiSolitonConfig) -> np.ndarray:
    """Reference parameter vector Pi^0 in the fixed (omega, sigma, gamma) order."""
    return np.array(
        [p.omega for p in config.solitons]
        + [p.sigma for p in config.solitons]
        + [p.gamma for p in config.solitons]
    )


def _checked_pi(pi, K: int) -> np.ndarray:
    """pi as floats in the (omega, sigma, gamma) layout of K solitons, its
    pulsations positive; else ValueError."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (3 * K,):
        raise ValueError(f"pi must have shape ({3 * K},), got {pi.shape}")
    if np.any(pi[:K] <= 0):
        raise ValueError("modulated pulsations must stay positive")
    return pi


def modulated_profile(grid: Grid, config: MultiSolitonConfig, pi, t):
    """Sum of modulated soliton profiles S(pi) at time t.

    pi is the flat parameter vector of length 3K ordered as
    (omega_1..omega_K, sigma_1..sigma_K, gamma_1..gamma_K), its pulsations
    positive.  t broadcasts as in multi_soliton.
    """
    K = config.K
    pi = _checked_pi(pi, K)
    shape = np.broadcast_shapes(np.shape(t), grid.x.shape)
    u = np.zeros(shape, dtype=complex)
    n = np.zeros(shape)
    v = np.zeros(shape)
    for k, p in enumerate(config.solitons):
        uk, nk, vk = _wave(grid, p, pi[k], pi[K + k], pi[2 * K + k], t)
        u += uk
        n += nk
        v += vk
    return u, n, v
