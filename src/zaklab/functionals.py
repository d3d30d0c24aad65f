"""Conserved and localized functionals of Zakharov states.

Global invariants of the flow:

    M = int |u|^2
    E = int ( |u_x|^2 + n |u|^2 + (n^2 + v^2)/2 )
    P = Im int ( conj(u) u_x ) + int n v

Localized counterparts use a moving C^3 partition of unity chi_k built from
an order-7 smoothstep; the chi boundaries travel at the midpoint speeds
between neighboring solitons, so M_k and P_k capture the k-th soliton's
share.  The Weinstein functional

    G = E + sum_k ( nu_k^0 M_k - c_k P_k ),   nu_k^0 = omega_k^0 + c_k^2/4,

is coercive around the modulated multi-soliton profile; its expansion in the
error eps = state - S splits exactly (pure algebra, no smallness used) into
G = G0 + G1 + G21 + G22 + G3 with G0 the profile value, G1 the first
variation, G21 the localized quadratic form at the instantaneous pulsations,
G22 the pulsation-mismatch correction, and G3 the cubic term
int eps_n |eps_u|^2.

Second-derivative-level ("modified") energies of an error triple (U, N, V)
against a reference u-profile R_u:

    H     = int ( |U_xx|^2 + (N_x)^2/2 + (V_x)^2/2 )
    G_mod = H + 2 int N |U_x|^2 + 2 Re int U (N_x conj(U_x))
              + 2 Re int R_u (N_x conj(U_x)) - 2 Re int conj(U) (R_u_x N_x)

whose controlled growth yields the higher-regularity decay diagnostics.

The diagnostics of many snapshots are computed together by _Frame, on a
batch stacked as (B, n_points) arrays; _Frame.errors, _Frame.local and
_Frame.reports give the columns of the run tables errors.csv, local_L<L>.csv
and functionals.csv, one (B,) array each.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .grid import Grid, _derivative_of_transform, quadrature, spectral_derivative
from .profiles import POSITIVE, MultiSolitonConfig, multi_soliton

__all__ = [
    "mass",
    "energy",
    "momentum",
    "smooth_step",
    "cutoff_profile_constants",
    "CutoffFamily",
    "weinstein",
    "weinstein_decompose",
]


class _Frame:
    """A batch of snapshots' fields, derivatives and densities, each built once.

    The fields u, n, v are stacked on a leading batch axis as (B, n_points)
    arrays and the times t form a (B, 1) column, so every density broadcasts
    over the batch and every quadrature sums the last axis: a scalar
    diagnostic is a (B,) array, one value per snapshot, each with the bits
    the snapshot gets in a batch of its own.  Every attribute is computed on
    first use and then kept, so a caller pays only for what it reads and the
    diagnostics share one profile build and one transform of each field.
    `ref` (the frame of the fixed-parameter profile sums R(t)) and `eps` (the
    frame of state - R(t)) need a config; `chis` needs a cutoff family.
    """

    def __init__(self, grid: Grid, t, u, n, v, config: MultiSolitonConfig | None = None,
                 family: CutoffFamily | None = None):
        if config is not None and family is not None and family.K != config.K:
            raise ValueError(f"cutoff family has K={family.K} but config has K={config.K}")
        self.grid, self.t, self.u, self.n, self.v = grid, t, u, n, v
        self.config, self.family = config, family

    @classmethod
    def of(cls, states, config: MultiSolitonConfig | None = None,
           family: CutoffFamily | None = None) -> _Frame:
        """The frame of a sequence of States on one grid."""
        grid = states[0].grid
        if any(s.grid is not grid for s in states):
            raise ValueError("the states of one frame must share one grid")
        return cls(grid, np.array([[s.t] for s in states], dtype=float),
                   *(np.stack([getattr(s, f) for s in states]) for f in "unv"),
                   config, family)

    @property
    def times(self):
        return self.t[:, 0]

    @cached_property
    def _u_hat(self):
        return np.fft.fft(self.u)

    @cached_property
    def ux(self):
        return _derivative_of_transform(self.grid, self._u_hat, 1, real=False)

    @cached_property
    def uxx(self):
        return _derivative_of_transform(self.grid, self._u_hat, 2, real=False)

    @cached_property
    def nx(self):
        return spectral_derivative(self.grid, self.n, 1)

    @cached_property
    def vx(self):
        return spectral_derivative(self.grid, self.v, 1)

    @cached_property
    def mass_density(self):
        return np.abs(self.u) ** 2

    @cached_property
    def energy_density(self):
        return np.abs(self.ux) ** 2 + self.n * self.mass_density + 0.5 * (self.n**2 + self.v**2)

    @cached_property
    def momentum_density(self):
        return np.imag(np.conj(self.u) * self.ux) + self.n * self.v

    @cached_property
    def chis(self):
        return self.family.chis(self.grid, self.t)

    @cached_property
    def ref(self) -> _Frame:
        return _Frame(self.grid, self.t, *multi_soliton(self.grid, self.config, self.t))

    @cached_property
    def eps(self) -> _Frame:
        r = self.ref
        return _Frame(self.grid, self.t, self.u - r.u, self.n - r.n, self.v - r.v)

    @property
    def M(self):
        return quadrature(self.grid, self.mass_density)

    @property
    def E(self):
        return quadrature(self.grid, self.energy_density)

    @property
    def P(self):
        return quadrature(self.grid, self.momentum_density)

    def invariants(self) -> dict:
        """The columns t, M, E, P, one (B,) array each."""
        return {"t": self.times, "M": self.M, "E": self.E, "P": self.P}

    def errors(self) -> dict:
        """The errors.csv columns: invariants, then norms of state - R(t)
        (needs config)."""
        e = self.eps
        return {**self.invariants(), "err_bold_H": e.bold_H, "err_h2_square": e.h2_square}

    def local(self, chis) -> dict:
        """The K cutoff-weighted masses M_1..M_K, then momenta P_1..P_K, under
        the (K, B, n_points) cutoffs chis, one (B,) array each."""
        return {f"{name}_{k + 1}": quadrature(self.grid, density * c)
                for name, density in (("M", self.mass_density), ("P", self.momentum_density))
                for k, c in enumerate(chis)}

    @property
    def bold_H(self):
        """The bold-H norm ||u||_{H^1} + ||n||_{L^2} + ||v||_{L^2} of the fields,
        a sum of the three (not a root-sum-square)."""
        sq = [quadrature(self.grid, np.abs(f) ** 2).real
              for f in (self.u, self.ux, self.n, self.v)]
        return np.sqrt(sq[0] + sq[1]) + np.sqrt(sq[2]) + np.sqrt(sq[3])

    @property
    def h2_square(self):
        """Squared H^2 x H^1 x H^1 seminorm (sum of squares)."""
        g = self.grid
        return (quadrature(g, np.abs(self.uxx) ** 2) + quadrature(g, self.nx**2)
                + quadrature(g, self.vx**2))

    def weinstein(self, config: MultiSolitonConfig, chis):
        dens = self.energy_density
        for k, p in enumerate(config.solitons):
            dens = dens + chis[k] * (p.nu * self.mass_density - p.c * self.momentum_density)
        return quadrature(self.grid, dens)

    def modified(self, r_u, rux) -> dict:
        """Second-derivative energies of the fields as an error triple against
        the profile r_u (rux its derivative).

        H is the flat H^2 x H^1 x H^1 leading part; G_mod adds the cubic
        self-interaction and the two r_u-coupling corrections that make its
        time derivative integrable along decaying trajectories.
        """
        g = self.grid
        U, N = self.u, self.n
        Ux, Nx = self.ux, self.nx
        h_val = quadrature(g, np.abs(self.uxx) ** 2 + 0.5 * Nx**2 + 0.5 * self.vx**2)
        g_val = (
            h_val
            + 2.0 * quadrature(g, N * np.abs(Ux) ** 2)
            + 2.0 * quadrature(g, np.real(U * Nx * np.conj(Ux)))
            + 2.0 * quadrature(g, np.real(r_u * Nx * np.conj(Ux)))
            - 2.0 * quadrature(g, np.real(np.conj(U) * rux * Nx))
        )
        return {"H": h_val, "G_mod": g_val}

    def tails(self, K0: float) -> dict:
        """Mass and energy content of the region |x| > K0.

        The cut indicator gets a one-cell linear ramp at |x| = K0 (the
        trapezoid treatment of a domain boundary), which keeps the quadrature
        second-order instead of O(spacing) from a sharp step.
        """
        g = self.grid
        if not 0 < K0 < 0.5 * g.box_length:
            raise ValueError("K0 must lie inside (0, box_length/2)")
        outside = np.clip((np.abs(g.x) - K0) / g.spacing + 0.5, 0.0, 1.0)
        return {
            "mass_tail": quadrature(g, self.mass_density * outside),
            "energy_tail": quadrature(g, self.energy_density * outside),
        }

    def reports(self, K0: float) -> dict:
        """The functionals.csv columns, in file order, as (B,) arrays (needs
        config and family).  The decomposition uses S = R(t), the
        fixed-parameter profiles, at the reference pulsations, so G22 is zero
        and g22_active False."""
        e, r = self.eps, self.ref
        return {
            **self.invariants(),
            **self.local(self.chis),
            "G": self.weinstein(self.config, self.chis),
            **_decompose(e, r, self.config, self.chis, None),
            **e.modified(r.u, r.ux),
            **self.tails(K0),
            "g22_active": np.zeros(self.times.shape, dtype=bool),
        }


def mass(state) -> float:
    return _Frame.of([state]).M[0]


def energy(state) -> float:
    return _Frame.of([state]).E[0]


def momentum(state) -> float:
    return _Frame.of([state]).P[0]


def smooth_step(s):
    """C^3 monotone step: 0 for s <= -1, 1 for s >= 1, order-7 polynomial blend.

    With t = (s+1)/2 the blend is 35 t^4 - 84 t^5 + 70 t^6 - 20 t^7; its first
    three derivatives vanish at both plateaus, and sup |d/ds| = 35/32.
    """
    t = np.clip((np.asarray(s, dtype=float) + 1.0) * 0.5, 0.0, 1.0)
    return t**4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


# samples of cutoff_profile_constants, in all and per chunk
_SAMPLES, _CHUNK = 400_001, 1 << 14


def cutoff_profile_constants() -> dict:
    """Measured regularity constants of the base step profile.

    The analysis wants (psi')^2 <= psi and (psi'')^2 <= C psi'; the polynomial
    step satisfies both only up to finite constants, which are measured here
    (suprema over a fine sampling of the transition interval) and reported in
    run manifests rather than assumed to be 1.  The samples of
    np.linspace(-1, 1, _SAMPLES) are taken in chunks of _CHUNK so that the
    working memory stays small; a supremum is the maximum of the chunk maxima.
    """
    samples = np.linspace(-1.0, 1.0, _SAMPLES)
    sups = np.zeros(3)
    for lo in range(0, _SAMPLES, _CHUNK):
        s = samples[lo:lo + _CHUNK]
        t = (s + 1.0) * 0.5
        psi = smooth_step(s)
        dpsi = 70.0 * t**3 * (1.0 - t) ** 3
        d2psi = 105.0 * t**2 * (1.0 - t) ** 2 * (1.0 - 2.0 * t)
        inner = (psi > 0) & (dpsi > 0)
        chunk = (np.max(dpsi),
                 np.max(dpsi[psi > 0] ** 2 / psi[psi > 0], initial=0.0),
                 np.max(d2psi[inner] ** 2 / dpsi[inner], initial=0.0))
        sups = np.maximum(sups, chunk)
    return {
        "sup_psi_prime": float(sups[0]),
        "sup_psi_prime_sq_over_psi": float(sups[1]),
        "sup_psi_second_sq_over_psi_prime": float(sups[2]),
    }


@dataclass(frozen=True)
class CutoffFamily:
    """Moving partition of unity adapted to a soliton speed ladder.

    The boundary between the k-th and (k+1)-th windows travels at the midpoint
    speed cbar = (c_k + c_{k+1})/2 and has transition half-width L:
    chi_1 = 1 - psi((x - cbar_2 t)/L), chi_K = psi((x - cbar_K t)/L), interior
    chi_k are differences of neighboring steps, so sum_k chi_k == 1 pointwise
    by telescoping.  For K = 1 there are no boundaries and chi_1 == 1.
    """

    L: float
    boundary_speeds: tuple = ()

    def __post_init__(self):
        POSITIVE.parse("cutoff transition width L", self.L)
        speeds = tuple(float(c) for c in self.boundary_speeds)
        if list(speeds) != sorted(speeds):
            raise ValueError("cutoff boundary speeds must be sorted increasingly")
        object.__setattr__(self, "boundary_speeds", speeds)

    @classmethod
    def for_config(cls, config: MultiSolitonConfig, L: float) -> "CutoffFamily":
        c = config.speeds
        return cls(L=L, boundary_speeds=tuple(0.5 * (c[k - 1] + c[k]) for k in range(1, len(c))))

    @property
    def K(self) -> int:
        return len(self.boundary_speeds) + 1

    def chis(self, grid: Grid, t):
        """All K cutoffs stacked as a (K, n_points) array; t broadcasts
        against the grid (a (B, 1) column of times gives (K, B, n_points))."""
        if self.K == 1:
            return np.ones((1,) + np.broadcast_shapes(np.shape(t), grid.x.shape))
        steps = [
            smooth_step(grid.wrap(grid.x - cbar * t) / self.L)
            for cbar in self.boundary_speeds
        ]
        rows = [1.0 - steps[0]]
        for a, b in zip(steps, steps[1:]):
            rows.append(a - b)
        rows.append(steps[-1])
        return np.stack(rows)


def weinstein(state, config: MultiSolitonConfig, family: CutoffFamily) -> float:
    """Energy plus pulsation/speed-weighted localized masses and momenta."""
    f = _Frame.of([state], config, family)
    return f.weinstein(config, f.chis)[0]


def weinstein_decompose(epsilon, S, config: MultiSolitonConfig, family: CutoffFamily,
                        omegas_t=None) -> dict:
    """Exact split G(S + eps) = G0 + G1 + G21 + G22 + G3.

    epsilon and S are state triples on one grid (S the modulated profile sum,
    epsilon the remainder); S.t sets the cutoff positions.  omegas_t supplies
    the instantaneous pulsations entering G21's quadratic weights and G22's
    mismatch; when omitted they default to the reference pulsations and
    G22 == 0 (the decomposition stays usable pre-modulation).  The split is
    algebraically exact for arbitrary epsilon, which the tests exercise.
    """
    if epsilon.grid is not S.grid:
        raise ValueError("epsilon and S must share one grid")
    ref = _Frame.of([S], config, family)
    parts = _decompose(_Frame.of([epsilon]), ref, config, ref.chis, omegas_t)
    return {key: val[0] for key, val in parts.items()}


def _decompose(e: _Frame, S: _Frame, config: MultiSolitonConfig, chis, omegas_t) -> dict:
    """weinstein_decompose on the frames of epsilon and S."""
    omegas_t = np.asarray(config.omegas if omegas_t is None else omegas_t, dtype=float)
    if omegas_t.shape != (config.K,):
        raise ValueError("omegas_t must supply one pulsation per soliton")
    g = S.grid
    s_u, s_n, s_v, s_ux = S.u, S.n, S.v, S.ux
    e_u, e_n, e_v, e_ux = e.u, e.n, e.v, e.ux

    g0 = S.weinstein(config, chis)

    # first variation of G at S in direction eps
    lin = (
        2.0 * np.real(s_ux * np.conj(e_ux))
        + 2.0 * s_n * np.real(np.conj(s_u) * e_u)
        + e_n * np.abs(s_u) ** 2
        + s_n * e_n
        + s_v * e_v
    )
    for k, p in enumerate(config.solitons):
        lin = lin + chis[k] * (
            2.0 * p.nu * np.real(np.conj(s_u) * e_u)
            - p.c * (np.imag(np.conj(e_u) * s_ux + np.conj(s_u) * e_ux)
                     + s_n * e_v + e_n * s_v)
        )
    g1 = quadrature(g, lin)

    # localized quadratic form at the instantaneous pulsations, plus the
    # profile-coupling part (linear in S, so the per-soliton sum telescopes)
    mom_dens = e.momentum_density
    quad = 2.0 * e_n * np.real(np.conj(s_u) * e_u) + s_n * e.mass_density
    g22 = 0.0
    for k, p in enumerate(config.solitons):
        nu_t = omegas_t[k] + 0.25 * p.c**2
        quad = quad + chis[k] * (
            np.abs(e_ux) ** 2 + nu_t * e.mass_density
            - p.c * mom_dens + 0.5 * (e_n**2 + e_v**2)
        )
        g22 += (p.omega - omegas_t[k]) * quadrature(g, chis[k] * e.mass_density)
    g21 = quadrature(g, quad)

    g3 = quadrature(g, e_n * e.mass_density)
    return {"G0": g0, "G1": g1, "G21": g21, "G22": g22, "G3": g3}


def _write_csv(path, columns: dict) -> None:
    """The package's one CSV format, for a table given as {name: column}
    (arrays or lists of one length): a header of the names, then one row per
    index, floats written by repr (so they read back bit for bit) and
    strings, bools and ints by str."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in zip(*columns.values()):
            writer.writerow([
                str(x) if isinstance(x, (str, bool, int, np.bool_, np.integer))
                else repr(float(x))
                for x in row
            ])
