"""Periodic pseudospectral grid: wavenumbers, derivatives, quadrature, norms.

All fields live on a uniform grid over [-box_length/2, box_length/2) with
periodic boundary conditions.  Derivatives are exact for band-limited fields
(multiplication by (ik)^order in Fourier space) and quadrature is the
trapezoid rule, which on a periodic grid is spectrally accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "spectral_derivative",
    "quadrature",
    "sobolev_norms",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform periodic grid with precomputed spectral machinery.

    Parameters
    ----------
    n_points : int
        Number of collocation points (must be even, >= 16).
    box_length : float
        Period of the domain; points span [-box_length/2, box_length/2).

    Attributes
    ----------
    spacing : float
        Mesh width h = box_length / n_points.
    x : ndarray
        Collocation points.
    wavenumbers : ndarray
        Angular wavenumbers 2*pi*fftfreq(n, d=h), FFT ordering.
    dealias_mask : ndarray of bool
        Two-thirds-rule mask (True on retained modes).
    """

    n_points: int
    box_length: float

    def __post_init__(self):
        if self.n_points < 16 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 16, got {self.n_points}")
        if not (self.box_length > 0):
            raise ValueError(f"box_length must be positive, got {self.box_length}")
        h = self.box_length / self.n_points
        x = -0.5 * self.box_length + h * np.arange(self.n_points)
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=h)
        k_max = np.abs(k).max()
        mask = np.abs(k) <= (2.0 / 3.0) * k_max
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wavenumbers", k)
        object.__setattr__(self, "dealias_mask", mask)

    @cached_property
    def derivative_factors(self) -> tuple:
        """(ik)^order for orders 1 through 4, at index order - 1."""
        return tuple((1j * self.wavenumbers) ** order for order in range(1, 5))

    def wrap(self, y):
        """Map coordinates to their periodic representative in [-L/2, L/2)."""
        L = self.box_length
        return (np.asarray(y) + 0.5 * L) % L - 0.5 * L


def spectral_derivative(grid: Grid, field, order: int = 1):
    """Differentiate a periodic field by Fourier multiplication with (ik)^order.

    The field runs along the last axis (leading axes are a batch of fields).
    Real input returns a real array.  Orders 1 through 4 are supported.
    """
    f = np.asarray(field)
    if f.shape[-1:] != grid.x.shape:
        raise ValueError("field shape does not match grid")
    return _derivative_of_transform(grid, np.fft.fft(f), order, np.isrealobj(f))


def _derivative_of_transform(grid: Grid, f_hat, order: int, real: bool):
    """spectral_derivative of the field whose FFT is f_hat, so that one
    transform serves several orders."""
    if not 1 <= order <= 4:
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    df = np.fft.ifft(grid.derivative_factors[order - 1] * f_hat)
    return df.real if real else df


def quadrature(grid: Grid, values):
    """Integrate over the periodic box: spacing times the ordered sum over
    the last axis (one value per field of a batch)."""
    return grid.spacing * np.asarray(values).sum(axis=-1)


def sobolev_norms(grid: Grid, u, n, v) -> dict:
    """Sobolev norms of a state triple (u complex, n and v real).

    Returns a dict with keys H1_of_u, L2_of_n, L2_of_v, bold_H, H2_of_u,
    H1_of_n, H1_of_v.  bold_H is the *sum* of the first three (the natural
    norm on H^1 x L^2 x L^2 triples), not a root-sum-square.
    """
    ux = spectral_derivative(grid, u, 1)
    uxx = spectral_derivative(grid, u, 2)
    nx = spectral_derivative(grid, n, 1)
    vx = spectral_derivative(grid, v, 1)

    def l2sq(f):
        return quadrature(grid, np.abs(f) ** 2).real

    h1_u = np.sqrt(l2sq(u) + l2sq(ux))
    l2_n = np.sqrt(l2sq(n))
    l2_v = np.sqrt(l2sq(v))
    return {
        "H1_of_u": h1_u,
        "L2_of_n": l2_n,
        "L2_of_v": l2_v,
        "bold_H": h1_u + l2_n + l2_v,
        "H2_of_u": np.sqrt(l2sq(u) + l2sq(ux) + l2sq(uxx)),
        "H1_of_n": np.sqrt(l2sq(n) + l2sq(nx)),
        "H1_of_v": np.sqrt(l2sq(v) + l2sq(vx)),
    }

