"""Periodic pseudospectral grid: wavenumbers, derivatives and quadrature.

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
        """(ik)^order for orders 1 and 2, at index order - 1."""
        return tuple((1j * self.wavenumbers) ** order for order in (1, 2))

    def wrap(self, y):
        """Map coordinates to their periodic representative in [-L/2, L/2)."""
        L = self.box_length
        return (np.asarray(y) + 0.5 * L) % L - 0.5 * L


def spectral_derivative(grid: Grid, field, order: int = 1):
    """Differentiate a periodic field by Fourier multiplication with (ik)^order.

    The field runs along the last axis (leading axes are a batch of fields).
    Real input returns a real array.  Orders 1 and 2 are supported.
    """
    f = np.asarray(field)
    if f.shape[-1:] != grid.x.shape:
        raise ValueError("field shape does not match grid")
    return _derivative_of_transform(grid, np.fft.fft(f), order, np.isrealobj(f))


def _derivative_of_transform(grid: Grid, f_hat, order: int, real: bool):
    """spectral_derivative of the field whose FFT is f_hat, so that one
    transform serves several orders."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    df = np.fft.ifft(grid.derivative_factors[order - 1] * f_hat)
    return df.real if real else df


def quadrature(grid: Grid, values):
    """Integrate over the periodic box: spacing times the ordered sum over
    the last axis (one value per field of a batch)."""
    return grid.spacing * np.asarray(values).sum(axis=-1)

