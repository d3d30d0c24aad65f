import numpy as np
import pytest

from zaklab.dynamics import State
from zaklab.functionals import _Frame
from zaklab.grid import Grid, quadrature, spectral_derivative


def test_grid_layout():
    g = Grid(256, 40.0)
    assert g.n_points == 256
    assert g.spacing == pytest.approx(40.0 / 256)
    assert g.x[0] == pytest.approx(-20.0)
    assert g.x[-1] == pytest.approx(20.0 - g.spacing)
    assert np.allclose(np.diff(g.x), g.spacing)
    # wavenumbers are the 2*pi*fftfreq convention
    assert g.wavenumbers[1] == pytest.approx(2.0 * np.pi / 40.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 40.0)
    with pytest.raises(ValueError):
        Grid(255, 40.0)  # power-of-two / even requirement
    with pytest.raises(ValueError):
        Grid(256, -1.0)


def test_wrap_is_periodic_representative():
    g = Grid(128, 40.0)
    y = np.array([-30.0, -20.0, -5.0, 0.0, 19.9, 20.0, 25.0])
    w = g.wrap(y)
    assert np.all(w >= -20.0)
    assert np.all(w < 20.0)
    assert np.allclose(np.mod(w - y, 40.0), 0.0)


def test_spectral_derivative_trig_exact():
    g = Grid(128, 2.0 * np.pi)
    f = np.sin(3.0 * g.x) + 0.5 * np.cos(5.0 * g.x)
    fx = spectral_derivative(g, f, 1).real
    exact = 3.0 * np.cos(3.0 * g.x) - 2.5 * np.sin(5.0 * g.x)
    assert np.max(np.abs(fx - exact)) < 1e-12
    fxx = spectral_derivative(g, f, 2).real
    exact2 = -9.0 * np.sin(3.0 * g.x) - 12.5 * np.cos(5.0 * g.x)
    assert np.max(np.abs(fxx - exact2)) < 1e-11


def test_spectral_derivative_gaussian():
    g = Grid(512, 40.0)
    f = np.exp(-g.x**2)
    fx = spectral_derivative(g, f, 1).real
    assert np.max(np.abs(fx + 2.0 * g.x * f)) < 1e-10


def test_spectral_derivative_complex_field():
    g = Grid(256, 2.0 * np.pi)
    f = np.exp(2j * g.x)
    fx = spectral_derivative(g, f, 1)
    assert np.max(np.abs(fx - 2j * f)) < 1e-12


def test_quadrature_constant_and_gaussian():
    g = Grid(256, 40.0)
    assert quadrature(g, np.ones(g.n_points)) == pytest.approx(40.0)
    # periodic trapezoid = plain sum is spectrally accurate on decaying data
    assert quadrature(g, np.exp(-g.x**2)) == pytest.approx(np.sqrt(np.pi), abs=1e-12)


def test_sobolev_norms_known_field():
    g = Grid(512, 2.0 * np.pi)
    u = np.exp(1j * g.x)          # |u|_L2^2 = 2 pi, |u_x|_L2^2 = 2 pi
    n = np.cos(g.x)               # L2^2 = pi
    v = np.zeros(g.n_points)
    f = _Frame.of([State(g, 0.0, u, n, v)])
    # the triple norm is the sum of the three pieces, |u|_H1 = sqrt(4 pi)
    # and |n|_L2 = sqrt(pi), not a root-sum-square
    assert f.bold_H[0] == pytest.approx(np.sqrt(4.0 * np.pi) + np.sqrt(np.pi), rel=1e-12)
    # |u_xx|_L2^2 = 2 pi, |n_x|_L2^2 = pi
    assert f.h2_square[0] == pytest.approx(3.0 * np.pi, rel=1e-12)


def test_dealias_mask_two_thirds():
    g = Grid(256, 40.0)
    kept = int(np.sum(g.dealias_mask))
    assert kept <= int(np.ceil(2 * 256 / 3)) + 1
    assert g.dealias_mask[0]  # the mean mode always survives
    assert not g.dealias_mask[g.n_points // 2]


def test_derivative_factors_are_cached_powers():
    g = Grid(64, 10.0)
    assert g.derivative_factors is g.derivative_factors
    assert len(g.derivative_factors) == 2
    for order in (1, 2):
        assert np.array_equal(g.derivative_factors[order - 1], (1j * g.wavenumbers) ** order)


@pytest.mark.parametrize("order", (0, 3))
def test_spectral_derivative_refuses_orders_other_than_1_and_2(order):
    g = Grid(64, 10.0)
    with pytest.raises(ValueError, match=f"derivative order must be 1 or 2, got {order}"):
        spectral_derivative(g, np.sin(g.x), order)


def test_spectral_derivative_of_a_batch_is_row_by_row():
    g = Grid(64, 10.0)
    fields = np.random.default_rng(3).standard_normal((3, 64))
    for order in (1, 2):
        batch = spectral_derivative(g, fields, order)
        assert batch.shape == (3, 64)
        for row, f in zip(batch, fields):
            assert np.array_equal(row, spectral_derivative(g, f, order))
