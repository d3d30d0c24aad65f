"""Pseudospectral split-step time integration of the 1D Zakharov system

    i u_t + u_xx = n u
    n_t = -v_x
    v_t = -n_x - (|u|^2)_x

on a periodic box, first-order in (n, v).  The flow is split into

  A: free Schrodinger, u_hat <- exp(-i k^2 dt) u_hat, exact and unitary;
  W: the coupled wave + potential subsystem with |u|^2 frozen (it is an
     invariant of this subsystem, since u only changes by a local phase):
         n_hat(dt) = (n_hat0 + f_hat) cos(k dt) - i v_hat0 sin(k dt) - f_hat
         v_hat(dt) = v_hat0 cos(k dt) - i (n_hat0 + f_hat) sin(k dt)
         u <- exp(-i I) u,  I = integral of n over the substep, per mode
         I_hat = (n_hat0 + f_hat) sin(k dt)/k - i v_hat0 (1 - cos(k dt))/k
                 - f_hat dt          (zero mode: n_hat0 dt),
     with f = |u|^2 truncated by the grid's two-thirds dealias mask; also
     exact, and |u|-preserving.

One step is the Strang composition A(dt/2) W(dt) A(dt/2) of these two exact
flows (Bao, Sun & Wei, J. Comput. Phys. 2003); the palindromic arrangement
makes it globally second order.  `evolve` is the one entry point: an
iterator that yields each sampled frame as soon as it exists, so a consumer
holds only the frames it keeps.  It steps with the state held in Fourier
space: u_hat as a full FFT, n_hat and v_hat as rfft half-spectra (their
self-conjugate Nyquist bins are kept real, the projection onto real n and v).
The trailing A(dt/2) of one step and the leading A(dt/2) of the next are
fused into one A(dt); they are split only at sampled frames and before a
shortened last step.  A step then costs four transforms: ifft of u_hat, rfft
of f, irfft of I_hat, fft of the phased u.

A step allocates nothing.  It updates u_hat, n_hat and v_hat in place, and
every intermediate (u, |u|^2, f_hat, w = n_hat + f_hat, I_hat, the phase
and its rotation, the blow-up guard's product) lives in a work array of the
run's coefficient set; each transform writes into its target through
numpy's `out=`.  The sums are built term by term in the order of the
formulas above, so the step gives the bits of the plain expressions.  Each
yielded frame is transformed out into arrays of its own, which the later
steps do not touch.

W multiplies u by unit-modulus factors only, so the discrete u-mass
sum(|u|^2) is conserved to rounding regardless of dt.  The blow-up guard
runs after every step on the u_hat the step already has, through Parseval:
||u||_H1^2 = (h/N) sum_k (1 + k^2) |u_hat_k|^2.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from . import profiles

__all__ = [
    "State",
    "BlowUpError",
    "evolve",
    "time_reverse",
    "backward_frames",
    "backward_construct",
    "soliton_state",
    "multi_soliton_state",
]

DEFAULT_BLOWUP_THRESHOLD = 1e6


class BlowUpError(RuntimeError):
    """Raised when the H^1 norm of u crosses the blow-up ceiling."""

    def __init__(self, t, norm):
        super().__init__(f"blow-up detected at t = {t}: ||u||_H1 = {norm:.3e}")
        self.t = t
        self.norm = norm

    def __reduce__(self):  # the default would call __init__ with the message alone
        return type(self), (self.t, self.norm)


@dataclass
class State:
    """Fields (u, n, v) on a grid at time t; u complex, n and v real."""

    grid: Grid
    t: float
    u: np.ndarray
    n: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=complex)
        self.n = np.asarray(self.n, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        for name in ("u", "n", "v"):
            if getattr(self, name).shape != self.grid.x.shape:
                raise ValueError(f"{name} shape does not match grid")

    def copy(self) -> "State":
        return State(self.grid, self.t, self.u.copy(), self.n.copy(), self.v.copy())


def soliton_state(grid: Grid, params: profiles.SolitonParams, t: float = 0.0) -> State:
    return State(grid, t, *profiles.traveling_wave(grid, params, t))


def multi_soliton_state(grid: Grid, config: profiles.MultiSolitonConfig, t: float = 0.0) -> State:
    return State(grid, t, *profiles.multi_soliton(grid, config, t))


class _Coeffs:
    """Per-(grid, dt) coefficient and work arrays for one split step.

    The kinetic factors act on the full FFT of u; the W-flow factors on the
    rfft bins, whose wavenumbers are the first n/2 + 1 FFT-ordered ones.  The
    work arrays are the step's scratch space, overwritten by every step.
    """

    def __init__(self, grid: Grid, dt: float):
        k = grid.wavenumbers
        self.dt = dt
        self.kin_half = np.exp(-0.5j * k**2 * dt)
        self.kin = np.exp(-1j * k**2 * dt)
        self.h1_weight = grid.spacing / grid.n_points * (1.0 + k**2)
        half = grid.n_points // 2 + 1
        k = k[:half]
        kd = k * dt
        cos, sin = np.cos(kd), np.sin(kd)
        # sin(k dt)/k -> dt and (1 - cos(k dt))/k -> 0 at the zero mode
        with np.errstate(divide="ignore", invalid="ignore"):
            sin_over_k = np.where(k == 0.0, dt, sin / np.where(k == 0.0, 1.0, k))
            omc_over_k = np.where(k == 0.0, 0.0, (1.0 - cos) / np.where(k == 0.0, 1.0, k))
        # complex up front (the -1j folded in), which saves a cast and a
        # multiply per use and gives the same bits as multiplying on the fly
        self.cos = cos.astype(complex)
        self.mi_sin = -1j * sin
        self.sin_over_k = sin_over_k.astype(complex)
        self.mi_omc_over_k = -1j * omc_over_k
        self.mask = grid.dealias_mask[:half]
        n = grid.n_points
        self.u = np.empty(n, dtype=complex)         # u in x-space
        self.abs2 = np.empty(n)                     # |u|^2
        self.f_hat = np.empty(half, dtype=complex)  # its dealiased rfft
        self.w = np.empty(half, dtype=complex)      # n_hat + f_hat
        self.i_hat = np.empty(half, dtype=complex)  # I_hat
        self.tmp = np.empty(half, dtype=complex)    # one term of a sum
        self.phase = np.empty(n)                    # I in x-space
        self.rot = np.empty(n, dtype=complex)       # exp(-i I)
        self.h1 = np.empty(n, dtype=complex)        # h1_weight * u_hat


def _w_flow(u_hat, n_hat, v_hat, c):
    """Exact W flow over c.dt on spectral data, in place.

    The temporaries are c's work arrays; each sum is built term by term in
    the order of the formulas, so the bits are those of the plain
    expressions."""
    u, tmp, f_hat, w, i_hat = c.u, c.tmp, c.f_hat, c.w, c.i_hat
    np.fft.ifft(u_hat, out=u)
    np.abs(u, out=c.abs2)
    np.square(c.abs2, out=c.abs2)
    np.fft.rfft(c.abs2, out=f_hat)
    f_hat *= c.mask
    np.add(n_hat, f_hat, out=w)
    # i_hat = w sin_over_k + v_hat mi_omc_over_k - f_hat dt
    np.multiply(w, c.sin_over_k, out=i_hat)
    i_hat += np.multiply(v_hat, c.mi_omc_over_k, out=tmp)
    i_hat -= np.multiply(f_hat, c.dt, out=tmp)
    np.fft.irfft(i_hat, u.size, out=c.phase)
    # n_hat = w cos + v_hat mi_sin - f_hat, then v_hat = v_hat cos + w mi_sin
    np.multiply(w, c.cos, out=n_hat)
    n_hat += np.multiply(v_hat, c.mi_sin, out=tmp)
    n_hat -= f_hat
    v_hat *= c.cos
    v_hat += np.multiply(w, c.mi_sin, out=tmp)
    n_hat[-1] = n_hat[-1].real
    v_hat[-1] = v_hat[-1].real
    # exp(-i phase) built as cos - i sin, which is cheaper than complex exp
    rot = c.rot
    np.cos(c.phase, out=rot.real)
    np.sin(c.phase, out=rot.imag)
    np.negative(rot.imag, out=rot.imag)
    u *= rot
    np.fft.fft(u, out=u_hat)


def _check_h1(u_hat, c, t, threshold):
    h1 = np.sqrt(np.vdot(u_hat, np.multiply(c.h1_weight, u_hat, out=c.h1)).real)
    if not np.isfinite(h1) or h1 > threshold:
        raise BlowUpError(t, h1)


def _frame(grid, t, u_hat, n_hat, v_hat) -> State:
    n = grid.n_points
    return State(grid, t, np.fft.ifft(u_hat), np.fft.irfft(n_hat, n), np.fft.irfft(v_hat, n))


def evolve(state: State, t_target: float, dt: float, sample_stride: int = 1,
           blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> Iterator[State]:
    """Integrate forward to t_target, yielding a frame every sample_stride steps.

    The frames run from a copy of the initial state to one at exactly t_target
    (the last step is shortened when t_target - t is not a multiple of dt).
    Arguments are checked at the call; the steps run as the iterator advances
    and raise BlowUpError once ||u||_H1 > blowup_threshold.
    """
    profiles.POSITIVE.parse("dt", dt)
    profiles.FINITE.parse("t_target", t_target)
    profiles.COUNT.parse("sample_stride", sample_stride)
    if t_target < state.t:
        raise ValueError("t_target is in the past; use time_reverse for backward runs")
    return _frames(state, t_target, dt, sample_stride, blowup_threshold)


def _frames(state, t_target, dt, sample_stride, blowup_threshold):
    t0 = state.t
    total = t_target - t0
    n_full = int(np.floor(total / dt + 1e-12))
    remainder = total - n_full * dt
    if remainder < 1e-12 * max(1.0, abs(t_target)):
        remainder = 0.0

    grid = state.grid
    c = _Coeffs(grid, dt)
    u_hat = np.fft.fft(state.u)
    n_hat, v_hat = np.fft.rfft(state.n), np.fft.rfft(state.v)
    _check_h1(u_hat, c, t0, blowup_threshold)
    yield state.copy()
    if n_full:
        u_hat *= c.kin_half
    for j in range(1, n_full + 1):
        _w_flow(u_hat, n_hat, v_hat, c)
        last = j == n_full
        t = t_target if (last and remainder == 0.0) else t0 + j * dt
        _check_h1(u_hat, c, t, blowup_threshold)
        sample = j % sample_stride == 0 or (last and remainder == 0.0)
        if sample or last:
            u_hat *= c.kin_half
            if sample:
                yield _frame(grid, t, u_hat, n_hat, v_hat)
            if not last:
                u_hat *= c.kin_half
        else:
            u_hat *= c.kin
    if remainder > 0.0:
        c = _Coeffs(grid, remainder)
        np.multiply(c.kin_half, u_hat, out=u_hat)
        _w_flow(u_hat, n_hat, v_hat, c)
        _check_h1(u_hat, c, t_target, blowup_threshold)
        np.multiply(c.kin_half, u_hat, out=u_hat)
        yield _frame(grid, t_target, u_hat, n_hat, v_hat)


def time_reverse(state: State) -> State:
    """The reversal symmetry (u, n, v)(t) -> (conj u, n, -v)(-t) of the system."""
    # 0.0 - t rather than -t, so that t = 0 maps to +0.0
    return State(state.grid, 0.0 - state.t, np.conj(state.u), state.n.copy(), -state.v)


def backward_frames(grid: Grid, config: profiles.MultiSolitonConfig, t_final: float,
                    dt: float, sample_stride: int = 1,
                    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> Iterator[State]:
    """Solve backward from exact multi-soliton data prescribed at t_final.

    The state at t_final is the exact superposition; the equation is solved
    toward t = 0 through the reversal symmetry, and the frames are yielded
    in integration order, from t_final down to 0, as `evolve` makes them.
    A BlowUpError carries the physical time, not the reversed clock.
    """
    start = time_reverse(multi_soliton_state(grid, config, t_final))  # at time -t_final
    return _time_reversed(evolve(start, 0.0, dt, sample_stride, blowup_threshold))


def _time_reversed(frames):
    try:
        yield from map(time_reverse, frames)
    except BlowUpError as exc:
        raise BlowUpError(0.0 - exc.t, exc.norm) from None


def backward_construct(*args, **kwargs) -> list:
    """Every frame of backward_frames(*args, **kwargs), listed in increasing time."""
    return list(backward_frames(*args, **kwargs))[::-1]
