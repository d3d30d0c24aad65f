import math

import numpy as np
import pytest

from zaklab.grid import Grid, quadrature, sobolev_norms
from zaklab.profiles import MultiSolitonConfig, SolitonParams, traveling_wave
from zaklab.dynamics import (
    BlowUpError,
    State,
    backward_construct,
    backward_frames,
    evolve,
    multi_soliton_state,
    soliton_state,
    time_reverse,
)
from zaklab.functionals import energy, mass, momentum

SEED = 42


def _l2(grid, f):
    return np.sqrt(quadrature(grid, np.abs(f) ** 2))


def _state_gap(a: State, b: State) -> float:
    return sobolev_norms(a.grid, a.u - b.u, a.n - b.n, a.v - b.v)["bold_H"]


# --- State plumbing and the frame stream -------------------------------------

def test_state_copy_is_independent():
    g = Grid(128, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.0))
    c = s.copy()
    c.u[:] = 0.0
    assert np.max(np.abs(s.u)) > 1.0


def test_state_shape_validation():
    g = Grid(128, 40.0)
    with pytest.raises(ValueError):
        State(g, 0.0, np.zeros(64, dtype=complex), np.zeros(128), np.zeros(128))


def _last(frames):
    *_, final = frames
    return final


def test_trajectory_accessors():
    g = Grid(128, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.0))
    frames = list(evolve(s, 0.01, 1e-3, sample_stride=5))
    assert [st.t for st in frames] == pytest.approx([0.0, 0.005, 0.01])
    assert frames[0].t == 0.0
    assert frames[-1].t == pytest.approx(0.01)
    # the first frame is a copy, not the caller's state
    assert frames[0] is not s and np.array_equal(frames[0].u, s.u)


def test_evolve_returns_an_iterator_and_checks_arguments_at_the_call():
    g = Grid(128, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.0))
    frames = evolve(s, 0.01, 1e-3)
    assert iter(frames) is frames
    assert next(frames).t == 0.0
    assert next(frames).t == pytest.approx(1e-3)
    # bad arguments raise here, before anything is iterated
    for kwargs in ({"dt": 0.0}, {"dt": 1e-3, "sample_stride": 0}):
        with pytest.raises(ValueError):
            evolve(s, 0.01, **kwargs)
    with pytest.raises(ValueError, match="time_reverse"):
        evolve(s, -1.0, 1e-3)
    # the blow-up guard runs as the steps run
    frames = evolve(s, 0.01, 1e-3, blowup_threshold=1.0)
    with pytest.raises(BlowUpError):
        next(frames)


def test_backward_frames_come_in_integration_order():
    g = Grid(256, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5, -8.0, 0.0),
                              SolitonParams(1.0, 0.5, 8.0, 1.0)))
    frames = backward_frames(g, cfg, 0.1, 1e-2, sample_stride=2)
    assert iter(frames) is frames
    frames = list(frames)
    assert [st.t for st in frames] == pytest.approx([0.1, 0.08, 0.06, 0.04, 0.02, 0.0])
    built = backward_construct(g, cfg, 0.1, 1e-2, sample_stride=2)
    assert isinstance(built, list)
    assert len(built) == len(frames)
    for a, b in zip(built, reversed(frames)):
        assert a.t == b.t
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "unv")


# --- single step and equivalence with the unfused full-FFT kernel -------------

def test_step_conserves_u_mass():
    g = Grid(512, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.4))
    out = _last(evolve(s, s.t + 1e-3, 1e-3))
    assert mass(out) == pytest.approx(mass(s), rel=1e-13)
    assert out.t == pytest.approx(1e-3)


def _reference_step(u, n, v, grid, dt):
    """A(dt/2) W(dt) A(dt/2) on full complex FFTs, back in x-space each step."""
    k = grid.wavenumbers
    kin_half = np.exp(-0.5j * k**2 * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_over_k = np.where(k == 0.0, dt, np.sin(k * dt) / np.where(k == 0.0, 1.0, k))
        omc_over_k = np.where(k == 0.0, 0.0, (1.0 - np.cos(k * dt)) / np.where(k == 0.0, 1.0, k))
    u = np.fft.ifft(kin_half * np.fft.fft(u))
    f_hat = np.fft.fft(np.abs(u) ** 2) * grid.dealias_mask
    n_hat, v_hat = np.fft.fft(n), np.fft.fft(v)
    w = n_hat + f_hat
    phase = np.fft.ifft(w * sin_over_k - 1j * v_hat * omc_over_k - f_hat * dt).real
    n = np.fft.ifft(w * np.cos(k * dt) - 1j * v_hat * np.sin(k * dt) - f_hat).real
    v = np.fft.ifft(v_hat * np.cos(k * dt) - 1j * w * np.sin(k * dt)).real
    u = np.fft.ifft(kin_half * np.fft.fft(u * np.exp(-1j * phase)))
    return u, n, v


def test_evolve_matches_unfused_reference_kernel():
    # 205 full steps (stride 20 does not divide them) and a last step of dt/2;
    # a Nyquist mode in n and v exercises the projection of that bin
    g = Grid(512, 80.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5, -8.0, 0.0),
                              SolitonParams(1.0, 0.5, 8.0, 1.0)))
    dt, stride = 1e-3, 20
    s = multi_soliton_state(g, cfg, 0.0)
    nyquist = 1e-3 * (-1.0) ** np.arange(g.n_points)
    s = State(g, 0.0, s.u, s.n + nyquist, s.v + nyquist)
    traj = list(evolve(s, 0.2055, dt, sample_stride=stride))
    u, n, v = s.u, s.n, s.v
    expected = [s]
    for j in range(1, 206):
        u, n, v = _reference_step(u, n, v, g, dt)
        if j % stride == 0:
            expected.append(State(g, j * dt, u, n, v))
    expected.append(State(g, 0.2055, *_reference_step(u, n, v, g, 0.2055 - 205 * dt)))
    assert len(traj) == len(expected) == 12
    for got, want in zip(traj, expected):
        assert got.t == pytest.approx(want.t, abs=1e-15)
        assert _state_gap(got, want) <= 1e-10


def test_evolve_makes_at_most_four_transforms_per_step(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, **kw: calls.append(1) or _fn(*a, **kw))
    g = Grid(256, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.3))
    traj = list(evolve(s, 0.2, 1e-3, sample_stride=10**9))
    assert len(traj) == 2
    # three transforms load the initial state, three unload the final frame
    assert len(calls) - 6 <= 4 * 200


def test_strang_is_second_order_on_traveling_wave():
    g = Grid(1024, 40.0)
    p = SolitonParams(1.0, 0.5)
    s = soliton_state(g, p)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        final = _last(evolve(s, 0.5, dt, sample_stride=10**9))
        exact_u, _, _ = traveling_wave(g, p, final.t)
        errs.append(_l2(g, final.u - exact_u))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


# --- exactness and conservation ---------------------------------------------

def test_standing_wave_is_near_exact():
    g = Grid(1024, 40.0)
    p = SolitonParams(1.0, 0.0)
    final = _last(evolve(soliton_state(g, p), 1.0, 1e-3, sample_stride=10**9))
    exact_u, exact_n, exact_v = traveling_wave(g, p, 1.0)
    assert _l2(g, final.u - exact_u) < 1e-6
    # the n-component picks up a larger splitting constant than u
    assert _l2(g, final.n - exact_n) < 5e-6


def test_moving_soliton_conserved_quantities():
    g = Grid(1024, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.5))
    m0, e0, p0 = mass(s), energy(s), momentum(s)
    for st in evolve(s, 2.0, 1e-3, sample_stride=200):
        assert abs(mass(st) - m0) / m0 < 1e-12
        assert abs(energy(st) - e0) < 1e-7
        assert abs(momentum(st) - p0) < 1e-7


def test_evolve_refuses_past_targets():
    g = Grid(512, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.3), t=1.0)
    with pytest.raises(ValueError, match="time_reverse"):
        evolve(s, 0.0, 1e-3)


def test_backward_run_via_time_reverse():
    # integrating the reversed state forward realizes the backward solution
    g = Grid(512, 40.0)
    p = SolitonParams(1.0, 0.3)
    s = soliton_state(g, p, t=1.0)
    rec = time_reverse(_last(evolve(time_reverse(s), 0.0, 1e-3, sample_stride=10**9)))
    exact_u, _, _ = traveling_wave(g, p, 0.0)
    assert rec.t == pytest.approx(0.0, abs=1e-12)
    assert _l2(g, rec.u - exact_u) < 1e-6


def test_time_reverse_is_involution_and_symmetry():
    g = Grid(512, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.4), t=0.3)
    r = time_reverse(s)
    assert r.t == pytest.approx(-0.3)
    assert np.array_equal(r.u, np.conj(s.u))
    assert np.array_equal(r.n, s.n)
    assert np.array_equal(r.v, -s.v)
    rr = time_reverse(r)
    assert rr.t == pytest.approx(0.3)
    assert np.array_equal(rr.u, s.u)


def test_round_trip_forward_backward():
    g = Grid(512, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.5))
    fwd = _last(evolve(s, 0.5, 1e-3, sample_stride=10**9))
    back = _last(evolve(time_reverse(fwd), 0.0, 1e-3, sample_stride=10**9))
    rec = time_reverse(back)
    assert _state_gap(rec, s) < 1e-6


def test_blowup_detection():
    g = Grid(256, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.0))
    with pytest.raises(BlowUpError) as err:
        list(evolve(s, 1.0, 1e-3, blowup_threshold=1.0))
    assert err.value.norm > 1.0


def test_blowup_guard_sees_steps_between_frames():
    # a deepened potential well focuses u, so ||u||_H1 grows step by step
    g = Grid(256, 40.0)
    s = soliton_state(g, SolitonParams(1.0, 0.0))
    s = State(g, 0.0, s.u, 3.0 * s.n, s.v)
    h1 = [st.norms()["H1_of_u"] for st in evolve(s, 0.2, 1e-3)]
    assert np.all(np.diff(h1) > 0)
    with pytest.raises(BlowUpError) as err:
        list(evolve(s, 0.2, 1e-3, sample_stride=10**9,
                    blowup_threshold=0.5 * (h1[100] + h1[101])))
    assert err.value.t == pytest.approx(0.101, abs=1e-12)
    assert h1[100] < err.value.norm < h1[102]


# --- backward multi-soliton construction ------------------------------------

def test_backward_construct_endpoints(backward_run):
    grid, cfg, traj = backward_run
    times = np.array([st.t for st in traj])
    assert times[0] == pytest.approx(0.0, abs=1e-12)
    assert math.copysign(1.0, times[0]) == 1.0
    assert times[-1] == pytest.approx(30.0)
    assert np.all(np.diff(times) > 0)
    # the final frame is the pure superposition by construction
    target = multi_soliton_state(grid, cfg, 30.0)
    assert _state_gap(traj[-1], target) < 1e-12


def test_backward_construct_error_decays(backward_run):
    grid, cfg, traj = backward_run
    gaps = {}
    for st in traj:
        if abs(st.t - 6.0) < 1e-9 or abs(st.t - 12.0) < 1e-9:
            gaps[round(st.t)] = _state_gap(st, multi_soliton_state(grid, cfg, st.t))
    assert gaps[12] < 1e-2 * gaps[6]
