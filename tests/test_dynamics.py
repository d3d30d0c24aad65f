import math
import pickle

import numpy as np
import pytest

from zaklab import dynamics
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
    # each refusal names the argument at fault
    for t_target, dt, stride, name in ((0.01, math.nan, 1, "dt"),
                                       (0.01, math.inf, 1, "dt"),
                                       (math.nan, 1e-3, 1, "t_target"),
                                       (math.inf, 1e-3, 1, "t_target"),
                                       (0.01, 1e-3, 2.5, "sample_stride"),
                                       (0.01, 1e-3, 2.0, "sample_stride"),
                                       (0.01, 1e-3, True, "sample_stride")):
        with pytest.raises(ValueError, match=name):
            evolve(s, t_target, dt, sample_stride=stride)
    assert len(list(evolve(s, 0.01, 1e-3, sample_stride=np.int64(5)))) == 3
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


def _old_w_flow(u_hat, n_hat, v_hat, c):
    """The W flow as it stood before the step worked in place (verbatim)."""
    u = np.fft.ifft(u_hat)
    f_hat = np.fft.rfft(np.abs(u) ** 2)
    f_hat *= c.mask
    w = n_hat + f_hat
    i_hat = w * c.sin_over_k + v_hat * c.mi_omc_over_k - f_hat * c.dt
    phase = np.fft.irfft(i_hat, u.size)
    n_hat = w * c.cos + v_hat * c.mi_sin - f_hat
    v_hat = v_hat * c.cos + w * c.mi_sin
    n_hat[-1] = n_hat[-1].real
    v_hat[-1] = v_hat[-1].real
    # exp(-i phase) built as cos - i sin, which is cheaper than complex exp
    rot = np.empty_like(u)
    np.cos(phase, out=rot.real)
    np.sin(phase, out=rot.imag)
    np.negative(rot.imag, out=rot.imag)
    u *= rot
    return np.fft.fft(u), n_hat, v_hat


def _old_frames(state, t_target, dt, sample_stride, blowup_threshold):
    """The stepping loop as it stood before the step worked in place (verbatim)."""
    _Coeffs, _check_h1, _frame = dynamics._Coeffs, dynamics._check_h1, dynamics._frame
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
        u_hat, n_hat, v_hat = _old_w_flow(u_hat, n_hat, v_hat, c)
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
        u_hat, n_hat, v_hat = _old_w_flow(c.kin_half * u_hat, n_hat, v_hat, c)
        _check_h1(u_hat, c, t_target, blowup_threshold)
        yield _frame(grid, t_target, c.kin_half * u_hat, n_hat, v_hat)


def test_in_place_step_is_bitwise_the_allocating_step(monkeypatch):
    # 205 full steps sampled every 20 and a shortened last step, with a
    # Nyquist mode in n and v
    g = Grid(512, 80.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5, -8.0, 0.0),
                              SolitonParams(1.0, 0.5, 8.0, 1.0)))
    s = multi_soliton_state(g, cfg, 0.0)
    nyquist = 1e-3 * (-1.0) ** np.arange(g.n_points)
    s = State(g, 0.0, s.u, s.n + nyquist, s.v + nyquist)
    expected = list(_old_frames(s, 0.2055, 1e-3, 20, 1e6))

    made = []
    monkeypatch.setattr(dynamics, "_Coeffs",
                        lambda *a, _make=dynamics._Coeffs: made.append(_make(*a)) or made[-1])
    got, at_yield = [], []
    for frame in evolve(s, 0.2055, 1e-3, sample_stride=20):
        got.append(frame)
        at_yield.append(frame.copy())
    assert len(made) == 2  # the full steps and the shortened one
    work = [a for c in made for a in vars(c).values() if isinstance(a, np.ndarray)]
    assert len(got) == len(expected) == 12
    for frame, kept, want in zip(got, at_yield, expected):
        assert frame.t == want.t
        for name in "unv":
            assert np.array_equal(getattr(frame, name), getattr(want, name))
            # yielded frames own their memory and stay as they were yielded
            assert not any(np.shares_memory(getattr(frame, name), a) for a in work)
            assert np.array_equal(getattr(frame, name), getattr(kept, name))


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


def test_blowup_error_survives_pickling():
    err = pickle.loads(pickle.dumps(BlowUpError(1.5, 2e6)))
    assert type(err) is BlowUpError
    assert (err.t, err.norm, str(err)) == (1.5, 2e6, str(BlowUpError(1.5, 2e6)))


def test_backward_blowup_reports_the_physical_time():
    # the guard trips on the data at t_final; the run's clock there reads -t_final
    g = Grid(256, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
    with pytest.raises(BlowUpError) as forward:
        list(evolve(time_reverse(multi_soliton_state(g, cfg, 2.0)), 0.0, 1e-2,
                    blowup_threshold=1.0))
    with pytest.raises(BlowUpError, match=r"at t = 2\.0:") as err:
        list(backward_frames(g, cfg, 2.0, 1e-2, blowup_threshold=1.0))
    assert forward.value.t == -2.0
    assert (err.value.t, err.value.norm) == (2.0, forward.value.norm)


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
