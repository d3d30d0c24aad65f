import csv

import numpy as np
import pytest

from zaklab.grid import Grid, quadrature
from zaklab.profiles import (
    MultiSolitonConfig,
    SolitonParams,
    lambda_omega,
    modulated_profile,
    phi,
    soliton_phase,
)
from zaklab.dynamics import State, backward_frames, multi_soliton_state
from zaklab.functionals import _Frame, _write_csv
from zaklab import modulation
from zaklab.modulation import (
    REASONS,
    STAGNATION_ITERS,
    _result,
    leading_diagonal_constants,
    modulate,
    pi_from_config,
    residuals_and_jacobian,
    track,
    track_backward,
)

SEED = 42

TWO = MultiSolitonConfig((SolitonParams(1.0, -0.5, -10.0, 0.0),
                          SolitonParams(1.0, 0.5, 10.0, 1.0)))


def _profile_state(grid, config, pi, t=0.0):
    su, sn, sv = modulated_profile(grid, config, pi, t)
    return State(grid, t, su, sn, sv)


# --- Newton oracles ---------------------------------------------------------------
# The residuals built from the profiles module alone, and their forward-difference
# Jacobian: the references the fused residuals_and_jacobian is tested against.

def orthogonality_residuals(state, pi, config):
    """The 3K orthogonality quadratures at parameters pi, in the order all
    omega-type, then all sigma-type, then all gamma-type."""
    g, t, K = state.grid, state.t, config.K
    pi = np.asarray(pi, float)
    eps_u = state.u - modulated_profile(g, config, pi, t)[0]
    res = np.empty(3 * K)
    for k, p in enumerate(config.solitons):
        omega_k, sigma_k, gamma_k = pi[k], pi[K + k], pi[2 * K + k]
        center = p.c * t + sigma_k
        x_rel = g.wrap(g.x - center)
        f = phi(g, omega_k, center)
        lam = lambda_omega(g, omega_k, center)
        gam = soliton_phase(g, p.c, p.omega, gamma_k, t, center)
        w = np.exp(-1j * gam) * eps_u
        res[k] = quadrature(g, f * np.real(w))
        res[K + k] = quadrature(g, x_rel * f * np.real(w))
        res[2 * K + k] = quadrature(g, lam * np.imag(w))
    return res


def fd_jacobian(state, pi, config, rel_step=1e-6):
    """Forward-difference Jacobian of orthogonality_residuals."""
    pi = np.asarray(pi, float)
    base = orthogonality_residuals(state, pi, config)
    jac = np.empty((pi.size, pi.size))
    for j in range(pi.size):
        step = rel_step * max(1.0, abs(pi[j]))
        bumped = pi.copy()
        bumped[j] += step
        jac[:, j] = (orthogonality_residuals(state, bumped, config) - base) / step
    return jac


# --- residuals ----------------------------------------------------------------

def test_pi_from_config_layout():
    pi = pi_from_config(TWO)
    assert pi.shape == (6,)
    assert np.array_equal(pi, [1.0, 1.0, -10.0, 10.0, 0.0, 1.0])


def test_residuals_vanish_at_reference():
    g = Grid(2048, 80.0)
    st = multi_soliton_state(g, TWO, 0.0)
    res = residuals_and_jacobian(st, pi_from_config(TWO), TWO).residuals
    assert res.shape == (6,)
    assert np.max(np.abs(res)) < 1e-12


def test_residuals_reject_bad_pi():
    g = Grid(512, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
    st = multi_soliton_state(g, cfg, 0.0)
    # the fit and the profile share one check of the pi layout
    for call in (lambda pi: residuals_and_jacobian(st, pi, cfg),
                 lambda pi: modulated_profile(g, cfg, pi, 0.0)):
        with pytest.raises(ValueError, match=r"got \(4,\)"):
            call(np.ones(4))
        with pytest.raises(ValueError, match="positive"):
            call(np.array([-1.0, 0.0, 0.0]))


def test_residuals_linear_response():
    # perturbing omega_1 moves mainly the first scaling residual
    g = Grid(2048, 80.0)
    pi = pi_from_config(TWO)
    pi_pert = pi.copy()
    pi_pert[0] += 1e-4
    st = _profile_state(g, TWO, pi_pert)
    res = residuals_and_jacobian(st, pi, TWO).residuals
    assert abs(res[0]) > 10.0 * abs(res[1])
    assert abs(res[0]) > 1e-6


# --- Newton solve ---------------------------------------------------------------

def test_modulate_fixed_point():
    g = Grid(2048, 80.0)
    st = multi_soliton_state(g, TWO, 0.0)
    out = modulate(st, TWO, tolerance=1e-12)
    assert out.converged
    assert out.iterations == 0
    assert out.residual_max < 1e-12
    assert np.max(np.abs(out.pi - pi_from_config(TWO))) < 1e-12
    assert out.epsilon_H_norm < 1e-10


def test_modulate_recovers_shifted_parameters():
    rng = np.random.default_rng(SEED)
    g = Grid(2048, 80.0)
    pi0 = pi_from_config(TWO)
    pi_true = pi0 + 1e-2 * rng.standard_normal(6)
    st = _profile_state(g, TWO, pi_true)
    out = modulate(st, TWO, tolerance=1e-12)
    assert out.converged
    assert np.max(np.abs(out.pi - pi_true)) < 1e-8
    assert out.epsilon_H_norm < 1e-7


def test_modulate_with_orthogonal_noise():
    rng = np.random.default_rng(SEED + 1)
    g = Grid(2048, 80.0)
    st = multi_soliton_state(g, TWO, 0.0)
    noisy = State(g, 0.0,
                  st.u + 1e-4 * rng.standard_normal(g.n_points),
                  st.n + 1e-4 * rng.standard_normal(g.n_points),
                  st.v + 1e-4 * rng.standard_normal(g.n_points))
    out = modulate(noisy, TWO)
    assert out.converged
    # parameters shift at most on the noise scale
    assert np.max(np.abs(out.pi - pi_from_config(TWO))) < 1e-2
    res = orthogonality_residuals(noisy, out.pi, TWO)
    assert np.max(np.abs(res)) < 1e-10


def test_modulate_reports_failure_flag():
    # pure noise has no soliton to lock on to; the solve must not pretend
    rng = np.random.default_rng(SEED + 2)
    g = Grid(512, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
    junk = State(g, 0.0,
                 rng.standard_normal(g.n_points).astype(complex),
                 rng.standard_normal(g.n_points),
                 rng.standard_normal(g.n_points))
    out = modulate(junk, cfg, max_iter=8)
    assert isinstance(out.converged, bool)
    assert out.reason in REASONS
    assert out.converged == (out.reason == "converged")
    if not out.converged:
        assert out.residual_max > 1e-10


def _shifted_state():
    rng = np.random.default_rng(SEED + 3)
    pi_true = pi_from_config(TWO) + 1e-2 * rng.standard_normal(6)
    return _profile_state(Grid(2048, 80.0), TWO, pi_true)


def test_modulate_reports_max_iter():
    out = modulate(_shifted_state(), TWO, max_iter=1)
    assert not out.converged
    assert out.reason == "max_iter"
    assert out.iterations == 1


def test_fd_jacobian_drives_newton():
    g = Grid(1024, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.2),))
    st = multi_soliton_state(g, cfg, 0.0)
    pi = pi_from_config(cfg) + np.array([1e-3, -1e-3, 1e-3])
    jac = fd_jacobian(st, pi, cfg)
    assert jac.shape == (3, 3)
    assert np.linalg.cond(jac) < 1e6


def _frame_at(traj, t):
    return min(traj, key=lambda st: abs(st.t - t))


def test_analytic_jacobian_matches_fd_oracle(backward_run):
    grid, cfg, traj = backward_run
    rng = np.random.default_rng(SEED + 4)
    one = MultiSolitonConfig((SolitonParams(2.0, 0.5),))
    cases = [(_frame_at(traj, t), cfg) for t in (0.0, 1.0, 5.0, 30.0)]
    cases.append((multi_soliton_state(grid, one, 0.0), one))
    for st, config in cases:
        pi = pi_from_config(config) + 1e-2 * rng.standard_normal(3 * config.K)
        ev = residuals_and_jacobian(st, pi, config)
        # the fused residuals are the profiles-built ones up to rounding
        assert np.max(np.abs(ev.residuals - orthogonality_residuals(st, pi, config))) < 1e-13
        # forward differences carry an O(1e-6) truncation error
        assert np.max(np.abs(ev.jacobian - fd_jacobian(st, pi, config))) <= 1e-5


def _fd_newton(state, config, tolerance=1e-10, max_iter=50):
    """Newton on the forward-difference Jacobian, steps halved to keep
    the pulsations positive: the oracle."""
    K = config.K
    pi = pi_from_config(config)
    for _ in range(max_iter):
        res = orthogonality_residuals(state, pi, config)
        if np.max(np.abs(res)) <= tolerance:
            return pi, True
        delta = np.linalg.solve(fd_jacobian(state, pi, config), -res)
        while np.any(pi[:K] + delta[:K] <= 0):
            delta = 0.5 * delta
        pi = pi + delta
    return pi, False


def test_modulate_matches_fd_newton(backward_run):
    _, cfg, traj = backward_run
    for t in (2.5, 4.0, 5.0, 6.0):
        st = _frame_at(traj, t)
        pi_fd, converged_fd = _fd_newton(st, cfg)
        out = modulate(st, cfg)
        assert out.converged and converged_fd
        assert np.max(np.abs(out.pi - pi_fd)) <= 1e-9


def _modulate_two_calls(state, config, pi_guess=None,
                        tolerance: float = 1e-10, max_iter: int = 50, *, _work=None):
    """modulate as it was with one kernel call before its loop and one in it,
    and a second "converged" exit after the loop: the oracle of the one-loop
    form (copied verbatim)."""
    work = [] if _work is None else _work
    K = config.K
    pi = pi_from_config(config) if pi_guess is None else np.array(pi_guess, dtype=float)
    ev = residuals_and_jacobian(state, pi, config, _work=work)
    best, stalled = ev, 0

    for it in range(max_iter):
        if ev.residual_max <= tolerance:
            return _result(state, ev, it, "converged")
        try:
            delta = np.linalg.solve(ev.jacobian, -ev.residuals)
        except np.linalg.LinAlgError:
            return _result(state, best, it, "singular")
        scale = 1.0
        for _ in range(20):
            if np.all(pi[:K] + scale * delta[:K] > 0):
                break
            scale *= 0.5
        else:
            return _result(state, best, it, "damping")
        pi = pi + scale * delta
        ev = residuals_and_jacobian(state, pi, config, _work=work)
        if ev.residual_max < best.residual_max:
            best, stalled = ev, 0
        else:
            stalled += 1
            if stalled == STAGNATION_ITERS:
                return _result(state, best, it + 1, "stagnation")

    if ev.residual_max <= tolerance:
        return _result(state, ev, max_iter, "converged")
    return _result(state, best, max_iter, "max_iter")


def _assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def _assert_same_fit(got, want):
    for name in ("pi", "residuals", "epsilon_H_norm"):
        _assert_bitwise(getattr(got, name), getattr(want, name))
    for name in ("iterations", "reason", "converged"):
        assert (type(getattr(got, name)), getattr(got, name)) == \
            (type(getattr(want, name)), getattr(want, name)), name
    for name in ("u", "n", "v"):
        _assert_bitwise(getattr(got.epsilon, name), getattr(want.epsilon, name))


@pytest.mark.filterwarnings("error")
def test_modulate_matches_the_two_call_loop(backward_run):
    # from Pi^0 the frames at t = 1 and 2.9 stagnate, those at 3.6 and 10.2
    # converge; max_iter = 0 and 1 exit on "max_iter" without or after a step
    _, cfg, traj = backward_run
    cases = [(_frame_at(traj, t), cfg, {}) for t in (1.0, 2.9, 3.6, 10.2)]
    shifted = _shifted_state()
    cases += [(shifted, TWO, {"max_iter": m}) for m in (0, 1)]
    reasons = []
    for st, config, kwargs in cases:
        got = modulate(st, config, **kwargs)
        _assert_same_fit(got, _modulate_two_calls(st, config, **kwargs))
        reasons.append(got.reason)
    assert reasons == ["stagnation", "stagnation", "converged", "converged",
                       "max_iter", "max_iter"]


@pytest.mark.filterwarnings("error")
def test_track_matches_the_two_call_loop(backward_run, monkeypatch):
    # the warm chain over t <= 4 holds the t = 3.6 stagnation
    _, cfg, traj = backward_run
    early = [st for st in traj if st.t <= 4.0]
    got = track(early, cfg)
    monkeypatch.setattr(modulation, "modulate", _modulate_two_calls)
    want = track(early, cfg)
    assert got["reason"][np.argmin(np.abs(got["t"] - 3.6))] == "stagnation"
    assert list(got) == list(want)
    for name in got:
        _assert_bitwise(got[name], want[name])


def parseval_bold_h(eps):
    """||u||_H1 + ||n||_L2 + ||v||_L2 with the H1 part by Parseval: the norm
    modulate reported before it took _Frame.bold_H."""
    g = eps.grid
    u_hat = np.fft.fft(eps.u)
    h1 = np.sqrt(g.spacing / g.n_points
                 * np.sum((1.0 + g.wavenumbers**2) * np.abs(u_hat) ** 2))
    return float(h1 + np.sqrt(quadrature(g, eps.n**2)) + np.sqrt(quadrature(g, eps.v**2)))


@pytest.mark.filterwarnings("error")
def test_modulate_measures_epsilon_with_the_frame_norm(backward_run):
    _, cfg, traj = backward_run
    # from Pi^0 the overlapping frames at t = 1 and 2.9 stagnate; at t = 2.9,
    # 3.6 and 10.2 the Parseval form differs from _Frame.bold_H by an ulp on
    # an x86-64 host with numpy 2.4
    fits = [modulate(_frame_at(traj, t), cfg) for t in (1.0, 2.9, 3.6, 10.2)]
    assert [res.reason for res in fits] == ["stagnation", "stagnation", "converged", "converged"]
    for res in fits:
        # the norm errors.csv reports as err_bold_H, bit for bit
        assert res.epsilon_H_norm == _Frame.of([res.epsilon]).bold_H[0]
        oracle = parseval_bold_h(res.epsilon)
        assert abs(res.epsilon_H_norm - oracle) <= 1e-15 * oracle


@pytest.mark.parametrize("omega,c", ((1.0, 0.0), (1.0, 0.5), (2.0, -0.3), (0.5, 0.8)))
def test_leading_diagonal_constants(omega, c):
    g = Grid(1024, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(omega, c),))
    st = multi_soliton_state(g, cfg, 0.0)
    d = leading_diagonal_constants(st, cfg)
    assert d["d_omega"][0] == pytest.approx(1.0, rel=0.05)
    assert d["d_sigma"][0] == pytest.approx(-2.0, rel=0.05)
    assert d["d_gamma"][0] == pytest.approx(1.0, rel=0.05)


# --- tracking -------------------------------------------------------------------

def _exact_trajectory(grid, config, times):
    return [multi_soliton_state(grid, config, t) for t in times]


PI_NAMES = ("omega", "sigma", "gamma")


def _stacked(columns, names, K):
    """The per-soliton columns name_1..name_K of each name, side by side as
    an (n_frames, len(names) K) array: pi for PI_NAMES."""
    return np.stack([columns[f"{name}_{k + 1}"] for name in names for k in range(K)], axis=1)


def test_track_exact_trajectory_stays_at_reference():
    g = Grid(2048, 80.0)
    times = np.linspace(10.0, 12.0, 9)
    traj = _exact_trajectory(g, TWO, times)
    out = track(traj, TWO)
    assert all(out["converged"])
    pis = _stacked(out, PI_NAMES, TWO.K)
    assert pis.shape == (9, 6)
    pi0 = pi_from_config(TWO)
    assert np.max(np.abs(pis - pi0)) < 1e-10
    # parameter velocities and the phase-clock mismatch are both flat zero
    rates = _stacked(out, ("domega_dt", "dsigma_dt", "dgamma_dt"), TWO.K)
    assert np.max(np.abs(rates)) < 1e-8
    assert np.max(np.abs(_stacked(out, ("gamma_rate_mismatch",), TWO.K))) < 1e-8
    assert np.max(out["eps_H"]) < 1e-9


def test_track_refuses_no_frames():
    with pytest.raises(ValueError, match="at least one frame.*backward_construct"):
        track(iter([]), TWO)


def test_track_refuses_frames_out_of_time_order():
    # backward_frames streams from t_final down; fitted in that order the
    # warm starts and the finite-difference rates would run backward
    frames = backward_frames(Grid(256, 80.0), TWO, t_final=0.2, dt=0.01, sample_stride=10)
    with pytest.raises(ValueError, match="strictly increasing time.*backward_construct"):
        track(frames, TWO)
    frame = multi_soliton_state(Grid(256, 80.0), TWO, 0.0)
    with pytest.raises(ValueError, match="strictly increasing time"):
        track([frame, frame], TWO)  # one time twice has no finite-difference rate


def test_track_on_backward_run_converges_when_separated(backward_run):
    grid, cfg, traj = backward_run
    late = [st for st in traj if st.t >= 10.0]
    out = track(late, cfg)
    conv = np.array(out["converged"])
    assert np.all(conv)
    # modulation keeps parameters near the reference once solitons separate
    pi0 = pi_from_config(cfg)
    assert np.max(np.abs(_stacked(out, PI_NAMES, cfg.K)[-1] - pi0)) < 1e-3
    # the error norms the tracker reports decay toward the final time
    assert out["eps_H"][-1] < out["eps_H"][0]


def test_write_track_csv(tmp_path, backward_run):
    grid, cfg, traj = backward_run
    late = [st for st in traj if st.t >= 25.0]
    out = track(late, cfg)
    path = tmp_path / "track.csv"
    _write_csv(path, out)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(out)
    assert rows[0][-2:] == ["converged", "reason"]
    assert len(rows) == len(late) + 1
    assert [row[-1] for row in rows[1:]] == out["reason"]
    assert all(row[-1] == "converged" for row in rows[1:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_track_backward_matches_track_on_the_reference_run(backward_run, monkeypatch):
    # track over every frame is the oracle; the frames stream in integration order
    _, cfg, traj = backward_run
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].t)
        return modulate(*args, **kwargs)

    monkeypatch.setattr(modulation, "modulate", counted)
    got, notes = track_backward(reversed(traj), cfg)
    monkeypatch.undo()
    want = track(traj, cfg)
    # eps_H >= 0.1 from t = 6.1 down: those 62 frames are held, and the chains
    # meet at the last clean frame, t = 6.2
    assert notes == {"frames_held": 62, "chains_meet_t": pytest.approx(6.2)}
    # every fit goes through the module's modulate: the frames t >= 6.1 in
    # integration order, then t <= 6.2 forward, so 6.1 and 6.2 twice
    assert len(calls) == len(traj) + 2
    assert list(got) == list(want)
    np.testing.assert_array_equal(got["t"], want["t"])
    assert np.max(np.abs(_stacked(got, PI_NAMES, cfg.K) - _stacked(want, PI_NAMES, cfg.K))) <= 1e-9
    np.testing.assert_array_equal(got["converged"], want["converged"])
    assert got["reason"] == want["reason"]
    assert np.max(np.abs(got["eps_H"] - want["eps_H"])) <= 1e-9
    # the rows up to the join are the forward chain's, bit for bit
    join = np.flatnonzero(want["t"] <= 6.2).size
    for name in ("eps_H", "iterations", "omega_1", "gamma_2"):
        _assert_bitwise(got[name][:join], want[name][:join])
    # above it the integration-order fits, warm-started from the later frame
    assert got["iterations"][join:] != want["iterations"][join:]


def test_track_backward_holds_every_frame_when_none_is_dropped(backward_run):
    # from t = 4 down no integration-order fit is clean, so the forward chain
    # runs over every frame and gives track's columns exactly
    _, cfg, traj = backward_run
    early = [st for st in traj if st.t <= 4.0]
    got, notes = track_backward(early[::-1], cfg)
    assert notes == {"frames_held": len(early), "chains_meet_t": None}
    want = track(early, cfg)
    assert list(got) == list(want)
    for name in got:
        _assert_bitwise(got[name], want[name])


def test_track_backward_refuses_frames_out_of_time_order():
    with pytest.raises(ValueError, match="at least one frame.*backward_frames"):
        track_backward(iter([]), TWO)
    frames = list(backward_frames(Grid(256, 80.0), TWO, t_final=0.2, dt=0.01, sample_stride=10))
    with pytest.raises(ValueError, match="strictly decreasing time.*backward_frames"):
        track_backward(frames[::-1], TWO)
    with pytest.raises(ValueError, match="strictly decreasing time"):
        track_backward([frames[0], frames[0]], TWO)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_track_fails_fast_and_quietly_near_collision(backward_run):
    grid, cfg, traj = backward_run
    early = [st for st in traj if st.t <= 4.0]
    out = track(early, cfg)
    failed = np.flatnonzero(~out["converged"])
    assert failed.size, "the overlapping frames near t = 0 are expected to fail"
    assert all(out["reason"][i] == "stagnation" for i in failed)
    assert max(out["iterations"][i] for i in failed) <= 15
