import csv

import numpy as np
import pytest

from zaklab.grid import Grid
from zaklab.profiles import MultiSolitonConfig, SolitonParams, modulated_profile
from zaklab.dynamics import State, Trajectory, multi_soliton_state
from zaklab.modulation import (
    REASONS,
    fd_jacobian,
    leading_diagonal_constants,
    modulate,
    orthogonality_residuals,
    pi_from_config,
    pi_norm,
    residuals_and_jacobian,
    track,
    track_columns,
    write_track_csv,
)

SEED = 42

TWO = MultiSolitonConfig((SolitonParams(1.0, -0.5, -10.0, 0.0),
                          SolitonParams(1.0, 0.5, 10.0, 1.0)))


def _profile_state(grid, config, pi, t=0.0):
    su, sn, sv = modulated_profile(grid, config, pi, t)
    return State(grid, t, su, sn, sv)


# --- residuals ----------------------------------------------------------------

def test_pi_from_config_layout():
    pi = pi_from_config(TWO)
    assert pi.shape == (6,)
    assert np.array_equal(pi, [1.0, 1.0, -10.0, 10.0, 0.0, 1.0])
    assert pi_norm(pi, pi) == 0.0


def test_residuals_vanish_at_reference():
    g = Grid(2048, 80.0)
    st = multi_soliton_state(g, TWO, 0.0)
    res = orthogonality_residuals(st, pi_from_config(TWO), TWO, t=0.0)
    assert res.shape == (6,)
    assert np.max(np.abs(res)) < 1e-12


def test_residuals_reject_bad_pi():
    g = Grid(512, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
    st = multi_soliton_state(g, cfg, 0.0)
    with pytest.raises(ValueError):
        orthogonality_residuals(st, np.zeros(4), cfg)
    with pytest.raises(ValueError, match="positive"):
        orthogonality_residuals(st, np.array([-1.0, 0.0, 0.0]), cfg)


def test_residuals_linear_response():
    # perturbing omega_1 moves mainly the first scaling residual
    g = Grid(2048, 80.0)
    pi = pi_from_config(TWO)
    pi_pert = pi.copy()
    pi_pert[0] += 1e-4
    st = _profile_state(g, TWO, pi_pert)
    res = orthogonality_residuals(st, pi, TWO, t=0.0)
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
    res = orthogonality_residuals(noisy, out.pi, TWO, t=0.0)
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


def test_modulate_reports_max_iter():
    rng = np.random.default_rng(SEED + 3)
    g = Grid(2048, 80.0)
    pi_true = pi_from_config(TWO) + 1e-2 * rng.standard_normal(6)
    out = modulate(_profile_state(g, TWO, pi_true), TWO, max_iter=1)
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
    return Trajectory(grid, tuple(multi_soliton_state(grid, config, t)
                                  for t in times))


def test_track_exact_trajectory_stays_at_reference():
    g = Grid(2048, 80.0)
    times = np.linspace(10.0, 12.0, 9)
    traj = _exact_trajectory(g, TWO, times)
    out = track(traj, TWO)
    assert all(out.converged)
    assert out.pis.shape == (9, 6)
    pi0 = pi_from_config(TWO)
    assert np.max(np.abs(out.pis - pi0)) < 1e-10
    # parameter velocities and the phase-clock mismatch are both flat zero
    assert np.max(np.abs(out.rates)) < 1e-8
    assert np.max(np.abs(out.gamma_rate_mismatch)) < 1e-8
    assert np.max(out.epsilon_H) < 1e-9


def test_track_on_backward_run_converges_when_separated(backward_run):
    grid, cfg, traj = backward_run
    late = [st for st in traj if st.t >= 10.0]
    out = track(Trajectory(grid, tuple(late)), cfg)
    conv = np.array(out.converged)
    assert np.all(conv)
    # modulation keeps parameters near the reference once solitons separate
    pi0 = pi_from_config(cfg)
    assert np.max(np.abs(out.pis[-1] - pi0)) < 1e-3
    # the error norms the tracker reports decay toward the final time
    assert out.epsilon_H[-1] < out.epsilon_H[0]


def test_write_track_csv(tmp_path, backward_run):
    grid, cfg, traj = backward_run
    late = [st for st in traj if st.t >= 25.0]
    out = track(Trajectory(grid, tuple(late)), cfg)
    path = tmp_path / "track.csv"
    write_track_csv(path, out, cfg)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == track_columns(2)
    assert rows[0][-2:] == ["converged", "reason"]
    assert len(rows) == len(late) + 1
    assert [row[-1] for row in rows[1:]] == [r.reason for r in out.results]
    assert all(row[-1] == "converged" for row in rows[1:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_track_fails_fast_and_quietly_near_collision(backward_run):
    grid, cfg, traj = backward_run
    early = [st for st in traj if st.t <= 4.0]
    out = track(Trajectory(grid, tuple(early)), cfg)
    failed = [r for r in out.results if not r.converged]
    assert failed, "the overlapping frames near t = 0 are expected to fail"
    assert all(r.reason == "stagnation" for r in failed)
    assert max(r.iterations for r in failed) <= 15
