import csv
from decimal import Decimal, localcontext

import numpy as np
import pytest

from zaklab.grid import Grid, quadrature, spectral_derivative
from zaklab.profiles import MultiSolitonConfig, SolitonParams, modulated_profile, multi_soliton
from zaklab.dynamics import State, multi_soliton_state, soliton_state
from zaklab.experiments import error_series, gmod_series
from zaklab.functionals import (
    CutoffFamily,
    _Frame,
    _write_csv,
    cutoff_profile_constants,
    energy,
    mass,
    momentum,
    smooth_step,
    weinstein,
    weinstein_decompose,
)
from zaklab.modulation import pi_from_config

SEED = 42

TWO = MultiSolitonConfig((SolitonParams(1.0, -0.5, -8.0, 0.0),
                          SolitonParams(1.0, 0.5, 8.0, 1.0)))
# the documented functionals.csv columns of a two-soliton config
COLUMNS_TWO = ["t", "M", "E", "P", "M_1", "M_2", "P_1", "P_2", "G", "G0", "G1", "G21", "G3",
               "H", "G_mod", "mass_tail", "energy_tail"]


def _random_state(grid, rng, scale=1e-3, t=0.0):
    u = scale * (rng.standard_normal(grid.n_points)
                 + 1j * rng.standard_normal(grid.n_points))
    n = scale * rng.standard_normal(grid.n_points)
    v = scale * rng.standard_normal(grid.n_points)
    return State(grid, t, u, n, v)


# --- conserved functionals ---------------------------------------------------

def test_conserved_functionals_closed_forms():
    g = Grid(1024, 40.0)
    for omega, c in ((0.5, -0.8), (1.0, 0.0), (2.0, 0.8)):
        s = soliton_state(g, SolitonParams(omega, c))
        assert mass(s) == pytest.approx(
            4.0 * (1.0 - c**2) * np.sqrt(omega), abs=1e-9)
        e_exact = omega**1.5 * (-4.0 / 3.0 + 20.0 / 3.0 * c**2) \
            + c**2 * (1.0 - c**2) * np.sqrt(omega)
        assert energy(s) == pytest.approx(e_exact, abs=1e-8)
        p_exact = 2.0 * c * (1.0 - c**2) * np.sqrt(omega) \
            + 16.0 / 3.0 * c * omega**1.5
        assert momentum(s) == pytest.approx(p_exact, abs=1e-8)


# --- cutoff partition ---------------------------------------------------------

def test_smooth_step_profile():
    s = np.linspace(-1.0, 1.0, 4001)
    vals = smooth_step(s)
    assert vals[0] == 0.0
    assert vals[-1] == 1.0
    assert smooth_step(np.array([0.0]))[0] == pytest.approx(0.5)
    assert np.all(np.diff(vals) >= 0.0)
    # clamps outside [-1, 1]
    assert smooth_step(np.array([-3.0, 3.0])) == pytest.approx([0.0, 1.0])


def _sampled_profile_constants(samples=400_001, chunk=1 << 14):
    """The three suprema of cutoff_profile_constants, measured as maxima over
    np.linspace(-1, 1, samples) taken in chunks (the oracle of the closed forms)."""
    points = np.linspace(-1.0, 1.0, samples)
    sups = np.zeros(3)
    for lo in range(0, samples, chunk):
        s = points[lo:lo + chunk]
        t = (s + 1.0) * 0.5
        psi = smooth_step(s)
        dpsi = 70.0 * t**3 * (1.0 - t) ** 3
        d2psi = 105.0 * t**2 * (1.0 - t) ** 2 * (1.0 - 2.0 * t)
        inner = (psi > 0) & (dpsi > 0)
        sups = np.maximum(sups, (np.max(dpsi),
                                 np.max(dpsi[psi > 0] ** 2 / psi[psi > 0], initial=0.0),
                                 np.max(d2psi[inner] ** 2 / dpsi[inner], initial=0.0)))
    return dict(zip(("sup_psi_prime", "sup_psi_prime_sq_over_psi",
                     "sup_psi_second_sq_over_psi_prime"), map(float, sups)))


def test_cutoff_profile_constants():
    consts = cutoff_profile_constants()
    assert consts == {"sup_psi_prime": 35 / 32,
                      "sup_psi_prime_sq_over_psi": 3.4061802173391893,
                      "sup_psi_second_sq_over_psi_prime": 315 / 32}
    # the closed forms agree with the sampled suprema they replace
    sampled = _sampled_profile_constants()
    assert sampled.keys() == consts.keys()
    for key, value in consts.items():
        assert abs(sampled[key] - value) <= 1e-9 * value, key
    # the third: Newton in 50 digits on the root r in (0, 1) of
    # 50t^4 - 200t^3 + 294t^2 - 182t + 35, where (psi')^2/psi peaks
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal("0.34")
        for _ in range(40):
            r -= ((((50 * r - 200) * r + 294) * r - 182) * r + 35) / (
                ((200 * r - 600) * r + 588) * r - 182)
        assert 0 < r < 1
        peak = 4900 * r**2 * (1 - r) ** 6 / (((-20 * r + 70) * r - 84) * r + 35)
    assert float(peak) == consts["sup_psi_prime_sq_over_psi"]


def test_cutoff_family_partition_of_unity():
    g = Grid(2048, 80.0)
    fam = CutoffFamily.for_config(TWO, L=5.0)
    assert fam.K == 2
    for t in (0.0, 3.0, 17.5):
        chis = fam.chis(g, t)
        assert chis.shape == (2, g.n_points)
        assert np.max(np.abs(np.sum(chis, axis=0) - 1.0)) < 1e-14
        assert np.all(chis >= -1e-15)


def test_cutoff_family_single_soliton_is_identity():
    g = Grid(512, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
    fam = CutoffFamily.for_config(cfg, L=5.0)
    assert fam.K == 1
    assert np.array_equal(fam.chis(g, 2.0), np.ones((1, g.n_points)))


def test_cutoff_boundary_tracks_mean_speed():
    g = Grid(4096, 80.0)
    fam = CutoffFamily.for_config(TWO, L=5.0)
    for t in (0.0, 10.0):
        chi2 = fam.chis(g, t)[1]
        # chi_2 crosses 1/2 where the moving boundary sits: x = mean(c) t = 0
        crossing = g.x[np.argmin(np.abs(chi2 - 0.5))]
        assert abs(crossing - 0.0) < 2.0 * g.spacing


def test_local_quantities_sum_to_global():
    g = Grid(2048, 80.0)
    st = multi_soliton_state(g, TWO, 0.0)
    f = _Frame.of([st])
    loc = f.local(CutoffFamily.for_config(TWO, L=5.0).chis(f.grid, f.t))
    masses = [loc["M_1"][0], loc["M_2"][0]]
    momenta = [loc["P_1"][0], loc["P_2"][0]]
    assert abs(sum(masses) - mass(st)) < 1e-10
    assert abs(sum(momenta) - momentum(st)) < 1e-10
    # separated equal-mass pair: each window holds about half the mass
    assert masses[0] == pytest.approx(0.5 * mass(st), rel=1e-4)


# --- Weinstein functional and its decomposition ------------------------------

def test_weinstein_single_standing_value():
    g = Grid(1024, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
    s = soliton_state(g, cfg.solitons[0])
    fam = CutoffFamily.for_config(cfg, L=5.0)
    assert weinstein(s, cfg, fam) == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_weinstein_identity_report_consistency():
    g = Grid(2048, 80.0)
    st = multi_soliton_state(g, TWO, 0.0)
    fam = CutoffFamily.for_config(TWO, L=5.0)
    value = weinstein(st, TWO, fam)
    f = _Frame.of([st])
    loc = f.local(fam.chis(f.grid, f.t))
    rebuilt = energy(st) + sum(p.nu * loc[f"M_{k + 1}"][0] - p.c * loc[f"P_{k + 1}"][0]
                               for k, p in enumerate(TWO.solitons))
    assert abs(value - rebuilt) < 1e-10


def test_weinstein_rejects_family_of_wrong_size():
    g = Grid(512, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.0),))
    s = soliton_state(g, cfg.solitons[0])
    wrong = CutoffFamily(L=5.0, boundary_speeds=(0.0,))
    message = "cutoff family has K=2 but config has K=1"
    with pytest.raises(ValueError, match=message):
        weinstein(s, cfg, wrong)
    with pytest.raises(ValueError, match=message):
        weinstein_decompose(s, s, cfg, wrong)
    f = _Frame.of([s], cfg)
    with pytest.raises(ValueError, match=message):
        f.reports(5.0, wrong.chis(g, f.t))


def test_decomposition_reassembles_total():
    rng = np.random.default_rng(SEED)
    g = Grid(2048, 80.0)
    fam = CutoffFamily.for_config(TWO, L=5.0)
    S = multi_soliton_state(g, TWO, 0.0)
    eps = _random_state(g, rng, scale=1e-2)
    full = State(g, 0.0, S.u + eps.u, S.n + eps.n, S.v + eps.v)
    parts = weinstein_decompose(eps, S, TWO, fam)
    assert set(parts) == {"G0", "G1", "G21", "G22", "G3"}
    total = weinstein(full, TWO, fam)
    assert abs(sum(parts.values()) - total) < 1e-9 * max(1.0, abs(total))
    assert parts["G22"] == 0.0  # no modulated pulsations supplied


def test_decomposition_with_modulated_pulsations():
    rng = np.random.default_rng(SEED + 1)
    g = Grid(2048, 80.0)
    fam = CutoffFamily.for_config(TWO, L=5.0)
    pi = pi_from_config(TWO)
    pi[0] += 0.05
    pi[1] -= 0.03
    su, sn, sv = modulated_profile(g, TWO, pi, 0.0)
    S = State(g, 0.0, su, sn, sv)
    eps = _random_state(g, rng, scale=1e-2)
    full = State(g, 0.0, S.u + eps.u, S.n + eps.n, S.v + eps.v)
    parts = weinstein_decompose(eps, S, TWO, fam, omegas_t=pi[:2])
    assert parts["G22"] != 0.0
    total = weinstein(full, TWO, fam)
    assert abs(sum(parts.values()) - total) < 1e-9 * max(1.0, abs(total))


def test_decomposition_first_variation_vanishes_at_superposition():
    # a well-separated exact superposition is a near-critical point, so the
    # linear-in-epsilon part is interaction-small for any direction
    rng = np.random.default_rng(SEED + 2)
    g = Grid(2048, 80.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, -0.5, -15.0, 0.0),
                              SolitonParams(1.0, 0.5, 15.0, 1.0)))
    fam = CutoffFamily.for_config(cfg, L=5.0)
    S = multi_soliton_state(g, cfg, 0.0)
    eps = _random_state(g, rng, scale=1.0)
    parts = weinstein_decompose(eps, S, cfg, fam)
    assert abs(parts["G1"]) < 1e-4


def test_decomposition_requires_shared_grid():
    rng = np.random.default_rng(SEED)
    g = Grid(512, 40.0)
    S = multi_soliton_state(g, MultiSolitonConfig((SolitonParams(1.0, 0.0),)), 0.0)
    other = _random_state(Grid(512, 20.0), rng)
    with pytest.raises(ValueError):
        weinstein_decompose(other, S,
                            MultiSolitonConfig((SolitonParams(1.0, 0.0),)),
                            CutoffFamily(L=5.0))


# --- the polarized split against the density-built one ----------------------

def _density_weinstein(f, config, chis):
    """G of the frame f as one cutoff-weighted Weinstein density (the oracle
    of _Frame.weinstein, which sums E and the local columns)."""
    dens = f.energy_density
    for k, p in enumerate(config.solitons):
        dens = dens + chis[k] * (p.nu * f.mass_density - p.c * f.momentum_density)
    return quadrature(f.grid, dens)


def _density_decompose(e, S, config, chis, omegas_t):
    """The split with G21 as one chi-weighted quadratic density per soliton at
    the instantaneous pulsations, plus the profile coupling (the oracle of the
    polarized G21 = G(eps) - G22 - G3 + cross)."""
    omegas_t = np.asarray(config.omegas if omegas_t is None else omegas_t, dtype=float)
    g = S.grid
    s_u, s_n, s_v, s_ux = S.u, S.n, S.v, S.ux
    e_u, e_n, e_v, e_ux = e.u, e.n, e.v, e.ux
    lin = (2.0 * np.real(s_ux * np.conj(e_ux)) + 2.0 * s_n * np.real(np.conj(s_u) * e_u)
           + e_n * np.abs(s_u) ** 2 + s_n * e_n + s_v * e_v)
    for k, p in enumerate(config.solitons):
        lin = lin + chis[k] * (
            2.0 * p.nu * np.real(np.conj(s_u) * e_u)
            - p.c * (np.imag(np.conj(e_u) * s_ux + np.conj(s_u) * e_ux)
                     + s_n * e_v + e_n * s_v))
    quad = 2.0 * e_n * np.real(np.conj(s_u) * e_u) + s_n * e.mass_density
    g22 = 0.0
    for k, p in enumerate(config.solitons):
        nu_t = omegas_t[k] + 0.25 * p.c**2
        quad = quad + chis[k] * (np.abs(e_ux) ** 2 + nu_t * e.mass_density
                                 - p.c * e.momentum_density + 0.5 * (e_n**2 + e_v**2))
        g22 += (p.omega - omegas_t[k]) * quadrature(g, chis[k] * e.mass_density)
    return {"G0": _density_weinstein(S, config, chis), "G1": quadrature(g, lin),
            "G21": quadrature(g, quad), "G22": g22, "G3": quadrature(g, e_n * e.mass_density)}


SPLIT_CONFIGS = {
    1: MultiSolitonConfig((SolitonParams(1.0, 0.3, 1.0, 0.5),)),
    2: TWO,
    3: MultiSolitonConfig(tuple(SolitonParams(1.0 + 0.2 * k, c, 14.0 * c / 0.6, k)
                                for k, c in enumerate((-0.6, 0.0, 0.6)))),
}
# G0, G21 and G against their density-built oracles, relative (4.2e-16 seen)
SPLIT_RTOL = 1e-14


@pytest.mark.parametrize("modulated", [False, True], ids=["reference", "omegas_t"])
@pytest.mark.parametrize("scale", [1e-2, 1e-6])
@pytest.mark.parametrize("K", sorted(SPLIT_CONFIGS))
def test_polarized_split_matches_the_density_split(K, scale, modulated):
    cfg = SPLIT_CONFIGS[K]
    g, t = Grid(1024, 80.0), 0.7
    fam = CutoffFamily.for_config(cfg, L=5.0)
    pi = pi_from_config(cfg)
    omegas_t = None
    if modulated:
        pi[:K] += np.linspace(0.05, -0.03, K)
        omegas_t = pi[:K]
    S = State(g, t, *modulated_profile(g, cfg, pi, t))
    eps = _random_state(g, np.random.default_rng(SEED + K), scale=scale, t=t)
    full = State(g, t, S.u + eps.u, S.n + eps.n, S.v + eps.v)
    parts = weinstein_decompose(eps, S, cfg, fam, omegas_t=omegas_t)
    chis = fam.chis(g, t)
    oracle = _density_decompose(_Frame.of([eps]), _Frame.of([S]), cfg, chis, omegas_t)
    for key in ("G1", "G22", "G3"):
        assert parts[key] == oracle[key][0], key
    assert (parts["G22"] != 0.0) == modulated
    for key in ("G0", "G21"):
        assert abs(parts[key] - oracle[key]) <= SPLIT_RTOL * abs(oracle[key]), key
    G = weinstein(full, cfg, fam)
    G_oracle = _density_weinstein(_Frame.of([full]), cfg, chis)
    assert abs(G - G_oracle) <= SPLIT_RTOL * abs(G_oracle)


# --- modified energies and tails ---------------------------------------------

def test_modified_energies_vanish_on_reference():
    g = Grid(1024, 40.0)
    cfg = MultiSolitonConfig((SolitonParams(1.0, 0.3),))
    traj = [multi_soliton_state(g, cfg, 0.8)]
    out = gmod_series(traj, cfg)
    assert abs(out["H"][0]) < 1e-20
    assert abs(out["G_mod"][0]) < 1e-20
    assert error_series(traj, cfg)["err_bold_H"][0] < 1e-12


def test_modified_energy_quadratic_scaling():
    rng = np.random.default_rng(SEED)
    g = Grid(512, 40.0)
    zeros = np.zeros(g.n_points)
    U = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
    N = rng.standard_normal(g.n_points)
    V = rng.standard_normal(g.n_points)
    base, half = (_Frame.of([State(g, 0.0, s * U, s * N, s * V)]).modified(zeros, zeros)["H"][0]
                  for s in (1.0, 0.5))
    # H is purely quadratic; G_mod has cubic corrections so no exact scaling
    assert half == pytest.approx(0.25 * base, rel=1e-12)
    assert base > 0.0


def test_tail_mass_closed_form():
    g = Grid(1024, 40.0)
    f = _Frame.of([soliton_state(g, SolitonParams(1.0, 0.0))])
    assert f.tails(5.0)["mass_tail"][0] == pytest.approx(4.0 * (1.0 - np.tanh(5.0)),
                                                         abs=1e-6)
    with pytest.raises(ValueError):
        f.tails(0.0)
    with pytest.raises(ValueError):
        f.tails(25.0)


def test_tail_mass_shrinks_with_window():
    g = Grid(1024, 40.0)
    f = _Frame.of([soliton_state(g, SolitonParams(1.0, 0.0))])
    t3, t5, t8 = (f.tails(K0)["mass_tail"][0] for K0 in (3.0, 5.0, 8.0))
    assert t3 > t5 > t8 > 0.0


# --- snapshot reports ----------------------------------------------------------

def test_functional_report_invariants():
    g = Grid(2048, 80.0)
    st = multi_soliton_state(g, TWO, 0.0)
    fam = CutoffFamily.for_config(TWO, L=5.0)
    f = _Frame.of([st], TWO)
    rep = f.reports(5.0, fam.chis(g, f.t))
    assert list(rep) == COLUMNS_TWO
    assert all(np.shape(col) == (1,) for col in rep.values())
    rep = {key: col[0] for key, col in rep.items()}
    assert rep["t"] == 0.0
    assert abs(rep["M"] - rep["M_1"] - rep["M_2"]) < 1e-10
    assert abs(rep["P"] - rep["P_1"] - rep["P_2"]) < 1e-10
    identity = rep["E"] + sum(p.nu * rep[f"M_{k + 1}"] - p.c * rep[f"P_{k + 1}"]
                              for k, p in enumerate(TWO.solitons))
    assert abs(rep["G"] - identity) < 1e-10
    # the split around R(t) is at the reference pulsations, where G22 == 0
    assert not {"G22", "g22_active"} & set(rep)


def test_report_csv_round_trip(tmp_path):
    g = Grid(1024, 80.0)
    fam = CutoffFamily.for_config(TWO, L=5.0)
    f = _Frame.of([multi_soliton_state(g, TWO, t) for t in (0.0, 0.5)], TWO)
    reports = f.reports(5.0, fam.chis(g, f.t))
    path = tmp_path / "reports.csv"
    _write_csv(path, reports)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == COLUMNS_TWO
    assert len(rows) == 3
    # repr round trip is exact
    assert float(rows[1][rows[0].index("M")]) == reports["M"][0]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("cell, text", [
    (0.1 + 0.2, "0.30000000000000004"),
    (np.float64(1.0) / 3.0, repr(1.0 / 3.0)),
    (True, "True"),
    (np.bool_(False), "False"),
    (12, "12"),
    (np.int64(12), "12"),
    ("stagnation", "stagnation"),
])
def test_write_csv_cell_format(tmp_path, cell, text, as_array):
    """Floats by repr, bools, ints and strings by str, whether a column is a
    list of Python or numpy scalars or a numpy array."""
    column = [cell, cell]
    path = tmp_path / "cells.csv"
    _write_csv(path, {"cell": np.array(column) if as_array else column, "t": [0.5, 2.0]})
    assert path.read_bytes() == f"cell,t\r\n{text},0.5\r\n{text},2.0\r\n".encode()


# --- the shared per-frame pass -------------------------------------------------------

def test_frame_pass_matches_public_functions(backward_run):
    """Every value the per-frame pass feeds the CSVs equals, bit for bit,
    the public function (or the formula, on one snapshot) it stands for."""
    grid, config, traj = backward_run
    cases = [(min(traj, key=lambda s: abs(s.t - t)), config) for t in (0.0, 5.0, 30.0)]
    one = MultiSolitonConfig((SolitonParams(1.0, 0.3),))
    g1 = Grid(512, 40.0)
    near = multi_soliton_state(g1, one, 0.8)
    noise = _random_state(g1, np.random.default_rng(SEED), scale=1e-3, t=0.8)
    cases.append((State(g1, 0.8, near.u + noise.u, near.n + noise.n, near.v + noise.v), one))

    for st, cfg in cases:
        g = st.grid

        def d(f, order=1):
            return spectral_derivative(g, f, order)

        fam = CutoffFamily.for_config(cfg, L=5.0)
        ru, rn, rv = multi_soliton(g, cfg, st.t)
        S = State(g, st.t, ru, rn, rv)
        eps = State(g, st.t, st.u - ru, st.n - rn, st.v - rv)
        f = _Frame.of([st], cfg)
        rep = {key: col[0] for key, col in f.reports(5.0, fam.chis(g, f.t)).items()}
        assert (rep["t"], rep["M"], rep["E"], rep["P"]) == (
            st.t, mass(st), energy(st), momentum(st))
        mass_dens = np.abs(st.u) ** 2
        energy_dens = np.abs(d(st.u)) ** 2 + st.n * mass_dens + 0.5 * (st.n**2 + st.v**2)
        mom_dens = np.imag(np.conj(st.u) * d(st.u)) + st.n * st.v
        for k, chi in enumerate(fam.chis(g, st.t)):
            assert rep[f"M_{k + 1}"] == quadrature(g, mass_dens * chi)
            assert rep[f"P_{k + 1}"] == quadrature(g, mom_dens * chi)
        assert rep["G"] == weinstein(st, cfg, fam)
        parts = weinstein_decompose(eps, S, cfg, fam)
        assert parts.pop("G22") == 0.0  # so functionals.csv has no G22 column
        assert {key: rep[key] for key in parts} == parts
        Ux, Nx = d(eps.u), d(eps.n)
        H = quadrature(g, np.abs(d(eps.u, 2)) ** 2 + 0.5 * Nx**2 + 0.5 * d(eps.v) ** 2)
        G_mod = (H + 2.0 * quadrature(g, eps.n * np.abs(Ux) ** 2)
                 + 2.0 * quadrature(g, np.real(eps.u * Nx * np.conj(Ux)))
                 + 2.0 * quadrature(g, np.real(ru * Nx * np.conj(Ux)))
                 - 2.0 * quadrature(g, np.real(np.conj(eps.u) * d(ru) * Nx)))
        assert (rep["H"], rep["G_mod"]) == (H, G_mod)
        outside = np.clip((np.abs(g.x) - 5.0) / g.spacing + 0.5, 0.0, 1.0)
        assert (rep["mass_tail"], rep["energy_tail"]) == (
            quadrature(g, mass_dens * outside), quadrature(g, energy_dens * outside))
        bold_H = (np.sqrt(quadrature(g, np.abs(eps.u) ** 2) + quadrature(g, np.abs(d(eps.u)) ** 2))
                  + np.sqrt(quadrature(g, eps.n**2)) + np.sqrt(quadrature(g, eps.v**2)))
        assert f.eps.bold_H[0] == bold_H
        h2_square = (quadrature(g, np.abs(spectral_derivative(g, eps.u, 2)) ** 2)
                     + quadrature(g, spectral_derivative(g, eps.n, 1) ** 2)
                     + quadrature(g, spectral_derivative(g, eps.v, 1) ** 2))
        assert f.eps.h2_square[0] == h2_square
