from dataclasses import replace
from math import comb

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from darkcount.couplings import DisorderSpec, sample_profile, uniform_profile
from darkcount.darkspace import dark_subspace
from darkcount.operators import HamiltonianModel, PureState, build_hamiltonian
from darkcount.protocol import null_emission_probability
from darkcount.sector import enumerate_sector
from darkcount.trajectory import (
    TrajectoryConfig,
    no_click_vs_kappa,
    run_trajectories,
    standard_config,
)

# narrow disorder keeps the waiting time 50 / g_min short enough for tests;
# heavy-tailed disorder belongs to the exact linear-algebra suite
MILD = DisorderSpec(0.7, 1.0, phase_random=True, distribution="uniform")


def make_config(n, s, profile, kappa_ratio=100.0, trajectories=10_000, seed=1,
                waiting_factor=130.0, omega=1.0):
    # waiting_factor 130 at kappa_ratio 100 drives even a lone sigma = g_min
    # bright mode down to exp(-5.2); the shipped default of 50 leaves such
    # modes at exp(-2), which only suits sectors with collective enhancement
    model = HamiltonianModel(n_qubits=n, profile=profile, omega=omega, n_photon_max=max(s, 1))
    initial = (1 << s) - 1
    return standard_config(model, kappa_ratio, initial, trajectories, seed,
                           waiting_factor=waiting_factor)


def full_space_h_eff(config):
    """H - (i kappa / 2) a^dag a on the whole truncated qubits (x) photon space."""
    h = build_hamiltonian(config.model).toarray()
    n_ph = np.zeros(config.model.dim)
    for pattern in range(1 << config.model.n_qubits):
        for k in range(config.model.n_photon_max + 1):
            n_ph[config.model.index(pattern, k)] = k
    return h - 0.5j * config.kappa * np.diag(n_ph)


def full_space_psi0(config):
    """Initial state on the whole truncated space, cavity empty, placed by model.index."""
    psi = np.zeros(config.model.dim, dtype=np.complex128)
    if isinstance(config.initial, PureState):
        amps = config.initial.normalized().amplitudes
        for pattern, a in zip(config.initial.basis.states, amps):
            psi[config.model.index(pattern, 0)] = a
    else:
        psi[config.model.index(config.initial, 0)] = 1.0
    return psi


def no_jump_master_equation(config):
    """Oracle: conditional (no-click) density matrix under continuous monitoring.

    Integrates d rho / dt = -i (H_eff rho - rho H_eff^dag) on the full space
    with an adaptive scheme, entirely separate from the package's exact
    propagator on the excitation block; the surviving trace is the no-click
    probability.
    """
    h_eff = full_space_h_eff(config)
    psi0 = full_space_psi0(config)
    rho0 = np.outer(psi0, psi0.conj())
    dim = rho0.shape[0]

    def rhs(_, y):
        rho = y.reshape(dim, dim)
        drho = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
        return drho.ravel()

    sol = solve_ivp(
        rhs, (0.0, config.t_max), rho0.ravel(), method="DOP853",
        rtol=1e-9, atol=1e-11,
    )
    rho_final = sol.y[:, -1].reshape(dim, dim)
    return float(np.real(np.trace(rho_final)))


def test_no_click_matches_master_equation_n2():
    cfg = make_config(2, 1, uniform_profile(2, 1.0), trajectories=10_000, seed=7,
                      waiting_factor=50.0)
    stats = run_trajectories(cfg)
    oracle = no_jump_master_equation(cfg)
    assert abs(stats.norm_grid[-1] - oracle) < 1e-6  # integrators agree
    assert abs(stats.p_no_click - oracle) <= 4.0 * max(stats.standard_error, 1e-4)
    assert abs(stats.p_no_click - 0.5) <= 0.05


def test_all_ground_never_clicks():
    prof = uniform_profile(2, 1.0)
    model = HamiltonianModel(2, prof, omega=1.0, n_photon_max=1)
    cfg = standard_config(model, 100.0, initial=0, n_trajectories=500, seed=3)
    stats = run_trajectories(cfg)
    assert stats.p_no_click == 1.0
    assert stats.n_click == 0


def test_saturated_sector_always_clicks():
    cfg = make_config(2, 2, uniform_profile(2, 1.0), trajectories=10_000, seed=5)
    stats = run_trajectories(cfg)
    assert stats.p_no_click <= 0.03


def test_dark_superposition_initial_state_never_decays():
    profile = sample_profile(3, MILD, seed=2)
    sub = dark_subspace(3, 1, profile)
    model = HamiltonianModel(3, profile, omega=1.0, n_photon_max=1)
    dark = PureState(sub.sector, sub.basis[0])
    cfg = standard_config(model, 100.0, initial=dark, n_trajectories=2000, seed=4)
    stats = run_trajectories(cfg)
    assert stats.p_no_click == 1.0
    assert stats.norm_grid[-1] == pytest.approx(1.0, abs=1e-8)


def test_norm_monotone():
    profile = sample_profile(3, MILD, seed=9)
    cfg = make_config(3, 2, profile, trajectories=10, seed=1)
    stats = run_trajectories(cfg)
    assert np.all(np.diff(stats.norm_grid) <= 1e-10)


def test_omega_only_adds_a_phase():
    # omega (a^dag a + S^z) is a constant on the excitation block
    profile = uniform_profile(4, 1.0)
    slow = run_trajectories(make_config(4, 1, profile, trajectories=10, waiting_factor=50.0))
    fast = run_trajectories(make_config(4, 1, profile, trajectories=10, waiting_factor=50.0,
                                        omega=3000.0))
    assert np.abs(fast.norm_grid - slow.norm_grid).max() < 1e-9
    assert slow.norm_grid[-1] == pytest.approx(0.75, abs=1e-3)


# (20, 2): a 211-state excitation block inside a 3.1M-state truncated space
@pytest.mark.parametrize("n,s,seed", [(2, 1, 0), (3, 1, 1), (3, 2, 2), (4, 2, 3), (20, 2, 4)])
def test_lossy_limit_matches_projector(n, s, seed):
    profile = sample_profile(n, MILD, seed=seed)
    cfg = make_config(n, s, profile, trajectories=10_000, seed=seed + 100)
    stats = run_trajectories(cfg)
    expected = null_emission_probability((1 << s) - 1, dark_subspace(n, s, profile))
    assert abs(stats.p_no_click - expected) <= max(0.03, 4.0 * stats.standard_error)


def test_kappa_sweep_monotone_convergence():
    profile = uniform_profile(2, 1.0)
    model = HamiltonianModel(2, profile, omega=1.0, n_photon_max=1)
    base = standard_config(model, 1000.0, initial=0b01, n_trajectories=20_000, seed=6)
    points = no_click_vs_kappa(base, [1000.0, 100.0, 10.0])
    finals = [st.norm_grid[-1] for _, st in points]
    errors = [abs(f - 0.5) for f in finals]
    # at a fixed horizon the bright residual shrinks as kappa descends
    # toward the coupling scale (rates go as sigma^2 / kappa)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.001
    # statistics sit near the underlying no-jump survival in every regime
    for _, st in points:
        assert abs(st.p_no_click - st.norm_grid[-1]) <= 4.0 * max(st.standard_error, 1e-4)


def test_kappa_1000_within_two_percent_n3():
    profile = sample_profile(3, MILD, seed=13)
    model = HamiltonianModel(3, profile, omega=1.0, n_photon_max=1)
    cfg = standard_config(model, 1000.0, initial=0b001, n_trajectories=40_000, seed=8,
                          waiting_factor=650.0)
    stats = run_trajectories(cfg)
    expected = null_emission_probability(0b001, dark_subspace(3, 1, profile))
    assert abs(stats.p_no_click - expected) <= max(0.02, 4.0 * stats.standard_error)


@pytest.mark.parametrize("n,s,superposed", [
    pytest.param(3, 2, False, id="3-2"),
    pytest.param(4, 2, False, id="4-2"),
    # a non-dark superposition: a mis-ordered photon-0 embedding changes its decay
    pytest.param(5, 2, True, id="5-2-superposition"),
])
def test_norms_match_full_space_exponential(n, s, superposed):
    from scipy.linalg import expm

    profile = sample_profile(n, MILD, seed=3)
    cfg = make_config(n, s, profile, trajectories=10, omega=0.7)
    if superposed:
        rng = np.random.default_rng(8)
        amps = rng.normal(size=(comb(n, s), 2)) @ [1.0, 1.0j]
        cfg = replace(cfg, initial=PureState(enumerate_sector(n, s), amps))
    stats = run_trajectories(cfg)
    h_eff = full_space_h_eff(cfg)
    psi0 = full_space_psi0(cfg)
    for k in (1, 17, 300, 2048, 4096):
        psi = expm(-1j * stats.norm_grid_times[k] * h_eff) @ psi0
        assert stats.norm_grid[k] == pytest.approx(np.vdot(psi, psi).real, abs=1e-10)


def test_dark_superposition_immune_at_every_kappa():
    profile = sample_profile(3, MILD, seed=21)
    sub = dark_subspace(3, 1, profile)
    model = HamiltonianModel(3, profile, omega=1.0, n_photon_max=1)
    dark = PureState(sub.sector, sub.basis[0])
    base = standard_config(model, 100.0, initial=dark, n_trajectories=500, seed=5)
    for _, stats in no_click_vs_kappa(base, [10.0, 100.0, 1000.0]):
        assert stats.p_no_click == 1.0


def test_deterministic_per_seed():
    cfg = make_config(2, 1, uniform_profile(2, 1.0), trajectories=1000, seed=11)
    a = run_trajectories(cfg)
    b = run_trajectories(cfg)
    assert a.p_no_click == b.p_no_click
    assert a.first_click_times == b.first_click_times


def test_config_validation():
    prof = uniform_profile(2, 1.0)
    model = HamiltonianModel(2, prof, omega=1.0, n_photon_max=1)
    with pytest.raises(ValueError, match="waiting-time"):
        TrajectoryConfig(model=model, kappa=100.0, t_max=1.0,
                         n_trajectories=10, seed=0, initial=0b01)
    with pytest.raises(ValueError, match="kappa"):
        TrajectoryConfig(model=model, kappa=-1.0, t_max=50.0,
                         n_trajectories=10, seed=0, initial=0b01)
    with pytest.raises(ValueError, match="truncation"):
        TrajectoryConfig(model=model, kappa=100.0, t_max=50.0,
                         n_trajectories=10, seed=0, initial=0b11)
    with pytest.raises(ValueError, match="outside"):
        run_trajectories(standard_config(model, 100.0, initial=0b100))
    with pytest.raises(ValueError, match="register size"):
        run_trajectories(standard_config(model, 100.0,
                                         initial=PureState(enumerate_sector(3, 1), np.ones(3))))
