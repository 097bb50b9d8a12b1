"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear;
without -s they show up in captured output.  One criterion is expected to
fail as stated and does so honestly, with the blocking analysis in its
docstring: the pinned trajectory horizon g*t_max = 50 leaves sectors whose
slowest bright mode sits at the weakest coupling with an e^-2 residual,
above the 0.03 band.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from darkcount.counting import (
    count_dark_uniform_oracle,
    ndark_formula,
    order_parameter,
    sweep,
    thermodynamic_order,
)
from darkcount.couplings import (
    DEFAULT_DISORDER,
    DisorderSpec,
    sample_profile,
    uniform_profile,
)
from darkcount.darkspace import (
    dark_subspace,
    rank_exact_modp,
    rank_numeric,
)
from darkcount.operators import (
    HamiltonianModel,
    build_hamiltonian,
    build_lowering_block,
    single_excitation_dark_states,
)
from darkcount.protocol import (
    measure_d,
    monte_carlo_protocol,
    null_emission_probability,
)
from darkcount.trajectory import run_trajectories, standard_config

MILD = DisorderSpec(0.7, 1.0, phase_random=True, distribution="uniform")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)


def test_criterion_1_transition_curve_reproduction():
    """Exact rational markers for N = 4, 8, 12, 16, 20 plus the limit curve, < 1 s."""
    t0 = time.perf_counter()
    records = sweep([4, 8, 12, 16, 20])
    by_key = {(r.n_qubits, r.n_excited): r for r in records}
    ok = len(records) == 65
    ok &= by_key[(20, 10)].order_param == Fraction(1, 11)
    ok &= by_key[(4, 1)].order_param == Fraction(3, 4)
    for rec in records:
        expected = (
            Fraction(rec.n_qubits - 2 * rec.n_excited + 1, rec.n_qubits - rec.n_excited + 1)
            if 2 * rec.n_excited <= rec.n_qubits
            else Fraction(0)
        )
        ok &= rec.order_param == expected
        ok &= rec.order_param == Fraction(rec.n_dark, rec.sector_size)
    for k in range(201):
        alpha = k / 200.0
        want = 0.0 if alpha > 0.5 else (1 - 2 * alpha) / (1 - alpha)
        ok &= thermodynamic_order(alpha) == pytest.approx(want, abs=1e-15)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"all 65 markers exact, curve matches, {elapsed:.3f} s")
    assert ok


def test_criterion_2_disorder_robust_nullity():
    """Numeric nullity equals the closed form for N <= 10, all s, 25 profiles, < 2 min."""
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 11):
        for s in range(n + 1):
            expected = ndark_formula(n, s)
            for seed in range(25):
                profile = sample_profile(n, DEFAULT_DISORDER, seed=seed)
                got = dark_subspace(n, s, profile).nullity
                if got != expected:
                    mismatches.append((n, s, seed, got, expected))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    report(2, ok, f"1625 random-profile sectors, {len(mismatches)} mismatches, "
                  f"{elapsed:.1f} s")
    assert ok, mismatches[:5]


def test_criterion_3_rank_law_small_sectors():
    """Numeric rank follows the two-branch law for all N <= 12, all s."""
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 13):
        for s in range(1, n + 1):
            expected = comb(n, s - 1) if 2 * s <= n else comb(n, s)
            profile = sample_profile(n, DEFAULT_DISORDER, seed=n * 31 + s)
            got = rank_numeric(build_lowering_block(n, s, profile))
            if got != expected:
                bad.append((n, s, got, expected))
    elapsed = time.perf_counter() - t0
    ok = not bad
    report(3, ok, f"rank law on 90 sectors up to N=12, {len(bad)} violations, "
                  f"{elapsed:.1f} s (exact-certification part reported separately)")
    assert ok, bad


def test_criterion_3_exact_certification_20_10():
    """The exact F_p rank must certify rank 167960 for the (20, 10) sector in < 5 min.

    rank_exact_modp shows that the Gram matrix of the 0/1 inclusion matrix
    is invertible mod p: Wilson's spectrum is checked as a witness on the
    package's own W, on every coordinate, so the certificate could fail; it
    decides (20, 10) in well under a second.
    """
    t0 = time.perf_counter()
    rank = rank_exact_modp(20, 10)
    elapsed = time.perf_counter() - t0
    ok = rank == 167960 and elapsed < 300.0
    report(3, ok, f"(20,10) certified rank {rank} in {elapsed:.1f} s")
    assert ok, f"rank {rank} in {elapsed:.0f} s, against 167960 within 300 s"


def test_criterion_4_trace_identity():
    """|D(s) - N_dark| <= 1e-8 for all N <= 10, all s, 10 random profiles each."""
    t0 = time.perf_counter()
    worst = 0.0
    bad = []
    for n in range(1, 11):
        for s in range(n + 1):
            expected = ndark_formula(n, s)
            for seed in range(10):
                profile = sample_profile(n, DEFAULT_DISORDER, seed=seed)
                dev = abs(measure_d(n, s, profile).d_of_s - expected)
                worst = max(worst, dev)
                if dev > 1e-8:
                    bad.append((n, s, seed, dev))
    elapsed = time.perf_counter() - t0
    ok = not bad
    report(4, ok, f"650 protocol sums, worst |D - N_dark| = {worst:.2e}, {elapsed:.1f} s")
    assert ok, bad[:5]


def test_criterion_5_angular_momentum_oracle():
    """Spectral counting agrees with the closed form for N <= 8, all s, < 1 min."""
    t0 = time.perf_counter()
    bad = [
        (n, s)
        for n in range(1, 9)
        for s in range(n + 1)
        if count_dark_uniform_oracle(n, s) != ndark_formula(n, s)
    ]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    report(5, ok, f"44 sector counts by total-spin diagonalization, {elapsed:.1f} s")
    assert ok, bad


def test_criterion_6_analytic_states_to_n64():
    """Residual and Gram rank of the analytic family up to N = 64."""
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n in (2, 3, 4, 8, 16, 33, 64):
        profile = sample_profile(n, DEFAULT_DISORDER, seed=n)
        states = single_excitation_dark_states(profile)
        op = build_lowering_block(n, 1, profile)
        bound = 1e-12 * profile.max_magnitude
        worst = max(np.linalg.norm(op.apply(d.amplitudes)) for d in states)
        gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in states] for a in states])
        grank = np.linalg.matrix_rank(gram)
        ok &= worst <= bound and grank == n - 1
        detail.append(f"N={n}: residual {worst:.1e}, Gram rank {grank}")
    elapsed = time.perf_counter() - t0
    report(6, ok, f"{'; '.join(detail[-2:])}, {elapsed:.1f} s")
    assert ok, detail


def test_criterion_7_monte_carlo_protocol():
    """N=6, s=2 estimate within 3 SE of 9; mean over 100 seeds within 4 SE."""
    t0 = time.perf_counter()
    profile = sample_profile(6, DEFAULT_DISORDER, seed=20)
    single = monte_carlo_protocol(6, 2, profile, trials=10_000, seed=5)
    ok = abs(single.estimated_d - 9.0) <= 3.0 * single.standard_error

    runs = [
        monte_carlo_protocol(6, 2, profile, trials=10_000, seed=seed)
        for seed in range(100)
    ]
    mean = float(np.mean([r.estimated_d for r in runs]))
    combined = float(np.sqrt(np.mean([r.standard_error**2 for r in runs]) / len(runs)))
    ok &= abs(mean - 9.0) <= 4.0 * combined
    elapsed = time.perf_counter() - t0
    report(7, ok, f"single run {single.estimated_d:.3f} +- {single.standard_error:.3f}, "
                  f"100-seed mean {mean:.4f} (4 SE = {4 * combined:.4f}), {elapsed:.1f} s")
    assert ok


def _trajectory_cases():
    for n in range(1, 5):
        for s in range(n + 1):
            yield n, s, "uniform", uniform_profile(n, 1.0)
            yield n, s, "random", sample_profile(n, MILD, seed=10 * n + s)


def test_criterion_8_lossy_limit_as_pinned():
    """Trajectories at the pinned settings kappa/g = 100, g*t_max = 50.

    Sectors whose slowest bright singular value equals the weakest coupling
    (measured here: (1,1) and (3,2)) decay only by e^-2 within that horizon,
    an irreducible ~0.09-0.14 residual above the 0.03 band; the criterion is
    asserted as written and fails on exactly those sectors.  The companion
    test below validates the same physics at a horizon long enough for its
    own stated suppression target.
    """
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for n, s, label, profile in _trajectory_cases():
        model = HamiltonianModel(n, profile, omega=1.0, n_photon_max=max(s, 1))
        init = (1 << s) - 1
        config = standard_config(model, kappa_ratio=100.0, initial=init,
                                 n_trajectories=10_000, seed=1000 + 10 * n + s,
                                 waiting_factor=50.0)
        stats = run_trajectories(config)
        expectation = null_emission_probability(init, dark_subspace(n, s, profile))
        dev = abs(stats.p_no_click - expectation)
        tol = max(0.03, 4.0 * stats.standard_error)
        checked += 1
        if dev > tol:
            failures.append(f"(N={n}, s={s}, {label}): |{stats.p_no_click:.4f} - "
                            f"{expectation:.4f}| = {dev:.4f} > {tol:.3f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    report(8, ok, f"{checked} sector runs at the pinned horizon, "
                  f"{len(failures)} out of tolerance, {elapsed:.1f} s")
    if failures:
        pytest.fail(
            "pinned horizon g*t_max = 50 cannot drain bright modes at the weakest "
            "coupling (rate 4 g^2/kappa gives e^-2 = 0.135 residual): "
            + "; ".join(failures)
            + ".  The calibrated-horizon companion test passes every sector."
        )
    assert ok


def test_criterion_8_lossy_limit_calibrated_horizon():
    """Same sweep with g*t_max = 130, where 4 g^2 t/kappa >= 5.2 for every mode."""
    t0 = time.perf_counter()
    failures = []
    for n, s, label, profile in _trajectory_cases():
        model = HamiltonianModel(n, profile, omega=1.0, n_photon_max=max(s, 1))
        init = (1 << s) - 1
        config = standard_config(model, kappa_ratio=100.0, initial=init,
                                 n_trajectories=10_000, seed=2000 + 10 * n + s,
                                 waiting_factor=130.0)
        stats = run_trajectories(config)
        expectation = null_emission_probability(init, dark_subspace(n, s, profile))
        dev = abs(stats.p_no_click - expectation)
        tol = max(0.03, 4.0 * stats.standard_error)
        if dev > tol:
            failures.append((n, s, label, dev, tol))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    report(8, ok, f"28 sector runs at the calibrated horizon all within tolerance, "
                  f"{elapsed:.1f} s")
    assert ok, failures


def test_criterion_8_master_equation_crosscheck():
    """Dense conditional-master-equation oracle agrees with trajectories at N = 2."""
    t0 = time.perf_counter()
    profile = uniform_profile(2, 1.0)
    model = HamiltonianModel(2, profile, omega=1.0, n_photon_max=1)
    config = standard_config(model, kappa_ratio=100.0, initial=0b01,
                             n_trajectories=10_000, seed=77)
    stats = run_trajectories(config)

    h = build_hamiltonian(model).toarray()
    n_ph = np.zeros(model.dim)
    for pattern in range(4):
        for k in range(2):
            n_ph[model.index(pattern, k)] = k
    h_eff = h - 0.5j * config.kappa * np.diag(n_ph)
    psi0 = np.zeros(model.dim, dtype=np.complex128)
    psi0[model.index(0b01, 0)] = 1.0
    rho0 = np.outer(psi0, psi0.conj())

    def rhs(_, y):
        rho = y.reshape(model.dim, model.dim)
        return (-1j * (h_eff @ rho - rho @ h_eff.conj().T)).ravel()

    sol = solve_ivp(rhs, (0.0, config.t_max), rho0.ravel(), method="DOP853",
                    rtol=1e-9, atol=1e-11)
    oracle = float(np.real(np.trace(sol.y[:, -1].reshape(model.dim, model.dim))))
    dev = abs(stats.p_no_click - oracle)
    elapsed = time.perf_counter() - t0
    ok = dev <= 4.0 * max(stats.standard_error, 1e-4)
    report(8, ok, f"master-equation oracle {oracle:.4f} vs trajectories "
                  f"{stats.p_no_click:.4f}, {elapsed:.1f} s")
    assert ok
