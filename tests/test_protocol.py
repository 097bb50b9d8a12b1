import numpy as np
import pytest

from darkcount import darkspace
from darkcount.counting import ndark_formula
from darkcount.couplings import DEFAULT_DISORDER, sample_profile, uniform_profile
from darkcount.darkspace import DarkSubspace, dark_subspace, projector
from darkcount.operators import PureState
from darkcount.protocol import (
    measure_d,
    monte_carlo_protocol,
    null_emission_probability,
)
from darkcount.sector import enumerate_sector


def test_two_qubit_uniform_probabilities():
    sub = dark_subspace(2, 1, uniform_profile(2, 1.0))
    assert null_emission_probability(0b01, sub) == pytest.approx(0.5)
    assert null_emission_probability(0b10, sub) == pytest.approx(0.5)


def test_dark_superposition_never_emits():
    profile = sample_profile(4, DEFAULT_DISORDER, seed=6)
    sub = dark_subspace(4, 2, profile)
    for v in sub.basis:
        d = PureState(sub.sector, v)
        assert null_emission_probability(d, sub) == pytest.approx(1.0, abs=1e-12)


def test_superposition_probability_matches_dense_expectation():
    profile = sample_profile(6, DEFAULT_DISORDER, seed=9)
    sub = dark_subspace(6, 3, profile)
    rng = np.random.default_rng(0)
    amps = rng.normal(size=20) + 1j * rng.normal(size=20)
    state = PureState(enumerate_sector(6, 3), amps)
    psi = state.normalized().amplitudes
    dense = np.vdot(psi, projector(sub) @ psi).real
    assert abs(null_emission_probability(state, sub) - dense) <= 1e-12


@pytest.mark.parametrize("n,s", [(8, 4), (12, 6)])
def test_arrangement_probability_takes_one_solve(monkeypatch, n, s):
    sub = dark_subspace(n, s, sample_profile(n, DEFAULT_DISORDER, seed=0))
    diagonal = sub.diagonal()

    def refuse(self):
        raise AssertionError("one probability must not stream the whole diagonal")

    monkeypatch.setattr(DarkSubspace, "diagonal", refuse)
    for k in range(0, sub.sector.size, 1 if n == 8 else 7):
        got = null_emission_probability(int(sub.sector.states[k]), sub)
        assert abs(got - diagonal[k]) <= 1e-14, (n, s, k)
    assert "real_basis" not in sub.__dict__  # no dim x nullity Q was formed


def test_bright_sector_probability_zero():
    profile = sample_profile(4, DEFAULT_DISORDER, seed=2)
    sub = dark_subspace(4, 3, profile)
    for pattern in enumerate_sector(4, 3).states:
        assert null_emission_probability(pattern, sub) == pytest.approx(0.0, abs=1e-14)


def test_probability_rejects_sector_mismatch():
    sub = dark_subspace(4, 2, uniform_profile(4, 1.0))
    with pytest.raises(ValueError):
        null_emission_probability(0b0111, sub)
    state = PureState(enumerate_sector(4, 1), np.ones(4) / 2.0)
    with pytest.raises(ValueError):
        null_emission_probability(state, sub)
    sub41 = dark_subspace(4, 1, uniform_profile(4, 1.0))
    same_size = PureState(enumerate_sector(4, 3), np.ones(4) / 2.0)  # C(4, 3) = C(4, 1)
    with pytest.raises(ValueError):
        null_emission_probability(same_size, sub41)


def test_measure_d_examples():
    uniform = measure_d(2, 1, uniform_profile(2, 1.0))
    assert uniform.d_of_s == pytest.approx(1.0, abs=1e-12)
    assert [p for _, p in uniform.per_arrangement] == pytest.approx([0.5, 0.5])

    random4 = measure_d(4, 2, sample_profile(4, DEFAULT_DISORDER, seed=3))
    assert random4.d_of_s == pytest.approx(2.0, abs=1e-9)
    assert random4.n_dark_expected == 2

    bright = measure_d(4, 3, sample_profile(4, DEFAULT_DISORDER, seed=4))
    assert bright.d_of_s == pytest.approx(0.0, abs=1e-12)


def test_measure_d_zero_excitation():
    result = measure_d(3, 0, uniform_profile(3, 1.0))
    assert result.d_of_s == pytest.approx(1.0)
    assert result.n_dark_expected == 1


def test_measure_d_refuses_an_oversized_sector_before_building_its_block(monkeypatch):
    def built(n, s, profile):
        pytest.fail(f"the ({n}, {s}) lowering block was built for a sector over the cap")

    monkeypatch.setattr(darkspace, "build_lowering_block", built)
    with pytest.raises(ValueError, match="over the protocol cap"):
        measure_d(20, 10, uniform_profile(20, 1.0))


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_identity_across_disorder(n):
    for s in range(n + 1):
        expected = ndark_formula(n, s)
        for seed in range(5):
            result = measure_d(n, s, sample_profile(n, DEFAULT_DISORDER, seed=seed))
            assert abs(result.d_of_s - expected) <= 1e-8


def test_sum_is_disorder_invariant_but_terms_move():
    results = [
        measure_d(5, 2, sample_profile(5, DEFAULT_DISORDER, seed=seed))
        for seed in range(8)
    ]
    sums = np.array([r.d_of_s for r in results])
    assert sums.var() <= 1e-16
    first_terms = np.array([r.per_arrangement[0][1] for r in results])
    assert first_terms.var() > 1e-6


def test_arrangement_order_is_canonical():
    result = measure_d(4, 2, uniform_profile(4, 1.0))
    patterns = [pat for pat, _ in result.per_arrangement]
    assert patterns == list(enumerate_sector(4, 2).states)


# -- Monte Carlo ---------------------------------------------------------------


def test_monte_carlo_uniform_two_qubits():
    mc = monte_carlo_protocol(2, 1, uniform_profile(2, 1.0), trials=100_000, seed=3)
    assert abs(mc.estimated_d - 1.0) <= 3.0 * mc.standard_error
    assert mc.standard_error == pytest.approx(np.sqrt(2 * 0.25 / 100_000), rel=0.2)


def test_monte_carlo_bright_sector_is_exactly_zero():
    mc = monte_carlo_protocol(4, 3, sample_profile(4, DEFAULT_DISORDER, seed=1),
                              trials=500, seed=9)
    assert mc.estimated_d == 0.0
    assert mc.standard_error == 0.0


def test_monte_carlo_deterministic_per_seed():
    profile = sample_profile(6, DEFAULT_DISORDER, seed=5)
    a = monte_carlo_protocol(6, 2, profile, trials=1000, seed=42)
    b = monte_carlo_protocol(6, 2, profile, trials=1000, seed=42)
    assert a.estimated_d == b.estimated_d


def test_monte_carlo_converges_with_trials():
    profile = sample_profile(6, DEFAULT_DISORDER, seed=11)
    exact = measure_d(6, 2, profile).d_of_s
    coarse = monte_carlo_protocol(6, 2, profile, trials=1_000, seed=1)
    fine = monte_carlo_protocol(6, 2, profile, trials=1_000_000, seed=1)
    assert abs(fine.estimated_d - exact) < abs(coarse.estimated_d - exact)


def test_monte_carlo_unbiased_over_seeds():
    profile = sample_profile(5, DEFAULT_DISORDER, seed=2)
    exact = measure_d(5, 2, profile).d_of_s
    runs = [
        monte_carlo_protocol(5, 2, profile, trials=2000, seed=seed)
        for seed in range(100)
    ]
    mean = np.mean([r.estimated_d for r in runs])
    combined_se = np.sqrt(np.mean([r.standard_error**2 for r in runs]) / len(runs))
    assert abs(mean - exact) <= 4.0 * combined_se


def test_montecarlo_command_measures_d_once(monkeypatch, capsys):
    import darkcount.cli
    import darkcount.protocol
    from darkcount.cli import main

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return measure_d(*args, **kwargs)

    monkeypatch.setattr(darkcount.protocol, "measure_d", counted)
    monkeypatch.setattr(darkcount.cli, "measure_d", counted)
    assert main(["montecarlo", "--n", "6", "--s", "3", "--trials", "100"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_monte_carlo_validates_trials():
    with pytest.raises(ValueError):
        monte_carlo_protocol(2, 1, uniform_profile(2, 1.0), trials=0, seed=0)
