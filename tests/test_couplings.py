import numpy as np
import pytest

from darkcount.couplings import (
    DEFAULT_DISORDER,
    CouplingProfile,
    DisorderSpec,
    profile_from_json,
    profile_to_json,
    sample_profile,
    uniform_profile,
)


def test_uniform_profile_values():
    assert uniform_profile(2, 1.0).values == (1.0 + 0j, 1.0 + 0j)
    assert uniform_profile(4, 0.5).values == (0.5 + 0j,) * 4
    assert uniform_profile(1, 2.0).values == (2.0 + 0j,)


def test_uniform_profile_rejects_nonpositive():
    with pytest.raises(ValueError):
        uniform_profile(2, 0.0)
    with pytest.raises(ValueError):
        uniform_profile(2, -1.0)


def test_profile_rejects_zero_coupling():
    with pytest.raises(ValueError, match="g_2"):
        CouplingProfile((1.0 + 0j, 0j, 2.0 + 0j))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_profile_rejects_non_finite_couplings(bad):
    with pytest.raises(ValueError, match="g_2"):
        CouplingProfile((1.0 + 0j, bad))
    with pytest.raises(ValueError):
        uniform_profile(2, abs(bad))
    with pytest.raises(ValueError):
        DisorderSpec(0.5, abs(bad))


def test_sample_magnitudes_in_range():
    spec = DisorderSpec(1e-2, 1.0, phase_random=True, distribution="log-uniform")
    prof = sample_profile(4, spec, seed=7)
    assert prof.n_qubits == 4
    assert all(1e-2 <= abs(g) <= 1.0 for g in prof.values)


def test_sample_deterministic_per_seed():
    a = sample_profile(6, DEFAULT_DISORDER, seed=123)
    b = sample_profile(6, DEFAULT_DISORDER, seed=123)
    c = sample_profile(6, DEFAULT_DISORDER, seed=124)
    assert a.values == b.values
    assert a.values != c.values


def test_degenerate_spec_gives_uniform_magnitudes():
    spec = DisorderSpec(1.0, 1.0, phase_random=False)
    prof = sample_profile(3, spec, seed=5)
    assert np.allclose(np.abs(prof.as_array()), 1.0)
    assert np.allclose(prof.as_array().imag, 0.0)


@pytest.mark.parametrize("seed", range(50))
def test_samples_never_zero(seed):
    prof = sample_profile(8, DEFAULT_DISORDER, seed=seed)
    assert prof.min_magnitude >= DEFAULT_DISORDER.magnitude_low


def test_reference_stream_pinned():
    # Philox(key=0) stream; these values must reproduce across platforms.
    prof = sample_profile(2, DEFAULT_DISORDER, seed=0)
    arr = prof.as_array()
    expected = np.array(
        [0.0008282703439632388 + 0.0006977972547134713j,
         -0.0048759800961430694 - 0.0020887663122336297j]
    )
    assert np.allclose(arr, expected, rtol=0, atol=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        DisorderSpec(2.0, 1.0)
    with pytest.raises(ValueError):
        DisorderSpec(0.1, 1.0, distribution="gaussian")


def test_json_round_trip():
    prof = sample_profile(5, DEFAULT_DISORDER, seed=9)
    again = profile_from_json(profile_to_json(prof))
    assert again.values == prof.values
    bare = profile_from_json("[[1.0, 0.0], [0.5, -0.25]]")
    assert bare.values == (1.0 + 0j, 0.5 - 0.25j)


@pytest.mark.parametrize("text", ['{"label": "no couplings"}', "3.0", "[1, 2]", "[[1.0]]",
                                  '{"couplings": 5}', '[["1", 0]]'])
def test_json_that_is_not_a_list_of_pairs_is_refused(text):
    with pytest.raises(ValueError, match="couplings"):
        profile_from_json(text)
