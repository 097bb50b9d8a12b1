import numpy as np
import pytest
import scipy.sparse as sp

from darkcount.couplings import (
    DEFAULT_DISORDER,
    CouplingProfile,
    sample_profile,
    uniform_profile,
)
from darkcount.operators import (
    HamiltonianModel,
    PureState,
    build_hamiltonian,
    build_lowering_block,
    inclusion_pattern,
    single_excitation_dark_states,
    total_s_squared,
    total_sz,
)
from darkcount.sector import enumerate_sector


def brute_force_lowering(n, s, profile):
    """Independent construction: act sum_i g_i S_i^- on each basis state directly."""
    src = enumerate_sector(n, s)
    tgt = enumerate_sector(n, s - 1)
    tgt_pos = {m: k for k, m in enumerate(tgt.states)}
    dense = np.zeros((tgt.size, src.size), dtype=complex)
    for j, m in enumerate(src.states):
        for i in range(n):
            if m >> i & 1:
                dense[tgt_pos[m ^ (1 << i)], j] += profile.values[i]
    return dense


def test_single_excitation_row():
    profile = sample_profile(5, DEFAULT_DISORDER, seed=2)
    op = build_lowering_block(5, 1, profile)
    assert op.shape == (1, 5)
    assert np.allclose(op.matrix.toarray()[0], profile.as_array())


def test_two_qubit_full_sector_column():
    op = build_lowering_block(2, 2, CouplingProfile((1.0 + 0j, 2.0 + 0j)))
    col = op.matrix.toarray().ravel()
    # target order is [01, 10]: clearing qubit 2 leaves 01 (weight g2), etc.
    assert col[0] == 2.0
    assert col[1] == 1.0


def test_uniform_single_excitation_rank_one():
    op = build_lowering_block(2, 1, uniform_profile(2, 1.0))
    assert np.linalg.matrix_rank(op.matrix.toarray()) == 1


@pytest.mark.parametrize("n,s,seed", [(4, 2, 0), (5, 3, 1), (6, 2, 2), (6, 4, 3)])
def test_matches_brute_force(n, s, seed):
    profile = sample_profile(n, DEFAULT_DISORDER, seed=seed)
    op = build_lowering_block(n, s, profile)
    assert np.allclose(op.matrix.toarray(), brute_force_lowering(n, s, profile))


@pytest.mark.parametrize("n,s", [(4, 1), (4, 2), (6, 3), (7, 5)])
def test_columns_hold_the_source_couplings(n, s):
    profile = sample_profile(n, DEFAULT_DISORDER, seed=11)
    op = build_lowering_block(n, s, profile)
    csc = op.matrix.tocsc()
    g = profile.as_array()
    for j, m in enumerate(op.source.states):
        col = csc.data[csc.indptr[j] : csc.indptr[j + 1]]
        assert len(col) == s
        expected = sorted((g[i] for i in range(n) if m >> i & 1), key=abs)
        assert np.allclose(sorted(col, key=abs), expected)


def test_inclusion_pattern_is_shared_and_read_only():
    pattern = inclusion_pattern(6, 3)
    assert inclusion_pattern(6, 3) is pattern
    _, _, indptr, rows, qubit = pattern
    for array in indptr, rows, qubit:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_adjoint_is_raising_block():
    profile = sample_profile(5, DEFAULT_DISORDER, seed=4)
    lower = build_lowering_block(5, 2, profile).matrix.toarray()
    # raising from sector 1 to 2 with conjugated couplings, built by brute force
    src = enumerate_sector(5, 1)
    tgt = enumerate_sector(5, 2)
    tgt_pos = {m: k for k, m in enumerate(tgt.states)}
    raise_block = np.zeros((tgt.size, src.size), dtype=complex)
    for j, m in enumerate(src.states):
        for i in range(5):
            if not m >> i & 1:
                raise_block[tgt_pos[m | (1 << i)], j] += np.conj(profile.values[i])
    assert np.allclose(lower.conj().T, raise_block)


def test_lowering_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_lowering_block(4, 0, uniform_profile(4, 1.0))
    with pytest.raises(ValueError):
        build_lowering_block(4, 2, uniform_profile(3, 1.0))


# -- analytic dark states ---------------------------------------------------


def test_two_qubit_uniform_singlet():
    states = single_excitation_dark_states(uniform_profile(2, 1.0))
    assert len(states) == 1
    amps = states[0].amplitudes
    singlet = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    overlap = abs(np.vdot(singlet, amps))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_lopsided():
    states = single_excitation_dark_states(CouplingProfile((1.0 + 0j, 2.0 + 0j)))
    amps = states[0].amplitudes
    assert np.allclose(amps, np.array([-2.0, 1.0]) / np.sqrt(5.0))


@pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
def test_dark_state_family_is_the_closed_form(n):
    # -(g_N / g_j) e_j + e_N, normalized, in 40 digits: D_1^{-1} on the star kernel of W(N, 1)
    mpmath = pytest.importorskip("mpmath")
    profile = sample_profile(n, DEFAULT_DISORDER, seed=n)
    states = single_excitation_dark_states(profile)
    g = [mpmath.mpc(complex(v)) for v in profile.as_array()]
    with mpmath.workdps(40):
        for j, d in enumerate(states):
            ratio = -g[-1] / g[j]
            scale = mpmath.sqrt(abs(ratio) ** 2 + 1)
            want = {j: ratio / scale, n - 1: 1 / scale}
            error = mpmath.sqrt(sum(abs(mpmath.mpc(complex(v)) - want.get(i, 0)) ** 2
                                    for i, v in enumerate(d.amplitudes)))
            assert error <= 1e-15, (j, float(error))  # the closed form has unit norm


@pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (6, 2), (16, 3), (64, 4)])
def test_dark_state_family_properties(n, seed):
    profile = sample_profile(n, DEFAULT_DISORDER, seed=seed)
    states = single_excitation_dark_states(profile)
    assert len(states) == n - 1
    op = build_lowering_block(n, 1, profile)
    gmax = profile.max_magnitude
    for d in states:
        assert d.norm == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(d.amplitudes) == 2
        assert np.linalg.norm(op.apply(d.amplitudes)) <= 1e-12 * gmax
    gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in states] for a in states])
    assert np.linalg.matrix_rank(gram) == n - 1


def test_dark_states_not_orthogonal_but_independent():
    states = single_excitation_dark_states(uniform_profile(4, 1.0))
    overlaps = [abs(np.vdot(states[i].amplitudes, states[j].amplitudes)) for i in range(3) for j in range(i + 1, 3)]
    assert all(o > 1e-3 for o in overlaps)


def test_dark_states_need_two_qubits():
    with pytest.raises(ValueError):
        single_excitation_dark_states(uniform_profile(1, 1.0))


# -- collective spin operators ----------------------------------------------


def test_total_sz_eigenvalues():
    sz = total_sz(2)
    assert sz.eigenvalue(0b11) == 1.0
    assert sz.eigenvalue(0b00) == -1.0
    sz4 = total_sz(4)
    basis = enumerate_sector(4, 2)
    assert np.allclose(sz4.diagonal(basis), 0.0)


def test_dark_states_are_sz_eigenvectors():
    n = 6
    profile = sample_profile(n, DEFAULT_DISORDER, seed=5)
    sz = total_sz(n)
    for d in single_excitation_dark_states(profile):
        diag = sz.diagonal(d.basis)
        weights = np.abs(d.amplitudes) ** 2
        mean = weights @ diag
        assert mean == pytest.approx(1 - n / 2)
        assert weights @ (diag - mean) ** 2 == pytest.approx(0.0, abs=1e-24)


def test_s_squared_small_systems():
    for s in (0, 1):
        assert np.array_equal(total_s_squared(1, s), [[0.75]])
    assert np.array_equal(total_s_squared(2, 0), [[2.0]])
    eig2 = np.linalg.eigvalsh(total_s_squared(2, 1))
    assert np.allclose(eig2, [0.0, 2.0], atol=1e-12)


def test_s_squared_sector_restriction_counts_singlets():
    eigvals = np.linalg.eigvalsh(total_s_squared(4, 2))
    assert np.count_nonzero(np.abs(eigvals) < 1e-9) == 2


def loop_s_squared(n_qubits):
    """Reference: S^+ filled entry by entry, then two dense products."""
    dim = 1 << n_qubits
    sz = np.zeros(dim)
    for m in range(dim):
        sz[m] = m.bit_count() - n_qubits / 2.0
    splus = np.zeros((dim, dim))
    for m in range(dim):
        for i in range(n_qubits):
            if not m >> i & 1:
                splus[m | (1 << i), m] = 1.0
    sminus = splus.T
    return np.diag(sz**2) + 0.5 * (splus @ sminus + sminus @ splus)


def test_s_squared_matches_loop_reference():
    for n in range(1, 9):
        full = loop_s_squared(n)
        for s in range(n + 1):
            idx = enumerate_sector(n, s).states
            assert np.array_equal(total_s_squared(n, s), full[np.ix_(idx, idx)]), (n, s)


def test_s_squared_cap():
    assert total_s_squared(12, 6).shape == (924, 924)
    assert total_s_squared(64, 1).shape == (64, 64)
    with pytest.raises(ValueError, match="cap"):
        total_s_squared(13, 6)


# -- Hamiltonian --------------------------------------------------------------


def test_single_qubit_jaynes_cummings_block():
    g = 0.3
    model = HamiltonianModel(1, uniform_profile(1, g), omega=1.0, n_photon_max=1)
    h = build_hamiltonian(model).toarray()
    # states: |0,0>, |0,1>, |1,0>, |1,1>; single-excitation block couples
    # |up, 0 ph> (index 2) and |down, 1 ph> (index 1) with amplitude g
    assert h[2, 1] == pytest.approx(g)
    assert h[1, 2] == pytest.approx(g)
    assert h[1, 1] == pytest.approx(1.0 - 0.5)  # omega (n_ph + sz)
    assert h[2, 2] == pytest.approx(0.5)


@pytest.mark.parametrize("seed", [0, 1])
def test_hamiltonian_hermitian(seed):
    profile = sample_profile(3, DEFAULT_DISORDER, seed=seed)
    model = HamiltonianModel(3, profile, omega=0.7, n_photon_max=3)
    h = build_hamiltonian(model)
    assert sp.linalg.norm(h - h.conj().T) <= 1e-14 * max(1.0, sp.linalg.norm(h))


@pytest.mark.parametrize("n,seed", [(1, 0), (4, 5), (6, 6)])
def test_full_space_lowering_matches_brute_force(n, seed):
    from darkcount.operators import _collective_lowering_full

    profile = sample_profile(n, DEFAULT_DISORDER, seed=seed)
    full = _collective_lowering_full(n, profile.as_array()).toarray()
    want = np.zeros_like(full)
    for s in range(1, n + 1):
        src = np.array(enumerate_sector(n, s).states)
        tgt = np.array(enumerate_sector(n, s - 1).states)
        want[np.ix_(tgt, src)] = brute_force_lowering(n, s, profile)
    assert np.array_equal(full, want)


def test_hamiltonian_conserves_excitation_number():
    profile = sample_profile(3, DEFAULT_DISORDER, seed=9)
    model = HamiltonianModel(3, profile, omega=1.3, n_photon_max=3)
    h = build_hamiltonian(model)
    # a^dag a + S^z + N/2 in the qubit-major order of HamiltonianModel.index
    n_exc = sp.diags([m.bit_count() + k for m in range(1 << 3) for k in range(4)], dtype=float)
    comm = h @ n_exc - n_exc @ h
    assert sp.linalg.norm(comm) <= 1e-13 * sp.linalg.norm(h)


def test_pure_state_validation():
    basis = enumerate_sector(2, 1)
    with pytest.raises(ValueError):
        PureState(basis, np.ones(3))
    state = PureState(basis, np.array([3.0, 4.0]))
    assert state.norm == pytest.approx(5.0)
    assert state.normalized().norm == pytest.approx(1.0)

