from itertools import combinations
from math import comb

import numpy as np
import pytest

from darkcount.sector import SectorBasis, arrangements, enumerate_sector, state_index


def test_two_qubit_single_excitation():
    basis = enumerate_sector(2, 1)
    assert basis.states.tolist() == [0b01, 0b10]
    assert basis.size == 2


def test_sector_sizes_are_binomials():
    assert enumerate_sector(4, 2).size == 6
    assert enumerate_sector(4, 0).states.tolist() == [0]


@pytest.mark.parametrize("n", [*range(1, 13), 63, 64])
def test_sector_matches_combinations_oracle(n):
    for s in sorted({s for s in (0, 1, 2, n - 1, n) if 0 <= s <= n}):
        want = sorted(sum(1 << q for q in c) for c in combinations(range(n), s))
        assert enumerate_sector(n, s).states.tolist() == want


def test_states_are_a_read_only_uint64_array():
    basis = enumerate_sector(5, 2)
    assert basis.states.dtype == np.uint64
    with pytest.raises(ValueError):
        basis.states[0] = 0


def test_sectors_compare_by_register_and_excitation():
    assert enumerate_sector(4, 2) == enumerate_sector(4, 2)
    assert hash(enumerate_sector(4, 2)) == hash(enumerate_sector(4, 2))
    assert enumerate_sector(4, 2) != enumerate_sector(4, 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_sector_sizes_partition_full_space(n):
    total = 0
    for s in range(n + 1):
        basis = enumerate_sector(n, s)
        assert basis.size == comb(n, s)
        assert all(m.bit_count() == s for m in basis.states)
        assert list(basis.states) == sorted(set(basis.states))
        total += basis.size
    assert total == 2**n


def test_state_index_examples():
    basis = enumerate_sector(2, 1)
    assert state_index(basis, 0b01) == 0
    assert state_index(basis, 0b10) == 1
    assert state_index(basis, np.uint64(0b10)) == 1
    assert state_index(basis, np.int64(0b10)) == 1
    basis42 = enumerate_sector(4, 2)
    assert state_index(basis42, basis42.states[-1]) == comb(4, 2) - 1


@pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 11) for s in range(n + 1)])
def test_state_index_inverts_lookup(n, s):
    basis = enumerate_sector(n, s)
    for k, state in enumerate(basis.states):
        assert state_index(basis, state) == k


def test_state_index_rejects_wrong_popcount():
    basis = enumerate_sector(4, 2)
    with pytest.raises(ValueError, match="excited"):
        state_index(basis, 0b0111)
    with pytest.raises(ValueError, match="outside"):
        state_index(basis, 0b110000)


def test_hand_built_basis_is_checked():
    with pytest.raises(ValueError, match="needs 2 states"):
        SectorBasis(2, 1, (0b01,))
    # right size, wrong states: state_index finds no match rather than a position
    basis = SectorBasis(3, 1, (0b001, 0b010, 0b010))
    with pytest.raises(ValueError, match="not in the basis"):
        state_index(basis, 0b100)


def test_arrangements_match_basis():
    assert arrangements(3, 1) == [0b001, 0b010, 0b100]
    assert len(arrangements(4, 2)) == 6
    assert arrangements(2, 2) == [0b11]


def test_argument_validation():
    with pytest.raises(ValueError):
        enumerate_sector(0, 0)
    with pytest.raises(ValueError):
        enumerate_sector(4, 5)
    with pytest.raises(ValueError):
        enumerate_sector(4, -1)
    with pytest.raises(ValueError, match="sector cap"):
        enumerate_sector(26, 13)
    with pytest.raises(ValueError, match="64"):
        enumerate_sector(65, 1)
    # the cap is on the sector size, not the register width
    assert enumerate_sector(26, 1).size == 26


def test_bitstring_rendering():
    basis = enumerate_sector(4, 2)
    assert basis.bitstring(0b0011) == "0011"
    assert basis.bitstring(0b1100) == "1100"
