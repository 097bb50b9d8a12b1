"""Fixed-excitation sectors of an N-qubit register, as read-only uint64 arrays.

A basis state is an integer whose bit j (0-based) is set iff qubit j+1 is
excited.  The s-sector holds every N-bit pattern with exactly s set bits,
ordered by unsigned integer value.  That order is canonical everywhere in
this package: matrices, projectors and protocol outputs all index into it.
It is also colexicographic order on the excited positions, so the sector
splits on its top qubit (Knuth, TAOCP 7.2.1.3):

    sector(N, s) = sector(N-1, s) ++ (sector(N-1, s-1) | 2^(N-1)).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import comb

import numpy as np

# The one cap on a sector, in states.  The sector itself takes 8 bytes a
# state; the exact rank certificate, its largest user, peaks near 200 bytes
# a state of its source sector (530 MB above the interpreter at (24, 12)),
# so about 0.6 GB at the cap.
SECTOR_CAP = 3_000_000


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of the sector with ``n_excited`` of ``n_qubits`` qubits excited.

    ``states`` is a read-only uint64 array that the basis derives from
    ``(n_qubits, n_excited)`` by the colex recursion, one qubit at a time,
    keeping only the sectors (n, k) that still reach (N, s).  Sectors
    compare and hash by those two numbers.  A pattern is one uint64, so N is
    at most 64, and the sector may hold at most ``SECTOR_CAP`` states.
    """

    n_qubits: int
    n_excited: int
    states: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n_qubits, n_excited = self.n_qubits, self.n_excited
        if not 1 <= n_qubits <= 64:
            raise ValueError(f"n_qubits must lie in [1, 64] for a uint64 pattern, got {n_qubits}")
        if not 0 <= n_excited <= n_qubits:
            raise ValueError(f"n_excited must lie in [0, {n_qubits}], got {n_excited}")
        if comb(n_qubits, n_excited) > SECTOR_CAP:
            raise ValueError(f"sector ({n_qubits}, {n_excited}) has {comb(n_qubits, n_excited)} "
                             f"states, over the sector cap of {SECTOR_CAP}")
        empty = np.zeros(0, dtype=np.uint64)
        level = {0: np.zeros(1, dtype=np.uint64)}  # sector(0, 0)
        for n in range(1, n_qubits + 1):
            top = np.uint64(1 << (n - 1))
            level = {k: np.concatenate([level.get(k, empty), level.get(k - 1, empty) | top])
                     for k in range(max(0, n_excited - n_qubits + n), min(n, n_excited) + 1)}
        states = level[n_excited]
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        return self.states.size

    def bitstring(self, state: int) -> str:
        """Render a pattern as a binary numeral (qubit 1 = rightmost character)."""
        return format(operator.index(state), f"0{self.n_qubits}b")


def enumerate_sector(n_qubits: int, n_excited: int) -> SectorBasis:
    """Enumerate the s-sector in canonical (ascending integer) order."""
    return SectorBasis(n_qubits, n_excited)


def state_index(basis: SectorBasis, state: int) -> int:
    """Position of ``state`` in ``basis.states``, by bisection of the sorted array.

    Accepts any integer, numpy ones included; raises ValueError for a pattern
    outside the register or with the wrong number of excited qubits.  Every
    other pattern is in the basis, which holds all of them.
    """
    state = operator.index(state)
    if state < 0 or state >> basis.n_qubits:
        raise ValueError(
            f"state {state:#x} has bits outside the {basis.n_qubits}-qubit register"
        )
    if state.bit_count() != basis.n_excited:
        raise ValueError(
            f"state {basis.bitstring(state)} has {state.bit_count()} excited qubits, "
            f"expected {basis.n_excited}"
        )
    return int(np.searchsorted(basis.states, np.uint64(state)))
