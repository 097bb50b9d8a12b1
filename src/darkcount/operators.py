"""Sector lowering matrices, collective spin operators and the cavity Hamiltonian.

The central object is the lowering block: the matrix of sum_j g_j S_j^- taken
from the s-sector to the (s-1)-sector.  Dark states are exactly its null
vectors with the cavity empty.  For nonzero couplings L_g = D_{s-1}^{-1} W D_s,
with both factors here: :func:`inclusion_pattern` and :func:`gauge_products`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .couplings import CouplingProfile
from .sector import SectorBasis, enumerate_sector

S_SQUARED_SECTOR_CAP = 924  # C(12, 6) states: a dense block whose eigvalsh takes ~0.06 s


@dataclass(frozen=True, eq=False)
class SectorOperator:
    """Sparse matrix of the collective lowering operator between adjacent sectors.

    Shape is C(N, s-1) x C(N, s); column j holds the couplings of the qubits
    excited in source state j, one per reachable target state.
    """

    source: SectorBasis
    target: SectorBasis
    matrix: sp.csc_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Map s-sector amplitudes to (s-1)-sector amplitudes."""
        return self.matrix @ amplitudes


@dataclass(frozen=True, eq=False)
class PureState:
    """Amplitudes over one sector's basis, with the cavity empty."""

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.size,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, basis size is {self.basis.size}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.basis, self.amplitudes / n)


@dataclass(frozen=True)
class TotalSz:
    """Diagonal collective S^z over qubit configurations: eigenvalue popcount - N/2."""

    n_qubits: int

    def eigenvalue(self, state: int) -> float:
        return state.bit_count() - self.n_qubits / 2.0

    def diagonal(self, basis: SectorBasis) -> np.ndarray:
        if basis.n_qubits != self.n_qubits:
            raise ValueError("basis belongs to a different register size")
        return np.full(basis.size, basis.n_excited - self.n_qubits / 2.0)


def total_sz(n_qubits: int) -> TotalSz:
    """Collective S^z as a diagonal operator over occupation patterns."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    return TotalSz(n_qubits)


@functools.lru_cache(maxsize=1)  # every command works on one sector at a time
def inclusion_pattern(
    n_qubits: int, n_excited: int
) -> tuple[SectorBasis, SectorBasis, np.ndarray, np.ndarray, np.ndarray]:
    """CSC pattern of the 0/1 inclusion matrix W of (s-1)-subsets in s-subsets.

    Returns (source, target, indptr, rows, qubit): W is C(N, s-1) x C(N, s),
    column j holds the s rows of source state j with one excited qubit
    de-excited, in ascending order, and ``qubit[k]`` is the qubit that entry
    k lowers.  Built per bit, nothing of size C(N, s) x N is formed; the last
    sector's arrays are kept, read-only and shared, so W is built once a sector.
    """
    source = enumerate_sector(n_qubits, n_excited)
    target = enumerate_sector(n_qubits, n_excited - 1)
    src, tgt = source.states, target.states
    rows = np.empty((src.size, n_excited), dtype=np.int32)  # the cap keeps rows below 2^31
    qubit = np.empty((src.size, n_excited), dtype=np.int8)
    rest = src.copy()
    for k in reversed(range(n_excited)):  # de-exciting a lower bit leaves a larger row
        bit = rest & ~(rest - np.uint64(1))
        rest ^= bit
        rows[:, k] = np.searchsorted(tgt, src ^ bit)
        qubit[:, k] = np.frexp(bit.astype(np.float64))[1] - 1  # exact log2 of a power of two
    indptr = np.arange(0, rows.size + 1, n_excited, dtype=np.int32)
    indptr.flags.writeable = rows.flags.writeable = qubit.flags.writeable = False  # cached
    return source, target, indptr, rows.ravel(), qubit.ravel()


def gauge_products(sector: SectorBasis, g: np.ndarray) -> np.ndarray:
    """The gauge products D(x) = prod_{k in x} g_k over a sector."""
    excited = (sector.states[:, None] >> np.arange(g.size, dtype=np.uint64)) & 1 == 1
    return np.prod(np.where(excited, g, 1.0), axis=1)


def build_lowering_block(
    n_qubits: int, n_excited: int, profile: CouplingProfile
) -> SectorOperator:
    """Matrix elements <t_k| sum_i g_i S_i^- |s_j> between adjacent sectors.

    The pattern of :func:`inclusion_pattern` with the coupling g_i on each
    entry that lowers qubit i.
    """
    if n_excited < 1:
        raise ValueError("lowering from the zero-excitation sector is not defined")
    if profile.n_qubits != n_qubits:
        raise ValueError(
            f"profile has {profile.n_qubits} couplings for {n_qubits} qubits"
        )
    source, target, indptr, rows, qubit = inclusion_pattern(n_qubits, n_excited)
    matrix = sp.csc_matrix((profile.as_array()[qubit], rows, indptr),
                           shape=(target.size, source.size), dtype=np.complex128)
    return SectorOperator(source=source, target=target, matrix=matrix)


def single_excitation_dark_states(profile: CouplingProfile) -> list[PureState]:
    """The N-1 analytic dark states of the one-excitation sector: D_1^{-1} ker W.

    W(N, 1) is the all-ones row, whose kernel has the star basis e_N - e_j,
    and D_1 = diag(g).  Scaled by g_N, state j pairs qubit j with the last
    qubit N:

        |d_j> ~ -(g_N / g_j) |e_j> + |e_N>,   j = 1..N-1,

    normalized, with the cavity empty.  Each is annihilated by the 1 x N
    lowering row (g_1 .. g_N); the family is linearly independent but not
    orthogonal.
    """
    n = profile.n_qubits
    if n < 2:
        raise ValueError("no single-excitation dark states exist for fewer than 2 qubits")
    basis = enumerate_sector(n, 1)
    g = profile.as_array()
    star = np.hstack([-np.eye(n - 1), np.ones((n - 1, 1))])  # e_N - e_j, row j
    rows = star * (g[-1] / gauge_products(basis, g))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return [PureState(basis=basis, amplitudes=row) for row in rows]


def total_s_squared(n_qubits: int, n_excited: int) -> np.ndarray:
    """Dense S_tot . S_tot on the (N, s) sector, C(N, s) x C(N, s), exact.

    (S^z)^2 = (s - N/2)^2 and (S^+ S^- + S^- S^+)/2 = N/2 + sum_{i != j} S_i^+ S_j^-,
    whose flip-flops join the patterns x, y with |x & y| = s - 1; nothing of
    size 2^N is formed.  Eigenvalues come out as S(S+1).  The oracle
    diagonalizes the block densely, so its size is capped.
    """
    states = enumerate_sector(n_qubits, n_excited).states
    if states.size > S_SQUARED_SECTOR_CAP:
        raise ValueError(f"the ({n_qubits}, {n_excited}) sector holds {states.size} states, "
                         f"over the dense S^2 cap of {S_SQUARED_SECTOR_CAP}")
    excited = (states[:, None] >> np.arange(n_qubits, dtype=np.uint64) & 1).astype(np.float64)
    s2 = (excited @ excited.T == n_excited - 1).astype(np.float64)  # overlaps are small integers
    np.fill_diagonal(s2, (n_excited - n_qubits / 2.0) ** 2 + n_qubits / 2.0)
    return s2


@dataclass(frozen=True)
class HamiltonianModel:
    """Inputs for the full qubits-plus-cavity Hamiltonian on a truncated Fock space.

    Qubits are resonant with the mode; omega multiplies (a^dag a + S^z) and is
    a constant within any fixed-excitation block, so it never affects click
    statistics.  n_photon_max = s is exact for dynamics started with s
    excitations because total excitation number is conserved.
    """

    n_qubits: int
    profile: CouplingProfile
    omega: float = 1.0
    n_photon_max: int = 1

    def __post_init__(self):
        if self.profile.n_qubits != self.n_qubits:
            raise ValueError(
                f"profile has {self.profile.n_qubits} couplings for {self.n_qubits} qubits"
            )
        if self.n_photon_max < 0:
            raise ValueError("n_photon_max must be >= 0")

    @property
    def dim(self) -> int:
        return (1 << self.n_qubits) * (self.n_photon_max + 1)

    def index(self, pattern: int, n_ph: int) -> int:
        """Flat index of |pattern> (x) |n_ph>: qubit-major ordering."""
        return pattern * (self.n_photon_max + 1) + n_ph


def _collective_lowering_full(n_qubits: int, g: np.ndarray) -> sp.csr_matrix:
    """sum_j g_j S_j^- over the full 2^N qubit space."""
    dim = 1 << n_qubits
    cols, qubit = np.nonzero((np.arange(dim)[:, None] >> np.arange(n_qubits)) & 1)
    return sp.csr_matrix(
        (g[qubit], (cols ^ (1 << qubit), cols)), shape=(dim, dim), dtype=np.complex128
    )


def build_hamiltonian(model: HamiltonianModel) -> sp.csr_matrix:
    """Sparse Hermitian H = omega (a^dag a + S^z) + sum_j (g_j* S_j^+ a + g_j S_j^- a^dag).

    Acts on the qubit (x) photon space with the photon mode truncated at
    n_photon_max.  Commutes with the total excitation number
    a^dag a + S^z + N/2, so dynamics stay block diagonal.  The trajectory
    engine assembles only its excitation block; this is the tests' oracle.
    """
    n = model.n_qubits
    p = model.n_photon_max
    g = model.profile.as_array()
    dim_q = 1 << n

    a = sp.diags(np.sqrt(np.arange(1, p + 1)), offsets=1, format="csr").astype(
        np.complex128
    )
    adag = a.conj().T.tocsr()
    nph = (adag @ a).tocsr()
    eye_q = sp.identity(dim_q, format="csr", dtype=np.complex128)
    eye_p = sp.identity(p + 1, format="csr", dtype=np.complex128)

    sz_diag = np.array([m.bit_count() - n / 2.0 for m in range(dim_q)])
    sz = sp.diags(sz_diag).astype(np.complex128).tocsr()
    lower = _collective_lowering_full(n, g)
    raiser = lower.conj().T.tocsr()

    h = model.omega * (sp.kron(eye_q, nph) + sp.kron(sz, eye_p))
    h = h + sp.kron(raiser, a) + sp.kron(lower, adag)
    return h.tocsr()

