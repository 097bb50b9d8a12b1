"""Rank, nullity, dark bases and projectors of the sector lowering operators.

Everything rests on one gauge identity: for nonzero couplings the lowering
block factors as L_g = D_{s-1}^{-1} W D_s, with W the 0/1 inclusion matrix of
(s-1)-subsets in s-subsets and D_s = diag(prod_{k in x} g_k).  So the rank
never depends on the couplings, while the dark basis, D_s^{-1} ker W made
orthonormal, does.  Two independent routes give the same integers:

* a floating-point route with an explicit, auditable tolerance policy.  The
  numeric rank checks the block's pattern against W's and reads the
  couplings through it, so a block not in gauge form raises, and checks
  that B = D_{s-1} L_g D_s^{-1} is W within a residual.  Weyl's inequality
  then turns Wilson's singular values of W, sqrt((s-i)(N-s+1-i)) >= 1
  however wide the disorder, into bounds on B's: no Gram matrix, no
  factorization.  The dark basis is Rumer's pairing basis of ker W scaled
  by |D_s|^{-1}, a sparse K checked exactly by W K_int^T = 0 on its +-1
  signs.  With L the Cholesky factor of K K^T, triangular solves on column
  blocks of K give the squared row norms of Q = K^T L^{-T}, the projector's
  diagonal, with no dim x nullity array; one state's dark weight takes one
  solve; the phases go on only where vectors are read;
* an exact route over F_p, where rank L_g = rank W as well.  The rank is
  certified by showing that the Gram matrix of W is invertible mod p:
  Wilson's eigenvalues (s-i)(N-s+1-i) give a polynomial q, and q(G) e_0 = 0
  is checked with the package's own W, so a W built wrong fails.  This
  takes about 0.15 s at (20, 10).  A prime dividing one of the
  eigenvalues (at most s(N-s+1)) leaves it inconclusive, which raises
  ValueError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .counting import ndark_formula
from .couplings import CouplingProfile
from .operators import (PureState, SectorOperator, build_lowering_block, gauge_products,
                        inclusion_pattern)
from .sector import SectorBasis, enumerate_sector

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOLERANCE",
    "DarkSubspace",
    "DarkCheck",
    "BASIS_BYTES_CAP",
    "dark_basis_bytes",
    "diagonal_fits",
    "check_basis_fits",
    "rank_numeric",
    "null_basis",
    "dark_subspace",
    "projector",
    "verify_dark",
    "MERSENNE_31",
    "rank_exact_modp",
]


# --------------------------------------------------------------------------
# floating-point route
# --------------------------------------------------------------------------


SAFETY_FACTOR = 100.0  # a cutoff is this many times max(dim) * eps, relative


@dataclass(frozen=True)
class TolerancePolicy:
    """Singular-value cutoff: sigma_max * max(dim) * eps * SAFETY_FACTOR.

    ``relative(shape)`` also bounds the gauge residual of the numeric rank,
    and its kept margin is in sigma units over the cutoff.
    """

    def relative(self, shape: tuple[int, int]) -> float:
        return max(shape) * np.finfo(np.float64).eps * SAFETY_FACTOR

    def cutoff(self, sigma_max: float, shape: tuple[int, int]) -> float:
        return sigma_max * self.relative(shape)


DEFAULT_TOLERANCE = TolerancePolicy()


COLUMN_BLOCK_BYTES = 16 << 20  # what one block of a blocked product may take
BASIS_BYTES_CAP = 256 << 20  # the Gram factor and one block: (18, 9) takes 206 MB, (20, 10) 2.3 GB


def dark_basis_bytes(n_qubits: int, n_excited: int) -> int:
    """Bytes of the real dim x nullity dark basis Q of the (N, s) sector in float64."""
    return 8 * comb(n_qubits, n_excited) * ndark_formula(n_qubits, n_excited)


def diagonal_fits(n_qubits: int, n_excited: int) -> bool:
    """Whether the nullity^2 Gram factor and one column block of Q fit ``BASIS_BYTES_CAP``."""
    nullity = ndark_formula(n_qubits, n_excited)
    block = min(COLUMN_BLOCK_BYTES, dark_basis_bytes(n_qubits, n_excited))
    return 8 * nullity * nullity + block <= BASIS_BYTES_CAP


def _check_factor_fits(n: int, s: int) -> None:
    if not diagonal_fits(n, s):
        raise ValueError(f"the ({n}, {s}) Gram factor is over the protocol cap "
                         f"of {BASIS_BYTES_CAP >> 20} MiB")


def check_basis_fits(n_qubits: int, n_excited: int) -> None:
    """Raise ValueError unless the dark basis, held and printed complex, fits the cap."""
    if (nbytes := 2 * dark_basis_bytes(n_qubits, n_excited)) > BASIS_BYTES_CAP:
        raise ValueError(f"the ({n_qubits}, {n_excited}) complex dark basis takes {nbytes >> 20} "
                         f"MiB, over BASIS_BYTES_CAP of {BASIS_BYTES_CAP >> 20} MiB")


def _blocks(count: int, row_bytes: int) -> list[slice]:
    """Slices of ``count`` rows, each block at most COLUMN_BLOCK_BYTES at ``row_bytes`` a row."""
    step = max(1, COLUMN_BLOCK_BYTES // max(row_bytes, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


@dataclass(frozen=True, eq=False)
class DarkSubspace:
    """Orthonormal basis of the null space of a lowering block (cavity empty).

    The gauge makes the basis real up to one unit phase per arrangement.  It
    is held as the sparse scaled Rumer basis ``rumer`` K (unit rows) and the
    lower Cholesky factor ``factor`` L of K K^T: the real rows Q^T = L^{-1} K,
    formed once on read as ``real_basis``, are the Q of a QR of K^T up to
    signs, and the dark vectors are the rows of ``real_basis * phases``.
    The projector's diagonal, the null-emission probability of each
    arrangement, is the squared row norms of Q, streamed over column blocks
    of K; the ``weight`` of one state v, ||L^{-1} K (phases^* v)||^2, takes
    one triangular solve.  ``nullity_route`` names how the nullity was obtained
    (the :func:`rank_exact_modp` route, or "convention" at s = 0) and
    ``qr_margin`` is the smallest |L_jj| over its cutoff.
    """

    sector: SectorBasis
    rumer: sp.csc_matrix
    factor: np.ndarray
    phases: np.ndarray
    nullity_route: str
    qr_margin: float | None

    @property
    def nullity(self) -> int:
        return self.factor.shape[0]

    def _q_rows(self, rows: slice) -> np.ndarray:
        """Rows of Q = K^T L^{-T}: one dtrsm, in place on the dense block of K^T."""
        block = self.rumer[:, rows].T.toarray(order="F")
        return scipy.linalg.blas.dtrsm(1.0, self.factor, block, side=1, lower=1, trans_a=1,
                                       overwrite_b=1)

    @functools.cached_property
    def real_basis(self) -> np.ndarray:
        return self._q_rows(slice(None)).T

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return self.real_basis * self.phases

    def weight(self, psi: np.ndarray) -> float:
        """<psi|P|psi> = ||L^{-1} K (phases^* psi)||^2, the real and imaginary parts as two
        right-hand sides of one triangular solve."""
        rhs = (self.rumer @ (self.phases.conj() * psi)).view(np.float64).reshape(-1, 2)
        overlaps = scipy.linalg.solve_triangular(self.factor, rhs, lower=True, check_finite=False)
        return float(np.einsum("ij,ij->", overlaps, overlaps))

    def diagonal(self) -> np.ndarray:
        """The projector's diagonal: the squared row norms of Q, one column block at a time."""
        blocks = _blocks(self.sector.size, 8 * self.nullity)
        return np.concatenate([np.einsum("ij,ij->i", q, q) for q in map(self._q_rows, blocks)])


def _read_couplings(op: SectorOperator) -> tuple[np.ndarray, sp.csc_matrix]:
    """The couplings g of a lowering block and the block in canonical CSC form.

    Raises ValueError unless the block maps into the (N, s-1) sector on the
    ``indptr`` and ``rows`` of W's :func:`~darkcount.operators.inclusion_pattern`
    and each qubit carries exactly one nonzero coupling; entry k is then g at
    W's ``qubit[k]``.  Only a block that is not canonical CSC is copied.
    """
    block = op.matrix
    if block.format != "csc" or not block.has_canonical_format:
        block = block.tocsc(copy=True)  # the caller's arrays stay as they are
        block.sum_duplicates()
    n, s = op.source.n_qubits, op.source.n_excited
    source, target, indptr, rows, qubit = inclusion_pattern(n, s)
    if ((op.target, block.shape) != (target, (target.size, source.size))
            or not np.array_equal(block.indptr, indptr)
            or not np.array_equal(block.indices, rows)):
        raise ValueError(f"lowering block {op.shape} is not in gauge form: its {block.nnz} entries "
                         f"into the ({op.target.n_qubits}, {op.target.n_excited}) sector are not "
                         f"the {rows.size} inclusion pairs of the ({n}, {s}) sector")
    g = np.zeros(n, dtype=block.dtype)
    g[qubit] = block.data
    if (wrong := g[qubit] != block.data).any() or not g.all():
        bad = set(qubit[wrong].tolist()) | set(np.flatnonzero(g == 0).tolist())
        raise ValueError(
            f"lowering block {op.shape} is not in gauge form: qubits "
            f"{sorted(i + 1 for i in bad)} do not carry exactly one nonzero coupling"
        )
    return g, block


def rank_numeric(
    op: SectorOperator, tol_policy: TolerancePolicy = DEFAULT_TOLERANCE, report: dict | None = None
) -> int:
    """The rank min(m, n) of a lowering block in gauge form, or raise.

    Once :func:`_read_couplings` finds W's pattern with entry (t, x) equal
    to g_{x \\ t}, L_g = D_{s-1}^{-1} W D_s with nonzero D, so the rank is
    W's, min(m, n) (Wilson 1990).  What the call checks in floating
    point is the equilibrated block B = D_{s-1} L_g D_s^{-1}: it raises
    ValueError when the block is not in gauge form or when the residual
    max |entry - 1| exceeds ``tol_policy.relative(shape)``; a gauge product
    outside the normal float range counts as an infinite residual.  Those
    are the only failures.  On W's pattern B = W + E with |E_ij| <= r, the
    residual plus 32 eps for the rounding of the complex product and
    quotient that form each entry, so ||E||_2 <= r sqrt(s(N-s+1)) (the
    rows of W hold N-s+1 ones, the columns s).  Weyl's inequality and
    Wilson's spectrum of W, whose squared singular values run from
    |N - 2m| >= 1 (m the excitation number of W's smaller side) to
    s(N-s+1), give sigma_min(B) >= sqrt|N - 2m| - ||E||_2 and
    sigma_max(B) <= sqrt(s(N-s+1)) + ||E||_2.  A ``report`` dict, if
    given, receives ``gauge_residual`` and ``kept_margin``, that lower
    bound over the cutoff of that upper one.  Within ``SECTOR_CAP`` the
    residual check keeps ||E||_2 and the cutoff below 2.2e-6, so the margin
    needs no check of its own.  No dense array is formed and no LAPACK
    routine called: B is formed on the CSC arrays, each column's s entries
    over its own gauge product; the read builds no W of its own.
    """
    g, block = _read_couplings(op)
    d_t, d_s = gauge_products(op.target, g), gauge_products(op.source, g)
    with np.errstate(all="ignore"):  # a product out of range shows in the residual
        scaled = (d_t[block.indices] * block.data).reshape(d_s.size, -1) / d_s[:, None]
        normal = min(np.abs(d_t).min(), np.abs(d_s).min()) >= np.finfo(np.float64).tiny
        residual = float(np.max(np.abs(scaled - 1.0))) if normal else np.inf
    if not residual <= tol_policy.relative(op.shape):
        raise ValueError(
            f"gauge equilibration of lowering block {op.shape} left residual "
            f"{residual:.3e} over {tol_policy.relative(op.shape):.3e}"
        )
    if report is not None:
        n, s = op.source.n_qubits, op.source.n_excited
        m = s - 1 if op.shape[0] <= op.shape[1] else s
        top = np.sqrt(s * (n - s + 1))
        spread = (residual + 32 * np.finfo(np.float64).eps) * top  # bounds ||E||_2
        report.update(gauge_residual=residual, kept_margin=float(
            (np.sqrt(abs(n - 2 * m)) - spread) / tol_policy.cutoff(top + spread, op.shape)))
    return min(op.shape)


@functools.lru_cache(maxsize=8)
def _rumer_kernel(n_qubits: int, n_excited: int) -> tuple[np.ndarray, np.ndarray]:
    """ker W in Rumer's non-crossing pairing basis, as (patterns, signs).

    A path steps down at each excited qubit and up at each ground one.  Each
    ballot sequence (no prefix below zero: C(N, s) - C(N, s-1) of them for
    2s <= N) closes every down step with the nearest open up step; its
    vector is the product of the pair singlets over these arcs.  W kills
    every singlet, hence the product.  Entry [j, c] is the pattern (bit p =
    step p) and sign +-1 of vector j for choice c of the excited arc ends;
    c = 0 excites every closing end, giving the ballot pattern itself.
    """
    states = enumerate_sector(n_qubits, n_excited).states
    down = ((states[:, None] >> np.arange(n_qubits, dtype=np.uint64)) & 1).astype(np.int64)
    height = np.cumsum(1 - 2 * down, axis=1)
    ballot = np.all(height >= 0, axis=1)
    down, height = down[ballot], height[ballot]
    level = height - 1 + down  # height at the lower end of each step
    arc = np.cumsum(down, axis=1) - 1  # the arc each down step closes
    opened = np.zeros((down.shape[0], n_qubits + 1), dtype=np.int64)
    ends = np.zeros((2, down.shape[0], n_excited), dtype=np.int64)  # closing, opening
    for p in range(n_qubits):
        up, dn = np.flatnonzero(down[:, p] == 0), np.flatnonzero(down[:, p])
        opened[up, level[up, p]] = p
        ends[0, dn, arc[dn, p]] = p
        ends[1, dn, arc[dn, p]] = opened[dn, level[dn, p]]
    choice = (np.arange(1 << n_excited)[:, None] >> np.arange(n_excited)) & 1
    patterns = sum(np.uint64(1) << ends[choice[:, k], :, k].T.astype(np.uint64)
                   for k in range(n_excited))
    signs = 1.0 - 2.0 * (choice.sum(axis=1) % 2)
    patterns.flags.writeable = signs.flags.writeable = False  # cached: every caller shares them
    return patterns, signs


def _inclusion_matrix(n_qubits: int, n_excited: int) -> sp.csc_matrix:
    """W in int64, for the witness and the certificate, on :func:`inclusion_pattern`'s arrays."""
    _, target, indptr, rows, _ = inclusion_pattern(n_qubits, n_excited)
    return sp.csc_matrix((np.ones(rows.size, dtype=np.int64), rows, indptr),
                         shape=(target.size, indptr.size - 1))


def _witness(w: sp.csc_matrix, n_excited: int, cols: np.ndarray, signs: np.ndarray) -> int:
    """Nonzero entries of W K_int^T, for the +-1 Rumer signs K_int on ``cols``; 0 on ker W."""
    count, width = cols.shape
    k_int = sp.csr_matrix((np.resize(signs, cols.size).astype(np.int64), cols.ravel(),
                           np.arange(0, cols.size + 1, width)), shape=(count, w.shape[1]))
    return sum((w @ k_int[rows].T).count_nonzero()  # s 2^s products a vector
               for rows in _blocks(count, 16 * n_excited * width))


def null_basis(op: SectorOperator, tol_policy: TolerancePolicy = DEFAULT_TOLERANCE) -> DarkSubspace:
    """Orthonormal null-space basis from the gauge: ker L_g = D_s^{-1} ker W.

    The Rumer vectors of ker W, on a path that visits the qubits by
    decreasing |g|, are scaled by |D_s|^{-1} and normalized: the rows of a
    sparse K.  Every arc then closes on its weaker coupling, so each vector
    peaks at its own ballot pattern, where every earlier vector vanishes:
    the Cholesky factor L of K K^T has |L_jj| >= 2^{-s/2} in exact
    arithmetic, at any disorder.  The dark vectors are the rows of
    L^{-1} K times the phases conj(D_s / |D_s|).  The nullity is the
    dimension minus :func:`rank_exact_modp`, on the W of the block and the witness.
    Raises ValueError unless W K_int^T = 0 exactly for the +-1 signs
    K_int, the Rumer count equals the nullity, K K^T factors with smallest
    |L_jj| over ``tol_policy.cutoff(1, shape)``, and L_g leaves every
    phased row of K within the :func:`verify_dark` tolerance.  K is
    converted to CSC once, for the Gram rows and the subspace.  A sector
    whose factor fails :func:`diagonal_fits` raises ValueError first.
    """
    n, s = op.source.n_qubits, op.source.n_excited
    _check_factor_fits(n, s)
    g, _ = _read_couplings(op)
    patterns, signs = _rumer_kernel(n, s)
    path = np.argsort(-np.abs(g), kind="stable").astype(np.uint64)  # qubit at each step
    cols = np.searchsorted(op.source.states,
                           sum(((patterns >> p) & 1) << path[p] for p in range(n)))
    if witness := _witness(_inclusion_matrix(n, s), s, cols, signs):
        raise ValueError(f"the ({n}, {s}) Rumer vectors fail the integer witness: "
                         f"W K^T has {witness} nonzero entries")
    how: dict = {}
    nullity = op.shape[1] - rank_exact_modp(n, s, report=how)
    if len(cols) != nullity:
        raise ValueError(f"{len(cols)} Rumer vectors for the exact nullity {nullity}")
    d_s = gauge_products(op.source, g)
    with np.errstate(all="ignore"):  # a product out of range fails the checks below
        vals = signs / np.abs(d_s)[cols]
        vals /= np.sqrt(np.einsum("ij,ij->i", vals, vals))[:, None]
    k = sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, cols.size + 1, 1 << s)),
                      shape=(nullity, op.shape[1]))
    gram, kc = np.empty((nullity, nullity)), k.tocsc()  # kc.T is K^T in CSR, no copy
    for rows in _blocks(nullity, 8 * nullity):  # K K^T, F-ordered for LAPACK as its transpose
        gram[rows] = (k[rows] @ kc.T).toarray()
    factor, info = scipy.linalg.lapack.dpotrf(gram.T, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise ValueError(f"the ({n}, {s}) basis lost rank: the Cholesky factorization of "
                         f"K K^T breaks down at pivot {info} of {nullity}")
    cutoff = tol_policy.cutoff(1.0, op.shape)
    margin = float(np.abs(np.diag(factor)).min() / cutoff) if nullity else None
    if nullity and not margin > 1.0:
        raise ValueError(f"the ({n}, {s}) basis lost rank: min |L_jj| / cutoff = {margin:.3e}")
    phases = np.conj(d_s / np.abs(d_s))
    lowered = op.matrix.multiply(phases).tocsr()  # L_g diag(phases), for the phased rows of K
    residual = max((np.sqrt(abs(lowered @ k[rows].T).power(2).sum(axis=0).max())
                    for rows in _blocks(nullity, 24 * s << s)), default=0.0)
    if not residual <= (tol := _dark_tolerance(op, tol_policy)):
        raise ValueError(f"a dark vector of the ({n}, {s}) block leaves {residual:.3e} > {tol:.3e}")
    return DarkSubspace(op.source, kc, factor, phases, how["route"], margin)


def dark_subspace(n_qubits: int, n_excited: int, profile: CouplingProfile) -> DarkSubspace:
    """Dark subspace of the (N, s) sector for a given coupling profile.

    s = 0 has no lowering block; the all-ground state is trivially dark and
    the subspace is defined as that single state.  A sector over the cap raises first.
    """
    if n_excited == 0:
        one = np.ones((1, 1))
        return DarkSubspace(enumerate_sector(n_qubits, 0), sp.csc_matrix(one), one,
                            np.ones(1, dtype=np.complex128), "convention", None)
    _check_factor_fits(n_qubits, n_excited)
    return null_basis(build_lowering_block(n_qubits, n_excited, profile))


def projector(sub: DarkSubspace) -> np.ndarray:
    """Dense dim x dim dark projector of ``sub``, zero if bright; kept for the tracer, no CLI use."""
    return (sub.real_basis.T @ sub.real_basis) * np.outer(sub.phases, sub.phases.conj())


@dataclass(frozen=True)
class DarkCheck:
    """Outcome of certifying one state against the dark-state requirement."""

    passed: bool
    residual_norm: float
    residual_tolerance: float


def _dark_tolerance(op: SectorOperator, tol_policy: TolerancePolicy) -> float:
    scale = float(scipy.linalg.norm(op.matrix.data)) if op.matrix.nnz else 0.0
    return tol_policy.cutoff(scale, op.shape)


def verify_dark(state: PureState, op: SectorOperator) -> DarkCheck:
    """Certify that a zero-photon sector state is dark.

    The one nontrivial requirement is annihilation by the lowering block (no
    emission).  Stationarity needs nothing more: a state inside one
    excitation sector is an S^z eigenstate by construction, and the photon
    part is empty, so the absorption term acts as zero.  The tolerance is
    the default policy's cutoff, scaled by the Frobenius norm of the block.
    """
    if state.basis != op.source:
        raise ValueError("state does not live in the operator's source sector")

    tol = _dark_tolerance(op, DEFAULT_TOLERANCE)
    residual = float(np.linalg.norm(op.apply(state.amplitudes))) / max(state.norm, 1e-300)
    return DarkCheck(passed=residual <= tol, residual_norm=residual, residual_tolerance=tol)


# --------------------------------------------------------------------------
# exact route over F_p: the Gram certificate
# --------------------------------------------------------------------------

MERSENNE_31 = (1 << 31) - 1  # 2147483647, the Mersenne prime 2^31 - 1


def rank_exact_modp(
    n_qubits: int,
    n_excited: int,
    prime: int = MERSENNE_31,
    report: dict | None = None,
) -> int:
    """Exact rank of the lowering block over F_prime, by a certificate that can fail.

    Couplings in [1, prime-1] are units and L_g = D_{s-1}^{-1} W D_s, so
    rank L_g = rank W.  Wilson's theorem gives the eigenvalues of the Gram
    matrix G = W W^T (or W^T W, on the smaller side) as the integers
    lambda_i = (s-i)(N-s+1-i), i < k, with k = s on the (s-1)-subset side
    and k = N-s+1 on the s-subset side.  They are used only as a witness:
    q(G) e_{x0} = 0 for q(x) = prod_i (x - lambda_i) is checked on every
    coordinate, with W from :func:`~darkcount.operators.inclusion_pattern`,
    the construction behind :func:`build_lowering_block`.  G commutes with
    the qubit permutations S_N, so q(G) is constant on each class of subset
    pairs with a given intersection size, and column x0 meets every class:
    q(G) e_{x0} = 0 therefore gives q(G) = 0.  If also no lambda_i vanishes
    mod prime, q(0) != 0 and G is invertible, W has full rank over F_prime
    and hence over Q, and the result is min(rows, cols).  A W built wrong
    fails the check.  The cost is at most s factors of two sparse products.

    A prime up to s(N-s+1) can divide a lambda_i (prime 3 at (6, 3)); the
    certificate is then inconclusive and the call raises ValueError.
    ``MERSENNE_31`` certifies every sector: for N <= 64 each lambda_i is at
    most s(N-s+1) <= 1056 < 2^31 - 1, and every intermediate stays below
    (N + 1057) prime < 2^42.  Its work is bounded by the sector cap: about
    5 s at (24, 12).  A ``report`` dict, if given, receives ``route``
    ("gram-certificate") and ``degree`` (k, the degree of q).
    """
    if n_excited < 1 or n_excited > n_qubits:
        raise ValueError("n_excited must lie in [1, n_qubits] for a lowering block")
    if prime.bit_length() > 31 or prime < 3 or prime % 2 == 0:
        raise ValueError("prime must be an odd prime with at most 31 bits")
    w = _inclusion_matrix(n_qubits, n_excited)
    m, k = (w, n_excited) if w.shape[0] <= w.shape[1] else (w.T, n_qubits - n_excited + 1)
    lams = [(n_excited - i) * (n_qubits - n_excited + 1 - i) % prime for i in range(k)]
    v = np.zeros(m.shape[0], dtype=np.int64)
    v[0] = 1
    for lam in lams:  # every intermediate stays below (N + lam + 1) prime < 2^63
        v = (m @ (m.T @ v % prime) - lam * v) % prime
    if np.any(v) or not all(lams):
        raise ValueError(f"the ({n_qubits}, {n_excited}) rank certificate is inconclusive "
                         f"mod {prime}: Wilson's q(G) does not vanish on e_0, or the prime "
                         f"divides one of its roots")
    if report is not None:
        report.update(route="gram-certificate", degree=k)
    return min(w.shape)
