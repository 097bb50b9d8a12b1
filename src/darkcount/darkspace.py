"""Rank, nullity, dark bases and projectors of the sector lowering operators.

Everything rests on one gauge identity: for nonzero couplings the lowering
block factors as L_g = D_{s-1}^{-1} W D_s, with W the 0/1 inclusion matrix of
(s-1)-subsets in s-subsets and D_s = diag(prod_{k in x} g_k).  So the rank
never depends on the couplings, while the dark basis, D_s^{-1} ker W made
orthonormal, does.  Two independent routes give the same integers:

* a floating-point route with an explicit, auditable tolerance policy.  The
  numeric rank certifies or raises.  The squared singular values of the
  equilibrated block B = D_{s-1} L_g D_s^{-1}, which is W to rounding, are
  the eigenvalues of the Gram matrix of B's smaller side: Wilson's integers
  (s-i)(N-s+1-i) >= 1 however wide the disorder.  So one Cholesky
  factorization of the shifted Gram matrix certifies full rank (Sylvester's
  law of inertia), and one that breaks down raises ValueError.  The
  couplings are read back off the block, so a block that is not in gauge
  form raises too.  The dark basis is Rumer's pairing
  basis of ker W scaled by |D_s|^{-1}, made orthonormal by one real QR; the
  coupling phases go back on only where the vectors themselves are read;
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

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .couplings import CouplingProfile
from .operators import PureState, SectorOperator, build_lowering_block, inclusion_pattern
from .sector import SectorBasis, enumerate_sector

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOLERANCE",
    "DarkSubspace",
    "DarkCheck",
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


@dataclass(frozen=True)
class TolerancePolicy:
    """Singular-value cutoff: sigma_max * max(dim) * eps * safety_factor.

    The numeric rank certifies that every sigma^2 exceeds tau =
    max(cutoff^2, floor), where floor = relative(G.shape) * ||G||_1 is the
    backward error of a Cholesky factorization of the Gram matrix G: no
    threshold on sigma^2 below it can be resolved.  The kept margin stays in
    sigma units over the cutoff.
    """

    safety_factor: float = 100.0

    def relative(self, shape: tuple[int, int]) -> float:
        return max(shape) * np.finfo(np.float64).eps * self.safety_factor

    def cutoff(self, sigma_max: float, shape: tuple[int, int]) -> float:
        return sigma_max * self.relative(shape)


DEFAULT_TOLERANCE = TolerancePolicy()


@dataclass(frozen=True, eq=False)
class DarkSubspace:
    """Orthonormal basis of the null space of a lowering block (cavity empty).

    The gauge makes the basis real up to one unit phase per arrangement: the
    dark vectors are the rows of ``basis`` (nullity x dim), formed on read
    as ``real_basis * phases``.  The dark projector is
    P = diag(phases) Q^T Q diag(phases)^* for the real rows Q, and its
    diagonal, the null-emission probability of each arrangement, is the
    squared column norms of Q: O(nullity dim), with no dim x dim matrix.
    ``nullity_route`` names how the nullity was obtained (the
    :func:`rank_exact_modp` route, or "convention" at s = 0) and
    ``qr_margin`` is the smallest |R_jj| of the QR over its cutoff.
    """

    sector: SectorBasis
    real_basis: np.ndarray
    phases: np.ndarray
    nullity_route: str
    qr_margin: float | None

    @property
    def nullity(self) -> int:
        return self.real_basis.shape[0]

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return self.real_basis * self.phases

    def diagonal(self) -> np.ndarray:
        """The projector's diagonal: the squared column norms of the real rows."""
        return np.einsum("ji,ji->i", self.real_basis, self.real_basis)


def _read_couplings(op: SectorOperator) -> tuple[np.ndarray, sp.coo_matrix]:
    """The couplings of a lowering block in gauge form, and its entries.

    Entry (t, x) is g_i for the qubit i = x \\ t.  Raises ValueError unless
    every inclusion pair holds one entry and each qubit carries exactly one
    nonzero coupling.
    """
    coo = op.matrix.tocoo()
    coo.sum_duplicates()
    rows, cols, vals = coo.row, coo.col, coo.data
    src, tgt = op.source.states, op.target.states
    n, s = op.source.n_qubits, op.source.n_excited
    bit = src[cols] ^ tgt[rows]
    if (
        coo.nnz != s * src.size
        or np.any((bit == 0) | (bit & (bit - 1) != 0) | ((tgt[rows] | bit) != src[cols]))
    ):
        raise ValueError(
            f"lowering block {op.shape} is not in gauge form: its {coo.nnz} entries "
            f"are not the {s * src.size} inclusion pairs of the ({n}, {s}) sector"
        )
    qubit = np.frexp(bit)[1] - 1  # exact log2 of a power of two
    g = np.zeros(n, dtype=vals.dtype)
    g[qubit] = vals
    if np.any(g[qubit] != vals) or not np.all(g):
        bad = set(qubit[g[qubit] != vals].tolist()) | set(np.flatnonzero(g == 0).tolist())
        raise ValueError(
            f"lowering block {op.shape} is not in gauge form: qubits "
            f"{sorted(i + 1 for i in bad)} do not carry exactly one nonzero coupling"
        )
    return g, coo


def _gauge(sector: SectorBasis, g: np.ndarray) -> np.ndarray:
    """The gauge products D(x) = prod_{k in x} g_k over a sector."""
    excited = (sector.states[:, None] >> np.arange(g.size, dtype=np.uint64)) & 1 == 1
    return np.prod(np.where(excited, g, 1.0), axis=1)


def _smallest_eigenvalue(factor: np.ndarray) -> float:
    """lambda_min of A = R^T R from its upper Cholesky factor R, estimated from above.

    Inverse iteration from e_0, which meets every eigenspace of the Gram
    matrices here (the all-ones vector is their top eigenvector), until the
    Rayleigh quotient of A^{-1} settles to 1e-12.  Wilson's two smallest
    eigenvalues are more than a factor 2 apart, so a few dozen solves do.
    """
    x, mu = np.zeros(factor.shape[0]), 0.0
    x[0] = 1.0
    for _ in range(100):
        y = scipy.linalg.cho_solve((factor, False), x, check_finite=False)
        mu_prev, mu = mu, float(x @ y)
        x = y / np.linalg.norm(y)
        if abs(mu - mu_prev) <= 1e-12 * mu:
            break
    return 1.0 / mu


def rank_numeric(
    op: SectorOperator, tol_policy: TolerancePolicy = DEFAULT_TOLERANCE, report: dict | None = None
) -> int:
    """Certify that the gauge-equilibrated block has full rank min(m, n), or raise.

    Nonsingular diagonal scaling keeps the rank, so the rank of L_g is
    read off B = D_{s-1} L_g D_s^{-1}, whose entries are 1 up to the
    rounding of the gauge products.  Raises ValueError when the block is not
    in gauge form or the residual max |entry - 1| exceeds
    ``tol_policy.relative(shape)``.  The sigma^2 are the eigenvalues of the
    Gram matrix G of B's smaller side (a sparse product, densified once);
    sigma_max = sqrt(||G||_1) for the biregular W sets the cutoff, and
    sigma^2 is compared with tau = max(cutoff^2, relative(G.shape) ||G||_1),
    the second term the factorization's backward error.  A Cholesky
    factorization of G - tau I that succeeds is the certificate: every
    sigma^2 exceeds tau (Sylvester), so the rank is min(m, n).  One that
    breaks down raises ValueError naming the sector, tau and the failing
    pivot.  A ``report`` dict, if given, receives ``gauge_residual`` and
    ``kept_margin``, the smallest singular value over the cutoff, estimated
    from above by inverse iteration on the factor.
    """
    g, coo = _read_couplings(op)
    with np.errstate(all="ignore"):  # a product out of range shows in the residual
        scaled = _gauge(op.target, g)[coo.row] * coo.data / _gauge(op.source, g)[coo.col]
        residual = float(np.max(np.abs(scaled - 1.0)))
    if not residual <= tol_policy.relative(op.shape):
        raise ValueError(
            f"gauge equilibration of lowering block {op.shape} left residual "
            f"{residual:.3e} over {tol_policy.relative(op.shape):.3e}"
        )
    b = sp.csr_matrix((scaled.real, (coo.row, coo.col)), shape=op.shape)
    gram = b @ b.T if op.shape[0] <= op.shape[1] else b.T @ b
    norm1 = float(abs(gram).sum(axis=0).max())
    cutoff = tol_policy.cutoff(np.sqrt(norm1), op.shape)
    tau = max(cutoff**2, tol_policy.relative(gram.shape) * norm1)
    shifted = gram.toarray(order="F")  # LAPACK's layout: dpotrf works in place
    np.fill_diagonal(shifted, shifted.diagonal() - tau)
    factor, info = scipy.linalg.lapack.dpotrf(shifted, clean=False, overwrite_a=True)
    if info != 0:
        raise ValueError(
            f"the ({op.source.n_qubits}, {op.source.n_excited}) rank certificate failed: "
            f"the Cholesky factorization of G - tau I, tau = {tau:.3e}, breaks down at "
            f"pivot {info} of {gram.shape[0]}"
        )
    if report is not None:
        kept = np.sqrt(_smallest_eigenvalue(factor) + tau)
        report.update(gauge_residual=residual, kept_margin=float(kept / cutoff))
    return gram.shape[0]


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


def null_basis(op: SectorOperator, tol_policy: TolerancePolicy = DEFAULT_TOLERANCE) -> DarkSubspace:
    """Orthonormal null-space basis from the gauge: ker L_g = D_s^{-1} ker W.

    The Rumer vectors of ker W, on a path that visits the qubits by
    decreasing |g|, are scaled by |D_s|^{-1} and normalized.  Every arc then
    closes on its weaker coupling, so each vector peaks at its own ballot
    pattern, where every earlier vector vanishes: |R_jj| >= 2^{-s/2} in
    exact arithmetic, at any disorder.  One real Householder QR makes them
    orthonormal; the dark vectors are the columns of Q times the phases
    conj(D_s / |D_s|).  The nullity is the dimension minus
    :func:`rank_exact_modp`.  Raises ValueError unless the Rumer count
    equals it, the smallest |R_jj| clears ``tol_policy.cutoff(1, shape)``
    and every vector meets the :func:`verify_dark` tolerance.
    """
    g, _ = _read_couplings(op)
    n, s = op.source.n_qubits, op.source.n_excited
    how: dict = {}
    nullity = op.shape[1] - rank_exact_modp(n, s, report=how)
    patterns, signs = _rumer_kernel(n, s)
    if patterns.shape[0] != nullity:
        raise ValueError(f"{patterns.shape[0]} Rumer vectors for the exact nullity {nullity}")
    path = np.argsort(-np.abs(g), kind="stable").astype(np.uint64)  # qubit at each step
    rows = np.searchsorted(op.source.states,
                           sum(((patterns >> p) & 1) << path[p] for p in range(n)))
    d_s = _gauge(op.source, g)
    k = np.zeros((nullity, op.shape[1]))
    with np.errstate(all="ignore"):  # a product out of range fails the checks below
        k[np.arange(nullity)[:, None], rows] = signs / np.abs(d_s)[rows]
        k /= np.sqrt(np.einsum("ij,ij->i", k, k))[:, None]
    q, r = scipy.linalg.qr(k.T, mode="economic", overwrite_a=True, check_finite=False)
    margin = float(np.abs(np.diag(r)).min() / tol_policy.cutoff(1.0, op.shape)) if nullity else None
    if nullity and not margin > 1.0:
        raise ValueError(f"the ({n}, {s}) basis QR lost rank: min |R_jj| / cutoff = {margin:.3e}")
    phases = np.conj(d_s / np.abs(d_s))
    residual = max(  # ||L v|| of the unit vectors v = phases * q_j, 64 per product
        (np.linalg.norm(op.apply(phases[:, None] * q[:, j:j + 64]), axis=0).max()
         for j in range(0, nullity, 64)), default=0.0)
    if not residual <= (tol := _dark_tolerance(op, tol_policy)):
        raise ValueError(f"a dark vector of the ({n}, {s}) block leaves {residual:.3e} > {tol:.3e}")
    return DarkSubspace(op.source, q.T, phases, how["route"], margin)


def dark_subspace(n_qubits: int, n_excited: int, profile: CouplingProfile) -> DarkSubspace:
    """Dark subspace of the (N, s) sector for a given coupling profile.

    s = 0 has no lowering block; the all-ground state is trivially dark and
    the subspace is defined as that single state.
    """
    if n_excited == 0:
        return DarkSubspace(enumerate_sector(n_qubits, 0), np.ones((1, 1)),
                            np.ones(1, dtype=np.complex128), "convention", None)
    return null_basis(build_lowering_block(n_qubits, n_excited, profile))


def projector(sub: DarkSubspace) -> np.ndarray:
    """The dense dim x dim dark projector of ``sub``, from one real GEMM; zero if bright."""
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

    source, target, indptr, rows, _ = inclusion_pattern(n_qubits, n_excited)
    w = sp.csc_matrix((np.ones(rows.size, dtype=np.int64), rows, indptr),
                      shape=(target.size, source.size))
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
