"""Rank, nullity, dark bases and projectors of the sector lowering operators.

Everything rests on one gauge identity: for nonzero couplings the lowering
block factors as L_g = D_{s-1}^{-1} W D_s, with W the 0/1 inclusion matrix of
(s-1)-subsets in s-subsets and D_s = diag(prod_{k in x} g_k).  So the rank
never depends on the couplings, while the dark basis, D_s^{-1} ker W made
orthonormal, does.  Two independent routes give the same integers:

* a floating-point route with an explicit, auditable tolerance policy.  The
  numeric rank is taken from the singular values of the equilibrated block
  D_{s-1} L_g D_s^{-1}, which is W to rounding: real, with condition number
  at most sqrt(s(N-s+1)/(N-2s+2)) (5.3 at (14, 7)) however wide the
  disorder.  The couplings are read back off the block and the residual
  max |entry - 1| is checked, so a block that is not in gauge form raises.
  The orthonormal dark basis and the dark projector, held as that basis,
  come from the complex SVD of L_g itself;
* an exact route over F_p, where rank L_g = rank W as well.  The rank is
  first certified by showing that the Gram matrix of W is invertible mod p
  (a minimal polynomial found by a Krylov sequence from one basis vector,
  checked on every coordinate, with nonzero constant term).  This takes
  about a second at (20, 10).  Where the certificate does not hold (a small
  prime dividing an eigenvalue of the Gram matrix), sparse Gaussian
  elimination on L_g with seeded random couplings gives the rank; its
  fill-in grows steeply with the sector size.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg

from .couplings import CouplingProfile
from .operators import PureState, SectorOperator, build_lowering_block
from .sector import SectorBasis, enumerate_sector

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOLERANCE",
    "DarkSubspace",
    "Projector",
    "DarkCheck",
    "nullity_numeric",
    "rank_numeric",
    "null_basis",
    "dark_subspace",
    "projector",
    "verify_dark",
    "MERSENNE_61",
    "CROSSCHECK_PRIME",
    "EliminationBudgetExceeded",
    "rank_exact_modp",
]


# --------------------------------------------------------------------------
# floating-point route
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TolerancePolicy:
    """Singular-value cutoff: sigma_max * max(dim) * eps * safety_factor.

    ``absolute`` overrides the scaled formula with a fixed cutoff.  Every
    result that used the policy records the value it resolved to.
    """

    safety_factor: float = 100.0
    absolute: float | None = None

    def relative(self, shape: tuple[int, int]) -> float:
        return max(shape) * np.finfo(np.float64).eps * self.safety_factor

    def cutoff(self, sigma_max: float, shape: tuple[int, int]) -> float:
        if self.absolute is not None:
            return self.absolute
        return sigma_max * self.relative(shape)


DEFAULT_TOLERANCE = TolerancePolicy()


@dataclass(frozen=True, eq=False)
class DarkSubspace:
    """Orthonormal basis of the null space of a lowering block (cavity empty)."""

    sector: SectorBasis
    basis: list[PureState]
    nullity: int
    tolerance_used: float  # relative to the largest singular value

    def __post_init__(self):
        if self.nullity != len(self.basis):
            raise ValueError("nullity must equal the number of basis vectors")


@dataclass(frozen=True, eq=False)
class Projector:
    """Dark projector P = sum_j |d_j><d_j|, held as its orthonormal dark basis.

    ``vectors`` stacks the basis as rows (nullity x dim), so P = V^T V^*.
    Its diagonal, the null-emission probability of each arrangement, is the
    squared column norms of V and costs O(nullity dim).  The dense dim x dim
    ``matrix`` is one GEMM, formed only when something reads it.
    """

    sector: SectorBasis
    vectors: np.ndarray

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    def diagonal(self) -> np.ndarray:
        v = self.vectors
        return np.einsum("ji,ji->i", v.real, v.real) + np.einsum("ji,ji->i", v.imag, v.imag)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.vectors.T @ self.vectors.conj()


def _svd_or_diagnose(
    op: SectorOperator, tol_policy: TolerancePolicy
) -> tuple[int, float, np.ndarray]:
    """Numerical rank and sigma_max of the block, plus its full V^H."""
    dense = op.to_dense()
    try:
        _, s, vh = scipy.linalg.svd(dense, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise np.linalg.LinAlgError(
            f"SVD failed on lowering block {op.shape} "
            f"(nnz={op.matrix.nnz}, fro={scipy.linalg.norm(dense):.3e}): {exc}"
        ) from exc
    sigma_max = float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > tol_policy.cutoff(sigma_max, op.shape)))
    return rank, sigma_max, vh


def _gauge_equilibrated(op: SectorOperator) -> tuple[np.ndarray, float]:
    """Dense real D_{s-1} L_g D_s^{-1} of a lowering block, and max |entry - 1|.

    The couplings are read back off the block: entry (t, x) is g_i for the
    qubit i = x \\ t.  Raises ValueError unless every inclusion pair holds
    one entry and each qubit carries exactly one nonzero coupling.  The
    scaled entries are then 1 up to the rounding of the gauge products (or
    not at all where a product under- or overflows), which the residual
    measures; the block is W to that residual.
    """
    coo = op.matrix.tocoo()
    coo.sum_duplicates()
    rows, cols, vals = coo.row, coo.col, coo.data
    src = np.array(op.source.states, dtype=np.int64)
    tgt = np.array(op.target.states, dtype=np.int64)
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

    def gauge(states: np.ndarray) -> np.ndarray:
        excited = (states[:, None] >> np.arange(n)) & 1 == 1
        return np.prod(np.where(excited, g, 1.0), axis=1)

    with np.errstate(all="ignore"):  # a product out of range shows in the residual
        scaled = gauge(tgt)[rows] * vals / gauge(src)[cols]
        residual = float(np.max(np.abs(scaled - 1.0)))
    dense = np.zeros(op.shape, order="F")  # LAPACK's layout: svdvals needs no copy
    dense[rows, cols] = scaled.real
    return dense, residual


def nullity_numeric(
    op: SectorOperator,
    tol_policy: TolerancePolicy = DEFAULT_TOLERANCE,
    report: dict | None = None,
) -> int:
    """Count singular values of the gauge-equilibrated block below the policy cutoff.

    Nonsingular diagonal scaling keeps the rank, so the nullity of L_g is
    read off D_{s-1} L_g D_s^{-1} with one real, values-only SVD.  Raises
    ValueError when the block is not in gauge form or the equilibration
    residual max |entry - 1| exceeds ``tol_policy.relative(shape)``.  An
    ``absolute`` cutoff applies to the equilibrated singular values.  A
    ``report`` dict, if given, receives ``gauge_residual``, ``kept_margin``
    (smallest kept singular value over the cutoff) and ``dropped_margin``
    (largest dropped one over the cutoff, None when none is dropped).
    """
    dense, residual = _gauge_equilibrated(op)
    if not residual <= tol_policy.relative(op.shape):
        raise ValueError(
            f"gauge equilibration of lowering block {op.shape} left residual "
            f"{residual:.3e} over {tol_policy.relative(op.shape):.3e}"
        )
    s = scipy.linalg.svdvals(dense, overwrite_a=True, check_finite=False)
    cutoff = tol_policy.cutoff(float(s[0]), op.shape)
    rank = int(np.count_nonzero(s > cutoff))
    if report is not None:
        report.update(
            gauge_residual=residual,
            kept_margin=float(s[rank - 1] / cutoff) if rank else None,
            dropped_margin=float(s[rank] / cutoff) if rank < s.size else None,
        )
    return op.shape[1] - rank


def rank_numeric(
    op: SectorOperator,
    tol_policy: TolerancePolicy = DEFAULT_TOLERANCE,
    report: dict | None = None,
) -> int:
    """Numerical rank under the same cutoff and ``report`` as :func:`nullity_numeric`."""
    return op.shape[1] - nullity_numeric(op, tol_policy, report)


def null_basis(
    op: SectorOperator, tol_policy: TolerancePolicy = DEFAULT_TOLERANCE
) -> DarkSubspace:
    """Orthonormal null-space basis from the right-singular vectors.

    The vectors are rows of V^H past the numerical rank, already orthonormal;
    no re-orthogonalization step is applied.
    """
    rank, sigma_max, vh = _svd_or_diagnose(op, tol_policy)
    vecs = vh[rank:].conj()
    states = [PureState(op.source, v.copy()) for v in vecs]
    rel = tol_policy.relative(op.shape) if tol_policy.absolute is None else (
        tol_policy.absolute / sigma_max if sigma_max > 0 else tol_policy.absolute
    )
    return DarkSubspace(
        sector=op.source, basis=states, nullity=len(states), tolerance_used=rel
    )


def dark_subspace(
    n_qubits: int,
    n_excited: int,
    profile: CouplingProfile,
    tol_policy: TolerancePolicy = DEFAULT_TOLERANCE,
) -> DarkSubspace:
    """Dark subspace of the (N, s) sector for a given coupling profile.

    s = 0 has no lowering block; the all-ground state is trivially dark and
    the subspace is defined as that single state.
    """
    if n_excited == 0:
        sector = enumerate_sector(n_qubits, 0)
        state = PureState(sector, np.ones(1, dtype=np.complex128))
        return DarkSubspace(sector=sector, basis=[state], nullity=1, tolerance_used=0.0)
    op = build_lowering_block(n_qubits, n_excited, profile)
    return null_basis(op, tol_policy)


def projector(sub: DarkSubspace) -> Projector:
    """The dark projector of ``sub`` as its stacked basis; no rows if the sector is bright."""
    vectors = np.array([state.amplitudes for state in sub.basis], dtype=np.complex128)
    return Projector(sector=sub.sector, vectors=vectors.reshape(sub.nullity, sub.sector.size))


@dataclass(frozen=True)
class DarkCheck:
    """Outcome of certifying one state against the dark-state requirement."""

    passed: bool
    residual_norm: float
    residual_tolerance: float


def verify_dark(
    state: PureState,
    op: SectorOperator,
    tol_policy: TolerancePolicy = DEFAULT_TOLERANCE,
) -> DarkCheck:
    """Certify that a zero-photon sector state is dark.

    The one nontrivial requirement is annihilation by the lowering block (no
    emission).  Stationarity needs nothing more: a state inside one
    excitation sector is an S^z eigenstate by construction, and the photon
    part is empty, so the absorption term acts as zero.  The tolerance
    scales with the Frobenius norm of the block unless the policy fixes an
    absolute cutoff.
    """
    if state.basis.states != op.source.states:
        raise ValueError("state does not live in the operator's source sector")

    scale = float(scipy.linalg.norm(op.matrix.data)) if op.matrix.nnz else 0.0
    tol = tol_policy.cutoff(scale, op.shape)
    residual = float(np.linalg.norm(op.apply(state.amplitudes))) / max(state.norm, 1e-300)
    return DarkCheck(passed=residual <= tol, residual_norm=residual, residual_tolerance=tol)


# --------------------------------------------------------------------------
# exact route over F_p: Gram certificate, elimination as fallback
# --------------------------------------------------------------------------

MERSENNE_61 = (1 << 61) - 1  # 2305843009213693951, the Mersenne prime 2^61 - 1
CROSSCHECK_PRIME = (1 << 61) - 31  # largest prime below 2^61 - 1; an independent check

RANK_MODP_MAX_QUBITS = 22


class EliminationBudgetExceeded(RuntimeError):
    """Raised when the exact rank (certificate, then elimination) exceeds its budget."""


def _modp_couplings(n_qubits: int, seed: int, prime: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(1, prime, size=n_qubits, dtype=np.uint64)


def _inclusion_maps(
    n_qubits: int, n_excited: int
) -> tuple[int, int, list[tuple[np.ndarray, np.ndarray]]]:
    """Per-qubit index maps of the 0/1 inclusion matrix W, vectorized.

    Returns (n_rows, n_cols, maps); rows index the (s-1)-sector, columns the
    s-sector, and maps[i] = (rows, cols) lists the entries that lower qubit i.
    Within one map both index arrays are duplicate-free.
    """
    src = np.array(enumerate_sector(n_qubits, n_excited).states, dtype=np.int64)
    tgt = np.array(enumerate_sector(n_qubits, n_excited - 1).states, dtype=np.int64)
    col_ids = np.arange(src.size, dtype=np.int64)
    maps = []
    for i in range(n_qubits):
        bit = 1 << i
        has = (src & bit) != 0
        maps.append((np.searchsorted(tgt, src[has] ^ bit), col_ids[has]))
    return tgt.size, src.size, maps


def _modp_triplets(
    n_qubits: int, n_excited: int, seed: int, prime: int
) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """Lowering-block entries with seeded integer couplings, vectorized.

    Returns (n_rows, n_cols, rows, cols, vals); rows index the (s-1)-sector.
    """
    g = _modp_couplings(n_qubits, seed, prime)
    n_rows, n_cols, maps = _inclusion_maps(n_qubits, n_excited)
    return (
        n_rows,
        n_cols,
        np.concatenate([rows for rows, _ in maps]),
        np.concatenate([cols for _, cols in maps]),
        np.concatenate(
            [np.full(rows.size, g[i], dtype=np.uint64) for i, (rows, _) in enumerate(maps)]
        ),
    )


def _gram_apply(
    v: np.ndarray, maps: list[tuple[np.ndarray, np.ndarray]], n_inner: int, prime: int
) -> np.ndarray:
    """G v mod prime, with G = M M^T for the 0/1 matrix M given by ``maps``.

    Each map is (outer, inner): entry M[outer[j], inner[j]] = 1.  Two passes of
    gathers and modular additions; no index repeats within one map.
    """
    p = np.uint64(prime)
    inner = np.zeros(n_inner, dtype=np.uint64)
    for outer_idx, inner_idx in maps:
        t = inner[inner_idx] + v[outer_idx]
        inner[inner_idx] = np.where(t >= p, t - p, t)
    out = np.zeros_like(v)
    for outer_idx, inner_idx in maps:
        t = out[outer_idx] + inner[inner_idx]
        out[outer_idx] = np.where(t >= p, t - p, t)
    return out


def _dependency_modp(rows: np.ndarray, prime: int) -> list[int] | None:
    """Coefficients c with c[-1] = 1 and rows @ c = 0 (mod prime), or None.

    Gauss-Jordan on Python ints; the matrix is a few rows wide.
    """
    m = [[int(x) % prime for x in row] for row in rows.tolist()]
    k = len(m[0]) - 1
    pivots: list[int] = []
    for c in range(k + 1):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if c == k:
            return None  # the last column is independent of the others
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, prime)
        m[r] = [(x * inv) % prime for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % prime for a, b in zip(m[i], m[r])]
        pivots.append(c)
    coeffs = [0] * k + [1]
    for row, c in zip(m, pivots):
        coeffs[c] = (-row[k]) % prime
    return coeffs


def _gram_certificate(
    n_qubits: int, n_excited: int, prime: int, deadline: float | None
) -> int | None:
    """Degree of the relation q if the Gram matrix of W is provably invertible mod prime.

    Runs the Krylov sequence v_k = G^k e_0 on the smaller side until v_k
    depends on v_0..v_{k-1}, takes the candidate relation q from the distinct
    rows of the Krylov matrix, and checks q(G) e_0 = 0 on every coordinate by
    Horner's rule.  Returns None when the check fails or q(0) = 0 (mod prime),
    so that the caller falls back to elimination.  See :func:`rank_exact_modp`
    for the soundness argument.
    """
    n_rows, n_cols, maps = _inclusion_maps(n_qubits, n_excited)
    n_inner = n_cols
    if n_cols < n_rows:
        maps = [(cols, rows) for rows, cols in maps]
        n_inner = n_rows
    dim = min(n_rows, n_cols)
    v = np.zeros(dim, dtype=np.uint64)
    v[0] = 1
    krylov = [v]
    labels = v.astype(np.int64)  # equal labels <=> equal rows of the Krylov matrix
    coeffs = None
    while coeffs is None:
        if deadline is not None and time.monotonic() > deadline:
            raise EliminationBudgetExceeded(
                f"rank certificate passed its wall-clock budget after "
                f"{len(krylov) - 1} Gram products on {dim} rows"
            )
        krylov.append(_gram_apply(krylov[-1], maps, n_inner, prime))
        # the Krylov vectors are constant on the intersection classes with
        # x0 = 0, so the matrix has at most s distinct rows
        _, ids = np.unique(krylov[-1], return_inverse=True)
        _, first, labels = np.unique(
            labels * (ids.max() + 1) + ids, return_index=True, return_inverse=True
        )
        coeffs = _dependency_modp(np.stack([u[first] for u in krylov], axis=1), prime)
    # q(G) e_0 by Horner's rule, q monic: only Gram products and modular additions
    w = v.copy()
    for c in reversed(coeffs[:-1]):
        if deadline is not None and time.monotonic() > deadline:
            raise EliminationBudgetExceeded(
                f"rank certificate passed its wall-clock budget while checking "
                f"a degree-{len(coeffs) - 1} relation on {dim} rows"
            )
        w = _gram_apply(w, maps, n_inner, prime)
        w[0] = (int(w[0]) + c) % prime
    if np.any(w) or coeffs[0] == 0:
        return None
    return len(coeffs) - 1


def _echelon_rank_scalar(
    n_rows: int,
    rows_idx: np.ndarray,
    cols_idx: np.ndarray,
    vals: np.ndarray,
    prime: int,
    deadline: float | None,
) -> int:
    """Incremental sparse row echelon over F_prime with Python-int arithmetic.

    Each unprocessed row is reduced against the registered pivot rows until
    it either empties (dependent) or contributes a new pivot at its leading
    column.  Pivot rows are normalized once so updates need no inversions.
    """
    from collections import defaultdict

    by_row: dict[int, dict[int, int]] = defaultdict(dict)
    for r, c, v in zip(rows_idx.tolist(), cols_idx.tolist(), vals.tolist()):
        by_row[r][c] = (by_row[r].get(c, 0) + int(v)) % prime
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    merges = 0
    for r in range(n_rows):
        row = {c: v for c, v in by_row.get(r, {}).items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, prime)
                pivots[lead] = {c: (v * inv) % prime for c, v in row.items()}
                rank += 1
                break
            f = row[lead]
            for c, v in piv.items():
                nv = (row.get(c, 0) - f * v) % prime
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
            merges += 1
            if deadline is not None and merges % 64 == 0 and time.monotonic() > deadline:
                raise EliminationBudgetExceeded(
                    f"elimination passed its wall-clock budget at rank {rank} "
                    f"of {n_rows} rows"
                )
    return rank


def rank_exact_modp(
    n_qubits: int,
    n_excited: int,
    seed: int,
    prime: int = MERSENNE_61,
    time_budget_s: float | None = None,
    max_qubits: int = RANK_MODP_MAX_QUBITS,
    report: dict | None = None,
) -> int:
    """Exact rank of the lowering block over F_prime.

    The rank is computed, never assumed, in two stages under one wall-clock
    budget ``time_budget_s`` (:class:`EliminationBudgetExceeded` when it runs
    out in either stage):

    1. **Gram certificate.**  Couplings in [1, prime-1] are units and
       L_g = D_{s-1}^{-1} W D_s, so rank L_g = rank W.  On the smaller side,
       G = W W^T (or W^T W) is applied as two passes over the per-qubit index
       maps, with modular additions only.  The Krylov sequence
       v_k = G^k e_{x0} runs until v_k depends on the earlier vectors; the
       relation q is solved on the distinct rows of the Krylov matrix and then
       q(G) e_{x0} = 0 is checked on every coordinate.  G commutes with the
       qubit permutations S_N, so q(G) is constant on each class of subset
       pairs with a given intersection size, and column x0 meets every class:
       q(G) e_{x0} = 0 therefore gives q(G) = 0.  If also q(0) != 0 (mod
       prime), G is invertible, W has full rank, and the result is
       min(rows, cols).  The degree of q is at most s (the number of
       intersection classes), so this costs at most 2s Gram products of
       2 N C(N-1, s-1) modular additions each.
    2. **Elimination fallback.**  The eigenvalues of G are the integers
       (s-i)(N-s+1-i) (Wilson 1990), so the certificate can only fail for a
       prime that divides one of them, at most s(N-s+1); e.g. prime 3 at
       (6, 3), where the true rank is 14 of 15.  Both documented primes
       always certify.  On failure, sparse row echelon with Python-int
       arithmetic runs on the lowering block with couplings drawn uniformly
       from [1, prime-1] by the Philox stream of ``seed``, on whichever
       orientation has fewer rows.  Its fill-in grows steeply: mod 3 it
       takes about 4 s at (14, 7) and a minute at (16, 8).

    ``seed`` therefore only matters on the fallback path.  Any odd prime of
    at most 61 bits is accepted; ``CROSSCHECK_PRIME`` gives an independent
    check on demand.  A ``report`` dict, if given, receives how the rank was
    obtained: ``route`` ("gram-certificate" or "elimination") and ``degree``
    (of q, None on the fallback).
    """
    if n_qubits > max_qubits:
        raise ValueError(f"n_qubits={n_qubits} exceeds the cap of {max_qubits}")
    if n_excited < 1 or n_excited > n_qubits:
        raise ValueError("n_excited must lie in [1, n_qubits] for a lowering block")
    if prime != MERSENNE_61 and prime != CROSSCHECK_PRIME:
        # Any odd prime below 2^61 works in both stages; these two are the
        # documented defaults.
        if prime.bit_length() > 61 or prime < 3:
            raise ValueError("prime must be an odd prime with at most 61 bits")

    deadline = None if time_budget_s is None else time.monotonic() + time_budget_s
    degree = _gram_certificate(n_qubits, n_excited, prime, deadline)
    if report is not None:
        report.update(route="elimination" if degree is None else "gram-certificate",
                      degree=degree)
    if degree is not None:
        return min(comb(n_qubits, n_excited), comb(n_qubits, n_excited - 1))
    n_rows, n_cols, rows, cols, vals = _modp_triplets(n_qubits, n_excited, seed, prime)
    if n_cols < n_rows:
        rows, cols = cols, rows
        n_rows, n_cols = n_cols, n_rows
    return _echelon_rank_scalar(n_rows, rows, cols, vals, prime, deadline)
