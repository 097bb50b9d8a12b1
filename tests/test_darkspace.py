import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from darkcount.couplings import (
    DEFAULT_DISORDER,
    CouplingProfile,
    DisorderSpec,
    sample_profile,
    uniform_profile,
)
from darkcount import darkspace, operators
from darkcount.darkspace import (
    DEFAULT_TOLERANCE,
    MERSENNE_31,
    _rumer_kernel,
    dark_subspace,
    null_basis,
    projector,
    rank_exact_modp,
    rank_numeric,
    verify_dark,
)
from darkcount.counting import ndark_formula
from darkcount.operators import (
    PureState,
    SectorOperator,
    build_lowering_block,
    inclusion_pattern,
    single_excitation_dark_states,
)
from darkcount.sector import enumerate_sector


def brute_force_nullity(op):
    """Independent oracle: dimension of the null space via scipy's null_space."""
    ns = scipy.linalg.null_space(op.matrix.toarray())
    return ns.shape[1]


def numeric_nullity(op, *args, **kwargs):
    return op.shape[1] - rank_numeric(op, *args, **kwargs)


# -- numeric nullity ----------------------------------------------------------


def test_single_excitation_nullity():
    for n in (2, 3, 5, 9):
        profile = sample_profile(n, DEFAULT_DISORDER, seed=n)
        op = build_lowering_block(n, 1, profile)
        assert numeric_nullity(op) == n - 1


def test_above_half_filling_is_bright():
    profile = sample_profile(4, DEFAULT_DISORDER, seed=0)
    assert numeric_nullity(build_lowering_block(4, 3, profile)) == 0


def test_four_qubit_half_filled():
    profile = sample_profile(4, DEFAULT_DISORDER, seed=1)
    op = build_lowering_block(4, 2, profile)
    assert numeric_nullity(op) == 2
    assert numeric_nullity(op) == brute_force_nullity(op)


@pytest.mark.parametrize("n", range(1, 9))
def test_nullity_matches_scipy_null_space(n):
    for s in range(1, n + 1):
        profile = sample_profile(n, DEFAULT_DISORDER, seed=10 * n + s)
        op = build_lowering_block(n, s, profile)
        assert numeric_nullity(op) == brute_force_nullity(op)


@pytest.mark.parametrize("n", range(1, 11))
def test_disorder_invariance(n):
    """Core robustness claim: the count never moves under arbitrary disorder."""
    for s in range(n + 1):
        expected = ndark_formula(n, s)
        for seed in range(25):
            profile = sample_profile(n, DEFAULT_DISORDER, seed=seed)
            assert dark_subspace(n, s, profile).nullity == expected


def test_rank_nullity_sums_to_columns():
    for n in range(2, 9):
        for s in range(1, n + 1):
            profile = sample_profile(n, DEFAULT_DISORDER, seed=n + s)
            op = build_lowering_block(n, s, profile)
            assert rank_numeric(op) + ndark_formula(n, s) == comb(n, s)


def test_nullity_report_margins():
    op = build_lowering_block(4, 3, sample_profile(4, DEFAULT_DISORDER, seed=0))
    report = {}
    assert numeric_nullity(op, report=report) == 0
    assert report["gauge_residual"] <= 1e-15
    assert report["kept_margin"] > 1e10
    assert set(report) == {"gauge_residual", "kept_margin"}


def test_nullity_rejects_a_perturbed_entry():
    op = build_lowering_block(5, 2, sample_profile(5, DEFAULT_DISORDER, seed=3))
    matrix = op.matrix.copy()
    matrix.data[7] *= 1.0 + 1e-9
    bad = SectorOperator(source=op.source, target=op.target, matrix=matrix)
    with pytest.raises(ValueError, match="gauge form"):
        numeric_nullity(bad)


def test_nullity_rejects_a_missing_entry():
    op = build_lowering_block(5, 2, uniform_profile(5, 1.0))
    matrix = op.matrix.tolil()
    matrix[0, 1] = 0.0
    bad = SectorOperator(source=op.source, target=op.target, matrix=matrix.tocsc())
    with pytest.raises(ValueError, match="gauge form"):
        numeric_nullity(bad)


def _move_one_entry(op):
    # W's entry count, one entry moved to a row its column does not hold
    coo = op.matrix.tocoo()
    rows = coo.row.copy()
    rows[0] = np.setdiff1d(np.arange(op.shape[0]), rows[coo.col == coo.col[0]])[0]
    return op.source, op.target, sp.csc_matrix((coo.data, (rows, coo.col)), shape=op.shape)


def _another_target(op):
    # (4, 3) holds as many states as (4, 1), the true target of a (4, 2) block
    return op.source, enumerate_sector(4, 3), op.matrix


@pytest.mark.parametrize("mutate", [_move_one_entry, _another_target])
@pytest.mark.parametrize("route", [rank_numeric, null_basis])
def test_a_block_off_w_is_not_in_gauge_form(mutate, route):
    op = build_lowering_block(4, 2, sample_profile(4, DEFAULT_DISORDER, seed=5))
    bad = SectorOperator(*mutate(op))
    assert bad.shape == op.shape and bad.matrix.nnz == op.matrix.nnz
    with pytest.raises(ValueError, match="gauge form"):
        route(bad)


def _split_coo(op):
    coo = op.matrix.tocoo()
    half = coo.data[:1] / 2  # exact: both halves sum back to the entry
    return sp.coo_matrix((np.concatenate([half, half, coo.data[1:]]),
                          (np.concatenate([coo.row[:1], coo.row]),
                           np.concatenate([coo.col[:1], coo.col]))), shape=op.shape)


def _split_csc(op):
    m = op.matrix
    data = np.concatenate([m.data[:1] / 2, m.data[:1] / 2, m.data[1:]])
    indptr = m.indptr + (np.arange(m.indptr.size) > 0)
    return sp.csc_matrix((data, np.concatenate([m.indices[:1], m.indices]), indptr),
                         shape=op.shape)


@pytest.mark.parametrize("split", [_split_coo, _split_csc])
def test_a_block_with_an_entry_split_in_halves_reads_as_its_sum(split):
    op = build_lowering_block(6, 3, sample_profile(6, DEFAULT_DISORDER, seed=1))
    matrix = split(op)
    assert not matrix.has_canonical_format  # the read must sum the halves on a copy
    before = [a.copy() for a in (matrix.data, *matrix.nonzero())]
    expected, report = {}, {}
    assert rank_numeric(SectorOperator(op.source, op.target, matrix), report=report) == \
        rank_numeric(op, report=expected)
    assert report == expected
    after = (matrix.data, *matrix.nonzero())
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_the_gauge_read_holds_under_twice_the_block():
    op = build_lowering_block(16, 8, sample_profile(16, DEFAULT_DISORDER, seed=0))
    m = op.matrix
    block_bytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    tracemalloc.start()
    try:
        darkspace._read_couplings(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * block_bytes, peak / block_bytes


def test_nullity_raises_when_gauge_products_underflow():
    # prod g over a pair of 1e-200 couplings is 1e-400, below the float range
    profile = CouplingProfile((1.0, 1e-200, 1e-200, 1.0))
    with pytest.raises(ValueError, match="residual"):
        numeric_nullity(build_lowering_block(4, 2, profile))
    with pytest.raises(ValueError, match="lost rank"):
        dark_subspace(4, 2, profile)


def test_nullity_raises_on_subnormal_gauge_products():
    # a real block: 1e-162 * 5e-162 rounds to the least subnormal, so every entry divides
    # back to 1 while the one it stands for is 1.2 % off; no relative rounding bound holds
    op = build_lowering_block(2, 2, CouplingProfile((1e-162, 5e-162)))
    real = SectorOperator(source=op.source, target=op.target, matrix=sp.csc_matrix(op.matrix.real))
    with pytest.raises(ValueError, match="residual inf"):
        numeric_nullity(real)


def _equilibrated(op, couplings):
    """Oracle: dense D_{s-1} L_g D_s^{-1}, the gauge products taken from the couplings."""
    def gauge(sector):
        return np.array([np.prod([g for k, g in enumerate(couplings) if x >> k & 1])
                         for x in sector.states])

    return (op.matrix.toarray() * gauge(op.target)[:, None] / gauge(op.source)[None, :]).real


def _equilibrated_svdvals(op, couplings):
    return scipy.linalg.svdvals(_equilibrated(op, couplings))


def _4g(x):
    return float(f"{x:.4g}")


def test_rank_numeric_matches_svd_oracle():
    for n in range(1, 12):
        for s in range(1, n + 1):
            profile = sample_profile(n, DEFAULT_DISORDER, seed=n + s)
            op = build_lowering_block(n, s, profile)
            sv = _equilibrated_svdvals(op, profile.values)
            cutoff = DEFAULT_TOLERANCE.cutoff(sv[0], op.shape)
            rank = int(np.count_nonzero(sv > cutoff))
            assert rank == min(op.shape), (n, s)
            report = {}
            assert rank_numeric(op, DEFAULT_TOLERANCE, report) == rank, (n, s)
            assert _4g(report["kept_margin"]) == _4g(sv[rank - 1] / cutoff), (n, s)


def test_margin_takes_no_solve(monkeypatch):
    calls = []
    cho_solve = scipy.linalg.cho_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return cho_solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve", counted)
    for n, s in ((12, 6), (9, 6)):  # the (s-1)-subset side, then the s-subset side
        report = {}
        rank_numeric(build_lowering_block(n, s, sample_profile(n, DEFAULT_DISORDER, seed=0)),
                     report=report)
        assert report["kept_margin"] > 1.0
        assert calls == [], (n, s, len(calls))


def test_kept_margin_matches_inverse_iteration_from_e0():
    def from_e0(factor):
        """lambda_min of R^T R by inverse iteration from e_0 on its upper Cholesky factor R."""
        x, mu = np.zeros(factor.shape[0]), 0.0
        x[0] = 1.0
        for _ in range(100):
            y = scipy.linalg.cho_solve((factor, False), x, check_finite=False)
            mu_prev, mu = mu, float(x @ y)
            x = y / np.linalg.norm(y)
            if abs(mu - mu_prev) <= 1e-12 * mu:
                break
        return 1.0 / mu

    for n, s in ((9, 4), (8, 6), (10, 5), (11, 7)):
        for seed in (0, 1):
            profile = sample_profile(n, DEFAULT_DISORDER, seed=seed)
            op = build_lowering_block(n, s, profile)
            report = {}
            rank_numeric(op, report=report)
            b = _equilibrated(op, profile.values)  # the reference Gram matrix is built here
            gram = b @ b.T if b.shape[0] <= b.shape[1] else b.T @ b
            norm1 = float(np.abs(gram).sum(axis=0).max())
            cutoff = DEFAULT_TOLERANCE.cutoff(np.sqrt(norm1), op.shape)
            tau = max(cutoff**2, DEFAULT_TOLERANCE.relative(gram.shape) * norm1)
            factor = scipy.linalg.cholesky(gram - tau * np.eye(gram.shape[0]))
            reference = np.sqrt(from_e0(factor) + tau) / cutoff
            assert _4g(report["kept_margin"]) == _4g(reference), (n, s, seed)


def _inclusion(n, s):
    """Dense 0/1 W of the (n, s) block, on the pattern the package fills with couplings."""
    _, target, indptr, rows, _ = inclusion_pattern(n, s)
    return sp.csc_matrix((np.ones(rows.size), rows, indptr),
                         shape=(target.size, indptr.size - 1)).toarray()


def test_wilson_extremes_of_the_smaller_side_gram():
    # the two eigenvalues the kept margin rests on: |N - 2m| at the bottom, s(N-s+1) on top
    for n in range(1, 10):
        for s in range(1, n + 1):
            w = _inclusion(n, s)
            gram, m = (w @ w.T, s - 1) if w.shape[0] <= w.shape[1] else (w.T @ w, s)
            eigvals = np.linalg.eigvalsh(gram)
            assert eigvals[0] == pytest.approx(abs(n - 2 * m), abs=1e-9), (n, s)
            assert eigvals[-1] == pytest.approx(s * (n - s + 1), abs=1e-9), (n, s)


@pytest.mark.parametrize("r", [1e-3, 1e-6])
def test_weyl_bound_holds_on_the_pattern(r):
    rng = np.random.default_rng(0)
    for n in range(1, 9):
        for s in range(1, n + 1):
            w = _inclusion(n, s)
            m = s - 1 if w.shape[0] <= w.shape[1] else s
            spread = r * np.sqrt(s * (n - s + 1))  # the bound on ||E||_2
            phase = np.exp(2j * np.pi * rng.uniform(size=w.shape))
            for e in (r * rng.uniform(size=w.shape) * phase * w, r * w, -r * w):
                sv = scipy.linalg.svdvals(w + e)
                assert sv[-1] >= np.sqrt(abs(n - 2 * m)) - spread - 1e-12, (n, s)
                assert sv[0] <= np.sqrt(s * (n - s + 1)) + spread + 1e-12, (n, s)


def test_rank_numeric_forms_no_dense_array():
    op = build_lowering_block(14, 7, sample_profile(14, DEFAULT_DISORDER, seed=0))
    tracemalloc.start()
    try:
        rank_numeric(op, report={})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak  # the 3003 x 3003 Gram matrix alone would take 72 MB


# -- null basis & projector ---------------------------------------------------


def test_null_basis_uniform_two_qubits_is_singlet():
    sub = null_basis(build_lowering_block(2, 1, uniform_profile(2, 1.0)))
    assert sub.nullity == 1
    singlet = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    dark = PureState(sub.sector, sub.basis[0])
    assert abs(np.vdot(singlet, dark.amplitudes)) == pytest.approx(1.0)


def test_null_basis_lopsided_two_qubits():
    sub = null_basis(build_lowering_block(2, 1, CouplingProfile((1 + 0j, 2 + 0j))))
    expected = np.array([-2.0, 1.0]) / np.sqrt(5.0)
    dark = PureState(sub.sector, sub.basis[0])
    assert abs(np.vdot(expected, dark.amplitudes)) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_null_basis_orthonormal_and_annihilated(seed):
    profile = sample_profile(4, DEFAULT_DISORDER, seed=seed)
    op = build_lowering_block(4, 2, profile)
    sub = null_basis(op)
    assert sub.nullity == 2
    vecs = np.array([PureState(sub.sector, v).amplitudes for v in sub.basis])
    gram = vecs @ vecs.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    scale = np.linalg.svd(op.matrix.toarray(), compute_uv=False)[0]
    for state in (PureState(sub.sector, v) for v in sub.basis):
        assert np.linalg.norm(op.apply(state.amplitudes)) <= (
            DEFAULT_TOLERANCE.relative(op.shape) * scale
        )


def test_null_basis_spans_analytic_states():
    profile = sample_profile(5, DEFAULT_DISORDER, seed=8)
    sub = null_basis(build_lowering_block(5, 1, profile))
    vecs = np.array([PureState(sub.sector, v).amplitudes for v in sub.basis])
    proj = vecs.T @ vecs.conj()
    for d in single_excitation_dark_states(profile):
        assert np.linalg.norm(proj @ d.amplitudes - d.amplitudes) < 1e-10


def test_projector_bright_sector_is_zero():
    profile = sample_profile(4, DEFAULT_DISORDER, seed=3)
    sub = dark_subspace(4, 3, profile)
    assert sub.nullity == 0
    assert np.allclose(projector(sub), 0.0)
    assert np.trace(projector(sub)) == 0.0


def test_projector_uniform_singlet_diagonal():
    sub = dark_subspace(2, 1, uniform_profile(2, 1.0))
    assert sub.nullity == 1
    assert np.allclose(sub.diagonal(), [0.5, 0.5])


@pytest.mark.parametrize("n,s,seed", [(4, 2, 0), (5, 2, 1), (6, 3, 2), (7, 3, 3)])
def test_projector_algebra(n, s, seed):
    profile = sample_profile(n, DEFAULT_DISORDER, seed=seed)
    sub = dark_subspace(n, s, profile)
    p = projector(sub)
    assert np.abs(p @ p - p).max() <= 1e-10
    assert np.abs(p - p.conj().T).max() <= 1e-12
    assert abs(np.trace(p).real - sub.nullity) <= 1e-9


def _outer_product_sum(sub):
    """Reference projector: the explicit sum of |d_j><d_j| over the dark basis."""
    p = np.zeros((sub.sector.size, sub.sector.size), dtype=np.complex128)
    for state in (PureState(sub.sector, v) for v in sub.basis):
        p += np.outer(state.amplitudes, state.amplitudes.conj())
    return p


@pytest.mark.parametrize("n,s", [(4, 2), (6, 3), (8, 3), (4, 3), (5, 0)])
def test_projector_matrix_matches_outer_product_sum(n, s):
    # (4, 3) is a bright sector (nullity 0); s = 0 is the all-ground convention
    sub = dark_subspace(n, s, sample_profile(n, DEFAULT_DISORDER, seed=n + s))
    p = projector(sub)
    assert p.shape == (sub.sector.size, sub.sector.size)
    assert np.abs(p - _outer_product_sum(sub)).max() <= 1e-13


@pytest.mark.parametrize("n,s", [(4, 2), (6, 3), (8, 3), (4, 3), (5, 0)])
def test_projector_diagonal_is_matrix_diagonal(n, s):
    sub = dark_subspace(n, s, sample_profile(n, DEFAULT_DISORDER, seed=n + s))
    diag = sub.diagonal()
    assert diag.dtype == np.float64
    assert np.abs(diag - np.real(np.diag(projector(sub)))).max(initial=0.0) <= 1e-14


def test_cli_paths_never_form_the_dense_projector(monkeypatch, capsys):
    import sys

    from darkcount.cli import main

    def dense(*args):
        pytest.fail("a dense dim x dim projector or 2^N x 2^N operator was formed")

    for name, module in list(sys.modules.items()):  # every binding, as a tracer would
        for attr in ("projector", "_collective_lowering_full"):
            if name.startswith("darkcount") and hasattr(module, attr):
                monkeypatch.setattr(module, attr, dense)
    for argv in (
        "count --n 6 --s 3", "rank --n 6 --s 3 --method both", "protocol --n 6 --s 3",
        "montecarlo --n 6 --s 3 --trials 100", "darkbasis --n 6 --s 3",
        "sweep --n-list 3,4", "trajectory --n 4 --s 2 --trajectories 50",
    ):
        assert main([*argv.split(), "--seed", "1"]) == 0, argv
        out = capsys.readouterr().out
    assert "projector_expectation" in out  # trajectory read the dark weight


def _mp_dark_diagonal(op):
    """Independent oracle: diag P = 1 - diag(L^H (L L^H)^{-1} L) at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        lower = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in op.matrix.toarray()])
        solved = mpmath.inverse(lower * lower.H) * lower
        return np.array([
            float(1 - mpmath.re(sum(mpmath.conj(lower[t, x]) * solved[t, x]
                                    for t in range(lower.rows))))
            for x in range(lower.cols)
        ])


@pytest.mark.parametrize("n,s", [(6, 3), (8, 4)])
def test_projector_diagonal_matches_mpmath_oracle(n, s):
    # six decades of disorder with random phases: D_s spans 1e-6^s
    profile = sample_profile(n, DisorderSpec(1e-6, 1.0, True, "log-uniform"), seed=0)
    sub = dark_subspace(n, s, profile)
    assert sub.nullity == ndark_formula(n, s)
    want = _mp_dark_diagonal(build_lowering_block(n, s, profile))
    assert np.abs(sub.diagonal() - want).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_rumer_kernel_is_a_basis_of_ker_w(n):
    for s in range(1, n + 1):
        sector = enumerate_sector(n, s)
        cols, signs = _rumer_kernel(sector, np.arange(n))
        assert cols.shape == (ndark_formula(n, s), 2**s)
        k = np.zeros((cols.shape[0], sector.size), dtype=np.int64)
        np.add.at(k, (np.arange(cols.shape[0])[:, None], cols), signs.astype(np.int64))
        assert set(np.unique(np.abs(k))) <= {0, 1}  # 2^s distinct patterns per vector
        w = build_lowering_block(n, s, uniform_profile(n, 1.0)).matrix.toarray().real
        assert not np.any(w.astype(np.int64) @ k.T)  # exactly, in integers
        assert np.linalg.matrix_rank(k) == cols.shape[0]


def _qr_oracle(sub, op):
    """The former route: a Householder QR of the same scaled Rumer basis K^T."""
    q, r = scipy.linalg.qr(sub.rumer.T.toarray(), mode="economic")
    return np.einsum("ij,ij->i", q, q), np.abs(np.diag(r)).min() / DEFAULT_TOLERANCE.cutoff(
        1.0, op.shape)


@pytest.mark.parametrize("g_min", [1e-3, 1e-6])
@pytest.mark.parametrize("n,s", [(10, 5), (12, 6)])
def test_gram_route_matches_the_qr_oracle(n, s, g_min):
    for seed in range(5):
        profile = sample_profile(n, DisorderSpec(g_min, 1.0, True, "log-uniform"), seed)
        op = build_lowering_block(n, s, profile)
        sub = null_basis(op)
        diagonal, margin = _qr_oracle(sub, op)
        assert np.abs(sub.diagonal() - diagonal).max() <= 1e-12, (seed, g_min)
        assert _4g(sub.qr_margin) == _4g(margin), (seed, g_min)
        q = sub.real_basis
        assert np.abs(q @ q.T - np.eye(sub.nullity)).max() <= 1e-12, (seed, g_min)


def test_dark_rows_are_positive_at_their_own_ballot_pattern():
    # Gram-Schmidt of the Rumer vectors: vector j peaks where every earlier one vanishes
    sub = dark_subspace(10, 5, sample_profile(10, DEFAULT_DISORDER, seed=3))
    own = sub.rumer.toarray().argmax(axis=1)
    assert np.all(sub.real_basis[np.arange(sub.nullity), own] > 0)


def _shift_one_w_row(n, s):
    # a 0/1 pattern still: entry 5 moves to a row its column lacks, and the column stays sorted
    source, target, indptr, rows, qubit = inclusion_pattern(n, s)
    rows, qubit = rows.copy(), qubit.copy()
    col = slice(5 // s * s, 5 // s * s + s)  # every column of W holds s entries
    rows[5] = np.setdiff1d(np.arange(target.size), rows[col])[0]
    order = col.start + np.argsort(rows[col], kind="stable")
    rows[col], qubit[col] = rows[order], qubit[order]
    return source, target, indptr, rows, qubit


def _flip_one_rumer_sign(sector, path):
    cols, signs = _rumer_kernel(sector, path)
    signs[1] *= -1
    return cols, signs


@pytest.mark.parametrize("name,mutant", [("inclusion_pattern", _shift_one_w_row),
                                         ("_rumer_kernel", _flip_one_rumer_sign)])
def test_integer_witness_catches_a_mutated_w_or_rumer_sign(monkeypatch, name, mutant):
    monkeypatch.setattr(darkspace, name, mutant)
    if name == "inclusion_pattern":  # the block holds the same wrong W, so the read passes it
        monkeypatch.setattr(operators, name, mutant)
    op = build_lowering_block(8, 4, sample_profile(8, DEFAULT_DISORDER, seed=0))
    with pytest.raises(ValueError, match=r"\(8, 4\) Rumer vectors fail the integer witness"):
        null_basis(op)


def test_null_basis_builds_w_once():
    # the read, the integer witness and the rank certificate reuse the block's inclusion matrix
    op = build_lowering_block(8, 4, sample_profile(8, DEFAULT_DISORDER, seed=0))
    built = inclusion_pattern.cache_info().misses
    assert null_basis(op).nullity == 14
    assert inclusion_pattern.cache_info().misses == built


def test_dark_subspace_builds_w_once():
    inclusion_pattern.cache_clear()
    assert dark_subspace(8, 4, sample_profile(8, DEFAULT_DISORDER, seed=0)).nullity == 14
    assert inclusion_pattern.cache_info().misses == 1


def test_gram_breakdown_names_the_sector_and_the_pivot(monkeypatch):
    def dpotrf(a, **kwargs):
        return a, 3  # LAPACK's report of a non-positive leading minor of order 3

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", dpotrf)
    op = build_lowering_block(8, 4, sample_profile(8, DEFAULT_DISORDER, seed=0))
    with pytest.raises(ValueError, match=r"\(8, 4\) basis lost rank: .* pivot 3 of 14"):
        null_basis(op)


def test_null_basis_refuses_an_oversized_factor_before_any_work(monkeypatch):
    def reached(n, s):
        pytest.fail(f"null_basis built the ({n}, {s}) Rumer kernel of a sector over the cap")

    monkeypatch.setattr(darkspace, "_rumer_kernel", reached)
    op = build_lowering_block(20, 10, uniform_profile(20, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the protocol cap"):
            null_basis(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # the 16796^2 Gram matrix alone would take 2.3 GB


def test_null_basis_reports_how_it_was_obtained():
    sub = dark_subspace(10, 5, sample_profile(10, DisorderSpec(1e-8, 1.0, True, "log-uniform"), 1))
    assert sub.nullity == 42
    assert sub.nullity_route == "gram-certificate"
    assert sub.qr_margin > 1e6  # the gauge-ordered Rumer basis stays well conditioned
    zero = dark_subspace(5, 0, sample_profile(5, DEFAULT_DISORDER, seed=4))
    assert (zero.nullity_route, zero.qr_margin) == ("convention", None)


def test_null_basis_rejects_a_perturbed_entry():
    op = build_lowering_block(5, 2, sample_profile(5, DEFAULT_DISORDER, seed=3))
    matrix = op.matrix.copy()
    matrix.data[7] *= 1.0 + 1e-9
    bad = SectorOperator(source=op.source, target=op.target, matrix=matrix)
    with pytest.raises(ValueError, match="gauge form"):
        null_basis(bad)


def test_null_basis_raises_when_a_vector_is_not_dark(monkeypatch):
    # a zero tolerance leaves no room for the rounding of the batched residual
    monkeypatch.setattr(darkspace, "_dark_tolerance", lambda op, tol_policy: 0.0)
    op = build_lowering_block(6, 3, sample_profile(6, DEFAULT_DISORDER, seed=2))
    with pytest.raises(ValueError, match="dark vector"):
        null_basis(op)


def test_dark_subspace_zero_excitation_convention():
    profile = sample_profile(5, DEFAULT_DISORDER, seed=4)
    sub = dark_subspace(5, 0, profile)
    assert sub.nullity == 1
    assert PureState(sub.sector, sub.basis[0]).amplitudes[0] == 1.0


# -- verify_dark --------------------------------------------------------------


def test_verify_dark_accepts_singlet():
    profile = uniform_profile(2, 1.0)
    op = build_lowering_block(2, 1, profile)
    singlet = single_excitation_dark_states(profile)[0]
    report = verify_dark(singlet, op)
    assert report.passed
    assert report.residual_norm <= report.residual_tolerance


def test_verify_dark_rejects_bright_state():
    from darkcount.operators import PureState
    from darkcount.sector import enumerate_sector

    profile = uniform_profile(2, 1.0)
    op = build_lowering_block(2, 1, profile)
    e1 = PureState(enumerate_sector(2, 1), np.array([1.0, 0.0]))
    report = verify_dark(e1, op)
    assert not report.passed
    assert report.residual_norm > report.residual_tolerance


def test_verify_dark_analytic_states_random_profile():
    profile = sample_profile(6, DEFAULT_DISORDER, seed=12)
    op = build_lowering_block(6, 1, profile)
    for d in single_excitation_dark_states(profile):
        assert verify_dark(d, op).passed


def test_verify_dark_sector_mismatch():
    profile = uniform_profile(3, 1.0)
    op = build_lowering_block(3, 2, profile)
    d = single_excitation_dark_states(profile)[0]
    with pytest.raises(ValueError, match="sector"):
        verify_dark(d, op)


# -- exact rank over F_p -------------------------------------------------------


def test_rank_examples():
    assert rank_exact_modp(4, 2) == 4
    assert rank_exact_modp(4, 3) == 4


@pytest.mark.parametrize("n", range(1, 13))
def test_rank_law_all_small_sectors(n):
    for s in range(1, n + 1):
        expected = comb(n, s - 1) if 2 * s <= n else comb(n, s)
        assert rank_exact_modp(n, s) == expected


@pytest.mark.parametrize("n,s", [(5, 2), (6, 3), (8, 4), (10, 5)])
def test_exact_agrees_with_numeric(n, s):
    profile = sample_profile(n, DEFAULT_DISORDER, seed=7)
    numeric = rank_numeric(build_lowering_block(n, s, profile))
    assert rank_exact_modp(n, s) == numeric


@pytest.mark.parametrize("n,s", [(6, 3), (4, 2)])
def test_certificate_that_defers_is_inconclusive(n, s):
    # mod 3 the Gram matrix of W is singular at both: W drops to rank 14 of
    # 15 at (6, 3) but keeps full rank 4 at (4, 2), and neither is guessed
    with pytest.raises(ValueError, match="inconclusive mod 3"):
        rank_exact_modp(n, s, prime=3)


def test_rank_reports_its_route():
    report = {}
    assert rank_exact_modp(6, 3, report=report) == 15
    assert report == {"route": "gram-certificate", "degree": 3}


def test_certificate_checks_the_witness_on_the_shared_w(monkeypatch):
    import darkcount.darkspace as darkspace
    from darkcount.operators import inclusion_pattern

    def drop_one_entry(n, s):
        source, target, indptr, rows, qubit = inclusion_pattern(n, s)
        return source, target, indptr - (indptr > 7), np.delete(rows, 7), np.delete(qubit, 7)

    monkeypatch.setattr(darkspace, "inclusion_pattern", drop_one_entry)
    with pytest.raises(ValueError, match="inconclusive"):
        rank_exact_modp(6, 3)


def _inclusion_rank_modp(n, s, prime):
    """Independent oracle: dense Gauss elimination on W over F_prime."""
    rows = list(itertools.combinations(range(n), s - 1))
    cols = list(itertools.combinations(range(n), s))
    m = [[int(set(r) <= set(c)) for c in cols] for r in rows]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(m)) if m[i][j] % prime), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][j], -1, prime)
        for i in range(len(m)):
            if i != rank and m[i][j] % prime:
                f = m[i][j] * inv
                m[i] = [(a - f * b) % prime for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_gram_certificate_never_overstates_rank(prime):
    deferred = 0
    for n in range(1, 8):
        for s in range(1, n + 1):
            truth = _inclusion_rank_modp(n, s, prime)
            try:
                rank = rank_exact_modp(n, s, prime=prime)
            except ValueError as exc:
                assert "inconclusive" in str(exc), (n, s)
                deferred += 1
            else:
                assert rank == truth, (n, s)
    assert deferred  # small primes divide some Gram eigenvalue, so some sectors defer


def test_rank_argument_validation():
    with pytest.raises(ValueError):
        rank_exact_modp(4, 0)
    assert rank_exact_modp(40, 3) == comb(40, 2)
    assert rank_exact_modp(64, 2) == 64


def test_m31_is_the_documented_prime():
    assert MERSENNE_31 == 2**31 - 1
