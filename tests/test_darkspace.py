import itertools
from math import comb

import numpy as np
import pytest
import scipy.linalg

from darkcount.couplings import (
    DEFAULT_DISORDER,
    CouplingProfile,
    DisorderSpec,
    sample_profile,
    uniform_profile,
)
from darkcount import darkspace
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


def test_nullity_raises_when_gauge_products_underflow():
    # prod g over a pair of 1e-200 couplings is 1e-400, below the float range
    profile = CouplingProfile((1.0, 1e-200, 1e-200, 1.0))
    with pytest.raises(ValueError, match="residual"):
        numeric_nullity(build_lowering_block(4, 2, profile))
    with pytest.raises(ValueError, match="lost rank"):
        dark_subspace(4, 2, profile)


def _equilibrated_svdvals(op, couplings):
    """Oracle: svdvals of D_{s-1} L_g D_s^{-1}, the gauge products taken from the couplings."""
    def gauge(sector):
        return np.array([np.prod([g for k, g in enumerate(couplings) if x >> k & 1])
                         for x in sector.states])

    dense = op.matrix.toarray() * gauge(op.target)[:, None] / gauge(op.source)[None, :]
    return scipy.linalg.svdvals(dense.real)


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


def test_cholesky_breakdown_raises(monkeypatch):
    def dpotrf(a, **kwargs):
        return a, 1  # LAPACK's report of a non-positive leading minor of order 1

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", dpotrf)
    op = build_lowering_block(8, 4, sample_profile(8, DEFAULT_DISORDER, seed=0))
    with pytest.raises(ValueError, match=r"\(8, 4\) rank certificate.*tau = .*pivot 1 of 56"):
        rank_numeric(op)


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


def test_protocol_paths_never_form_the_dense_projector(monkeypatch, capsys):
    import sys

    from darkcount.cli import main
    from darkcount.protocol import measure_d, monte_carlo_protocol

    def dense(sub):
        pytest.fail("the dense dim x dim projector was formed")

    for name, module in list(sys.modules.items()):  # every binding, as a tracer would
        if name.startswith("darkcount") and hasattr(module, "projector"):
            monkeypatch.setattr(module, "projector", dense)
    profile = sample_profile(6, DEFAULT_DISORDER, seed=1)
    assert measure_d(6, 3, profile).d_of_s == pytest.approx(5.0, abs=1e-9)
    monte_carlo_protocol(6, 3, profile, trials=100, seed=0)
    assert main(["trajectory", "--n", "4", "--s", "2", "--trajectories", "50"]) == 0
    assert "projector_expectation" in capsys.readouterr().out


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
        patterns, signs = _rumer_kernel(n, s)
        assert patterns.shape == (ndark_formula(n, s), 2**s)
        states = np.array(enumerate_sector(n, s).states, dtype=np.uint64)
        k = np.zeros((patterns.shape[0], states.size), dtype=np.int64)
        np.add.at(k, (np.arange(patterns.shape[0])[:, None], np.searchsorted(states, patterns)),
                  signs.astype(np.int64))
        assert set(np.unique(np.abs(k))) <= {0, 1}  # 2^s distinct patterns per vector
        w = build_lowering_block(n, s, uniform_profile(n, 1.0)).matrix.toarray().real
        assert not np.any(w.astype(np.int64) @ k.T)  # exactly, in integers
        assert np.linalg.matrix_rank(k) == patterns.shape[0]


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
