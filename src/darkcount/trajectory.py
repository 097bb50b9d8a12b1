"""Quantum-jump trajectories of the driven-free qubits-cavity system with decay.

Between clicks the state evolves under the non-Hermitian effective
Hamiltonian H - (i/2) kappa a^dag a; a click is a detected photon and, for
this protocol, terminates the trajectory.  Jumps are sampled by the
norm-threshold rule: trajectory i clicks when the squared norm of the
no-jump state first drops below its uniform variate u_i.

The no-jump generator conserves excitation number, so the whole run lives
on the block of states |q, k> with popcount(q) + k = s: 163 states at
(N, s) = (8, 4) against 1280 for the full truncated space.  The coupling
phases and the i of the Schroedinger equation are a diagonal unitary gauge
there, which keeps every norm, so the generator is a real dense matrix
written from the inclusion patterns W and the magnitudes |g| alone.  The
propagator over one grid step is taken exactly with a real ``expm``, and
its powers walk the gauged state, one real column for an arrangement and
two for a superposition, through the grid in 64 blocks of 64 states, one
dense product per block; omega only adds a phase.  The squared norm decays
monotonically to the dark-projector expectation of the initial state, as
fast as the slowest bright mode, at 4 sigma_min^2 / kappa once kappa
dominates the couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .operators import HamiltonianModel, PureState, gauge_products, inclusion_pattern
from .sector import enumerate_sector, state_index

NORM_GRID_POINTS = 4096  # the square of a power of two, as the blocked walk needs
STRIDE = math.isqrt(NORM_GRID_POINTS)  # grid states per block, and blocks per grid


@dataclass(frozen=True, eq=False)
class TrajectoryConfig:
    """One heralding run: model, decay, horizon, statistics, seed.

    ``initial`` is an occupation pattern with the cavity empty, or a
    zero-photon sector PureState for superposition inputs.  Any positive
    horizon runs (:func:`standard_config` holds the default policy); the
    bright weight it leaves is the norm curve's last point less the dark one.
    """

    model: HamiltonianModel
    kappa: float
    t_max: float
    n_trajectories: int
    seed: int
    initial: int | PureState

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:  # written so that NaN fails it too
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")

    @property
    def dt(self) -> float:
        """Spacing of the norm grid: t_max split into NORM_GRID_POINTS exact steps."""
        return self.t_max / NORM_GRID_POINTS


def standard_config(
    model: HamiltonianModel,
    kappa_ratio: float,
    initial: int | PureState,
    n_trajectories: int = 10_000,
    seed: int = 0,
    waiting_factor: float = 50.0,
) -> TrajectoryConfig:
    """Config with the default policies: kappa = ratio * max|g|, t_max = factor / min|g|."""
    return TrajectoryConfig(
        model=model,
        kappa=kappa_ratio * model.profile.max_magnitude,
        t_max=waiting_factor / model.profile.min_magnitude,
        n_trajectories=n_trajectories,
        seed=seed,
        initial=initial,
    )


@dataclass(frozen=True)
class FirstClickSummary:
    """First-click-time statistics over the clicked trajectories; None where none clicked."""

    count: int
    mean: float | None
    std: float | None
    min: float | None
    max: float | None


@dataclass(frozen=True, eq=False)
class ClickStatistics:
    """Counts of click / no-click outcomes with the derived probability."""

    n_trajectories: int
    n_no_click: int
    n_click: int
    p_no_click: float
    standard_error: float
    first_click_times: FirstClickSummary
    norm_grid_times: np.ndarray
    norm_grid: np.ndarray

    def __post_init__(self):
        if self.n_no_click + self.n_click != self.n_trajectories:
            raise ValueError("click counts do not add up to the trajectory count")


@np.errstate(over="ignore", invalid="ignore")  # run_trajectories refuses a curve that overflows
def _no_jump_norm_curve(config: TrajectoryConfig) -> tuple[np.ndarray, np.ndarray]:
    """Squared norm of the no-jump state at the grid times k * dt, k = 0..NORM_GRID_POINTS.

    Works on the initial state's excitation block: sub-block k holds k
    photons and the (s-k)-sector in canonical order, coupled to k+1 photons
    by sqrt(k+1) L_{s-k}; omega adds a constant there and is dropped.
    Entry (t, x) of L_{s-k} is g_{x \\ t} = |g_{x \\ t}| u(x) / u(t), with
    u(x) = prod_{j in x} g_j / |g_j|, so the diagonal unitary u(x) (-i)^k
    on pattern x with k photons turns -i (H - (i kappa / 2) a^dag a) into the
    real generator M, written from W_{s-k} and |g| alone: -sqrt(k+1) |g_{x \\ t}|
    at W's entry (t, x) from k to k+1 photons, its negated transpose back,
    and -kappa k / 2 on sub-block k.  A unitary keeps every norm, so the
    curve is that of exp(t M) psi_0' with psi_0' = u psi_0 on the photon-0
    sub-block.  dt M is one dense array and exp(dt M) is exact in real
    arithmetic.  A global phase makes psi_0' real at its largest amplitude;
    its nonzero real and imaginary parts, ``width`` columns a state, walk in
    STRIDE-state blocks: doubling builds psi_0 .. psi_{STRIDE-1} and
    step^STRIDE, then each block is one dense product.
    """
    n, initial = config.model.n_qubits, config.initial
    state = isinstance(initial, PureState)
    if state and initial.basis.n_qubits != n:
        raise ValueError("initial state register size differs from the model")
    s = initial.basis.n_excited if state else int(initial).bit_count()
    patterns = [inclusion_pattern(n, s - k) for k in range(s)]
    sector = patterns[0][0] if patterns else enumerate_sector(n, 0)
    edges = np.cumsum([0] + [source.size for source, *_ in patterns] + [1])  # s photons: ground
    g = config.model.profile.as_array()
    magnitude = np.abs(g)
    phases = gauge_products(sector, g / magnitude)
    psi = np.zeros(edges[-1], dtype=np.complex128)
    rows = slice(sector.size) if state else state_index(sector, initial)  # checks the pattern
    psi[rows] = (initial.normalized().amplitudes if state else 1.0) * phases[rows]
    top = np.argmax(np.abs(psi))
    psi *= psi[top].conjugate() / abs(psi[top])  # a global phase keeps every norm
    psi.imag[top] = 0.0  # real at its largest amplitude, where a fused multiply-add leaves eps
    cols = psi[:, None].view(np.float64)[:, [True, psi.imag.any()]]  # Re, and Im unless zero
    width = cols.shape[1]
    gen = np.zeros((edges[-1], edges[-1]))
    np.fill_diagonal(gen, np.repeat(-0.5 * config.kappa * np.arange(s + 1), np.diff(edges)))
    for k, (source, _, _, targets, qubit) in enumerate(patterns):  # entry by entry into its slice
        at_k, at_k1 = edges[k] + np.repeat(np.arange(source.size), s - k), edges[k + 1] + targets
        gen[at_k1, at_k] = -np.sqrt(k + 1) * magnitude[qubit]
        gen[at_k, at_k1] = -gen[at_k1, at_k]
    gen *= config.dt  # in place: no second dim x dim array lives through expm
    power = scipy.linalg.expm(gen)  # one real step
    while cols.shape[1] < STRIDE * width:  # doubling: psi_0 .. psi_{2j-1}, then power = step^{2j}
        cols = np.hstack([cols, power @ cols])
        power = power @ power
    norms = np.empty(NORM_GRID_POINTS + 1)
    for start in range(0, NORM_GRID_POINTS + 1, STRIDE):
        if start:  # the last grid point needs only the first state of its block
            cols = power @ (cols if start < NORM_GRID_POINTS else cols[:, :width])
        squares = np.einsum("ij,ij->j", cols, cols).reshape(-1, width)
        norms[start:start + squares.shape[0]] = squares.sum(axis=1)
    return config.dt * np.arange(NORM_GRID_POINTS + 1), norms


def run_trajectories(config: TrajectoryConfig) -> ClickStatistics:
    """Simulate the heralding measurement over independent trajectories.

    All trajectories share the deterministic no-jump segment, so the curve is
    computed once; each trajectory compares its own uniform threshold
    against the monotone squared-norm decay to decide whether and when it
    clicks.  Results are deterministic per seed and independent of any
    parallel scheduling of the comparisons.  A curve that is not finite
    and non-increasing raises ValueError.
    """
    times, norms = _no_jump_norm_curve(config)
    if not np.all(np.diff(norms) <= 1e-10):  # written so that NaN fails it too
        raise ValueError(
            f"the no-jump norm at kappa = {config.kappa:.6g} up to t_max = {config.t_max:.6g} "
            f"is not finite and non-increasing: exp(dt M) fails at this kappa t_max")
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    u = rng.uniform(0.0, 1.0, config.n_trajectories)
    final = norms[-1]
    clicked = u > final
    n_click = int(np.count_nonzero(clicked))
    n_no = config.n_trajectories - n_click

    if n_click:
        # first grid time where norm^2 < u;  norms decreasing -> search reversed
        rev = norms[::-1]
        pos = np.searchsorted(rev, u[clicked], side="left")
        click_times = times[len(times) - pos]
        summary = FirstClickSummary(
            count=n_click,
            mean=float(click_times.mean()),
            std=float(click_times.std()),
            min=float(click_times.min()),
            max=float(click_times.max()),
        )
    else:
        summary = FirstClickSummary(count=0, mean=None, std=None, min=None, max=None)

    p_no = n_no / config.n_trajectories
    se = float(np.sqrt(p_no * (1.0 - p_no) / config.n_trajectories))
    return ClickStatistics(
        n_trajectories=config.n_trajectories,
        n_no_click=n_no,
        n_click=n_click,
        p_no_click=p_no,
        standard_error=se,
        first_click_times=summary,
        norm_grid_times=times,
        norm_grid=norms,
    )


def no_click_vs_kappa(
    base: TrajectoryConfig, kappa_list: list[float]
) -> list[tuple[float, ClickStatistics]]:
    """Convergence study toward the lossy-cavity limit.

    Reruns the base configuration at each decay rate with a shared seed
    (common random numbers) and horizon.  Overdamping slows the bright decay
    (rates scale as sigma^2 / kappa), so at a fixed horizon the no-click
    probability approaches the dark weight from above as kappa comes DOWN
    toward the coupling scale; pushing kappa up instead requires growing
    t_max proportionally.
    """
    return [(kappa, run_trajectories(replace(base, kappa=kappa))) for kappa in kappa_list]
