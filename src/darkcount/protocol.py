"""Zero-photon heralding protocol: null-emission probabilities and their sum.

For an initial product arrangement the probability of never seeing a click
is the diagonal entry of the dark projector at that arrangement, the squared
norm of that coordinate over the orthonormal dark basis.  Summing over all
arrangements of s excitations traces the projector, so the total is the
dark-state count itself, whatever the couplings.  The probabilities are
read through :class:`~darkcount.darkspace.DarkSubspace`, which owns the
dark space's layout and memory budget: ``diagonal()`` for every
arrangement, ``weight(psi)`` for one state.  No CLI path forms the
dim x dim projector, and the protocol holds no dim x nullity array.
A Bernoulli sampler emulates finite statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import ndark_formula
from .couplings import CouplingProfile
from .darkspace import DarkSubspace, dark_subspace
from .operators import PureState
from .sector import state_index


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Per-arrangement null-emission probabilities and their sum D(s)."""

    n_qubits: int
    n_excited: int
    per_arrangement: list[tuple[int, float]]
    d_of_s: float
    n_dark_expected: int
    nullity_route: str  # how the dark count behind the basis was obtained
    qr_margin: float | None  # smallest |L_jj| of the basis Gram factor over its cutoff


@dataclass(frozen=True)
class MonteCarloResult:
    """Finite-trials estimate of D(s) from simulated detector runs."""

    n_qubits: int
    n_excited: int
    trials_per_arrangement: int
    estimated_d: float
    standard_error: float
    exact_d: float  # D(s) of the ideal protocol that the trials sample


def null_emission_probability(init: int | PureState, sub: DarkSubspace) -> float:
    """Probability that the detector never clicks for a given initial state.

    A normalized state psi gives <psi|P|psi> = sum_j |<d_j|psi>|^2 =
    ||L^{-1} K (phases^* psi)||^2; a basis arrangement (occupation pattern)
    k is psi = e_k, whose value is the k-th diagonal entry of the dark
    projector.  Either way :meth:`DarkSubspace.weight` reads it with one
    sparse product and one triangular solve.
    """
    if isinstance(init, PureState):
        if init.basis != sub.sector:
            raise ValueError("state and dark subspace belong to different sectors")
        psi = init.normalized().amplitudes
    else:
        psi = np.zeros(sub.sector.size, dtype=np.complex128)
        psi[state_index(sub.sector, init)] = 1.0  # validates popcount and bit range
    return sub.weight(psi)


def measure_d(n_qubits: int, n_excited: int, profile: CouplingProfile) -> ProtocolResult:
    """Run the ideal protocol: sum null-emission probabilities over all arrangements.

    The sum equals the trace of the dark projector over the s-sector, i.e.
    the number of independent dark states there.
    """
    if profile.n_qubits != n_qubits:
        raise ValueError(f"profile has {profile.n_qubits} couplings for {n_qubits} qubits")
    sub = dark_subspace(n_qubits, n_excited, profile)
    diag = sub.diagonal()
    per = list(zip(sub.sector.states.tolist(), diag.tolist()))
    return ProtocolResult(
        n_qubits=n_qubits,
        n_excited=n_excited,
        per_arrangement=per,
        d_of_s=float(diag.sum()),
        n_dark_expected=ndark_formula(n_qubits, n_excited),
        nullity_route=sub.nullity_route,
        qr_margin=sub.qr_margin,
    )


def monte_carlo_protocol(
    n_qubits: int,
    n_excited: int,
    profile: CouplingProfile,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Emulate the repeated experiment with ``trials`` runs per arrangement.

    Each arrangement k yields a Bernoulli(p_k) sample count with p_k its
    null-emission probability; arrangements draw from independently derived
    Philox streams, so results do not depend on evaluation order.
    """
    if not 1 <= trials <= np.iinfo(np.int64).max:  # the sample count of rng.binomial
        raise ValueError(f"trials must be in [1, 2^63 - 1], got {trials}")
    exact = measure_d(n_qubits, n_excited, profile)
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(exact.per_arrangement))
    estimate = 0.0
    var_sum = 0.0
    for (pattern, p), child in zip(exact.per_arrangement, children):
        p = min(max(p, 0.0), 1.0)
        rng = np.random.Generator(np.random.Philox(child))
        hits = int(rng.binomial(trials, p))
        p_hat = hits / trials
        estimate += p_hat
        var_sum += p_hat * (1.0 - p_hat) / trials
    return MonteCarloResult(
        n_qubits=n_qubits,
        n_excited=n_excited,
        trials_per_arrangement=trials,
        estimated_d=estimate,
        standard_error=float(np.sqrt(var_sum)),
        exact_d=exact.d_of_s,
    )
