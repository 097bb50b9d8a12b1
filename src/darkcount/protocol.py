"""Zero-photon heralding protocol: null-emission probabilities and their sum.

For an initial product arrangement the probability of never seeing a click
is the diagonal entry of the dark projector at that arrangement, the squared
norm of that coordinate over the orthonormal dark basis.  Summing over all
arrangements of s excitations traces the projector, so the total is the
dark-state count itself, whatever the couplings.  The gauge
L_g = D_{s-1}^{-1} W D_s makes the dark space D_s^{-1} ker W, so the
probabilities are the squared row norms of one real QR of the scaled Rumer
basis of ker W; the coupling phases drop out.  No dim x dim projector is
formed: the largest dense object is that real dim x nullity Q.  A Bernoulli
sampler emulates the finite-statistics experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .counting import ndark_formula
from .couplings import CouplingProfile
from .darkspace import DarkSubspace, dark_subspace
from .operators import PureState
from .sector import state_index

BASIS_BYTES_CAP = 256 << 20  # the real dim x nullity Q in float64: 147 MB at (16, 8)


def dark_basis_bytes(n_qubits: int, n_excited: int) -> int:
    """Bytes of the real dim x nullity dark basis Q of the (N, s) sector in float64."""
    return 8 * comb(n_qubits, n_excited) * ndark_formula(n_qubits, n_excited)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Per-arrangement null-emission probabilities and their sum D(s)."""

    n_qubits: int
    n_excited: int
    per_arrangement: list[tuple[int, float]]
    d_of_s: float
    n_dark_expected: int
    profile_label: str
    nullity_route: str  # how the dark count behind the basis was obtained
    qr_margin: float | None  # smallest |R_jj| of the basis QR over its cutoff


@dataclass(frozen=True)
class MonteCarloResult:
    """Finite-trials estimate of D(s) from simulated detector runs."""

    n_qubits: int
    n_excited: int
    trials_per_arrangement: int
    estimated_d: float
    standard_error: float
    exact_d: float  # D(s) of the ideal protocol that the trials sample
    seed: int
    profile_label: str


def null_emission_probability(init: int | PureState, sub: DarkSubspace) -> float:
    """Probability that the detector never clicks for a given initial state.

    For a basis arrangement (occupation pattern) this is the corresponding
    diagonal entry of the dark projector; a normalized superposition state
    gives the full expectation value <psi|P|psi> = sum_j |<d_j|psi>|^2.
    """
    if isinstance(init, PureState):
        if init.basis != sub.sector:
            raise ValueError("state and dark subspace belong to different sectors")
        overlaps = sub.real_basis @ (sub.phases.conj() * init.normalized().amplitudes)
        return float(np.vdot(overlaps, overlaps).real)
    k = state_index(sub.sector, init)  # validates popcount and bit range
    return float(sub.diagonal()[k])


def measure_d(n_qubits: int, n_excited: int, profile: CouplingProfile) -> ProtocolResult:
    """Run the ideal protocol: sum null-emission probabilities over all arrangements.

    The sum equals the trace of the dark projector over the s-sector, i.e.
    the number of independent dark states there.
    """
    nbytes = dark_basis_bytes(n_qubits, n_excited)
    if nbytes > BASIS_BYTES_CAP:
        raise ValueError(f"the ({n_qubits}, {n_excited}) dark basis takes {nbytes >> 20} MiB, "
                         f"over the protocol cap of {BASIS_BYTES_CAP >> 20} MiB")
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
        profile_label=profile.label,
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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
        seed=seed,
        profile_label=profile.label,
    )
