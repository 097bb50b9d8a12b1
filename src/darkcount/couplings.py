"""Qubit-photon coupling profiles and seeded disorder ensembles.

Couplings are complex; the raising term uses their conjugates, so complex
support is first-class even when all phases are zero.  Disorder ensembles
are generated with the counter-based Philox generator, whose stream for a
given key is specified by numpy and reproduces bit-for-bit across platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CouplingProfile",
    "DisorderSpec",
    "DEFAULT_DISORDER",
    "uniform_profile",
    "sample_profile",
    "profile_record",
    "profile_to_json",
    "profile_from_json",
]


@dataclass(frozen=True)
class CouplingProfile:
    """The couplings g_1..g_N of each qubit to the photon mode."""

    values: tuple[complex, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("a coupling profile needs at least one qubit")
        for j, g in enumerate(self.values, 1):
            if not 0.0 < abs(g) < math.inf:  # NaN fails it too
                raise ValueError(f"coupling g_{j} is {g}; couplings must be finite and nonzero")

    @property
    def n_qubits(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.complex128)

    @property
    def min_magnitude(self) -> float:
        return min(abs(g) for g in self.values)

    @property
    def max_magnitude(self) -> float:
        return max(abs(g) for g in self.values)


@dataclass(frozen=True)
class DisorderSpec:
    """Distribution of coupling magnitudes and phases for random profiles."""

    magnitude_low: float
    magnitude_high: float
    phase_random: bool = True
    distribution: str = "log-uniform"  # or "uniform"

    def __post_init__(self):
        if not 0.0 < self.magnitude_low <= self.magnitude_high < math.inf:
            raise ValueError(
                f"need 0 < magnitude_low <= magnitude_high < inf, got "
                f"[{self.magnitude_low}, {self.magnitude_high}]"
            )
        if self.distribution not in ("log-uniform", "uniform"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


# Three decades of magnitude spread plus random phases: far beyond the
# "small perturbation" regime, which is what the robustness tests stress.
DEFAULT_DISORDER = DisorderSpec(1e-3, 1.0, phase_random=True, distribution="log-uniform")


def uniform_profile(n_qubits: int, g: float) -> CouplingProfile:
    """All qubits coupled with the same real strength g > 0."""
    if not 0.0 < g < math.inf:
        raise ValueError(f"uniform coupling must be finite and positive, got {g}")
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    return CouplingProfile(values=(complex(g),) * n_qubits, label=f"uniform g={g}")


def sample_profile(n_qubits: int, spec: DisorderSpec, seed: int) -> CouplingProfile:
    """Draw a random profile, deterministic for fixed (spec, seed).

    Stream layout: N magnitudes first, then N phases (zeros if phases are
    disabled).  Magnitudes land in [magnitude_low, magnitude_high], so every
    coupling is nonzero by construction.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    if spec.distribution == "log-uniform":
        mags = np.exp(
            rng.uniform(np.log(spec.magnitude_low), np.log(spec.magnitude_high), n_qubits)
        )
    else:
        mags = rng.uniform(spec.magnitude_low, spec.magnitude_high, n_qubits)
    # Degenerate bounds: uniform() returns the common endpoint either way.
    if spec.phase_random:
        phases = rng.uniform(0.0, 2.0 * np.pi, n_qubits)
    else:
        phases = np.zeros(n_qubits)
    values = mags * np.exp(1j * phases)
    label = (
        f"{spec.distribution}[{spec.magnitude_low:g},{spec.magnitude_high:g}]"
        f"{'+phases' if spec.phase_random else ''} seed={seed}"
    )
    return CouplingProfile(values=tuple(complex(v) for v in values), label=label)


def profile_record(profile: CouplingProfile) -> dict:
    """The profile as ``{"label", "couplings": [[re, im], ...]}``, as outputs echo it."""
    return {"label": profile.label, "couplings": [[g.real, g.imag] for g in profile.values]}


def profile_to_json(profile: CouplingProfile) -> str:
    """Serialize :func:`profile_record` as a JSON object."""
    return json.dumps(profile_record(profile))


def profile_from_json(text: str) -> CouplingProfile:
    """Inverse of :func:`profile_to_json`; also accepts a bare list of pairs."""
    obj, label = json.loads(text), "imported"
    if isinstance(obj, dict):
        obj, label = obj.get("couplings"), obj.get("label", label)
    if not isinstance(label, str):
        raise ValueError(f"a coupling profile's label is a string, got {json.dumps(label)}")
    try:
        if any(isinstance(x, bool) for pair in obj for x in pair):
            raise TypeError
        values = tuple(complex(re, im) for re, im in obj)
    except (TypeError, ValueError):
        raise ValueError("a coupling profile is a list of (re, im) number pairs "
                         "or an object whose 'couplings' key holds one") from None
    return CouplingProfile(values=values, label=label)
