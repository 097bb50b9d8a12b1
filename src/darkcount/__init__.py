"""Dark states of qubits in a lossy cavity: counting, heralding, simulation.

The package builds the collective lowering operator of N qubits coupled to a
single photon mode with arbitrary nonzero couplings, counts its null space
(the dark states) by formula, by spectral oracle, numerically and exactly
over a prime field, and simulates the zero-photon heralding protocol both as
exact projector arithmetic and as quantum-jump trajectories at finite cavity
decay.
"""

from .counting import (
    SweepRecord,
    count_dark_uniform_oracle,
    ndark_formula,
    order_parameter,
    sweep,
    thermodynamic_order,
)
from .couplings import (
    DEFAULT_DISORDER,
    CouplingProfile,
    DisorderSpec,
    sample_profile,
    uniform_profile,
)
from .darkspace import (
    DEFAULT_TOLERANCE,
    DarkSubspace,
    TolerancePolicy,
    dark_subspace,
    null_basis,
    projector,
    rank_exact_modp,
    rank_numeric,
    verify_dark,
)
from .operators import (
    HamiltonianModel,
    PureState,
    SectorOperator,
    build_hamiltonian,
    build_lowering_block,
    single_excitation_dark_states,
    total_s_squared,
    total_sz,
)
from .protocol import (
    MonteCarloResult,
    ProtocolResult,
    measure_d,
    monte_carlo_protocol,
    null_emission_probability,
)
from .sector import SectorBasis, enumerate_sector, state_index
from .trajectory import (
    ClickStatistics,
    TrajectoryConfig,
    no_click_vs_kappa,
    run_trajectories,
)

__version__ = "0.1.0"
