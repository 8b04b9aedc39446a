"""spintrack: sequential weak measurement of a precessing spin, end to end.

A sensor qubit repeatedly and weakly measures a precessing spin-1/2;
the package simulates the composite dynamics (closed-form propagator
plus an exact oracle), reduces them to the Bloch recurrence, samples
readout outcomes and photon counts, calibrates the photon levels and
the measurement strength back out of the record, reconstructs the spin
correlation function and applies the Leggett-Garg bound to it.
"""

from .calibrate import (
    FitResult,
    fit_alpha,
    fit_alpha_modulated,
    fit_decay,
    fit_na_nb,
    reconstruct_Ix_corr,
    reconstruct_Sz_corr,
)
from .correlation import (
    CorrelationSeries,
    corr_Ix,
    corr_Ix_normalized,
    corr_Sz,
    empirical_corr,
    ensemble_corr,
    entropy_Sz_Ix,
    joint_distribution,
    lag_products,
    relative_entropy,
)
from .engine import CHUNK_SIZE, RunBatch, chunk_rng, classical_runs, simulate_runs
from .errors import (
    AmbiguousRegimeError,
    AmplificationError,
    DegenerateContrastError,
    FitFailureError,
    InvalidArgumentError,
    SpintrackError,
    UnsupportedStateError,
)
from .lg import (
    LgSeries,
    lg_function,
    lg_theory,
    strong_additivity_check,
    wigner_despagnat_check,
)
from .pauli import (
    bloch_to_density,
    check_density_matrix,
    commutator,
    density_to_bloch,
    gram_matrix,
    gram_rank,
    partial_trace,
    spin_op,
    tensor,
)
from .propagator import (
    BchDecomposition,
    bch_evolve,
    check_bch_conditions,
    exact_evolve,
    master_equation_step,
)
from .protocol import (
    FREE_PRECESSION_H,
    GAMMA_C13,
    INTERACTION_H,
    CycleResult,
    PhysicalParams,
    ProtocolConfig,
    alpha_from_pulses,
    approx_amplitudes,
    damped_cosine,
    dephasing_rates,
    generate_initial_state,
    measurement_cycle,
    precession_frequencies,
    recurrence_matrix,
    recurrence_step,
    resonance_tau,
)
from .readout import (
    ChargeModel,
    ModulationTrace,
    PhotonTrace,
    ReadoutModel,
    modulation_trace,
    run_classical_experiment,
    run_quantum_experiment,
)

__version__ = "0.1.0"
