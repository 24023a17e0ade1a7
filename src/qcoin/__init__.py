"""Quantum-coin partition function estimation: simulator and statistics."""

from .hamiltonian import (
    IsingSpec,
    QrbmSpec,
    Spectrum,
    generate_random_ising_graph,
    generate_random_qrbm,
    spec_from_json,
    unit_spectrum,
)
from .propagator import (
    eps_prime_for_relative_error,
    modified_bessel_i,
    required_degree,
)
from .coin import (
    CoinSpec,
    FragmentedRun,
    Schedule,
    SeedStream,
    equal_step_schedule,
    expected_queries_per_success,
    fragmented_query_bound,
    query_cost,
    schedule_size_lower_bound,
    toss,
    toss_fragmented,
    uniform_schedule,
)
from .estimators import (
    Estimate,
    ac_estimate,
    algorithm1,
    algorithm2,
    expected_total_tosses_thm2,
    make_additive_runner,
    relative_from_additive,
    sample_count_thm1,
    success_count_thm2,
    z_quantile,
)
from .noise import (
    FitConvergenceError,
    FitDegenerateError,
    LayerSeries,
    NoiseFit,
    NoiseModel,
    fit_noise_model,
    identity_insertion_depths,
    mitigate,
    noisy_success_probability,
    propagate_uncertainty,
    simulate_noisy_tosses,
)
from .oracle import (
    OracleReport,
    exact_partition_function,
    ideal_coin_probability,
    oracle_report,
)

__version__ = "0.1.0"
