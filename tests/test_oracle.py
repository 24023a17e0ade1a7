import math
import sys

import numpy as np
import pytest

from dense_oracle import build_ising, build_qrbm
from qcoin.coin import uniform_schedule
from qcoin.hamiltonian import (
    IsingSpec,
    Spectrum,
    generate_random_ising_graph,
    generate_random_qrbm,
    unit_spectrum,
)
from qcoin.oracle import (
    exact_partition_function,
    ideal_coin_probability,
    log_partition_function,
    oracle_report,
)

Z1 = Spectrum(np.array([-1.0, 1.0]), 1.0)
ZERO4 = Spectrum(np.zeros(16), 1.0)

# e + 1/e, 18 significant digits (high-precision arithmetic)
E_PLUS_INV_E = 3.08616126963048756
# -ln(16)/2
MINUS_HALF_LN16 = -1.38629436111989062


def test_partition_function_beta_zero_counts_states():
    for n, seed in ((2, 0), (3, 1), (4, 2)):
        spectrum = unit_spectrum(generate_random_ising_graph(n, seed))
        assert exact_partition_function(spectrum, 0.0) == pytest.approx(2**n, rel=1e-14)


def test_partition_function_single_qubit_frozen():
    assert exact_partition_function(Z1, 1.0) == pytest.approx(E_PLUS_INV_E, rel=1e-15)


def test_partition_function_zero_hamiltonian():
    for beta in (0.0, 0.5, 2.0, 10.0):
        assert exact_partition_function(ZERO4, beta) == pytest.approx(16.0, rel=1e-14)


def test_log_partition_function_matches_and_passes_float64():
    for seed in range(5):
        spectrum = unit_spectrum(generate_random_ising_graph(4, seed))
        for beta in (0.0, 1.0, 30.0):
            expected = math.log(exact_partition_function(spectrum, beta))
            assert log_partition_function(spectrum, beta) == pytest.approx(
                expected, rel=1e-13, abs=1e-13)
    # Z = e^beta + e^-beta overflows float64 at beta = 800; log Z does not
    assert log_partition_function(Z1, 1.0) == pytest.approx(
        math.log(E_PLUS_INV_E), rel=1e-15)
    assert log_partition_function(Z1, 800.0) == pytest.approx(800.0, rel=1e-15)


def test_free_energy_closed_form_and_errors():
    free_energy = oracle_report(ZERO4, 2.0)["free_energy"]
    assert free_energy == pytest.approx(MINUS_HALF_LN16, rel=1e-14)
    assert oracle_report(ZERO4, 0.0)["free_energy"] is None


def test_free_energy_relative_error_maps_to_additive():
    # |F(Z(1+eps)) - F(Z)| = |log(1+eps)|/beta <= 2 eps / beta for eps <= 0.5
    rng = np.random.default_rng(3)
    for seed in range(10):
        spectrum = unit_spectrum(generate_random_ising_graph(3, seed))
        beta = float(rng.uniform(0.2, 3.0))
        z = exact_partition_function(spectrum, beta)
        f = -math.log(z) / beta
        for eps in (1e-4, 1e-2, 0.1, 0.5):
            f_shift = -math.log(z * (1 + eps)) / beta
            assert abs(f_shift - f) <= 2 * eps / beta


def test_log_convexity_of_partition_function():
    rng = np.random.default_rng(11)
    for seed in range(20):
        spectrum = unit_spectrum(generate_random_ising_graph(3, seed))
        b1, b2 = sorted(rng.uniform(0.0, 3.0, size=2))
        mid = 0.5 * (b1 + b2)
        lz = lambda b: math.log(exact_partition_function(spectrum, b))
        assert lz(mid) <= 0.5 * (lz(b1) + lz(b2)) + 1e-12


def test_log_derivative_matches_thermal_expectation():
    for seed in range(5):
        spectrum = unit_spectrum(generate_random_ising_graph(3, seed))
        beta = 0.9
        step = 1e-4
        lhs = (
            math.log(exact_partition_function(spectrum, beta + step))
            - math.log(exact_partition_function(spectrum, beta - step))
        ) / (2 * step)
        evals = spectrum.values
        w = np.exp(-beta * evals)
        rhs = -float((evals * w).sum() / w.sum())
        assert lhs == pytest.approx(rhs, rel=1e-5)


def test_oracle_report_fields_and_json():
    spectrum = unit_spectrum(generate_random_ising_graph(4, 5))
    beta_coin = spectrum.norm_bound
    report = oracle_report(spectrum, beta_coin)
    assert report["z_beta"] > 0
    assert 0 < report["p_suc_ideal"] <= 1
    assert report["mean_trials"] == pytest.approx(1.0 / report["p_suc_ideal"], rel=1e-14)
    log_z = log_partition_function(spectrum, beta_coin)
    assert report["z_beta"] == exact_partition_function(spectrum, beta_coin) == math.exp(log_z)
    assert report["free_energy"] == -log_z / beta_coin
    assert set(report) == {"z_beta", "free_energy", "p_suc_ideal", "mean_trials"}

    at_zero = oracle_report(spectrum, 0.0)
    assert at_zero["free_energy"] is None
    assert at_zero["p_suc_ideal"] == pytest.approx(1.0, rel=1e-14)


def test_oracle_report_past_float64_exp():
    # coin beta 800: Z = 2 e^800 passes float64, p = 0.5 does not
    spectrum = Spectrum(np.array([-1.0, -1.0, 1.0, 1.0]), 1.0)
    report = oracle_report(spectrum, 800.0)
    assert report["z_beta"] is None
    assert report["free_energy"] == -log_partition_function(spectrum, 800.0) / 800.0
    assert report["free_energy"] == pytest.approx(-1.0 - math.log(2.0) / 800.0, rel=1e-15)
    assert report["p_suc_ideal"] == 0.5 and report["mean_trials"] == 2.0


def test_oracle_report_requires_unit_spectrum():
    with pytest.raises(ValueError):
        oracle_report(Spectrum(3.0 * np.array([-1.0, 1.0]), 3.0), 1.0)


def test_ideal_coin_probability_identity_and_range():
    for seed in range(5):
        spectrum = unit_spectrum(generate_random_ising_graph(4, seed))
        for beta in (0.0, 0.5, 3.0):
            z = exact_partition_function(spectrum, beta)
            assert ideal_coin_probability(spectrum, beta) == pytest.approx(
                math.exp(-beta) * z / 16, rel=1e-13
            )
    # exp(-800) underflows and Z overflows; the amplitude form stays exact
    assert ideal_coin_probability(Z1, 800.0) == 0.5


def test_oracle_report_mean_trials_past_float64():
    # p = e^{-beta/2} (1 + e^{-beta}) / 2: 1/p passes float64 near beta = 1417,
    # p is subnormal at beta = 1450 and 0 at beta = 2000
    spectrum = Spectrum(np.array([-0.5, 0.5]), 1.0)
    finite = oracle_report(spectrum, 1400.0)
    assert finite["mean_trials"] == 1.0 / finite["p_suc_ideal"]
    assert finite["z_beta"] == pytest.approx(math.exp(700.0), rel=1e-12)
    for beta in (1450.0, 2000.0):
        report = oracle_report(spectrum, beta)
        assert report["p_suc_ideal"] < 1e-300 and report["mean_trials"] is None
        assert report["z_beta"] is None  # Z = e^{beta/2} (1 + e^{-beta})
        assert report["free_energy"] == pytest.approx(-0.5, rel=1e-15)
    assert oracle_report(spectrum, 2000.0)["p_suc_ideal"] == 0.0


# (instance, whether log Z passes float64's ~709 at beta = 1000)
REFERENCE_INSTANCES = [
    (generate_random_ising_graph(2, 1), True),
    (generate_random_ising_graph(5, 2), True),
    (generate_random_ising_graph(8, 3), False),
    (generate_random_qrbm(1, 1, 4), True),
    (generate_random_qrbm(3, 2, 5), True),
    (generate_random_qrbm(4, 4, 6), False),
]


def _reference_log_z(evals, beta):
    """log Z from the dense eigenvalues, the shifted terms summed by math.fsum."""
    lmin = float(evals.min())
    return -beta * lmin + math.log(math.fsum(np.exp(-beta * (evals - lmin))))


@pytest.mark.parametrize(
    "spec, passes_float64", REFERENCE_INSTANCES,
    ids=[f"{type(s).__name__}-{s.n_qubits}" for s, _ in REFERENCE_INSTANCES],
)
def test_spectral_quantities_match_dense_reference(spec, passes_float64):
    # An independent route to every quantity formed from boltzmann_sum: the
    # eigenvalues of the dense H of tests/dense_oracle, divided by the norm
    # bound and summed with math.fsum.  Linear values pass through exp of
    # arguments up to ~1e3, which scales their rounding to ~1e-13.
    build = build_ising if isinstance(spec, IsingSpec) else build_qrbm
    evals = build(spec).eigensystem()[0] / spec.norm_bound
    spectrum = unit_spectrum(spec)
    n = spectrum.dim.bit_length() - 1
    log_float_max = math.log(sys.float_info.max)
    past_float64 = False
    for beta in (0.0, 0.7, 5.0, 60.0, 400.0, 1000.0):
        log_z = _reference_log_z(evals, beta)
        assert log_partition_function(spectrum, beta) == pytest.approx(
            log_z, rel=1e-14, abs=1e-14)
        z = exact_partition_function(spectrum, beta)
        if log_z > log_float_max:
            past_float64 = True
            assert z is None
        else:
            assert z == pytest.approx(math.exp(log_z), rel=1e-12)
        p = math.exp(-beta + log_z - n * math.log(2.0))
        assert ideal_coin_probability(spectrum, beta) == pytest.approx(p, rel=1e-12)
        if beta == 0.0:
            continue
        schedule = uniform_schedule(spectrum, beta, 4, 1e-6)
        half = schedule.betas
        expected = [
            math.exp(-2.0 * (hi - lo) + _reference_log_z(evals, 2.0 * hi)
                     - _reference_log_z(evals, 2.0 * lo))
            for lo, hi in zip(half, half[1:])
        ]
        assert schedule.step_probabilities == pytest.approx(expected, rel=1e-12)
    assert past_float64 == passes_float64
