import json
import math

import numpy as np
import pytest

from qcoin.coin import CoinSpec, success_probability
from qcoin.estimators import (
    Estimate,
    TrialsRecord,
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
import qcoin.estimators
from qcoin.hamiltonian import Spectrum, generate_random_ising_graph, unit_spectrum
from qcoin.oracle import exact_partition_function
from qcoin.propagator import (
    chebyshev_coefficients,
    eps_prime_for_relative_error,
    required_degree,
)

# Phi^-1(1 - delta/2) frozen from 30-digit arithmetic
Z_005 = 1.9599639845400542
Z_1E9 = 6.1094102048693971
Z_05 = 0.67448975019608174


def zero_coin(beta, n=2):
    return CoinSpec(Spectrum(np.zeros(2**n), 1.0), beta)


def synthetic_coin(p, n=2):
    """Coin with exact heads probability p via H = 0 and beta = -log p."""
    return zero_coin(-math.log(p), n=n)


def ising_coin(seed, beta):
    spectrum = unit_spectrum(generate_random_ising_graph(4, seed))
    beta_coin = spectrum.norm_bound * beta
    return CoinSpec(spectrum, beta_coin), spectrum, beta_coin


def rep_seeds(root, count):
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(root).spawn(count)]


def test_z_quantile_paper_values():
    assert abs(z_quantile(0.05) - 1.96) <= 0.005
    assert abs(z_quantile(1e-9) - 6.11) <= 0.01


def test_z_quantile_high_precision():
    assert z_quantile(0.05) == pytest.approx(Z_005, abs=1e-9)
    assert z_quantile(1e-9) == pytest.approx(Z_1E9, abs=1e-9)
    assert z_quantile(0.5) == pytest.approx(Z_05, abs=1e-9)


def test_z_quantile_limits_and_errors():
    assert z_quantile(1 - 1e-12) < 1e-6  # delta -> 1 gives the median
    with pytest.raises(ValueError):
        z_quantile(0.0)
    with pytest.raises(ValueError):
        z_quantile(1.0)


def test_ac_estimate_frozen_examples():
    # direct evaluation with z = 1.96 gives 0.114798 / 0.018497
    p_hat, _ = ac_estimate(10, 100, 0.05)
    assert p_hat == pytest.approx(0.114797, abs=5e-6)
    p_hat0, eps0 = ac_estimate(0, 100, 0.05)
    assert p_hat0 == pytest.approx(0.018497, abs=5e-6)
    assert p_hat0 > 0 and eps0 > 0


def test_ac_estimate_near_one():
    p_hat, eps_p = ac_estimate(10_000, 10_000, 0.05)
    assert p_hat > 0.99
    assert eps_p < 1e-2


def test_ac_estimate_shrinkage_and_range():
    rng = np.random.default_rng(4)
    z = z_quantile(0.1)
    for _ in range(200):
        tosses = int(rng.integers(1, 5000))
        successes = int(rng.integers(0, tosses + 1))
        p_hat, _ = ac_estimate(successes, tosses, 0.1)
        assert 0.0 < p_hat < 1.0
        assert abs(p_hat - successes / tosses) <= z * z / (tosses + z * z)


def test_ac_estimate_validation():
    with pytest.raises(ValueError):
        ac_estimate(1, 0, 0.05)
    with pytest.raises(ValueError):
        ac_estimate(5, 4, 0.05)


def test_ac_coverage_small_probabilities():
    # Thm-1-sized budgets: S = 8 z^2 / (eps_r^2 p), eps_r = 0.2, delta = 0.05
    delta, eps_r = 0.05, 0.2
    z = z_quantile(delta)
    rng = np.random.default_rng(15)
    for p in (0.02, 0.1, 0.4):
        tosses = math.ceil(8.0 * z * z / (eps_r**2 * p))
        covered = 0
        reps = 1000
        draws = rng.binomial(tosses, p, size=reps)
        for successes in draws:
            p_hat, eps_p = ac_estimate(int(successes), tosses, delta)
            covered += abs(p_hat - p) <= eps_p
        assert covered / reps >= 1.0 - delta - 0.02


def test_sample_count_thm1_frozen_and_scaling():
    assert sample_count_thm1(4, 0.0, 16.0, 0.1, 0.05) == 3074
    base = sample_count_thm1(4, 1.0, 20.0, 0.2, 0.05)
    half = sample_count_thm1(4, 1.0, 20.0, 0.1, 0.05)
    assert 4 * base - 4 <= half <= 4 * base
    bumped = sample_count_thm1(4, 2.0, 20.0, 0.2, 0.05)
    assert abs(bumped - math.e * base) <= math.e + 1
    with pytest.raises(ValueError):
        sample_count_thm1(4, 1.0, 0.0, 0.2, 0.05)
    with pytest.raises(ValueError):
        sample_count_thm1(4, 1.0, 16.0, 1.2, 0.05)


def test_success_count_thm2_values():
    assert success_count_thm2(0.2, 0.25) == 100
    assert success_count_thm2(0.1, 0.05) == 2000
    assert success_count_thm2(0.2, 0.125) == 200  # halving delta doubles
    with pytest.raises(ValueError):
        success_count_thm2(0.0, 0.25)


def test_expected_total_tosses_thm2():
    assert expected_total_tosses_thm2(4, 0.0, 16.0, 0.2, 0.25) == pytest.approx(
        100.0, rel=1e-12
    )
    full = expected_total_tosses_thm2(4, 1.0, 20.0, 0.2, 0.25)
    assert expected_total_tosses_thm2(4, 1.0, 10.0, 0.2, 0.25) == pytest.approx(
        2.0 * full, rel=1e-12
    )


def test_algorithm1_certain_coin():
    est = algorithm1(zero_coin(0.0), tosses=2000, delta=0.05, seed=1)
    assert abs(est.value - 4.0) <= est.half_width
    assert est.samples_used == 2000
    assert est.algorithm == "alg1"


def test_algorithm1_coverage_ideal_coin():
    coin, spectrum, beta_coin = ising_coin(123, 1.0)
    z = exact_partition_function(spectrum, beta_coin)
    budget = sample_count_thm1(4, beta_coin, z, 0.2, 0.05)
    hits = 0
    for seed in rep_seeds(99, 100):
        est = algorithm1(coin, budget, 0.05, seed)
        hits += abs(est.value - z) <= 0.2 * z
    assert hits / 100 >= 0.93


def test_algorithm1_coverage_with_approximation_budget():
    # eps' = eps_r Z / (6 e^beta 2^n) keeps bias within the error budget
    coin, spectrum, beta_coin = ising_coin(123, 1.0)
    z = exact_partition_function(spectrum, beta_coin)
    eps_r = 0.2
    eps_prime = eps_prime_for_relative_error(beta_coin, 4, eps_r) * z
    approx = chebyshev_coefficients(beta_coin, required_degree(beta_coin, eps_prime))
    biased_coin = CoinSpec(spectrum, beta_coin, eps_prime=eps_prime, approximant=approx)
    budget = sample_count_thm1(4, beta_coin, z, eps_r, 0.05)
    hits = 0
    for seed in rep_seeds(101, 200):
        est = algorithm1(biased_coin, budget, 0.05, seed)
        hits += abs(est.value - z) <= eps_r * z
    assert hits / 200 >= 0.93
    # the attached budget sits exactly at the theorem condition Z eps_r/(6 e^b 2^n)
    assert biased_coin.eps_prime == pytest.approx(
        z * eps_r / (6.0 * math.exp(beta_coin) * 16), rel=1e-12
    )


def test_algorithm2_certain_coin():
    est, record = algorithm2(zero_coin(0.0), target_successes=50, seed=3)
    assert np.all(record.r_values == 1)
    assert est.value == pytest.approx(4.0, rel=1e-12)
    assert est.samples_used == 50


def test_algorithm2_waiting_time_mean():
    est, record = algorithm2(synthetic_coin(0.5), target_successes=100_000, seed=8)
    r_bar = record.r_values.mean()
    assert 1.99 <= r_bar <= 2.01
    assert est.value == pytest.approx(4.0 * math.exp(-math.log(0.5)) / r_bar, rel=1e-12)


def test_algorithm2_coverage():
    coin, spectrum, beta_coin = ising_coin(123, 1.0)
    z = exact_partition_function(spectrum, beta_coin)
    budget = success_count_thm2(0.2, 0.25)
    assert budget == 100
    hits = 0
    totals = []
    for seed in rep_seeds(7, 200):
        est, record = algorithm2(coin, budget, seed, delta=0.25)
        totals.append(record.total_tosses)
        hits += abs(est.value - z) <= 0.2 * z
    assert hits / 200 >= 0.75
    p = success_probability(coin)
    predicted = expected_total_tosses_thm2(4, beta_coin, z, 0.2, 0.25)
    sigma = math.sqrt(budget * (1 - p) / p**2 / len(totals))
    assert abs(np.mean(totals) - predicted) <= 3 * sigma


def test_trials_record_empirical_sigma():
    _, record = algorithm2(synthetic_coin(0.3), target_successes=5000, seed=5)
    sigma = record.empirical_z_sigma(2, -math.log(0.3))
    scale = 4.0 * math.exp(-math.log(0.3))
    # direct recomputation of the delta-method spread
    r = record.r_values
    manual = scale / r.mean() ** 2 * r.std(ddof=1) / math.sqrt(len(r))
    assert sigma == pytest.approx(manual, rel=1e-12)


def test_error_propagation_linearization():
    # shifting the mean waiting time by eps moves the estimate by ~ Z p eps
    p = 0.2
    n, beta = 3, 1.1
    scale = 2**n * math.exp(beta)
    r_bar = 1.0 / p
    z_value = scale / r_bar
    for eps in (1e-4, 1e-3, 0.01 * r_bar):
        shifted = scale / (r_bar + eps)
        linear = z_value * p * eps
        assert abs(abs(shifted - z_value) - linear) <= 0.1 * linear


def test_bias_budget_identity():
    # 3 e^beta 2^n eps' equals eps_r / 2 exactly at the worst-case budget
    for beta, n, eps_r in ((1.0, 4, 0.2), (3.0, 3, 0.05), (0.2, 2, 0.5)):
        eps_prime = eps_prime_for_relative_error(beta, n, eps_r)
        assert 3.0 * math.exp(beta) * 2**n * eps_prime == pytest.approx(
            eps_r / 2.0, rel=1e-12
        )


def test_relative_from_additive_stops_immediately_at_zmax():
    def runner(eps_additive, delta_step):
        return Estimate(
            value=16.0, half_width=eps_additive, relative_target=None,
            confidence=1.0 - delta_step, samples_used=1, queries_used=0,
            algorithm="alg1",
        )

    est = relative_from_additive(runner, z_max=16.0, eps_r=0.1, delta=0.05)
    assert est.rounds == 1
    assert est.algorithm == "iterative"


def test_relative_from_additive_round_count():
    z_true = 3.0
    z_max = 1024.0

    def runner(eps_additive, delta_step):
        return Estimate(
            value=z_true, half_width=eps_additive, relative_target=None,
            confidence=1.0 - delta_step, samples_used=1, queries_used=0,
            algorithm="alg1",
        )

    est = relative_from_additive(runner, z_max, eps_r=0.1, delta=0.05)
    expected_rounds = math.ceil(math.log2(z_max / z_true))
    assert abs(est.rounds - expected_rounds) <= 1


def test_relative_from_additive_round_cap():
    rounds = []

    def runner(eps_additive, delta_step):
        rounds.append(eps_additive)
        return Estimate(
            value=0.0, half_width=eps_additive, relative_target=None,
            confidence=1.0 - delta_step, samples_used=1, queries_used=0,
            algorithm="alg1",
        )

    with pytest.raises(RuntimeError, match=f"{qcoin.estimators._ROUND_CAP} rounds"):
        relative_from_additive(runner, 16.0, 0.1, 0.05)
    assert len(rounds) == qcoin.estimators._ROUND_CAP


def test_relative_from_additive_end_to_end_coverage():
    coin, spectrum, beta_coin = ising_coin(55, 2.0)
    z = exact_partition_function(spectrum, beta_coin)
    z_max = spectrum.dim * math.exp(beta_coin)
    eps_r, delta = 0.2, 0.1
    hits = 0
    rounds = []
    for seed in rep_seeds(31, 200):
        runner = make_additive_runner(coin, seed)
        est = relative_from_additive(runner, z_max, eps_r, delta)
        rounds.append(est.rounds)
        hits += abs(est.value - z) <= eps_r * z
    assert hits / 200 >= 1.0 - delta
    assert abs(np.median(rounds) - math.ceil(math.log2(z_max / z))) <= 2


def test_make_additive_runner_deterministic():
    coin, _, _ = ising_coin(3, 1.0)
    est_a = make_additive_runner(coin, 12)(0.5, 0.1)
    est_b = make_additive_runner(coin, 12)(0.5, 0.1)
    assert est_a.value == est_b.value
    assert est_a.samples_used == est_b.samples_used


def test_make_additive_runner_calls_advance_one_generator():
    # the halving wrapper's rounds must see fresh tosses: a runner that
    # reseeded its generator per call would repeat the first call's draws
    coin, _, _ = ising_coin(3, 1.0)
    runner = make_additive_runner(coin, 12)
    est_a = runner(0.5, 0.1)
    est_b = runner(0.5, 0.1)
    assert est_a.value != est_b.value


def test_estimate_json_and_validation():
    est = Estimate(
        value=10.0, half_width=0.5, relative_target=0.1, confidence=0.95,
        samples_used=100, queries_used=700, algorithm="alg1",
    )
    doc = json.loads(est.to_json())
    assert doc["eps_r"] == 0.1
    assert doc["delta"] == pytest.approx(0.05)
    assert doc["algorithm"] == "alg1"
    with pytest.raises(ValueError):
        Estimate(10.0, -1.0, None, 0.95, 1, 0, "alg1")
    with pytest.raises(ValueError):
        Estimate(10.0, 1.0, None, 1.5, 1, 0, "alg1")
    with pytest.raises(ValueError):
        TrialsRecord(np.array([1, 0, 2]))
