import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from approximant import biased_heads_probability, chebyshev_coefficients
from qcoin.coin import query_cost
from qcoin.estimators import (
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
import qcoin.estimators
from qcoin.hamiltonian import Spectrum, generate_random_ising_graph, unit_spectrum
from qcoin.oracle import exact_partition_function, ideal_coin_probability
from qcoin.propagator import eps_prime_for_relative_error, required_degree

# Phi^-1(1 - delta/2) frozen from 30-digit arithmetic
Z_005 = 1.9599639845400542
Z_1E9 = 6.1094102048693971
Z_05 = 0.67448975019608174


def zero_coin(beta):
    """Heads probability exp(-beta) and per-toss cost of the H = 0 coin at beta."""
    return math.exp(-beta), query_cost(beta, 0.0)


def synthetic_coin(p):
    """Heads probability p and per-toss cost of the H = 0 coin at beta = -log p."""
    return p, query_cost(-math.log(p), 0.0)


def ising_coin(seed, beta):
    """Heads probability and per-toss cost of a unit 4-qubit Ising coin,
    with its spectrum and coin beta."""
    spectrum = unit_spectrum(generate_random_ising_graph(4, seed))
    beta_coin = spectrum.norm_bound * beta
    p = ideal_coin_probability(spectrum, beta_coin)
    return p, query_cost(beta_coin, 0.0), spectrum, beta_coin


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
    assert sample_count_thm1(1.0, 0.1, 0.05) == 3074
    p = 20.0 / (16 * math.e)  # Z = 20 at n = 4, beta = 1
    base = sample_count_thm1(p, 0.2, 0.05)
    half = sample_count_thm1(p, 0.1, 0.05)
    assert 4 * base - 4 <= half <= 4 * base
    bumped = sample_count_thm1(p / math.e, 0.2, 0.05)
    assert abs(bumped - math.e * base) <= math.e + 1
    with pytest.raises(ValueError):
        sample_count_thm1(0.0, 0.2, 0.05)
    with pytest.raises(ValueError):
        sample_count_thm1(1.0, 1.2, 0.05)


def test_success_count_thm2_values():
    assert success_count_thm2(0.2, 0.25) == 100
    assert success_count_thm2(0.1, 0.05) == 2000
    assert success_count_thm2(0.2, 0.125) == 200  # halving delta doubles
    with pytest.raises(ValueError):
        success_count_thm2(0.0, 0.25)


def test_expected_total_tosses_thm2():
    assert expected_total_tosses_thm2(1.0, 0.2, 0.25) == pytest.approx(
        100.0, rel=1e-12
    )
    p = 20.0 / (16 * math.e)
    full = expected_total_tosses_thm2(p, 0.2, 0.25)
    assert expected_total_tosses_thm2(p / 2, 0.2, 0.25) == pytest.approx(
        2.0 * full, rel=1e-12
    )


def test_algorithm1_certain_coin():
    est = algorithm1(*zero_coin(0.0), tosses=2000, delta=0.05, seed=1)
    assert abs(est.value - 1.0) <= est.half_width
    assert est.samples_used == 2000
    assert est.rounds is None  # a fixed-budget estimate has no halving rounds


def test_algorithm1_coverage_ideal_coin():
    p, q, _, _ = ising_coin(123, 1.0)
    budget = sample_count_thm1(p, 0.2, 0.05)
    est = algorithm1(p, q, budget, 0.05, seed=99, reps=100)
    hits = np.count_nonzero(np.abs(est.value - p) <= 0.2 * p)
    assert hits / 100 >= 0.93


def test_algorithm1_coverage_with_approximation_budget():
    # eps' = eps_r Z / (6 e^beta 2^n) keeps bias within the error budget
    p, _, spectrum, beta_coin = ising_coin(123, 1.0)
    z = exact_partition_function(spectrum, beta_coin)
    eps_r = 0.2
    eps_prime = eps_prime_for_relative_error(beta_coin, 4, eps_r) * z
    approx = chebyshev_coefficients(beta_coin, required_degree(beta_coin, eps_prime))
    assert approx.certified_error <= eps_prime
    # the estimators read only the heads probability: a coin with p~ is the biased coin
    biased_coin = synthetic_coin(biased_heads_probability(spectrum, approx))
    budget = sample_count_thm1(p, eps_r, 0.05)
    est = algorithm1(*biased_coin, budget, 0.05, seed=101, reps=200)
    hits = np.count_nonzero(np.abs(est.value - p) <= eps_r * p)
    assert hits / 200 >= 0.93
    # the budget sits exactly at the theorem condition Z eps_r/(6 e^b 2^n)
    assert eps_prime == pytest.approx(
        z * eps_r / (6.0 * math.exp(beta_coin) * 16), rel=1e-12
    )


def test_algorithm2_certain_coin():
    est = algorithm2(*zero_coin(0.0), target_successes=50, seed=3)
    assert est.samples_used == 50  # every waiting time is 1
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_algorithm2_waiting_time_mean():
    est = algorithm2(*synthetic_coin(0.5), target_successes=100_000, seed=8)
    r_bar = est.samples_used / 100_000
    assert 1.99 <= r_bar <= 2.01
    assert est.value == pytest.approx(1.0 / r_bar, rel=1e-12)


def test_algorithm2_waits_past_int64_are_rejected(monkeypatch):
    # numpy's negative_binomial refuses (1 - p)/p (k + 10 sqrt(k)) past
    # 2^63 - 1 - 10 sqrt(2^63 - 1), below the 2^63 - 1 expected-toss limit:
    # k = 2 at p = 1e-18 or 3e-19 expects only 2e18 or 6.7e18 tosses
    for p, k, expected in ((1e-18, 2, "2e+18"), (3e-19, 2, "6.66667e+18"),
                           (3e-19, 4, "1.33333e+19")):
        message = re.escape(f"expected tosses = {k} / p = {expected};")
        with pytest.raises(ValueError, match=message):
            algorithm2(*synthetic_coin(p), k, seed=0)
    # just inside numpy's limit the draws go through; a wrapped total
    # would be negative
    assert algorithm2(*synthetic_coin(2e-18), 2, seed=0, reps=50).samples.min() >= 2

    class HugeDraws:  # failures that would wrap k + failures past int64
        def negative_binomial(self, n, p, size):
            return np.full(size, 2**63 - 2, dtype=np.int64)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: HugeDraws())
    with pytest.raises(ValueError, match=r"toss count passed 2\^63 - 1"):
        algorithm2(*synthetic_coin(0.5), 2, seed=0)


@pytest.mark.parametrize("p", [0.5, 0.01])
def test_algorithm2_total_tosses_moments(p):
    # the total of k geometric waits has mean k/p and variance k(1-p)/p^2;
    # the sample variance's spread uses NegBin's excess kurtosis
    # 6/k + p^2/(k(1-p))
    k, reps = 100, 20_000
    totals = algorithm2(*synthetic_coin(p), k, seed=5, reps=reps).samples
    mean, var = k / p, k * (1.0 - p) / p**2
    assert abs(totals.mean() - mean) <= 5.0 * math.sqrt(var / reps)
    kurt = 6.0 / k + p**2 / (k * (1.0 - p))
    assert abs(totals.var(ddof=1) - var) <= 5.0 * var * math.sqrt((2.0 + kurt) / reps)


def test_algorithm2_coverage():
    p, q, _, _ = ising_coin(123, 1.0)
    budget = success_count_thm2(0.2, 0.25)
    assert budget == 100
    est = algorithm2(p, q, budget, seed=7, delta=0.25, reps=200)
    hits = np.count_nonzero(np.abs(est.value - p) <= 0.2 * p)
    assert hits / 200 >= 0.75
    predicted = expected_total_tosses_thm2(p, 0.2, 0.25)
    sigma = math.sqrt(budget * (1 - p) / p**2 / 200)
    assert abs(est.samples_used / 200 - predicted) <= 3 * sigma


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


def constant_runner(value, calls=None):
    """Additive runner whose every estimate is ``value``, one toss each."""
    def runner(eps_additive, delta_step, reps):
        if calls is not None:
            calls.append(reps)
        return Estimate(
            value=np.full(reps, value), half_width=np.full(reps, eps_additive),
            samples=np.ones(reps, dtype=np.int64), queries_per_sample=0,
        )

    return runner


def test_relative_from_additive_stops_immediately_at_zmax():
    est = relative_from_additive(constant_runner(1.0), eps_r=0.1, delta=0.05, reps=3)
    assert est.rounds.tolist() == [1, 1, 1]
    assert est.samples_used == 3
    assert est.half_width.tolist() == [0.05, 0.05, 0.05]  # eps_r / 2 in round 1


def test_relative_from_additive_round_count():
    p_true = 3.0 / 1024.0
    est = relative_from_additive(constant_runner(p_true), eps_r=0.1, delta=0.05)
    expected_rounds = math.ceil(math.log2(1.0 / p_true))
    assert abs(est.rounds[0] - expected_rounds) <= 1
    assert est.samples_used == est.rounds[0]  # one toss per round


def test_relative_from_additive_rounds_per_repetition():
    # repetitions stop at their own rounds; later rounds run only the rest
    values = iter([np.array([1.0, 0.1, 0.3]), np.array([0.1, 0.3]), np.array([0.3])])
    calls = []

    def runner(eps_additive, delta_step, reps):
        calls.append(reps)
        value = next(values)
        return Estimate(value, np.full(reps, eps_additive),
                        np.full(reps, 10, dtype=np.int64), 2)

    est = relative_from_additive(runner, eps_r=0.2, delta=0.05, reps=3)
    assert calls == [3, 2, 1]
    assert est.rounds.tolist() == [1, 3, 2]
    assert est.value.tolist() == [1.0, 0.3, 0.3]
    assert est.half_width.tolist() == [0.1, 0.025, 0.05]
    assert est.samples.tolist() == [10, 30, 20]
    assert est.queries_used == 120


def test_relative_from_additive_round_cap():
    calls = []
    with pytest.raises(RuntimeError, match=f"{qcoin.estimators._ROUND_CAP} rounds"):
        relative_from_additive(constant_runner(0.0, calls), 0.1, 0.05)
    assert len(calls) == qcoin.estimators._ROUND_CAP


def test_relative_from_additive_end_to_end_coverage():
    p, q, _, _ = ising_coin(55, 2.0)
    eps_r, delta = 0.2, 0.1
    est = relative_from_additive(make_additive_runner(p, q, 31), eps_r, delta, reps=200)
    hits = np.count_nonzero(np.abs(est.value - p) <= eps_r * p)
    assert hits / 200 >= 1.0 - delta
    assert abs(np.median(est.rounds) - math.ceil(math.log2(1.0 / p))) <= 2


def binomial_upper_quantile(n, q, tail):
    """Smallest m with P(Binomial(n, q) > m) <= tail."""
    above = 0.0  # P(X > m)
    for m in range(n, -1, -1):
        pmf = math.exp(math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
                       + m * math.log(q) + (n - m) * math.log1p(-q))
        if above + pmf > tail:
            return m
        above += pmf
    return 0


@pytest.mark.parametrize("p", [0.51, 0.05])
@pytest.mark.parametrize("algorithm", ["alg1", "alg2", "iterative"])
def test_coverage_at_measurable_delta(algorithm, p):
    # at delta = 0.3 an estimator whose confidence holds misses at most 30%
    # of its repetitions, so a shortfall is measurable in 2,000 of them; a
    # correct estimator passes the one-sided 1e-6 quantile of
    # Binomial(2000, 0.3) with probability at least 1 - 1e-6
    reps, eps_r, delta = 2000, 0.2, 0.3
    coin = synthetic_coin(p)
    if algorithm == "alg1":
        budget = sample_count_thm1(p, eps_r, delta)
        est = algorithm1(*coin, budget, delta, seed=41, reps=reps)
    elif algorithm == "alg2":
        k = success_count_thm2(eps_r, delta)
        est = algorithm2(*coin, k, seed=42, delta=delta, reps=reps)
    else:
        est = relative_from_additive(make_additive_runner(*coin, 43), eps_r, delta, reps)
    misses = np.count_nonzero(np.abs(est.value - p) > eps_r * p)
    limit = binomial_upper_quantile(reps, delta, 1e-6)
    assert 650 <= limit <= 750
    assert misses <= limit


def test_additive_runner_infeasible_budget_is_input_error():
    # at p = 1e-6 an additive precision of 1e-8 needs ~4e10 tosses
    runner = make_additive_runner(*synthetic_coin(1e-6), 3)
    with pytest.raises(ValueError, match=r"toss budget infeasible: .* p = 1e-06 .*"
                       r"_TOSS_BUDGET = 100000000 tosses"):
        runner(1e-8, 0.05, 4)


def p_units(eps_z, beta_coin, dim=16):
    """An additive precision on Z, in units of p."""
    return eps_z / (dim * math.exp(beta_coin))


def test_make_additive_runner_deterministic():
    p, q, _, beta_coin = ising_coin(3, 1.0)
    est_a = make_additive_runner(p, q, 12)(p_units(0.5, beta_coin), 0.1)
    est_b = make_additive_runner(p, q, 12)(p_units(0.5, beta_coin), 0.1)
    assert est_a.value == est_b.value
    assert est_a.samples_used == est_b.samples_used


def test_make_additive_runner_calls_advance_one_generator():
    # the halving wrapper's rounds must see fresh tosses: a runner that
    # reseeded its generator per call would repeat the first call's draws
    p, q, _, beta_coin = ising_coin(3, 1.0)
    runner = make_additive_runner(p, q, 12)
    est_a = runner(p_units(0.5, beta_coin), 0.1)
    est_b = runner(p_units(0.5, beta_coin), 0.1)
    assert est_a.value != est_b.value


def test_estimate_json_and_validation():
    value, one = np.array([10.0, 10.0]), np.ones(2, dtype=np.int64)
    with pytest.raises(ValueError, match="half_width"):
        Estimate(value, np.array([1.0, -1.0]), one, 0)
    with pytest.raises(ValueError, match="samples"):
        Estimate(value, np.ones(2), np.array([1, -1]), 0)


def test_estimators_past_float64_exp():
    # coin beta 800: e^beta and Z overflow float64, while p = 0.5 exactly
    p = ideal_coin_probability(Spectrum(np.array([-1.0, -1.0, 1.0, 1.0]), 1.0), 800.0)
    assert p == 0.5
    q = query_cost(800.0, 0.0)
    for est in (
        algorithm1(p, q, 2000, 0.05, seed=1),
        algorithm2(p, q, 400, seed=2),
        relative_from_additive(make_additive_runner(p, q, 3), 0.2, 0.05),
    ):
        assert abs(est.value - 0.5) <= est.half_width


def test_estimators_read_only_the_heads_probability():
    # an estimator takes p and the per-toss cost: it imports neither the
    # spectrum nor the oracle, and from qcoin.coin only the two samplers
    tree = ast.parse(Path(qcoin.estimators.__file__).read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules[node.module] = {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules.update((a.name, set()) for a in node.names)
    assert modules["coin"] == {"draw_heads", "draw_tosses_to_heads"}
    assert not [m for m in modules if "hamiltonian" in m or "oracle" in m]
