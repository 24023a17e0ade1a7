import ast
import math
from pathlib import Path

import numpy as np
import pytest

from approximant import biased_heads_probability, chebyshev_coefficients
from qcoin.coin import (
    Schedule,
    equal_step_schedule,
    expected_queries_per_success,
    fragmented_query_bound,
    query_cost,
    schedule_size_lower_bound,
    toss,
    toss_fragmented,
    uniform_schedule,
)
import qcoin.coin
from qcoin.estimators import algorithm1, algorithm2
from qcoin.hamiltonian import (
    Spectrum,
    generate_random_ising_graph,
    generate_random_qrbm,
    unit_spectrum,
)
from qcoin.oracle import exact_partition_function, ideal_coin_probability
from qcoin.propagator import required_degree


def zero_spectrum(n=2):
    return Spectrum(np.zeros(2**n), 1.0)


def unit_ising_coin(seed, beta):
    """Heads probability of a unit 4-qubit Ising coin, its spectrum and coin beta."""
    spectrum = unit_spectrum(generate_random_ising_graph(4, seed))
    beta_coin = spectrum.norm_bound * beta
    return ideal_coin_probability(spectrum, beta_coin), spectrum, beta_coin


def _chi2_pvalue_2x2(heads_a, n_a, heads_b, n_b):
    pooled = (heads_a + heads_b) / (n_a + n_b)
    chi2 = 0.0
    for heads, n in ((heads_a, n_a), (heads_b, n_b)):
        for obs, expect in ((heads, n * pooled), (n - heads, n * (1 - pooled))):
            chi2 += (obs - expect) ** 2 / expect
    return math.erfc(math.sqrt(chi2 / 2.0))


def test_coin_spec_validation():
    # the coin is specified by a unit spectrum and a coin beta >= 0
    with pytest.raises(ValueError, match="non-negative"):
        ideal_coin_probability(zero_spectrum(), -1.0)


def test_success_probability_beta_zero_is_one():
    assert ideal_coin_probability(zero_spectrum(), 0.0) == pytest.approx(1.0, abs=1e-15)


def test_success_probability_identity_hamiltonian():
    # H = identity: every eigenvalue 1, so p = exp(-2 beta)
    spectrum = Spectrum(np.ones(2), 1.0)
    for beta in (0.3, 1.0, 2.5):
        assert ideal_coin_probability(spectrum, beta) == pytest.approx(
            math.exp(-2.0 * beta), rel=1e-12
        )


def test_success_probability_matches_oracle_identity():
    for seed in range(10):
        p, spectrum, beta_coin = unit_ising_coin(seed, 1.0)
        z = exact_partition_function(spectrum, beta_coin)
        assert p * math.exp(beta_coin) * spectrum.dim == pytest.approx(z, rel=1e-12)


def test_success_probability_rejects_wide_spectrum():
    # a spectrum outside [-1, 1] cannot be built, so no coin can read one
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        Spectrum(np.array([-2.0, 2.0]), 2.0)


def test_bias_bound_for_certified_approximants():
    # |p_approx - p_ideal| <= 3 eps_prime for every certified coin
    rng = np.random.default_rng(6)
    for _ in range(20):
        beta = float(rng.uniform(0.2, 4.0))
        eps = float(10.0 ** rng.uniform(-6, -2))
        approx = chebyshev_coefficients(beta, required_degree(beta, eps))
        _, spectrum, _ = unit_ising_coin(int(rng.integers(0, 500)), 1.0)
        ideal = ideal_coin_probability(spectrum, beta)
        biased = biased_heads_probability(spectrum, approx)
        assert abs(biased - ideal) <= 3.0 * eps


def test_toss_all_heads_at_probability_one():
    assert toss(1.0, 200, seed=1) == 200


def test_toss_empty_stream():
    heads = toss(math.exp(-1.0), 0, seed=1)
    assert heads == 0 and isinstance(heads, int)


def test_toss_count_limit_is_int64():
    # numpy's binomial draws at most 2^63 - 1 tosses; a larger count is an
    # infeasible budget (exit 2), not an OverflowError (exit 3)
    heads = toss(0.38, 2**63 - 1, seed=1)
    assert isinstance(heads, int) and abs(heads / (2**63 - 1) - 0.38) <= 1e-6
    with pytest.raises(ValueError, match=r"count = 9223372036854775808 exceeds 2\^63 - 1"):
        toss(math.exp(-1.0), 2**63, seed=1)


def test_toss_heads_fraction_near_paper_scale_probability():
    # p = 0.38 (the hardware-experiment scale); binomial 3.4-sigma tolerance
    heads = toss(0.38, 3000, seed=2024)
    assert abs(heads / 3000 - 0.38) <= 0.03


def test_toss_determinism_and_query_accounting():
    p, _, beta_coin = unit_ising_coin(3, 1.0)
    counts = [toss(p, 500, seed=s) for s in range(42, 52)]
    assert counts == [toss(p, 500, seed=s) for s in range(42, 52)]
    assert len(set(counts)) > 1
    est = algorithm1(p, query_cost(beta_coin, 0.0), 500, 0.05, seed=42)
    assert est.queries_used == 500 * query_cost(beta_coin, 0.0)


def test_heads_fraction_converges():
    for p, seed in ((0.01, 11), (0.1, 12), (0.5, 13)):
        heads = toss(p, 100_000, seed=seed)
        tol = 4.0 * math.sqrt(p * (1 - p) / 100_000)
        assert abs(heads / 100_000 - p) <= tol


def test_query_cost_edge_cases():
    assert query_cost(0.0, 1e-3) == 0
    assert query_cost(0.0, 0.0) == 0
    with pytest.raises(ValueError):
        query_cost(1.0, -0.1)
    # ideal coin accounted at the floor: finite and at least the 1e-12 cost
    assert query_cost(3.0, 0.0) >= required_degree(3.0, 1e-12)


def test_query_cost_log_eps_and_sqrt_beta_scaling():
    for beta in (1.0, 10.0):
        costs = [query_cost(beta, eps) for eps in (1e-4, 5e-5, 2.5e-5, 1.25e-5)]
        assert all(0 <= b - a <= 3 for a, b in zip(costs, costs[1:]))
    for beta in (1.0, 5.0, 25.0, 100.0):
        assert query_cost(4.0 * beta, 1e-6) <= 2.5 * query_cost(beta, 1e-6)


def test_uniform_schedule_shapes():
    spectrum = zero_spectrum()
    single = uniform_schedule(spectrum, 3.0, 1, 1e-3)
    assert np.array_equal(single.betas, [0.0, 1.5])
    assert single.l == 1

    sched = uniform_schedule(spectrum, 2.0, 4, 1e-3)
    assert np.allclose(sched.betas, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)
    assert list(sched.step_query_costs) == [query_cost(0.5, 2.5e-4)] * 4
    assert math.fsum(np.diff(sched.betas)) == pytest.approx(1.0, rel=1e-15)
    assert sched.betas[-1] == 1.0

    with pytest.raises(ValueError):
        uniform_schedule(spectrum, 2.0, 0, 1e-3)


def test_schedule_validation():
    spectrum = zero_spectrum()
    with pytest.raises(ValueError):
        Schedule(spectrum, np.array([0.5, 1.0]), np.array([3]))  # must start at 0
    with pytest.raises(ValueError):
        Schedule(spectrum, np.array([0.0, 1.0, 0.5]), np.array([3, 3]))
    with pytest.raises(ValueError, match="one entry per step"):
        Schedule(spectrum, np.array([0.0, 1.0]), np.array([3, 3]))
    assert Schedule.fields == ("spectrum", "betas", "step_query_costs")


def test_schedule_costs_each_step_once_at_construction(monkeypatch):
    # a uniform schedule certifies its one nominal width once; an equal-step
    # schedule costs each of its steps; nothing is costed after construction
    calls = []
    cost = qcoin.coin.query_cost
    monkeypatch.setattr(qcoin.coin, "query_cost",
                        lambda beta, eps: calls.append(beta) or cost(beta, eps))
    sched = uniform_schedule(zero_spectrum(), 4.0, 4, 1e-6)
    assert calls == [1.0]
    costs = sched.step_query_costs
    assert costs is sched.step_query_costs and not costs.flags.writeable
    assert costs.dtype == np.int64 and list(costs) == [cost(1.0, 2.5e-7)] * 4
    expected_queries_per_success(sched)
    fragmented_query_bound(sched)
    toss_fragmented(sched, 10, seed=1)
    assert calls == [1.0]
    equal = equal_step_schedule(zero_spectrum(), 4.0, 4, 1e-6)
    assert len(calls) == 5
    assert list(equal.step_query_costs) == [cost(b, 2.5e-7) for b in calls[1:]]


def test_schedule_costs_a_step_past_float64_bessel_range():
    # one step at coin beta 4000, where I_0(beta / 2) overflows float64
    sched = uniform_schedule(zero_spectrum(), 4000.0, 1, 1e-6)
    assert list(sched.step_query_costs) == [required_degree(4000.0, 1e-6)]
    assert sched.step_query_costs[0] > required_degree(1400.0, 1e-6)


def test_step_probability_zero_width_step():
    spectrum = zero_spectrum()
    sched = Schedule(spectrum, np.array([0.0, 0.0]), np.array([0]))
    (p,) = sched.step_probabilities
    assert p == pytest.approx(1.0, abs=1e-15)


def test_step_probability_zero_hamiltonian():
    spectrum = zero_spectrum()
    sched = uniform_schedule(spectrum, 2.0, 4, 1e-3)
    probs = sched.step_probabilities
    assert probs.shape == (4,)
    for p, width in zip(probs, sched.step_widths):
        assert p == pytest.approx(math.exp(-2.0 * width), rel=1e-14)


def test_step_probabilities_telescope_to_full_coin():
    p_full, spectrum, beta_coin = unit_ising_coin(7, 1.5)
    for l in (1, 2, 4, 8):
        sched = uniform_schedule(spectrum, beta_coin, l, 1e-6)
        product = math.prod(sched.step_probabilities)
        assert product == pytest.approx(p_full, rel=1e-12)


def test_step_probabilities_past_float64_exp():
    # beta 2000: e^{2 w} and Z(2 beta_k) overflow float64, the steps do not.
    # Half the spectrum sits at the ground energy -1, so p_full = 0.5.
    spectrum = Spectrum(np.array([-1.0, -1.0, 0.5, 1.0]), 1.0)
    p_full = ideal_coin_probability(spectrum, 2000.0)
    assert p_full == 0.5
    uniform = uniform_schedule(spectrum, 2000.0, 4, 1e-6).step_probabilities
    equal = equal_step_schedule(spectrum, 2000.0, 4, 1e-6).step_probabilities
    for probs in (uniform, equal):
        assert np.all(np.isfinite(probs)) and np.all((probs > 0) & (probs <= 1))
        assert math.prod(probs) == pytest.approx(p_full, rel=1e-12)
    assert np.allclose(equal, 0.5**0.25, rtol=1e-9)


def test_fragmented_single_step_equivalent_to_plain_toss():
    p, spectrum, beta_coin = unit_ising_coin(3, 1.0)
    sched = uniform_schedule(spectrum, beta_coin, 1, 1e-6)
    plain = toss(p, 10_000, seed=5)
    target = int(round(10_000 * p))
    run = toss_fragmented(sched, target, seed=6)
    p_value = _chi2_pvalue_2x2(plain, 10_000, run.successes, run.attempts)
    assert p_value > 0.01


def test_fragmented_zero_hamiltonian_frequency():
    spectrum = zero_spectrum()
    beta = 0.5
    sched = uniform_schedule(spectrum, beta, 2, 1e-6)
    p = math.exp(-beta)
    target = int(round(5000 * p))
    run = toss_fragmented(sched, target, seed=21)
    sigma = math.sqrt(p * (1 - p) / run.attempts)
    assert abs(run.successes / run.attempts - p) <= 3.0 * sigma


def test_fragmented_determinism_and_query_accounting():
    _, spectrum, beta_coin = unit_ising_coin(3, 1.0)
    sched = uniform_schedule(spectrum, beta_coin, 4, 1e-4)
    a = toss_fragmented(sched, 100, seed=77)
    b = toss_fragmented(sched, 100, seed=77)
    assert (a.attempts, a.queries) == (b.attempts, b.queries)
    assert np.array_equal(a.step_executions, b.step_executions)
    # total queries decompose over per-step execution counts
    costs = sched.step_query_costs
    assert a.queries == int((a.step_executions * costs).sum())
    assert a.successes == 100
    # every attempt runs step 1; every success runs the last step
    assert a.step_executions[0] == a.attempts
    assert a.step_executions[-1] >= a.successes


def _queries_per_success_moments(probs, costs):
    """Mean and variance of the queries one fragmented success costs.

    Failures before a success are geometric (mean (1 - P)/P, variance
    (1 - P)/P^2, P = prod p_j); a failure at step s costs the queries of
    steps 1..s, and the success costs all of them.
    """
    reach = np.concatenate(([1.0], np.cumprod(probs)))
    p_full = reach[-1]
    fail = reach[:-1] * (1.0 - probs) / (1.0 - p_full)
    prefix = np.cumsum(costs).astype(float)
    mean_x = float(fail @ prefix)
    var_x = float(fail @ prefix**2) - mean_x**2
    mean_g = (1.0 - p_full) / p_full
    var_g = (1.0 - p_full) / p_full**2
    return prefix[-1] + mean_g * mean_x, mean_g * var_x + var_g * mean_x**2


def test_fragmented_step_executions_match_reach_probabilities():
    # Given the attempt count N, each of the N - k failed attempts reaches
    # step j with probability q_j = (r_j - P)/(1 - P), r_j = prod_{i<j} p_i,
    # so step j runs k + Binomial(N - k, q_j) times, about N r_j.  Stop
    # weights shifted by one step move these counts by 7 to 100 sigma here.
    _, spectrum, beta_coin = unit_ising_coin(3, 1.0)
    sched = uniform_schedule(spectrum, beta_coin, 4, 1e-4)
    probs = sched.step_probabilities
    k = 2000
    run = toss_fragmented(sched, k, seed=5)
    failed = run.attempts - k
    p_full = float(np.prod(probs))
    reach = np.concatenate(([1.0], np.cumprod(probs[:-1])))
    for executions, r in zip(run.step_executions, reach):
        q = (r - p_full) / (1.0 - p_full)
        sigma = math.sqrt(failed * q * (1.0 - q))
        assert abs(executions - (k + failed * q)) <= 4.0 * sigma
    mean, var = _queries_per_success_moments(probs, sched.step_query_costs)
    expected = expected_queries_per_success(sched)
    assert mean == pytest.approx(expected, rel=1e-12)
    assert abs(run.queries_per_success - mean) <= 4.0 * math.sqrt(var / k)


def test_fragmented_queries_are_exact_beyond_int64():
    # p_full = e^-35 ~ 6.3e-16: about 3.2e18 attempts, ~4e19 queries
    spectrum = zero_spectrum()
    sched = uniform_schedule(spectrum, 35.0, 4, 1e-6)
    run = toss_fragmented(sched, 2000, seed=1)
    costs = sched.step_query_costs
    assert run.queries == sum(int(e) * int(c) for e, c in zip(run.step_executions, costs))
    assert run.queries > 2**63
    assert run.queries_per_success > 0


@pytest.mark.parametrize("beta, l, message", [
    (40.0, 4, r"toss budget infeasible: expected tosses = 2000 / p = 4\.70771e\+20;"),
    (1e4, 20, "success probability is zero"),
], ids=["40.0-4", "10000.0-20"])
def test_fragmented_infeasible_probability_raises(beta, l, message):
    # p_full = e^-40 is too small to sample 2000 successes; e^-1e4 is 0
    spectrum = zero_spectrum()
    sched = uniform_schedule(spectrum, beta, l, 1e-6)
    with pytest.raises(ValueError, match=message):
        toss_fragmented(sched, 2000, seed=1)


def test_fragmented_and_algorithm2_share_the_toss_budget_rule():
    # both wait for k heads through draw_tosses_to_heads: the same (k, p)
    # is refused with the same message
    spectrum = zero_spectrum()
    sched = uniform_schedule(spectrum, 40.0, 1, 1e-6)
    p = ideal_coin_probability(spectrum, 40.0)
    assert float(np.prod(sched.step_probabilities)) == p
    with pytest.raises(ValueError) as frag:
        toss_fragmented(sched, 2000, seed=1)
    with pytest.raises(ValueError) as alg2:
        algorithm2(p, query_cost(40.0, 0.0), 2000, seed=1)
    assert str(frag.value) == str(alg2.value)
    assert str(frag.value).startswith("toss budget infeasible: expected tosses = 2000")


def test_fragmented_attempts_past_int64_are_rejected(monkeypatch):
    # a failure count that would wrap k + failures (and step_executions)
    # past int64 is refused after the draw, as in algorithm2
    sched = uniform_schedule(zero_spectrum(), 1.0, 2, 1e-6)

    class HugeDraws:
        def negative_binomial(self, n, p, size=None):
            return 2**63 - n  # one past 2^63 - 1 - k

    monkeypatch.setattr(np.random, "default_rng", lambda seed: HugeDraws())
    with pytest.raises(ValueError, match=r"toss count passed 2\^63 - 1"):
        toss_fragmented(sched, 3, seed=0)


def test_tosses_to_heads_refuses_a_head_count_past_float_range():
    # k / p would overflow float64 (exit 3); the budget rule refuses it first
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"toss budget infeasible: .* / p = inf;"):
        qcoin.coin.draw_tosses_to_heads(rng, 1.0, 10**400)


def test_coin_owns_every_draw():
    # every head count and every wait in the package is drawn by coin's two
    # samplers, and no module reaches into coin's private names
    package = Path(qcoin.coin.__file__).parent
    for path in package.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name != "coin.py":
            assert "binomial(" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module in ("coin", "qcoin.coin"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, private)


def test_fragmented_average_query_bound_equal_probability_schedule():
    _, spectrum, beta_coin = unit_ising_coin(3, 1.0)
    sched = equal_step_schedule(spectrum, beta_coin, 4, 1e-4)
    probs = sched.step_probabilities
    assert max(probs) - min(probs) <= 1e-10
    bound = fragmented_query_bound(sched)
    assert expected_queries_per_success(sched) <= bound
    run = toss_fragmented(sched, 2000, seed=31)
    assert run.queries_per_success <= 1.1 * bound


def test_fragmented_query_bound_general_form_covers_uniform_schedules():
    _, spectrum, beta_coin = unit_ising_coin(9, 1.5)
    for l in (1, 2, 4, 8):
        sched = uniform_schedule(spectrum, beta_coin, l, 1e-4)
        rigorous = fragmented_query_bound(sched, assume_equal_probabilities=False)
        assert expected_queries_per_success(sched) <= rigorous * (1 + 1e-12)


def test_schedule_size_lower_bound_values():
    assert schedule_size_lower_bound(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    _, spectrum, beta_coin = unit_ising_coin(2, 2.0)
    z = exact_partition_function(spectrum, beta_coin)
    p_full = ideal_coin_probability(spectrum, beta_coin)
    value = schedule_size_lower_bound(p_full, 1.0)
    direct = (4 + beta_coin * math.log2(math.e) - math.log2(z)) / 1.0
    assert value == pytest.approx(direct, rel=1e-12)
    assert schedule_size_lower_bound(p_full, 2.0) == pytest.approx(
        value / 2.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        schedule_size_lower_bound(0.5, 0.0)


def test_qrbm_coin_identity():
    spectrum = unit_spectrum(generate_random_qrbm(2, 2, 9))
    beta_coin = spectrum.norm_bound
    p = ideal_coin_probability(spectrum, beta_coin)
    z = exact_partition_function(spectrum, beta_coin)
    assert p * math.exp(beta_coin) * 16 == pytest.approx(z, rel=1e-12)
