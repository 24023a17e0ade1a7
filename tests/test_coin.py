import math

import numpy as np
import pytest

from qcoin.coin import (
    CoinSpec,
    Schedule,
    equal_step_schedule,
    expected_queries_per_success,
    fragmented_query_bound,
    query_cost,
    schedule_size_lower_bound,
    success_probability,
    toss,
    toss_fragmented,
    uniform_schedule,
)
from qcoin.hamiltonian import (
    Hamiltonian,
    build_ising,
    generate_random_ising_graph,
    generate_random_qrbm,
    build_hamiltonian,
    rescale_to_unit_spectrum,
)
from qcoin.oracle import exact_partition_function
from qcoin.propagator import chebyshev_coefficients, required_degree


def zero_coin(beta, n=2):
    """Coin with H = 0: heads probability exactly exp(-beta)."""
    h = Hamiltonian(np.zeros((2**n, 2**n), dtype=complex), n, 0.0)
    return CoinSpec(h, beta)


def unit_ising_coin(seed, beta):
    h = build_ising(generate_random_ising_graph(4, seed))
    h_unit, beta_coin = rescale_to_unit_spectrum(h, beta)
    return CoinSpec(h_unit, beta_coin), h_unit, beta_coin


def _chi2_pvalue_2x2(heads_a, n_a, heads_b, n_b):
    pooled = (heads_a + heads_b) / (n_a + n_b)
    chi2 = 0.0
    for heads, n in ((heads_a, n_a), (heads_b, n_b)):
        for obs, expect in ((heads, n * pooled), (n - heads, n * (1 - pooled))):
            chi2 += (obs - expect) ** 2 / expect
    return math.erfc(math.sqrt(chi2 / 2.0))


def test_coin_spec_validation():
    h = Hamiltonian(np.zeros((4, 4), dtype=complex), 2, 0.0)
    with pytest.raises(ValueError):
        CoinSpec(h, -1.0)
    with pytest.raises(ValueError):
        CoinSpec(h, 1.0, eps_prime=0.1)  # eps > 0 without approximant
    approx = chebyshev_coefficients(1.0, required_degree(1.0, 1e-4))
    with pytest.raises(ValueError):
        CoinSpec(h, 1.0, eps_prime=0.0, approximant=approx)
    with pytest.raises(ValueError):  # certified error above budget
        CoinSpec(h, 1.0, eps_prime=1e-12, approximant=approx)
    with pytest.raises(ValueError):  # beta mismatch
        CoinSpec(h, 2.0, eps_prime=1e-3, approximant=approx)
    CoinSpec(h, 1.0, eps_prime=1e-4, approximant=approx)


def test_success_probability_beta_zero_is_one():
    assert success_probability(zero_coin(0.0)) == pytest.approx(1.0, abs=1e-15)


def test_success_probability_identity_hamiltonian():
    # H = identity: every eigenvalue 1, so p = exp(-2 beta)
    h = Hamiltonian(np.eye(2, dtype=complex), 1, 1.0)
    for beta in (0.3, 1.0, 2.5):
        assert success_probability(CoinSpec(h, beta)) == pytest.approx(
            math.exp(-2.0 * beta), rel=1e-12
        )


def test_success_probability_matches_oracle_identity():
    for seed in range(10):
        coin, h_unit, beta_coin = unit_ising_coin(seed, 1.0)
        p = success_probability(coin)
        z = exact_partition_function(h_unit, beta_coin)
        assert p * math.exp(beta_coin) * h_unit.dim == pytest.approx(z, rel=1e-12)


def test_success_probability_rejects_wide_spectrum():
    wide = Hamiltonian(2.0 * np.array([[1, 0], [0, -1]], dtype=complex), 1, 2.0)
    with pytest.raises(ValueError):
        success_probability(CoinSpec(wide, 1.0))


def test_bias_bound_for_certified_approximants():
    # |p_approx - p_ideal| <= 3 eps_prime for every certified coin
    rng = np.random.default_rng(6)
    for _ in range(20):
        beta = float(rng.uniform(0.2, 4.0))
        eps = float(10.0 ** rng.uniform(-6, -2))
        approx = chebyshev_coefficients(beta, required_degree(beta, eps))
        _, h_unit, _ = unit_ising_coin(int(rng.integers(0, 500)), 1.0)
        ideal = success_probability(CoinSpec(h_unit, beta))
        biased = success_probability(
            CoinSpec(h_unit, beta, eps_prime=eps, approximant=approx)
        )
        assert abs(biased - ideal) <= 3.0 * eps


def test_toss_all_heads_at_probability_one():
    stream = toss(zero_coin(0.0), 200, seed=1)
    assert stream.n_heads == 200


def test_toss_empty_stream():
    stream = toss(zero_coin(1.0), 0, seed=1)
    assert len(stream) == 0
    assert stream.queries_consumed == 0


def test_toss_heads_fraction_near_paper_scale_probability():
    # p = 0.38 (the hardware-experiment scale); binomial 3.4-sigma tolerance
    beta = -math.log(0.38)
    coin = zero_coin(beta)
    assert success_probability(coin) == pytest.approx(0.38, rel=1e-14)
    stream = toss(coin, 3000, seed=2024)
    assert abs(stream.n_heads / 3000 - 0.38) <= 0.03


def test_toss_determinism_and_query_accounting():
    coin, _, beta_coin = unit_ising_coin(3, 1.0)
    a = toss(coin, 500, seed=42)
    b = toss(coin, 500, seed=42)
    assert np.array_equal(a.outcomes, b.outcomes)
    c = toss(coin, 500, seed=43)
    assert not np.array_equal(a.outcomes, c.outcomes)
    assert a.queries_consumed == 500 * query_cost(beta_coin, 0.0)


def test_toss_stream_csv_export(tmp_path):
    stream = toss(zero_coin(0.5), 4, seed=9)
    path = tmp_path / "stream.csv"
    stream.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,outcome,cumulative_queries"
    assert len(lines) == 5
    q = query_cost(0.5, 0.0)
    for i, line in enumerate(lines[1:]):
        idx, outcome, cumulative = line.split(",")
        assert int(idx) == i
        assert int(outcome) in (0, 1)
        assert int(cumulative) == (i + 1) * q


def test_heads_fraction_converges():
    for p, seed in ((0.01, 11), (0.1, 12), (0.5, 13)):
        stream = toss(zero_coin(-math.log(p)) if p < 1 else zero_coin(0.0),
                      100_000, seed=seed)
        tol = 4.0 * math.sqrt(p * (1 - p) / 100_000)
        assert abs(stream.n_heads / 100_000 - p) <= tol


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
    single = uniform_schedule(3.0, 1, 1e-3)
    assert np.array_equal(single.betas, [0.0, 1.5])
    assert single.l == 1

    sched = uniform_schedule(2.0, 4, 1e-3)
    assert np.allclose(sched.betas, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)
    assert np.allclose(sched.per_step_eps, 2.5e-4, atol=0)
    assert math.fsum(np.diff(sched.betas)) == pytest.approx(1.0, rel=1e-15)
    assert sched.betas[-1] == 1.0

    with pytest.raises(ValueError):
        uniform_schedule(2.0, 0, 1e-3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(np.array([0.5, 1.0]), np.array([1e-3]))  # must start at 0
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 1.0, 0.5]), np.array([1e-3, 1e-3]))
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 1.0]), np.array([1e-3, 1e-3]))


def test_step_probability_zero_width_step():
    h = Hamiltonian(np.zeros((4, 4), dtype=complex), 2, 0.0)
    sched = Schedule(np.array([0.0, 0.0]), np.array([1e-3]))
    (p,) = sched.step_probabilities(h)
    assert p == pytest.approx(1.0, abs=1e-15)


def test_step_probability_zero_hamiltonian():
    h = Hamiltonian(np.zeros((4, 4), dtype=complex), 2, 0.0)
    sched = uniform_schedule(2.0, 4, 1e-3)
    probs = sched.step_probabilities(h)
    assert probs.shape == (4,)
    for p, width in zip(probs, sched.step_widths):
        assert p == pytest.approx(math.exp(-2.0 * width), rel=1e-14)


def test_step_probabilities_telescope_to_full_coin():
    coin, h_unit, beta_coin = unit_ising_coin(7, 1.5)
    p_full = success_probability(coin)
    for l in (1, 2, 4, 8):
        sched = uniform_schedule(beta_coin, l, 1e-6)
        product = math.prod(sched.step_probabilities(h_unit))
        assert product == pytest.approx(p_full, rel=1e-12)


def test_fragmented_single_step_equivalent_to_plain_toss():
    coin, h_unit, beta_coin = unit_ising_coin(3, 1.0)
    sched = uniform_schedule(beta_coin, 1, 1e-6)
    p = success_probability(coin)
    plain = toss(coin, 10_000, seed=5)
    target = int(round(10_000 * p))
    run = toss_fragmented(h_unit, sched, target, seed=6)
    p_value = _chi2_pvalue_2x2(plain.n_heads, len(plain), run.successes, run.attempts)
    assert p_value > 0.01


def test_fragmented_zero_hamiltonian_frequency():
    h = Hamiltonian(np.zeros((4, 4), dtype=complex), 2, 0.0)
    beta = 0.5
    sched = uniform_schedule(beta, 2, 1e-6)
    p = math.exp(-beta)
    target = int(round(5000 * p))
    run = toss_fragmented(h, sched, target, seed=21)
    sigma = math.sqrt(p * (1 - p) / run.attempts)
    assert abs(run.successes / run.attempts - p) <= 3.0 * sigma


def test_fragmented_determinism_and_query_accounting():
    _, h_unit, beta_coin = unit_ising_coin(3, 1.0)
    sched = uniform_schedule(beta_coin, 4, 1e-4)
    a = toss_fragmented(h_unit, sched, 100, seed=77)
    b = toss_fragmented(h_unit, sched, 100, seed=77)
    assert np.array_equal(a.stream.outcomes, b.stream.outcomes)
    assert np.array_equal(a.stream.per_toss_queries, b.stream.per_toss_queries)
    # total queries decompose over per-step execution counts
    costs = sched.step_query_costs()
    assert a.stream.queries_consumed == int((a.step_executions * costs).sum())
    assert a.successes == 100


def test_fragmented_average_query_bound_equal_probability_schedule():
    _, h_unit, beta_coin = unit_ising_coin(3, 1.0)
    sched = equal_step_schedule(h_unit, beta_coin, 4, 1e-4)
    probs = sched.step_probabilities(h_unit)
    assert max(probs) - min(probs) <= 1e-10
    bound = fragmented_query_bound(h_unit, sched)
    assert expected_queries_per_success(h_unit, sched) <= bound
    run = toss_fragmented(h_unit, sched, 2000, seed=31)
    assert run.queries_per_success <= 1.1 * bound


def test_fragmented_query_bound_general_form_covers_uniform_schedules():
    _, h_unit, beta_coin = unit_ising_coin(9, 1.5)
    for l in (1, 2, 4, 8):
        sched = uniform_schedule(beta_coin, l, 1e-4)
        rigorous = fragmented_query_bound(
            h_unit, sched, assume_equal_probabilities=False
        )
        assert expected_queries_per_success(h_unit, sched) <= rigorous * (1 + 1e-12)


def test_schedule_size_lower_bound_values():
    assert schedule_size_lower_bound(4, 0.0, 16.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    _, h_unit, beta_coin = unit_ising_coin(2, 2.0)
    z = exact_partition_function(h_unit, beta_coin)
    value = schedule_size_lower_bound(4, beta_coin, z, 1.0)
    direct = (4 + beta_coin * math.log2(math.e) - math.log2(z)) / 1.0
    assert value == pytest.approx(direct, rel=1e-12)
    assert schedule_size_lower_bound(4, beta_coin, z, 2.0) == pytest.approx(
        value / 2.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        schedule_size_lower_bound(4, 1.0, 16.0, 0.0)


def test_qrbm_coin_identity():
    spec = generate_random_qrbm(2, 2, 9)
    h = build_hamiltonian(spec)
    h_unit, beta_coin = rescale_to_unit_spectrum(h, 1.0)
    p = success_probability(CoinSpec(h_unit, beta_coin))
    z = exact_partition_function(h_unit, beta_coin)
    assert p * math.exp(beta_coin) * 16 == pytest.approx(z, rel=1e-12)
