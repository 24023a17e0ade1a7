"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from approximant import biased_heads_probability, chebyshev_coefficients
from qcoin.coin import (
    equal_step_schedule,
    fragmented_query_bound,
    query_cost,
    toss_fragmented,
    uniform_schedule,
)
from qcoin.estimators import (
    algorithm1,
    algorithm2,
    expected_total_tosses_thm2,
    sample_count_thm1,
    success_count_thm2,
    z_quantile,
)
from qcoin.experiments import ExperimentConfig, run_sweep
from qcoin.hamiltonian import (
    generate_random_ising_graph,
    generate_random_qrbm,
    unit_spectrum,
)
from qcoin.noise import (
    LayerSeries,
    NoiseModel,
    fit_noise_model,
    identity_insertion_depths,
    mitigate,
    noisy_success_probability,
)
from qcoin.oracle import exact_partition_function, ideal_coin_probability
from qcoin.propagator import required_degree


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def rep_seeds(root, count):
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(root).spawn(count)]


def random_unit_spectrum(index, seed):
    """Alternate Ising / QRBM instances, rescaled to unit spectrum."""
    if index % 2 == 0:
        return unit_spectrum(generate_random_ising_graph(3 + index % 4 // 2, seed))
    return unit_spectrum(generate_random_qrbm(2, 1 + index % 4 // 2, seed))


def standard_ising_coin(beta=1.0, seed=123):
    """Heads probability and per-toss cost of the standard 4-qubit Ising coin,
    with its spectrum and coin beta."""
    spectrum = unit_spectrum(generate_random_ising_graph(4, seed))
    beta_coin = spectrum.norm_bound * beta
    p = ideal_coin_probability(spectrum, beta_coin)
    return p, query_cost(beta_coin, 0.0), spectrum, beta_coin


def test_eq4_identity():
    """exp(beta) 2^n p_suc equals the exact partition function, 1e-12 relative."""
    with criterion("Eq.4 identity (100 random H, beta in [0,10])"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for index in range(100):
            spectrum = random_unit_spectrum(index, int(rng.integers(0, 2**31)))
            beta = float(rng.uniform(0.0, 10.0))
            p = ideal_coin_probability(spectrum, beta)
            z = exact_partition_function(spectrum, beta)
            assert p * math.exp(beta) * spectrum.dim == pytest.approx(z, rel=1e-12)
        assert time.monotonic() - start < 10.0


def test_bias_bound():
    """|p_approx - p_ideal| <= 3 eps' for 50 certified approximants."""
    with criterion("Bias bound |p~ - p| <= 3 eps'"):
        start = time.monotonic()
        rng = np.random.default_rng(7)
        for index in range(50):
            beta = float(rng.uniform(0.1, 5.0))
            eps = float(10.0 ** rng.uniform(-6.0, -1.5))
            approx = chebyshev_coefficients(beta, required_degree(beta, eps))
            spectrum = random_unit_spectrum(index, int(rng.integers(0, 2**31)))
            ideal = ideal_coin_probability(spectrum, beta)
            biased = biased_heads_probability(spectrum, approx)
            assert abs(biased - ideal) <= 3.0 * eps
        assert time.monotonic() - start < 30.0


def test_thm1_coverage():
    """Fixed-budget estimator: relative error <= 0.2 in >= 93% of 400 runs."""
    with criterion("Thm.1 coverage (400 reps, eps_r=0.2, delta=0.05)"):
        p, q, _, _ = standard_ising_coin(beta=1.0, seed=123)
        budget = sample_count_thm1(p, 0.2, 0.05)
        est = algorithm1(p, q, budget, 0.05, seed=99, reps=400)
        hits = np.count_nonzero(np.abs(est.value - p) <= 0.2 * p)
        assert hits / 400 >= 0.93


def test_thm2_coverage_and_cost():
    """Waiting-time estimator: coverage >= 70% and mean cost on prediction."""
    with criterion("Thm.2 coverage and mean total tosses (400 reps)"):
        p, q, _, _ = standard_ising_coin(beta=1.0, seed=123)
        budget = success_count_thm2(0.2, 0.25)
        assert budget == 100
        est = algorithm2(p, q, budget, seed=7, delta=0.25, reps=400)
        hits = np.count_nonzero(np.abs(est.value - p) <= 0.2 * p)
        assert hits / 400 >= 0.70
        predicted = expected_total_tosses_thm2(p, 0.2, 0.25)
        assert predicted == pytest.approx(budget / p, rel=1e-12)
        sigma_mean = math.sqrt(budget * (1.0 - p) / p**2 / 400)
        assert abs(est.samples_used / 400 - predicted) <= 3.0 * sigma_mean


def test_quantiles():
    """z(0.05) = 1.96 +- 0.005 and z(1e-9) = 6.11 +- 0.01."""
    with criterion("Normal quantiles z(0.05), z(1e-9)"):
        assert abs(z_quantile(0.05) - 1.96) <= 0.005
        assert abs(z_quantile(1e-9) - 6.11) <= 0.01


def test_eq12_scaling():
    """Degree scaling: sqrt-like in beta; linear in log(1/eps)."""
    with criterion("Degree scaling in beta and log(1/eps')"):
        betas = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
        degrees = [required_degree(b, 1e-4) for b in betas]
        slope = float(np.polyfit(np.log(betas), np.log(degrees), 1)[0])
        assert 0.4 <= slope <= 0.6

        for beta in (1.0, 4.0, 16.0, 64.0):
            eps_values = [10.0**-k for k in range(2, 13, 2)]
            ds = np.array([required_degree(beta, e) for e in eps_values])
            x = np.log([1.0 / e for e in eps_values])
            fit = np.polyfit(x, ds, 1)
            resid = ds - np.polyval(fit, x)
            r2 = 1.0 - float(np.sum(resid**2) / np.sum((ds - ds.mean()) ** 2))
            assert r2 >= 0.98


def test_fragmentation():
    """Step-probability product, sampler frequency, and query-cost bound."""
    with criterion("Fragmented coin: product identity, sampler, query bound"):
        p_full, _, spectrum, beta_coin = standard_ising_coin(beta=1.0, seed=123)
        for l in (1, 2, 4, 8):
            sched = uniform_schedule(spectrum, beta_coin, l, 1e-6)
            product = math.prod(sched.step_probabilities)
            assert product == pytest.approx(p_full, rel=1e-12)

        # ~1e4 traversals of the 4-step schedule
        sched = uniform_schedule(spectrum, beta_coin, 4, 1e-6)
        target = int(round(10_000 * p_full))
        run = toss_fragmented(sched, target, seed=42)
        freq = run.successes / run.attempts
        sigma = math.sqrt(p_full * (1.0 - p_full) / run.attempts)
        assert abs(freq - p_full) <= 3.0 * sigma

        # equal-probability schedule: average queries within 10% of the bound
        eq_sched = equal_step_schedule(spectrum, beta_coin, 4, 1e-4)
        probs = eq_sched.step_probabilities
        assert max(probs) - min(probs) <= 1e-9
        bound = fragmented_query_bound(eq_sched)
        eq_run = toss_fragmented(eq_sched, 2000, seed=31)
        assert eq_run.queries_per_success <= 1.1 * bound


def test_noise_round_trip_and_fit_recovery():
    """Mitigation inverts the noise map; synthetic fit recovers xi*."""
    with criterion("Noise round trip (1e4 triples) and fit recovery (500 trials)"):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            # conditioning: (1-xi)^L >= ~3e-4 keeps the exact inverse
            # representable at the 1e-12 tolerance in double precision
            p = float(rng.uniform())
            xi = float(rng.uniform(0.0, 0.5))
            layers = int(rng.integers(0, 13))
            pbar = noisy_success_probability(p, xi, layers)
            back, _ = mitigate(pbar, NoiseModel(xi=xi), layers)
            assert abs(back - p) <= 1e-12

        depths = identity_insertion_depths(10, 5)
        xi_true, p_true, shots = 0.037, 0.38, 3000
        pbar = np.array(
            [noisy_success_probability(p_true, xi_true, d) for d in depths]
        )
        hits = 0
        trials = 500
        for seed in rep_seeds(3, trials):
            trial_rng = np.random.default_rng(seed)
            successes = trial_rng.binomial(shots, pbar)
            series = LayerSeries(np.array(depths), successes / shots, shots)
            fit = fit_noise_model(series)
            hits += abs(fit.model.xi - xi_true) <= 2.0 * fit.model.xi_sigma
        assert hits / trials >= 0.90


def test_fig3_style_sweep(tmp_path):
    """Mitigated sampled curves track the exact curves within 2 sigma."""
    with criterion("End-to-end sweep: mitigated vs exact within 2 sigma (>=90%)"):
        start = time.monotonic()
        cases = {
            "ising": ExperimentConfig(
                model="ising", n_qubits=4, instances=5,
                betas=(0.2, 1.0, 2.0, 4.0, 10.0), shots=3000, xi=0.037,
                layers=10, seed=2,
            ),
            "qrbm": ExperimentConfig(
                model="qrbm", n_visible=2, n_hidden=2, instances=5,
                betas=(0.02, 0.2, 0.5, 1.0, 1.6), shots=3000, xi=0.037,
                layers=10, seed=2,
            ),
        }
        for name, config in cases.items():
            out = tmp_path / name
            run_sweep(config, out)
            lines = (out / "sweep.csv").read_text().strip().splitlines()
            idx = {col: i for i, col in enumerate(lines[0].split(","))}
            agree = 0
            total = 0
            for line in lines[1:]:
                cells = line.split(",")
                if cells[idx["instance"]] == "mean":
                    continue
                total += 1
                gap = abs(
                    float(cells[idx["p_mitigated"]]) - float(cells[idx["p_exact"]])
                )
                agree += gap <= 2.0 * float(cells[idx["p_mitigated_sigma"]])
            assert total == 25
            assert agree / total >= 0.90
        assert time.monotonic() - start < 300.0
