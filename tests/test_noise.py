import math

import numpy as np
import pytest

from qcoin.noise import (
    FitConvergenceError,
    FitDegenerateError,
    LayerSeries,
    NoiseModel,
    fit_noise_model,
    identity_insertion_depths,
    mitigate,
    noisy_success_probability,
    propagate_uncertainty,
    simulate_noisy_tosses,
)

# (1 - 0.037)^10 and the forward-model value at p = 0.38, frozen from
# 30-digit arithmetic
DECAY_10 = 0.685903266700323
PBAR_EXAMPLE = 0.417691607995961

PAPER_XI = 0.037
PAPER_P = 0.38
DEPTHS = identity_insertion_depths(10, 5)


def synthetic_series(xi, p, shots, seed):
    rng = np.random.default_rng(seed)
    pbar = [noisy_success_probability(p, xi, d) for d in DEPTHS]
    successes = rng.binomial(shots, pbar)
    return LayerSeries(np.array(DEPTHS), successes / shots, shots)


def test_noisy_probability_identity_cases():
    for layers in (0, 1, 10, 50):
        assert noisy_success_probability(0.9, 0.0, layers) == 0.9
    for xi in (0.0, 0.1, 0.7):
        for layers in (0, 3, 20):
            assert noisy_success_probability(0.5, xi, layers) == 0.5


def test_noisy_probability_frozen_example():
    value = noisy_success_probability(PAPER_P, PAPER_XI, 10)
    assert value == pytest.approx(PBAR_EXAMPLE, rel=1e-12)
    assert (1 - PAPER_XI) ** 10 == pytest.approx(DECAY_10, rel=1e-12)


def test_noisy_probability_validation():
    with pytest.raises(ValueError):
        noisy_success_probability(1.2, 0.1, 3)
    with pytest.raises(ValueError):
        noisy_success_probability(0.5, -0.1, 3)
    with pytest.raises(ValueError):
        noisy_success_probability(0.5, 0.1, -1)


def test_contraction_is_exact():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = float(rng.uniform())
        xi = float(rng.uniform(0.0, 0.9))
        layers = int(rng.integers(0, 30))
        pbar = noisy_success_probability(p, xi, layers)
        assert abs(abs(pbar - 0.5) - (1 - xi) ** layers * abs(p - 0.5)) <= 1e-14


def test_large_depth_limit():
    for xi in (0.01, 0.1, 0.5):
        layers = math.ceil(1e6 / xi)
        assert abs(noisy_success_probability(0.9, xi, layers) - 0.5) < 1e-6


def test_simulate_noisy_tosses():
    assert simulate_noisy_tosses(0.4, 0.1, 5, 0, seed=1) == 0
    assert simulate_noisy_tosses(1.0, 0.0, 5, 300, seed=1) == 300
    successes = simulate_noisy_tosses(PAPER_P, PAPER_XI, 10, 3000, seed=77)
    assert abs(successes / 3000 - PBAR_EXAMPLE) <= 0.03
    assert simulate_noisy_tosses(0.4, 0.1, 5, 100, seed=4) == simulate_noisy_tosses(
        0.4, 0.1, 5, 100, seed=4
    )
    with pytest.raises(ValueError, match=r"shots = 9223372036854775808 exceeds 2\^63 - 1"):
        simulate_noisy_tosses(0.4, 0.1, 5, 2**63, seed=1)


def test_identity_insertion_depths():
    assert identity_insertion_depths(10, 5) == [10, 12, 14, 16, 18, 20]
    assert identity_insertion_depths(10, 0) == [10]
    assert identity_insertion_depths(1, 2) == [1, 3, 5]
    with pytest.raises(ValueError):
        identity_insertion_depths(0, 2)
    with pytest.raises(ValueError):
        identity_insertion_depths(10, -1)


def test_fit_recovers_exact_data():
    pbar = [noisy_success_probability(PAPER_P, PAPER_XI, d) for d in DEPTHS]
    series = LayerSeries(np.array(DEPTHS), np.array(pbar), 3000)
    fit = fit_noise_model(series)
    assert fit.model.xi == pytest.approx(PAPER_XI, abs=1e-6)
    assert fit.p_hat == pytest.approx(PAPER_P, abs=1e-6)
    assert fit.residual_norm < 1e-10


def test_fit_degenerate_series_rejected():
    series = LayerSeries(np.array(DEPTHS), np.full(len(DEPTHS), 0.5), 3000)
    with pytest.raises(FitDegenerateError):
        fit_noise_model(series)


def test_fit_needs_three_points():
    series = LayerSeries(np.array([10, 12]), np.array([0.42, 0.41]), 3000)
    with pytest.raises(ValueError):
        fit_noise_model(series)


def test_fit_shot_noise_calibration_short():
    hits = 0
    for i in range(60):
        series = synthetic_series(PAPER_XI, PAPER_P, 3000, seed=900 + i)
        try:
            fit = fit_noise_model(series)
        except FitConvergenceError as err:
            fit = err.best
        hits += abs(fit.model.xi - PAPER_XI) <= 2.0 * fit.model.xi_sigma
    assert hits / 60 >= 0.85


def test_fit_sigma_is_often_large_at_paper_scale():
    # hardware-scale shot counts leave xi only loosely determined
    large = 0
    for i in range(100):
        series = synthetic_series(PAPER_XI, PAPER_P, 3000, seed=4000 + i)
        try:
            fit = fit_noise_model(series)
        except FitConvergenceError as err:
            fit = err.best
        large += fit.model.xi_sigma / PAPER_XI > 0.5
    assert large / 100 >= 0.10


def test_fit_consistency_more_shots_tighter():
    errs = {}
    for shots in (3000, 300_000):
        deviations = []
        for i in range(80):
            series = synthetic_series(PAPER_XI, PAPER_P, shots, seed=7000 + i)
            try:
                fit = fit_noise_model(series)
            except FitConvergenceError as err:
                fit = err.best
            deviations.append(abs(fit.model.xi - PAPER_XI))
        errs[shots] = float(np.median(deviations))
    assert errs[3000] >= 5.0 * errs[300_000]


def test_mitigate_identity_and_round_trip():
    model = NoiseModel(xi=0.0)
    value, clamped = mitigate(0.37, model, 12)
    assert value == 0.37 and not clamped

    rng = np.random.default_rng(5)
    for _ in range(100):
        p = float(rng.uniform())
        xi = float(rng.uniform(0.0, 0.5))
        layers = int(rng.integers(0, 13))
        pbar = noisy_success_probability(p, xi, layers)
        back, _ = mitigate(pbar, NoiseModel(xi=xi), layers)
        assert back == pytest.approx(p, abs=1e-12)


def test_mitigate_frozen_example_and_errors():
    value, clamped = mitigate(PBAR_EXAMPLE, NoiseModel(xi=PAPER_XI), 10)
    assert value == pytest.approx(PAPER_P, abs=1e-12)
    assert not clamped
    with pytest.raises(ValueError):
        mitigate(0.4, NoiseModel(xi=1.0), 10)


def test_mitigate_clamps_out_of_range():
    # measured value beyond the physical band must clamp and flag
    value, clamped = mitigate(0.95, NoiseModel(xi=0.2), 10)
    assert clamped and value == 1.0
    value, clamped = mitigate(0.05, NoiseModel(xi=0.2), 10)
    assert clamped and value == 0.0


def test_propagate_uncertainty_known_cases():
    model = NoiseModel(xi=0.1, xi_sigma=0.0)
    sigma = propagate_uncertainty(0.4, 0.02, model, 8)
    assert sigma == pytest.approx(0.02 / (1 - 0.1) ** 8, rel=1e-12)
    assert propagate_uncertainty(0.4, 0.0, NoiseModel(0.1, 0.0), 8) == 0.0


def test_propagate_uncertainty_matches_finite_differences():
    model = NoiseModel(xi=PAPER_XI, xi_sigma=0.028)
    measured, sigma_p, layers = PBAR_EXAMPLE, 0.009, 10
    analytic = propagate_uncertainty(measured, sigma_p, model, layers)
    step = 1e-6
    d_p = (
        mitigate(measured + step, model, layers)[0]
        - mitigate(measured - step, model, layers)[0]
    ) / (2 * step)
    d_xi = (
        mitigate(measured, NoiseModel(model.xi + step), layers)[0]
        - mitigate(measured, NoiseModel(model.xi - step), layers)[0]
    ) / (2 * step)
    numeric = math.hypot(d_p * sigma_p, d_xi * model.xi_sigma)
    assert analytic == pytest.approx(numeric, rel=0.05)


def test_layer_series_validation():
    with pytest.raises(ValueError):
        LayerSeries(np.array([10, 10, 12]), np.array([0.4, 0.41, 0.42]), 100)
    with pytest.raises(ValueError):
        LayerSeries(np.array([10, 12]), np.array([0.4, 1.2]), 100)
    with pytest.raises(ValueError):
        LayerSeries(np.array([0, 2]), np.array([0.4, 0.41]), 100)
    with pytest.raises(ValueError):
        NoiseModel(xi=1.5)
