import math
import warnings

import numpy as np
import pytest

from noise_reference import profile_rss, rounding_slack, rss_bound

from qcoin.noise import (
    _XI_GRID,
    FitDegenerateError,
    LayerSeries,
    fit_noise_model,
    identity_insertion_depths,
    mitigate,
    noisy_success_probability,
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
    assert fit.xi == pytest.approx(PAPER_XI, abs=1e-6)
    assert fit.p_hat == pytest.approx(PAPER_P, abs=1e-6)
    assert fit.residual_norm < 1e-10


@pytest.mark.parametrize("xi", [1e-3, PAPER_XI, 0.4])
@pytest.mark.parametrize("p", [0.02, 0.9])
def test_fit_recovers_exact_data_to_float_precision(xi, p):
    # the slope's sign locates the minimum far below the sqrt(eps) that a
    # search on the residual sum alone can resolve
    pbar = [noisy_success_probability(p, xi, d) for d in DEPTHS]
    fit = fit_noise_model(LayerSeries(np.array(DEPTHS), np.array(pbar), 3000))
    assert fit.xi == pytest.approx(xi, rel=1e-11)
    assert fit.p_hat == pytest.approx(p, rel=1e-11)


def test_fit_degenerate_series_rejected():
    series = LayerSeries(np.array(DEPTHS), np.full(len(DEPTHS), 0.5), 3000)
    with pytest.raises(FitDegenerateError):
        fit_noise_model(series)


def test_fit_needs_three_points():
    series = LayerSeries(np.array([10, 12]), np.array([0.42, 0.41]), 3000)
    with pytest.raises(ValueError):
        fit_noise_model(series)


def random_series(rng):
    """A series from the forward model at random depths, xi, p and shots."""
    depths = np.cumsum(rng.integers(1, 20, size=rng.integers(3, 9)))
    shots = int(10 ** rng.uniform(1, 5))
    xi = 10 ** rng.uniform(-4, math.log10(0.5))
    p = float(rng.uniform())
    successes = [simulate_noisy_tosses(p, xi, int(d), shots, seed=int(rng.integers(2**32)))
                 for d in depths]
    return LayerSeries(depths, np.array(successes) / shots, shots)


def test_fit_reaches_the_dense_grid_minimum():
    # 300 seeded series from the forward model, low-signal ones included:
    # the fit finds the global least-squares minimum on every one
    rng = np.random.default_rng(19)
    fitted = 0
    for _ in range(300):
        series = random_series(rng)
        try:
            fit = fit_noise_model(series)
        except FitDegenerateError:
            continue
        fitted += 1
        assert fit.residual_norm ** 2 <= rss_bound(series.depths, series.measured_p)
    assert fitted >= 290


def test_fit_is_a_minimum_of_the_profile_to_float_resolution():
    # a relative step of 1e-9 either side (1e-15 up from xi = 0) finds no
    # lower residual sum than the fitted xi's, up to rounding
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        series = random_series(rng)
        try:
            xi = fit_noise_model(series).xi
        except FitDegenerateError:
            continue
        checked += 1
        steps = [xi * (1.0 - 1e-9), xi * (1.0 + 1e-9)] if xi > 0.0 else [1e-15]
        rss = profile_rss([xi, *[min(step, 1.0) for step in steps]], series.depths,
                          series.measured_p)
        assert rss[0] <= rounding_slack(rss[1:].min(), series.depths), (xi, rss)
    assert checked >= 190


def test_fit_iterations_count_the_evaluations_made():
    # 1,024 grid points and 2 candidates, plus 2 or more slope evaluations
    counts = []
    for xi in (PAPER_XI, 0.0):
        pbar = [noisy_success_probability(PAPER_P, xi, d) for d in DEPTHS]
        counts.append(fit_noise_model(LayerSeries(np.array(DEPTHS), np.array(pbar),
                                                  3000)).iterations)
    assert counts[0] != counts[1]
    assert all(len(_XI_GRID) + 4 <= count <= 1100 for count in counts), counts


def test_fit_next_to_xi_one_raises_no_warning():
    # the grid's least residual sum is at its last point but one, so the root
    # search brackets xi = 1, where log(1 - xi) = -inf and every decay is 0
    depths, measured = np.array([1, 2, 3]), np.array([106, 109, 106]) / 214
    assert int(np.argmin(profile_rss(_XI_GRID, depths, measured))) == len(_XI_GRID) - 2
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        fit = fit_noise_model(LayerSeries(depths, measured, 214))
    assert fit.residual_norm ** 2 <= rss_bound(depths, measured)


@pytest.mark.parametrize("depths, successes, shots", [
    ([13, 25, 55], [4, 2, 4], 7),
    ([32435, 32463, 32488, 32491, 32510, 32543, 32551],
     [4620, 4610, 4638, 4681, 4701, 4623, 4720], 9312),
    ([114, 120, 121, 133, 169, 187, 203, 240],
     [24588, 24686, 24639, 24744, 24728, 24680, 24731, 24599], 49460),
    ([286206, 286232, 286246, 286267, 286279, 286318, 286331], [2] * 7, 3),
], ids=["two-basins", "deep-clipped-p", "noise-only", "deep-exact-at-zero"])
def test_fit_reaches_the_dense_grid_minimum_on_hard_series(depths, successes, shots):
    # the first three have their minimum where p is clipped to 0 or 1, in a
    # basin a few percent of xi wide, beside a second basin or a plateau; the
    # last fits exactly at xi = 0, where the profile's slope is all rounding
    series = LayerSeries(np.array(depths), np.array(successes) / shots, shots)
    fit = fit_noise_model(series)
    assert fit.residual_norm ** 2 <= rss_bound(depths, series.measured_p)


def test_fit_shot_noise_calibration_short():
    hits = 0
    for i in range(60):
        series = synthetic_series(PAPER_XI, PAPER_P, 3000, seed=900 + i)
        fit = fit_noise_model(series)
        hits += abs(fit.xi - PAPER_XI) <= 2.0 * fit.xi_sigma
    assert hits / 60 >= 0.85


def test_fit_sigma_is_often_large_at_paper_scale():
    # hardware-scale shot counts leave xi only loosely determined
    large = 0
    for i in range(100):
        series = synthetic_series(PAPER_XI, PAPER_P, 3000, seed=4000 + i)
        fit = fit_noise_model(series)
        large += fit.xi_sigma / PAPER_XI > 0.5
    assert large / 100 >= 0.10


def test_fit_consistency_more_shots_tighter():
    errs = {}
    for shots in (3000, 300_000):
        deviations = []
        for i in range(80):
            series = synthetic_series(PAPER_XI, PAPER_P, shots, seed=7000 + i)
            fit = fit_noise_model(series)
            deviations.append(abs(fit.xi - PAPER_XI))
        errs[shots] = float(np.median(deviations))
    assert errs[3000] >= 5.0 * errs[300_000]


def test_mitigate_identity_and_round_trip():
    value, _, clamped = mitigate(0.37, 0.0, 0.0, 0.0, 12)
    assert value == 0.37 and not clamped

    rng = np.random.default_rng(5)
    for _ in range(100):
        p = float(rng.uniform())
        xi = float(rng.uniform(0.0, 0.5))
        layers = int(rng.integers(0, 13))
        pbar = noisy_success_probability(p, xi, layers)
        assert mitigate(pbar, 0.0, xi, 0.0, layers)[0] == pytest.approx(p, abs=1e-12)


def test_mitigate_frozen_example_and_errors():
    value, _, clamped = mitigate(PBAR_EXAMPLE, 0.0, PAPER_XI, 0.0, 10)
    assert value == pytest.approx(PAPER_P, abs=1e-12)
    assert not clamped
    for xi in (1.0, 1.5):
        with pytest.raises(ValueError, match="xi = 1 leaves no signal"):
            mitigate(0.4, 0.0, xi, 0.0, 10)
    with pytest.raises(ValueError, match="layers must be non-negative"):
        mitigate(0.4, 0.0, PAPER_XI, 0.0, -1)
    with pytest.raises(ValueError, match="p_sigma must be non-negative"):
        mitigate(0.4, -0.01, PAPER_XI, 0.0, 10)


def test_mitigate_clamps_out_of_range():
    # measured value beyond the physical band must clamp and flag
    value, _, clamped = mitigate(0.95, 0.0, 0.2, 0.0, 10)
    assert clamped and value == 1.0
    value, _, clamped = mitigate(0.05, 0.0, 0.2, 0.0, 10)
    assert clamped and value == 0.0


def test_propagate_uncertainty_known_cases():
    sigma = mitigate(0.4, 0.02, 0.1, 0.0, 8)[1]
    assert sigma == pytest.approx(0.02 / (1 - 0.1) ** 8, rel=1e-12)
    assert mitigate(0.4, 0.0, 0.1, 0.0, 8)[1] == 0.0


def test_propagate_uncertainty_matches_finite_differences():
    xi, xi_sigma = PAPER_XI, 0.028
    measured, sigma_p, layers = PBAR_EXAMPLE, 0.009, 10
    analytic = mitigate(measured, sigma_p, xi, xi_sigma, layers)[1]
    step = 1e-6
    d_p = (
        mitigate(measured + step, 0.0, xi, 0.0, layers)[0]
        - mitigate(measured - step, 0.0, xi, 0.0, layers)[0]
    ) / (2 * step)
    d_xi = (
        mitigate(measured, 0.0, xi + step, 0.0, layers)[0]
        - mitigate(measured, 0.0, xi - step, 0.0, layers)[0]
    ) / (2 * step)
    numeric = math.hypot(d_p * sigma_p, d_xi * xi_sigma)
    assert analytic == pytest.approx(numeric, rel=0.05)


def test_layer_series_validation():
    with pytest.raises(ValueError):
        LayerSeries(np.array([10, 10, 12]), np.array([0.4, 0.41, 0.42]), 100)
    with pytest.raises(ValueError):
        LayerSeries(np.array([10, 12]), np.array([0.4, 1.2]), 100)
    with pytest.raises(ValueError):
        LayerSeries(np.array([0, 2]), np.array([0.4, 0.41]), 100)
