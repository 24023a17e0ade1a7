import math

import numpy as np
import pytest

from approximant import chebyshev_coefficients, modified_bessel_i, reference_degree
from dense_oracle import Hamiltonian, apply_approximant, build_ising, exact_propagator
from qcoin.hamiltonian import generate_random_ising_graph, unit_spectrum
from qcoin.oracle import exact_partition_function
from qcoin.propagator import (
    _DEGREE_CAP,
    eps_prime_for_relative_error,
    required_degree,
    subnormalized_coefficients,
)

Z1 = Hamiltonian(np.array([[1, 0], [0, -1]], dtype=complex), 1, 1.0)

# Reference I_k(x) values computed with 30-digit arbitrary-precision
# arithmetic (mpmath), frozen here; validates the series implementation.
BESSEL_TABLE = [
    (0, 0.5, 1.06348337074132352),
    (1, 0.5, 0.257894305390896316),
    (5, 0.5, 8.22317131310926396e-6),
    (2, 0.05, 0.000312565109253141655),
    (0, 2.0, 2.27958530233606727),
    (3, 2.0, 0.212739959239852655),
    (10, 2.0, 3.01696387935068437e-7),
    (0, 10.0, 2815.71662846625447),
    (7, 10.0, 238.025584775781995),
    (20, 10.0, 0.000125079973564494756),
    (15, 30.0, 18666616963.4186072),
    (40, 30.0, 24.0556976395338813),
    (0, 64.0, 3.11545791818789756e26),
    (25, 64.0, 2.4159904282561589e24),
    (60, 64.0, 855059596680598.559),
    (4, 128.0, 1.2887731186343227e54),
    (80, 128.0, 3.64768192405547655e43),
]


def unit_ising(n, seed):
    """Dense H / L of a random Ising instance."""
    h = build_ising(generate_random_ising_graph(n, seed))
    return Hamiltonian(h.matrix / h.norm_bound, n, 1.0)


def test_bessel_against_high_precision_table():
    for order, x, expected in BESSEL_TABLE:
        assert modified_bessel_i(order, x) == pytest.approx(expected, rel=1e-12)


def test_bessel_parity_and_edge_cases():
    assert modified_bessel_i(0, 0.0) == 1.0
    assert modified_bessel_i(3, 0.0) == 0.0
    assert modified_bessel_i(2, -1.5) == modified_bessel_i(2, 1.5)
    assert modified_bessel_i(3, -1.5) == -modified_bessel_i(3, 1.5)
    with pytest.raises(ValueError):
        modified_bessel_i(-1, 1.0)


def test_exact_propagator_identity_at_beta_zero():
    prop = exact_propagator(unit_ising(3, 0), 0.0)
    assert np.allclose(prop, np.eye(8), atol=1e-12)


def test_exact_propagator_single_qubit_frozen():
    prop = exact_propagator(Z1, 2.0)
    assert np.allclose(prop, np.diag([math.exp(-1.0), math.exp(1.0)]), atol=1e-12)


def test_exact_propagator_semigroup_property():
    for seed in range(5):
        h = unit_ising(3, seed)
        half = exact_propagator(h, 1.4)
        full = exact_propagator(h, 2.8)
        assert np.linalg.norm(half @ half - full, ord=2) <= 1e-10


def test_exact_propagator_commutes_with_hamiltonian():
    h = unit_ising(4, 3)
    m = exact_propagator(h, 2.0)
    assert np.linalg.norm(m @ h.matrix - h.matrix @ m, ord=2) <= 1e-9


def test_exact_propagator_rejects_negative_beta():
    with pytest.raises(ValueError):
        exact_propagator(Z1, -0.1)


def test_chebyshev_coefficients_beta_zero():
    approx = chebyshev_coefficients(0.0, 0)
    assert np.array_equal(approx.coefficients, [1.0])
    assert approx.certified_error == 0.0


def test_chebyshev_coefficients_match_quadrature_oracle():
    # Independent route: Chebyshev-Gauss quadrature for the series
    # coefficients c_k = (2 - delta_k0)/M * sum_j f(cos t_j) cos(k t_j)
    beta = 1.7
    m = 4096
    theta = np.pi * (np.arange(m) + 0.5) / m
    fx = np.exp(-beta * np.cos(theta) / 2.0)
    approx = chebyshev_coefficients(beta, 8)
    for k in range(9):
        ck = (2.0 - (k == 0)) / m * float(np.sum(fx * np.cos(k * theta)))
        assert approx.coefficients[k] == pytest.approx(ck, rel=1e-10)


def test_certified_error_monotone_in_degree():
    errors = [chebyshev_coefficients(1.0, d).certified_error for d in range(31)]
    assert all(a >= b for a, b in zip(errors, errors[1:]))


def test_midpoint_value_within_certified_error():
    for beta in (0.5, 1.0, 4.0):
        approx = chebyshev_coefficients(beta, 18)
        value = float(approx.evaluate(0.0))
        assert abs(value - 1.0) <= approx.certified_error * math.exp(beta / 2.0) + 1e-15


def test_required_degree_basics():
    assert required_degree(0.0, 1e-6) == 0
    with pytest.raises(ValueError):
        required_degree(2.0, 0.0)
    with pytest.raises(ValueError):
        required_degree(2.0, 1.5)
    with pytest.raises(ValueError):
        required_degree(-1.0, 1e-3)


def test_required_degree_is_minimal_and_certified():
    for beta, eps in [(0.5, 1e-3), (2.0, 1e-8), (10.0, 1e-6), (40.0, 1e-10)]:
        d = required_degree(beta, eps)
        assert chebyshev_coefficients(beta, d).certified_error <= eps
        if d > 0:
            assert chebyshev_coefficients(beta, d - 1).certified_error > eps


def test_required_degree_monotonicity():
    eps_values = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
    degrees = [required_degree(3.0, e) for e in eps_values]
    assert all(a <= b for a, b in zip(degrees, degrees[1:]))
    betas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    degrees_b = [required_degree(b, 1e-6) for b in betas]
    assert all(a <= b for a, b in zip(degrees_b, degrees_b[1:]))


def test_required_degree_log_eps_growth():
    # halving eps repeatedly adds at most a constant number of degrees
    for beta in (1.0, 8.0):
        eps = 1e-2
        prev = required_degree(beta, eps)
        while eps > 1e-11:
            eps /= 2.0
            cur = required_degree(beta, eps)
            assert 0 <= cur - prev <= 4
            prev = cur


def test_required_degree_sqrt_beta_scaling():
    for beta in (1.0, 4.0, 16.0, 64.0):
        d1 = required_degree(beta, 1e-8)
        d4 = required_degree(4.0 * beta, 1e-8)
        assert d4 <= 1.5 * 2.0 * d1  # sqrt scaling within factor 1.5


def test_required_degree_within_asymptotic_envelope():
    # d <= C (sqrt(beta/2) + 1)(log(1/eps) + 1) with implementation constant C = 2
    for beta in (0.5, 1.0, 4.0, 16.0, 64.0, 256.0):
        for eps in (1e-2, 1e-6, 1e-12):
            d = required_degree(beta, eps)
            envelope = 2.0 * (math.sqrt(beta / 2.0) + 1.0) * (math.log(1.0 / eps) + 1.0)
            assert d <= envelope


def test_required_degree_accepts_tiny_eps_for_cost_accounting():
    # below the grid noise floor the tail-bound certificate must take over
    d = required_degree(5.0, 1e-16)
    assert d > required_degree(5.0, 1e-10)


def test_required_degree_equals_reference_rule():
    # the tests' reference certifies by grid error or power-series tail; its
    # I_0(beta/2) overflows past beta ~1,430
    for beta in np.geomspace(0.01, 1400.0, 32):
        for eps in np.geomspace(0.9, 1e-40, 12):
            beta, eps = float(beta), float(eps)
            assert required_degree(beta, eps) == reference_degree(beta, eps), (beta, eps)


def test_subnormalized_coefficients_match_power_series():
    # the window's last few entries carry the recurrence's start-up error;
    # every entry 1e6 times above the floor, the range a certification at
    # eps_prime = 1e6 * floor reads, matches the power series
    floor = 1e-30
    for b in np.geomspace(0.005, 700.0, 24):
        b = float(b)
        mags = subnormalized_coefficients(b, floor)
        assert mags[-1] < floor
        scale = math.exp(-b)
        for k in np.flatnonzero(mags >= 1e6 * floor):
            expected = (2.0 - (k == 0)) * modified_bessel_i(int(k), b) * scale
            assert mags[k] == pytest.approx(expected, rel=1e-12), (b, k)


def test_required_degree_past_float64_bessel_range():
    # I_k(beta/2) overflows float64 here; the tail is checked against the
    # exponentially scaled Bessel functions ive(k, b) = I_k(b) exp(-b)
    special = pytest.importorskip("scipy.special")
    for beta in (1653.17, 1e4, 1e5):
        b = beta / 2.0
        for eps in (1e-4, 1e-16, 1e-40):
            d = required_degree(beta, eps)
            terms = 2.0 * special.ive(np.arange(d, 4 * d + 100), b)
            tail = float(terms[1:].sum())
            assert tail <= eps * (1.0 + 1e-9) < tail + terms[0], (beta, eps)


def test_required_degree_down_to_the_smallest_float():
    # floors below the smallest normal float still end the window, and the
    # degree keeps growing as eps_prime shrinks
    for beta in (1.0, 1e3, 1e5):
        degrees = [required_degree(beta, eps) for eps in (1e-300, 1e-305, 1e-310, 5e-324)]
        assert all(a < b for a, b in zip(degrees, degrees[1:])), (beta, degrees)


def test_required_degree_past_the_cap_is_refused(monkeypatch):
    # the window is checked against the cap before its arrays exist
    monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("allocated"))
    for beta in (3e7, 1e12, 1e308):
        with pytest.raises(ValueError, match=f"exceeds the degree cap {_DEGREE_CAP}"):
            required_degree(beta, 1e-16)


def test_apply_approximant_zero_hamiltonian():
    h = Hamiltonian(np.zeros((4, 4), dtype=complex), 2, 0.0)
    approx = chebyshev_coefficients(1.2, 10)
    out = apply_approximant(approx, h)
    assert np.allclose(out, float(approx.evaluate(0.0)) * np.eye(4), atol=1e-12)


def test_apply_approximant_single_qubit_within_bound():
    approx = chebyshev_coefficients(1.0, 10)
    out = apply_approximant(approx, Z1)
    target = np.diag([math.exp(-0.5), math.exp(0.5)])
    bound = approx.certified_error * math.exp(0.5)
    assert np.linalg.norm(out - target, ord=2) <= bound + 1e-15


def test_apply_approximant_eigen_vs_clenshaw():
    for seed in range(3):
        h = unit_ising(3, seed)
        approx = chebyshev_coefficients(2.0, 12)
        a = apply_approximant(approx, h, method="eigen")
        b = apply_approximant(approx, h, method="clenshaw")
        assert np.linalg.norm(a - b, ord=2) <= 1e-9
    with pytest.raises(ValueError):
        apply_approximant(approx, h, method="other")


def test_apply_approximant_rejects_wide_spectrum():
    wide = Hamiltonian(2.0 * np.array([[1, 0], [0, -1]], dtype=complex), 1, 2.0)
    with pytest.raises(ValueError):
        apply_approximant(chebyshev_coefficients(1.0, 5), wide)


def test_spectral_distance_bound_on_random_hamiltonians():
    # certified_error is a grid maximum; eigenvalues falling between grid
    # points can exceed it by at most the Chebyshev sampling factor
    # sec(pi (d + slack) / (2 M)) for an error function of effective degree ~d
    rng = np.random.default_rng(77)
    for _ in range(50):
        beta = float(rng.uniform(0.1, 6.0))
        degree = int(rng.integers(2, 25))
        h = unit_ising(3, int(rng.integers(0, 1000)))
        approx = chebyshev_coefficients(beta, degree)
        out = apply_approximant(approx, h)
        exact = exact_propagator(h, beta)
        grid_factor = 1.0 / math.cos(math.pi * (degree + 16) / (2.0 * 10_000))
        bound = approx.certified_error * math.exp(beta / 2.0) * grid_factor
        assert np.linalg.norm(out - exact, ord=2) <= bound + 1e-14


def test_subnormalized_approximant_bounded():
    rng = np.random.default_rng(13)
    for _ in range(20):
        beta = float(rng.uniform(0.0, 5.0))
        degree = int(rng.integers(0, 30))
        approx = chebyshev_coefficients(beta, degree)
        h = unit_ising(3, int(rng.integers(0, 100)))
        evals, _ = h.eigensystem()
        values = math.exp(-beta / 2.0) * np.asarray(approx.evaluate(evals))
        assert np.abs(values).max() <= 1.0 + approx.certified_error + 1e-12


def test_trace_derivative_finite_difference():
    # d/dbeta Tr[exp(-beta H)] equals -Tr[H exp(-beta H)]
    for seed in range(10):
        spectrum = unit_spectrum(generate_random_ising_graph(3, seed))
        beta, step = 1.1, 1e-4
        lhs = (
            exact_partition_function(spectrum, beta + step)
            - exact_partition_function(spectrum, beta - step)
        ) / (2 * step)
        evals = spectrum.values
        rhs = -float((evals * np.exp(-beta * evals)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-5)


def test_eps_prime_budget_helper():
    value = eps_prime_for_relative_error(2.0, 4, 0.1)
    assert value == pytest.approx(0.1 / (6.0 * math.exp(2.0) * 16.0), rel=1e-12)
    with pytest.raises(ValueError):
        eps_prime_for_relative_error(2.0, 4, 0.0)
    with pytest.raises(ValueError):
        eps_prime_for_relative_error(-1.0, 4, 0.1)
