"""Chebyshev approximants of exp(-beta x / 2): the tests' biased coin.

The package's coin is ideal and only costs a toss at the certified degree
(``qcoin.propagator.required_degree``).  The polynomial a circuit would
apply in its place lives here, as the reference the bias tests compare
against: ``chebyshev_coefficients`` builds the degree-d Jacobi-Anger
truncation from the power-series ``modified_bessel_i`` and measures its
sub-normalized error on a dense Chebyshev-spaced grid, and
``biased_heads_probability`` is the heads probability of the coin that
applies it to the maximally mixed state.  ``reference_degree`` is the
independent degree rule the package's coefficient-tail certification is
checked against: the smallest degree whose grid error or power-series
tail passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from qcoin.hamiltonian import Spectrum

GRID_SIZE = 10_000


def modified_bessel_i(order: int, x: float) -> float:
    """Modified Bessel function I_order(x) by its ascending power series.

    All series terms are positive for x > 0, so there is no cancellation;
    relative accuracy is ~1e-13 over the domain used here (|x| <= ~700,
    bounded by float64 range since I_0(x) ~ exp(x)/sqrt(2 pi x)).  Negative
    arguments use the parity identity I_k(-x) = (-1)^k I_k(x).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if x < 0:
        return (-1.0) ** (order % 2) * modified_bessel_i(order, -x)
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    half = x / 2.0
    term = 1.0
    for j in range(1, order + 1):
        term *= half / j
        if term == 0.0:
            return 0.0  # underflow: the true value is below double range
    total = term
    q = half * half
    m = 0
    while m < 100_000:
        m += 1
        term *= q / (m * (m + order))
        updated = total + term
        if updated == total:
            return total
        total = updated
    raise RuntimeError("Bessel series did not converge")


@lru_cache(maxsize=1)
def cheb_grid() -> np.ndarray:
    """Chebyshev-spaced certification grid on [-1, 1] (GRID_SIZE points)."""
    j = np.arange(GRID_SIZE)
    x = np.cos(np.pi * (j + 0.5) / GRID_SIZE)
    x.setflags(write=False)
    return x


def truncation_errors(beta: float, mags: np.ndarray) -> Iterator[tuple[int, float]]:
    """Yield (d, grid error of the degree-d truncation) for d = 0, 1, ...

    ``mags[k]`` is the sub-normalized coefficient magnitude
    (2 - delta_k0) I_k(beta/2) exp(-beta/2); the signs alternate.
    """
    x = cheb_grid()
    target = np.exp(-beta * (1.0 + x) * 0.5)
    partial = np.full_like(x, mags[0])
    yield 0, float(np.abs(partial - target).max())
    t_prev = np.ones_like(x)
    t_cur = np.array(x)
    for d in range(1, len(mags)):
        coeff = mags[d] if d % 2 == 0 else -mags[d]
        partial = partial + coeff * t_cur
        yield d, float(np.abs(partial - target).max())
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev


def reference_degree(beta: float, eps_prime: float) -> int:
    """Smallest degree whose grid error or power-series tail is <= eps_prime.

    The coefficient window runs past k = beta/2 until a magnitude falls
    below eps_prime * 1e-6, and that last magnitude stands in for the
    remainder past the window.  I_0(beta/2) overflows once beta passes
    ~1,430, so this reference stops there.
    """
    if beta == 0.0:
        return 0
    b = beta / 2.0
    scale = math.exp(-b)
    mags = [modified_bessel_i(0, b) * scale]
    floor = max(eps_prime * 1e-6, 1e-305)
    while len(mags) <= b + 1 or mags[-1] >= floor:
        mags.append(2.0 * modified_bessel_i(len(mags), b) * scale)
    mags = np.array(mags)
    suffix = np.append(np.cumsum(mags[::-1])[::-1], 0.0)
    for d, grid_err in truncation_errors(beta, mags):
        if grid_err <= eps_prime or suffix[d + 1] + mags[-1] <= eps_prime:
            return d
    raise AssertionError("unreachable: the tail falls below eps_prime")


@dataclass(frozen=True)
class ChebyshevApproximant:
    """Degree-d Chebyshev-T truncation of exp(-beta x / 2) on [-1, 1].

    ``coefficients[k]`` multiplies T_k; ``certified_error`` is the grid
    maximum of |e^{-beta/2} (ftilde(x) - exp(-beta x / 2))|.
    """

    degree: int
    coefficients: np.ndarray
    target_beta: float
    certified_error: float

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (self.degree + 1,):
            raise ValueError("coefficients must have length degree + 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the polynomial by Clenshaw recurrence."""
        return clenshaw(self.coefficients, np.asarray(x, dtype=float))


def chebyshev_coefficients(beta: float, degree: int) -> ChebyshevApproximant:
    """Jacobi-Anger truncation of exp(-beta x / 2) at the given degree."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    b = beta / 2.0
    coeffs = np.empty(degree + 1)
    coeffs[0] = modified_bessel_i(0, b)
    for k in range(1, degree + 1):
        coeffs[k] = 2.0 * (-1.0) ** (k % 2) * modified_bessel_i(k, b)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"beta={beta} is too large for float64 coefficients")
    if beta == 0.0:
        return ChebyshevApproximant(degree, coeffs, beta, 0.0)
    certified = 0.0
    for d, grid_err in truncation_errors(beta, np.abs(coeffs) * math.exp(-b)):
        if d == degree:
            certified = grid_err
    return ChebyshevApproximant(degree, coeffs, beta, certified)


def clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum of c_k T_k(x) by the Clenshaw recurrence (elementwise in x)."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


def biased_heads_probability(spectrum: Spectrum, approx: ChebyshevApproximant) -> float:
    """Heads probability mean((e^{-beta/2} ftilde(lambda))^2) of the biased coin.

    The coin applies the approximant in place of exp(-beta H / 2), with the
    sub-normalization exp(-beta/2) of the ideal coin and beta the
    approximant's ``target_beta``.
    """
    ftilde = clenshaw(approx.coefficients, spectrum.values)
    amplitudes = math.exp(-approx.target_beta / 2.0) * ftilde
    return float(np.mean(amplitudes**2))
