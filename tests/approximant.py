"""Chebyshev approximants of exp(-beta x / 2): the tests' biased coin.

The package's coin is ideal and only costs a toss at the certified degree
(``qcoin.propagator.required_degree``).  The polynomial a circuit would
apply in its place lives here, as the reference the bias tests compare
against: ``chebyshev_coefficients`` builds the degree-d Jacobi-Anger
truncation and certifies its sub-normalized grid error through
``qcoin.propagator._truncation_errors``, the path ``required_degree``
walks, and ``biased_heads_probability`` is the heads probability of the
coin that applies it to the maximally mixed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qcoin.hamiltonian import Spectrum
from qcoin.propagator import _truncation_errors, modified_bessel_i


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
    for d, grid_err in _truncation_errors(beta, np.abs(coeffs) * math.exp(-b)):
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
