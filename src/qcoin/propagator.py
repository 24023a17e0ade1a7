"""Certified Chebyshev degree of the imaginary-time propagator exp(-beta H / 2).

A toss of the coin costs as many block-encoding queries as the degree of
the polynomial ftilde that a circuit would apply in place of the
propagator, sub-normalized by alpha = exp(-beta/2).  ``required_degree``
is the smallest degree d whose truncation has spectral error

    max_{x in [-1, 1]} | alpha * ftilde_d(x) - alpha * exp(-beta x / 2) |

at most eps_prime, measured on a dense Chebyshev-spaced grid or bounded
by the coefficient tail.  The coefficients are the Jacobi-Anger
truncation: with b = beta/2,

    exp(-b x) = I_0(b) + 2 * sum_{k>=1} (-1)^k I_k(b) T_k(x),

where I_k is the modified Bessel function of the first kind.  The
polynomial itself is never formed here: the coin is ideal.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

GRID_SIZE = 10_000
_DEGREE_CAP = 20_000


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
def _cheb_grid() -> np.ndarray:
    """Chebyshev-spaced certification grid on [-1, 1] (GRID_SIZE points)."""
    j = np.arange(GRID_SIZE)
    x = np.cos(np.pi * (j + 0.5) / GRID_SIZE)
    x.setflags(write=False)
    return x


def _coefficient_mags(beta: float, eps_floor: float) -> np.ndarray:
    """Magnitudes of the sub-normalized Jacobi-Anger coefficients.

    Entry k is |c_k| * exp(-beta/2) = (2 - delta_k0) I_k(beta/2) exp(-beta/2),
    an order-one quantity.  The window extends past the Bessel turnover until
    the magnitudes drop below ``eps_floor``, so suffix sums bound every
    relevant truncation tail.
    """
    b = beta / 2.0
    scale = math.exp(-b)
    if scale == 0.0:
        raise ValueError(f"beta={beta} is too large for float64 certification")
    mags = [modified_bessel_i(0, b) * scale]
    if not math.isfinite(mags[0]):
        raise ValueError(f"beta={beta} is too large for float64 certification")
    floor = max(eps_floor, 1e-305)
    k = 0
    while k <= b or mags[-1] >= floor:
        k += 1
        if k > _DEGREE_CAP:
            raise RuntimeError("coefficient window exceeded the degree cap")
        mags.append(2.0 * modified_bessel_i(k, b) * scale)
    return np.array(mags)


def _truncation_errors(beta: float, mags: np.ndarray) -> Iterator[tuple[int, float]]:
    """Yield (d, grid error of the degree-d truncation) for d = 0, 1, ...

    Shared by the degree search and the tests' reference approximant
    (``tests/approximant.py``), so both certify through the identical
    floating-point path.
    """
    x = _cheb_grid()
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


@lru_cache(maxsize=4096)
def required_degree(beta: float, eps_prime: float) -> int:
    """Smallest truncation degree certified to reach error <= eps_prime.

    Certification walks the degrees upward.  A degree is accepted when the
    grid error passes, or when the coefficient tail bound
    sum_{k>d} |c_k| exp(-beta/2) passes; the tail bound is a rigorous upper
    bound on the true spectral error and takes over below the ~1e-15 noise
    floor of grid evaluation, where requests such as eps_prime = 1e-16 from
    ideal-coin cost accounting would otherwise be undecidable.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if not 0 < eps_prime <= 1:
        raise ValueError(f"eps_prime must be in (0, 1], got {eps_prime}")
    if beta == 0.0:
        return 0
    mags = _coefficient_mags(beta, eps_prime * 1e-6)
    suffix = np.concatenate([np.cumsum(mags[::-1])[::-1], [0.0]])
    beyond_window = mags[-1]  # slack standing in for the truncated remainder
    for d, grid_err in _truncation_errors(beta, mags):
        if grid_err <= eps_prime or suffix[d + 1] + beyond_window <= eps_prime:
            return d
    raise RuntimeError("degree certification failed")  # unreachable: tail -> 0


def eps_prime_for_relative_error(beta: float, n_qubits: int, eps_r: float) -> float:
    """Worst-case tolerated approximation error eps_r / (6 exp(beta) 2^n).

    This is the budget that keeps the approximation bias below half of the
    target relative error without knowing the partition function.  Computed
    in log space; may underflow to 0.0 for extreme beta * n.
    """
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    return math.exp(
        math.log(eps_r) - beta - n_qubits * math.log(2.0) - math.log(6.0)
    )
