"""Certified Chebyshev degree of the imaginary-time propagator exp(-beta H / 2).

A toss of the coin costs as many block-encoding queries as the degree of
the polynomial ftilde that a circuit would apply in place of the
propagator, sub-normalized by alpha = exp(-beta/2).  The polynomial is the
Jacobi-Anger truncation: with b = beta/2,

    exp(-b x) = I_0(b) + 2 * sum_{k>=1} (-1)^k I_k(b) T_k(x),

where I_k is the modified Bessel function of the first kind.  Since
|T_k| <= 1 on [-1, 1], the sub-normalized error of the degree-d truncation
is at most the coefficient tail sum_{k>d} m_k, with

    m_k = (2 - delta_k0) I_k(b) exp(-b),    sum_{k>=0} m_k = 1

(the generating function exp(b cos t) = I_0(b) + 2 sum_k I_k(b) cos(k t)
at t = 0; Abramowitz & Stegun 9.6).  ``required_degree`` is the smallest d
whose tail is at most eps_prime.  The m_k come from Miller's backward
recurrence I_{k-1} = (2k/b) I_k + I_{k+1} (W. Gautschi, SIAM Review 9,
1967), run on the ratios I_k / I_{k-1} and normalized by the unit sum, so
no I_k(b) or exp(b) is ever formed and nothing overflows at any finite
beta.  The polynomial itself is never formed here: the coin is ideal.
"""

from __future__ import annotations

import math

import numpy as np

_DEGREE_CAP = 20_000


def subnormalized_coefficients(b: float, floor: float) -> np.ndarray:
    """m_0, ..., m_n: the coefficients (2 - delta_k0) I_k(b) exp(-b), b > 0.

    The window starts at the Gaussian envelope m_k ~ exp(-k^2 / (2b)), at
    n ~ sqrt(2 b ln(1/floor)), and doubles until its last entry is below
    ``floor``.  The recurrence starts from I_{n+1} = 0, which overstates
    m_n and loses accuracy only in the last few entries.  A window past
    ``_DEGREE_CAP`` is refused before it is allocated.
    """
    window = max(math.sqrt(-2.0 * b * math.log(floor)), 8.0)
    while True:
        if window > _DEGREE_CAP:
            raise ValueError(
                f"Chebyshev degree of exp(-beta x / 2) at beta = {2.0 * b:.6g} "
                f"exceeds the degree cap {_DEGREE_CAP}"
            )
        n = math.ceil(window)
        ratios = np.empty(n)  # ratios[k - 1] = I_k(b) / I_{k-1}(b)
        r = 0.0
        for k in range(n, 0, -1):
            r = 1.0 / (2.0 * k / b + r)
            ratios[k - 1] = r
        mags = np.empty(n + 1)
        mags[0] = 1.0
        np.cumprod(ratios, out=mags[1:])
        mags[1:] *= 2.0
        mags /= mags.sum()
        if mags[-1] < floor:
            return mags
        window = 2.0 * n


def required_degree(beta: float, eps_prime: float) -> int:
    """Smallest truncation degree d whose coefficient tail is <= eps_prime.

    The tail sum_{k>d} m_k is summed from the far end of the window, plus
    m_n b / (n + 1/2) for the coefficients past it: I_{k+1}(b) / I_k(b) <=
    b / (k + 1/2 + b) (Amos, Math. Comp. 28, 1974) bounds them by a
    geometric series.  The tail bounds the true spectral error, so a
    request such as eps_prime = 1e-16 from ideal-coin cost accounting is
    decided exactly, however far below float64 resolution it lies.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if not 0 < eps_prime <= 1:
        raise ValueError(f"eps_prime must be in (0, 1], got {eps_prime}")
    b = beta / 2.0
    if b == 0.0:
        return 0
    # eps_prime * 1e-6 may underflow to 0; the smallest float is met by m_n = 0
    mags = subnormalized_coefficients(b, max(eps_prime * 1e-6, math.ulp(0.0)))
    n = len(mags) - 1
    tails = np.cumsum(mags[:0:-1])[::-1] + mags[-1] * b / (n + 0.5)
    # tails[d] bounds the error at degree d; tails[n - 1] < eps_prime, since
    # m_n < eps_prime / 1e6 and the cap keeps b / (n + 1/2) below ~730
    return int(np.argmax(tails <= eps_prime))


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
