"""Brute-force ground truth from the exact spectrum.

Everything here is the reference the statistical machinery is tested
against: exact partition functions, free energies, ideal coin success
probabilities, schedule step probabilities and waiting-time moments, all
read off a unit ``Spectrum`` through one reduction, ``boltzmann_sum``, and
one float64-range rule, ``exp_or_none``.  No other module but
``hamiltonian`` reads the spectrum's values.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .hamiltonian import Spectrum

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp of it is still finite


def boltzmann_sum(spectrum: Spectrum, beta: float) -> float:
    """S(beta) = sum exp(-beta (lambda - lambda_min)), numpy's pairwise sum.

    Each term lies in (0, 1] and the ground state's is 1, so S is in [1, 2^n]
    at beta >= 0.  Z, p and the schedule steps take the ground-state factor
    out of S, so none of them overflows where Z or exp(beta) would.  A beta
    that is negative, infinite or NaN (a command's beta times a norm bound
    past float64) is an input error.
    """
    if not 0 <= beta < math.inf:
        raise ValueError(f"coin beta must be finite and non-negative, got {beta} "
                         f"(norm bound {spectrum.norm_bound})")
    return float(np.sum(np.exp(-beta * (spectrum.values - spectrum.values[0]))))


def exp_or_none(log_value: float) -> float | None:
    """exp(log_value), or None where float64 cannot hold it."""
    return math.exp(log_value) if log_value <= _LOG_FLOAT_MAX else None


def log_partition_function(spectrum: Spectrum, beta: float) -> float:
    """log Z_beta = -beta lambda_min + log S(beta), finite at any beta."""
    return -beta * float(spectrum.values[0]) + math.log(boltzmann_sum(spectrum, beta))


def exact_partition_function(spectrum: Spectrum, beta: float) -> float | None:
    """Z_beta = Tr exp(-beta H), or None where float64 cannot hold it."""
    return exp_or_none(log_partition_function(spectrum, beta))


def ideal_coin_probability(spectrum: Spectrum, beta: float) -> float:
    """Heads probability exp(-beta) Z_beta / 2^n = exp(-beta (1 + lambda_min)) S / 2^n.

    The exponent is at most ~0 on a unit spectrum: p may underflow, never overflow.
    """
    ground = math.exp(-beta * (1.0 + float(spectrum.values[0])))
    return ground * boltzmann_sum(spectrum, beta) / spectrum.dim


def step_probabilities(spectrum: Spectrum, betas: np.ndarray) -> np.ndarray:
    """Each schedule step's p = exp(-2 w (1 + lambda_min)) S(2 b_hi) / S(2 b_lo).

    ``betas`` is a schedule in half-beta units, and a step of width
    w = b_hi - b_lo runs the coin at 2 w.  p is Z(2 b_hi) / (e^{2 w} Z(2 b_lo))
    with exp(-2 b lambda_min) taken out of both Z: the exponent is at most ~0
    and S >= 1, so nothing overflows.
    """
    s = [boltzmann_sum(spectrum, 2.0 * b) for b in betas]
    return np.array([
        math.exp(-2.0 * w * (1.0 + float(spectrum.values[0]))) * s_hi / s_lo
        for w, s_lo, s_hi in zip(np.diff(betas), s, s[1:])
    ])


def oracle_report(spectrum: Spectrum, beta: float) -> dict:
    """The exact reference values of the coin at inverse temperature beta.

    A dict of ``z_beta`` (Z, read from log Z), ``free_energy`` (-log Z /
    beta), ``p_suc_ideal`` (the ideal coin probability exp(-beta) Z / 2^n)
    and ``mean_trials`` (its geometric mean 1/p), as ``qcoin oracle``
    writes it.  ``z_beta`` is None where float64 cannot hold Z,
    ``mean_trials`` where it cannot hold 1/p, and ``free_energy`` at
    beta = 0 or where it cannot hold -log Z / beta.
    """
    log_z = log_partition_function(spectrum, beta)
    p = ideal_coin_probability(spectrum, beta)
    free_energy = -log_z / beta if beta > 0 else math.inf
    mean_trials = 1.0 / p if p > 0 else math.inf
    return {
        "z_beta": exp_or_none(log_z),
        "free_energy": free_energy if math.isfinite(free_energy) else None,
        "p_suc_ideal": p,
        "mean_trials": mean_trials if math.isfinite(mean_trials) else None,
    }
