"""Brute-force ground truth from the exact spectrum.

Everything here is the reference the statistical machinery is tested
against: exact partition functions, free energies, ideal coin success
probabilities and waiting-time moments, all read off a unit ``Spectrum``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .hamiltonian import Spectrum
from .record import ValueRecord

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp of it is still finite


def exact_partition_function(spectrum: Spectrum, beta: float) -> float:
    """Tr exp(-beta H) from the eigenvalues.

    The Boltzmann terms span many orders of magnitude at large beta, so they
    are summed with ``math.fsum``, which rounds correctly in any order.
    """
    return math.fsum(np.exp(-beta * spectrum.values))


def log_partition_function(spectrum: Spectrum, beta: float) -> float:
    """log Z_beta = -beta lambda_min + log sum exp(-beta (lambda - lambda_min)).

    Every shifted term lies in (0, 1] and the sum in [1, 2^n], so this is
    finite at any beta where Z itself passes float64's range.
    """
    shifted = spectrum.values - spectrum.values[0]
    return -beta * float(spectrum.values[0]) + math.log(np.sum(np.exp(-beta * shifted)))


def ideal_coin_probability(spectrum: Spectrum, beta: float) -> float:
    """Heads probability exp(-beta) Z_beta / 2^n of the ideal coin.

    Evaluated as the mean squared amplitude exp(-beta (1 + lambda) / 2),
    which cannot overflow on a unit spectrum, unlike exp(-beta) and Z_beta.
    """
    amplitudes = np.exp(-beta * (1.0 + spectrum.values) / 2.0)
    return float(np.mean(amplitudes**2))


class OracleReport(ValueRecord):
    """Exact reference values for one (spectrum, beta) pair.

    ``p_suc_ideal`` is the ideal coin probability exp(-beta) Z / 2^n;
    ``mean_trials`` is its geometric mean 1/p.
    ``z_beta`` is None where float64 cannot hold Z; ``free_energy`` is
    None at beta = 0.
    """

    __slots__ = fields = ("z_beta", "free_energy", "p_suc_ideal", "mean_trials")

    def __init__(
        self,
        z_beta: float | None,
        free_energy: float | None,
        p_suc_ideal: float,
        mean_trials: float,
    ) -> None:
        self._set(z_beta=z_beta, free_energy=free_energy, p_suc_ideal=p_suc_ideal,
                  mean_trials=mean_trials)


def oracle_report(spectrum: Spectrum, beta: float) -> OracleReport:
    """Build the full reference report for the coin at inverse temperature beta.

    Z and the free energy are read in linear space where float64 holds Z,
    and the free energy from log Z where it does not.
    """
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    log_z = log_partition_function(spectrum, beta)
    if log_z <= _LOG_FLOAT_MAX:
        z = exact_partition_function(spectrum, beta)
        free_energy = None if beta == 0 else -math.log(z) / beta
    else:  # log Z > 709 needs beta > 0
        z = None
        free_energy = -log_z / beta
    p = ideal_coin_probability(spectrum, beta)
    return OracleReport(
        z_beta=z,
        free_energy=free_energy,
        p_suc_ideal=p,
        mean_trials=1.0 / p,
    )
