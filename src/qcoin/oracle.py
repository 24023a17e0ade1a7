"""Brute-force ground truth from the exact spectrum.

Everything here is the reference the statistical machinery is tested
against: exact partition functions, free energies, ideal coin success
probabilities, and waiting-time moments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import Hamiltonian


def exact_partition_function(h: Hamiltonian, beta: float) -> float:
    """Tr exp(-beta H) from the eigenvalues.

    The Boltzmann terms span many orders of magnitude at large beta, so they
    are accumulated smallest-first with compensated summation.
    """
    terms = np.exp(-beta * h.spectrum())
    return math.fsum(np.sort(terms))


def exact_free_energy(h: Hamiltonian, beta: float) -> float:
    """F = -log(Z_beta) / beta; undefined at beta = 0."""
    if beta <= 0:
        raise ValueError("free energy requires beta > 0")
    return -math.log(exact_partition_function(h, beta)) / beta


def geometric_stats(p: float) -> tuple[float, float]:
    """Mean and variance of the trials-to-success count at heads probability p."""
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return 1.0 / p, (1.0 - p) / p**2


@dataclass(frozen=True)
class OracleReport:
    """Exact reference values for one (Hamiltonian, beta) pair.

    ``p_suc_ideal`` is the ideal coin probability exp(-beta) Z / 2^n, valid
    for spectra inside [-1, 1]; ``mean_trials`` is its geometric mean 1/p.
    ``free_energy`` is None at beta = 0.
    """

    z_beta: float
    free_energy: float | None
    p_suc_ideal: float
    mean_trials: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "z_beta": self.z_beta,
                "free_energy": self.free_energy,
                "p_suc_ideal": self.p_suc_ideal,
                "mean_trials": self.mean_trials,
            }
        )


def oracle_report(h: Hamiltonian, beta: float) -> OracleReport:
    """Build the full reference report; requires spectrum within [-1, 1]."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    h.unit_spectrum()
    z = exact_partition_function(h, beta)
    p = math.exp(-beta) * z / h.dim
    return OracleReport(
        z_beta=z,
        free_energy=None if beta == 0 else -math.log(z) / beta,
        p_suc_ideal=p,
        mean_trials=1.0 / p,
    )
