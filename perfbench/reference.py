"""Reference values and statistical tolerances the benchmark checks qcoin's outputs against.

Nothing here calls qcoin's numerical code: the spectra are built from the
instance parameters with plain numpy, and every statistical check is sized
so that a correct program fails it with probability below 1e-6.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def _z_values(n: int) -> np.ndarray:
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    return 1.0 - 2.0 * bits


def ising_unit_spectrum(spec) -> tuple[np.ndarray, float]:
    """Eigenvalues of H / L for H = sum J_ij Z_i Z_j (the diagonal), and L = sum |J_ij|."""
    z = _z_values(spec.n_qubits)
    diag = np.zeros(2**spec.n_qubits)
    norm = 0.0
    for i, j, w in spec.edges:
        diag += w * z[:, i] * z[:, j]
        norm += abs(w)
    return diag / norm, norm


def qrbm_unit_spectrum(spec) -> tuple[np.ndarray, float]:
    """Eigenvalues of H / L for the quantum RBM by ``numpy.linalg.eigvalsh`` of its real matrix."""
    n, nv = spec.n_qubits, spec.n_visible
    z = _z_values(n)
    diag = -(z * np.asarray(spec.biases)).sum(axis=1)
    diag -= np.einsum("sv,vh,sh->s", z[:, :nv], np.asarray(spec.couplings), z[:, nv:])
    matrix = np.diag(diag)
    states = np.arange(2**n)
    for h, gamma in enumerate(spec.transverse_field):
        matrix[states, states ^ (1 << (n - 1 - (nv + h)))] -= gamma
    norm = (float(np.abs(spec.biases).sum()) + float(np.abs(spec.couplings).sum())
            + float(np.abs(spec.transverse_field).sum()))
    return np.linalg.eigvalsh(matrix) / norm, norm


def partition(unit_evals: np.ndarray, beta_coin: float) -> float:
    return math.fsum(np.exp(-beta_coin * unit_evals))


def coin_probability(unit_evals: np.ndarray, beta_coin: float) -> float:
    """Ideal heads probability exp(-beta) Z / 2^n of the unit-spectrum coin."""
    return math.fsum(np.exp(-beta_coin * (1.0 + unit_evals))) / len(unit_evals)


def beta_for_probability(unit_evals: np.ndarray, norm: float, p_target: float) -> float | None:
    """The beta at which the coin's heads probability is p_target (bisection).

    None when no beta gets there: an unfrustrated instance has its ground
    energy at -norm, and the probability falls only to the ground-state
    degeneracy over 2^n.
    """
    lo, hi = 0.0, 1.0
    while coin_probability(unit_evals, hi * norm) > p_target:
        hi *= 2.0
        if hi > 1e6:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if coin_probability(unit_evals, mid * norm) > p_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference)


def in_agresti_coull(p: float, successes: int, shots: int, delta: float) -> bool:
    """p inside the Agresti-Coull interval at confidence 1 - delta.

    At delta = 1e-9 the exact binomial miss probability of this interval is
    below 3e-9 for every p and shots from 300 to 20,000.
    """
    z = NormalDist().inv_cdf(1.0 - delta / 2.0)
    p_hat = (successes + z * z / 2.0) / (shots + z * z)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / shots)
    return abs(p - p_hat) <= half


def coverage_floor(reps: int, delta: float, miss: float) -> float:
    """Smallest hit fraction that Binomial(reps, 1 - delta) undershoots with probability <= miss."""
    log_p, log_q = math.log1p(-delta), math.log(delta)
    cdf = 0.0
    for hits in range(reps + 1):
        log_pmf = (math.lgamma(reps + 1) - math.lgamma(hits + 1)
                   - math.lgamma(reps - hits + 1) + hits * log_p
                   + (reps - hits) * log_q)
        cdf += math.exp(log_pmf)
        if cdf > miss:
            return hits / reps
    return 1.0


def step_probabilities(unit_evals: np.ndarray, beta_coin: float, steps: int) -> np.ndarray:
    """Per-step success probabilities of the uniform schedule with ``steps`` steps."""
    betas = np.linspace(0.0, beta_coin / 2.0, steps + 1)
    z = [partition(unit_evals, 2.0 * b) for b in betas]
    return np.array([z[k] / (math.exp(2.0 * (betas[k] - betas[k - 1])) * z[k - 1])
                     for k in range(1, steps + 1)])


def fragment_moments(step_p: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the steps executed per fragmented success.

    An attempt fails at step s with probability prod_{j<s} p_j (1 - p_s) and
    then ran s steps; it succeeds with probability P = prod p_j after l steps.
    The failures before a success are geometric with mean (1 - P) / P and
    variance (1 - P) / P^2, so the compound sum gives both moments.  With a
    uniform schedule every step costs the same, so queries scale the same way.
    """
    l = len(step_p)
    reach = np.concatenate([[1.0], np.cumprod(step_p)])
    p_full = reach[-1]
    fail = reach[:-1] * (1.0 - step_p) / (1.0 - p_full)
    s = np.arange(1, l + 1)
    mean_f = float(fail @ s)
    var_f = float(fail @ s**2) - mean_f**2
    mean_n = (1.0 - p_full) / p_full
    var_n = (1.0 - p_full) / p_full**2
    return mean_n * mean_f + l, mean_n * var_f + var_n * mean_f**2


def noise_fit_sigma(depths: np.ndarray, xi: float, p: float, shots: int) -> float:
    """Standard deviation of the unweighted least-squares xi under binomial shot noise.

    Sandwich covariance (J^T J)^-1 J^T V J (J^T J)^-1 at the generating
    parameters, V = diag(pbar (1 - pbar) / shots).
    """
    d = depths.astype(float)
    pbar = 0.5 + (1.0 - xi) ** d * (p - 0.5)
    jac = np.column_stack([-d * (1.0 - xi) ** (d - 1.0) * (p - 0.5), (1.0 - xi) ** d])
    bread = np.linalg.inv(jac.T @ jac)
    cov = bread @ (jac.T * (pbar * (1.0 - pbar) / shots)) @ jac @ bread
    return math.sqrt(cov[0, 0])
