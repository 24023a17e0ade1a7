"""Partition-function estimators built on coin-toss statistics.

Two sampling strategies are implemented.  The first tosses a fixed number
of coins and converts the Agresti-Coull proportion estimate into a value
for Tr exp(-beta H); the second records the waiting times between
successes, whose mean is the reciprocal heads probability and directly
yields a relative-precision estimate.  A halving wrapper turns any
additive-precision estimator into a relative-precision one.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coin import CoinSpec, query_cost, toss

# Rational inverse-normal-CDF approximation (P. Acklam's coefficients,
# widely reproduced; |relative error| < 1.15e-9 before refinement).
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_P_LOW = 0.02425

_TOSS_BUDGET = 100_000_000  # tosses per additive-runner call before giving up
_ROUND_CAP = 64  # halving rounds of relative_from_additive before giving up


def _acklam_ppf(p: float) -> float:
    """Standard normal inverse CDF for p in (0, 0.5] (lower half)."""
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    ) / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


@functools.lru_cache(maxsize=128)
def z_quantile(delta: float) -> float:
    """z such that Phi(z) = 1 - delta/2 for the standard normal CDF.

    Acklam's rational approximation refined by Newton steps on the
    upper-tail equation 0.5 erfc(z / sqrt 2) = delta / 2, which avoids
    cancellation for small delta.  Absolute accuracy is well below 1e-6.
    Memoized: the additive runner asks for the same few deltas thousands
    of times per coverage study.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    tail = delta / 2.0
    z = -_acklam_ppf(tail)
    for _ in range(2):
        resid = 0.5 * math.erfc(z / math.sqrt(2.0)) - tail
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        z += resid / density
    return z


def ac_estimate(successes: int, tosses: int, delta: float) -> tuple[float, float]:
    """Agresti-Coull proportion estimate and its additive half-width.

    p_hat = (successes + z^2/2) / (tosses + z^2),
    eps_p = z sqrt(p_hat (1 - p_hat) / tosses).
    The shrinkage keeps the estimate consistent near p = 0, where the raw
    proportion misbehaves.
    """
    if tosses < 1:
        raise ValueError("tosses must be >= 1")
    if not 0 <= successes <= tosses:
        raise ValueError("successes must lie in [0, tosses]")
    z = z_quantile(delta)
    z2 = z * z
    p_hat = (successes + z2 / 2.0) / (tosses + z2)
    eps_p = z * math.sqrt(p_hat * (1.0 - p_hat) / tosses)
    return p_hat, eps_p


def sample_count_thm1(
    n: int, beta: float, z_lower_bound_for_z: float, eps_r: float, delta: float
) -> int:
    """Toss budget ceil(8 z_delta^2 / eps_r^2 * 2^n e^beta / Z_lb).

    ``z_lower_bound_for_z`` is a lower bound on the partition function
    (using the true value reproduces the theoretical count; the iterative
    wrapper removes the need to know it).
    """
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if z_lower_bound_for_z <= 0:
        raise ValueError("the partition-function lower bound must be positive")
    z = z_quantile(delta)
    count = (
        8.0 * z * z / eps_r**2
        * math.exp(beta + n * math.log(2.0) - math.log(z_lower_bound_for_z))
    )
    return math.ceil(count)


def success_count_thm2(eps_r: float, delta: float) -> int:
    """Success budget ceil(1 / (delta eps_r^2)) for the waiting-time estimator."""
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return math.ceil(1.0 / (delta * eps_r**2))


def expected_total_tosses_thm2(
    n: int, beta: float, z_beta: float, eps_r: float, delta: float
) -> float:
    """Mean total tosses: success budget times the mean waiting time 2^n e^beta / Z."""
    if z_beta <= 0:
        raise ValueError("z_beta must be positive")
    return success_count_thm2(eps_r, delta) * 2**n * math.exp(beta) / z_beta


@dataclass(frozen=True)
class Estimate:
    """A partition-function (or proportion) estimate with its uncertainty."""

    value: float
    half_width: float
    relative_target: float | None
    confidence: float
    samples_used: int
    queries_used: int
    algorithm: str
    rounds: int | None = None

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if self.samples_used < 0:
            raise ValueError("samples_used must be non-negative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "half_width": self.half_width,
                "eps_r": self.relative_target,
                "delta": 1.0 - self.confidence,
                "samples_used": self.samples_used,
                "queries_used": self.queries_used,
                "algorithm": self.algorithm,
                "rounds": self.rounds,
            }
        )


@dataclass(frozen=True)
class TrialsRecord:
    """Waiting times between successes: one positive count per success."""

    r_values: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r_values, dtype=np.int64)
        if r.ndim != 1 or (len(r) and r.min() < 1):
            raise ValueError("waiting times must be positive integers")
        r.setflags(write=False)
        object.__setattr__(self, "r_values", r)

    @property
    def successes(self) -> int:
        return len(self.r_values)

    @property
    def total_tosses(self) -> int:
        return int(self.r_values.sum())

    def empirical_z_sigma(self, n_qubits: int, beta: float) -> float:
        """1-sigma spread of the implied estimate 2^n e^beta / mean(R).

        Delta-method standard error from the empirical waiting-time
        variance; this is the descriptive interval, not the distribution-free
        guarantee carried by the estimate itself.
        """
        r_bar = float(self.r_values.mean())
        se_r = float(self.r_values.std(ddof=1)) / math.sqrt(self.successes)
        return 2**n_qubits * math.exp(beta) / r_bar**2 * se_r


def algorithm1(spec: CoinSpec, tosses: int, delta: float, seed: int) -> Estimate:
    """Fixed-budget estimator: toss, Agresti-Coull, rescale by 2^n e^beta."""
    if tosses < 1:
        raise ValueError("tosses must be >= 1")
    heads = toss(spec, tosses, seed)
    p_hat, eps_p = ac_estimate(heads, tosses, delta)
    scale = spec.spectrum.dim * math.exp(spec.beta)
    return Estimate(
        value=scale * p_hat,
        half_width=scale * eps_p,
        relative_target=None,
        confidence=1.0 - delta,
        samples_used=tosses,
        queries_used=tosses * query_cost(spec.beta, spec.eps_prime),
        algorithm="alg1",
    )


def algorithm2(
    spec: CoinSpec, target_successes: int, seed: int, delta: float = 0.25
) -> tuple[Estimate, TrialsRecord]:
    """Waiting-time estimator: geometric draws until the success budget.

    The reported half-width is the distribution-free (Chebyshev) guarantee
    eps_r = 1 / sqrt(delta * successes) that holds with confidence
    1 - delta; the empirical interval is available from the record.
    """
    if target_successes < 1:
        raise ValueError("target_successes must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    p = min(max(spec.heads_probability, 0.0), 1.0)
    if p <= 0.0:
        raise ValueError("success probability is zero; no success can occur")
    rng = np.random.default_rng(seed)
    r_values = rng.geometric(p, size=target_successes)
    record = TrialsRecord(r_values)
    r_bar = float(record.r_values.mean())
    scale = spec.spectrum.dim * math.exp(spec.beta)
    eps_r = 1.0 / math.sqrt(delta * target_successes)
    value = scale / r_bar
    q = query_cost(spec.beta, spec.eps_prime)
    return (
        Estimate(
            value=value,
            half_width=eps_r * value,
            relative_target=eps_r,
            confidence=1.0 - delta,
            samples_used=record.total_tosses,
            queries_used=record.total_tosses * q,
            algorithm="alg2",
        ),
        record,
    )


AdditiveRunner = Callable[[float, float], Estimate]


def relative_from_additive(
    runner: AdditiveRunner, z_max: float, eps_r: float, delta: float
) -> Estimate:
    """Relative-precision estimate from iterated additive-precision runs.

    Round r runs the additive estimator at precision eps_r * z_max / 2^r
    with per-round failure budget (6/pi^2) delta / r^2, and stops as soon as
    the point estimate exceeds z_max / 2^r.  The failure budgets sum to
    delta, so the final estimate carries confidence 1 - delta.
    """
    if z_max <= 0:
        raise ValueError("z_max must be positive")
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    samples = 0
    queries = 0
    for r in range(1, _ROUND_CAP + 1):
        eps_additive = eps_r * z_max / 2.0**r
        delta_r = (6.0 / math.pi**2) * delta / r**2
        est = runner(eps_additive, delta_r)
        samples += est.samples_used
        queries += est.queries_used
        if est.value > z_max / 2.0**r:
            return Estimate(
                value=est.value,
                half_width=eps_additive,
                relative_target=eps_r,
                confidence=1.0 - delta,
                samples_used=samples,
                queries_used=queries,
                algorithm="iterative",
                rounds=r,
            )
    raise RuntimeError(
        f"estimate never exceeded the shrinking threshold within "
        f"{_ROUND_CAP} rounds"
    )


def make_additive_runner(spec: CoinSpec, seed: int) -> AdditiveRunner:
    """Additive-precision estimator on a coin, for the halving wrapper.

    Tosses in batches until the Agresti-Coull half-width (scaled by
    2^n e^beta) reaches the requested additive precision.  Every batch of
    every call draws from one generator seeded once, so the calls see
    independent tosses and a wrapper run is fully deterministic.
    """
    rng = np.random.default_rng(seed)
    scale = spec.spectrum.dim * math.exp(spec.beta)
    q = query_cost(spec.beta, spec.eps_prime)

    def runner(eps_additive: float, delta_step: float) -> Estimate:
        eps_p = eps_additive / scale
        z = z_quantile(delta_step)
        tossed = 0
        heads = 0
        batch = 256
        while True:
            heads += toss(spec, batch, rng)
            tossed += batch
            p_hat, eps_hat = ac_estimate(heads, tossed, delta_step)
            if eps_hat <= eps_p:
                return Estimate(
                    value=scale * p_hat,
                    half_width=scale * eps_hat,
                    relative_target=None,
                    confidence=1.0 - delta_step,
                    samples_used=tossed,
                    queries_used=tossed * q,
                    algorithm="alg1",
                )
            if tossed >= _TOSS_BUDGET:
                raise RuntimeError("additive runner exceeded its toss budget")
            needed = math.ceil(z * z * p_hat * (1.0 - p_hat) / eps_p**2) - tossed
            batch = int(min(max(256, needed), 4_000_000, _TOSS_BUDGET - tossed))

    return runner
