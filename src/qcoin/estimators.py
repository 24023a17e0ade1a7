"""Estimators of the coin's heads probability p from coin-toss statistics.

The heads probability is p = exp(-beta) Z / 2^n, so an estimate of p with
relative precision eps_r is an estimate of the partition function Z with
the same relative precision; callers form Z where they write it.  Two
sampling strategies are implemented.  The first tosses a fixed number of
coins and reports the Agresti-Coull proportion estimate; the second records
the waiting times between successes, whose mean is 1/p and directly yields
a relative-precision estimate.  A halving wrapper turns any
additive-precision estimator into a relative-precision one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .coin import _MAX_DRAW_COUNT, CoinSpec, query_cost, toss

_TOSS_BUDGET = 100_000_000  # tosses per additive-runner call before giving up
_ROUND_CAP = 64  # halving rounds of relative_from_additive before giving up


def z_quantile(delta: float) -> float:
    """z such that Phi(z) = 1 - delta/2 for the standard normal CDF."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return -NormalDist().inv_cdf(delta / 2.0)


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


def sample_count_thm1(p_lower_bound: float, eps_r: float, delta: float) -> int:
    """Toss budget ceil(8 z_delta^2 / (eps_r^2 p_lb)).

    ``p_lower_bound`` is a lower bound on the heads probability (using the
    true value reproduces the theoretical count; the iterative wrapper
    removes the need to know it).
    """
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if p_lower_bound <= 0:
        raise ValueError("the heads-probability lower bound must be positive")
    z = z_quantile(delta)
    return math.ceil(8.0 * z * z / (eps_r**2 * p_lower_bound))


def success_count_thm2(eps_r: float, delta: float) -> int:
    """Success budget ceil(1 / (delta eps_r^2)) for the waiting-time estimator."""
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return math.ceil(1.0 / (delta * eps_r**2))


def expected_total_tosses_thm2(p: float, eps_r: float, delta: float) -> float:
    """Mean total tosses: success budget times the mean waiting time 1/p."""
    if p <= 0:
        raise ValueError("p must be positive")
    return success_count_thm2(eps_r, delta) / p


@dataclass(frozen=True)
class Estimate:
    """A heads-probability estimate with its uncertainty, in units of p."""

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


def algorithm1(spec: CoinSpec, tosses: int, delta: float, seed: int) -> Estimate:
    """Fixed-budget estimator: toss, then the Agresti-Coull p_hat."""
    if tosses < 1:
        raise ValueError("tosses must be >= 1")
    heads = toss(spec, tosses, seed)
    p_hat, eps_p = ac_estimate(heads, tosses, delta)
    return Estimate(
        value=p_hat,
        half_width=eps_p,
        relative_target=None,
        confidence=1.0 - delta,
        samples_used=tosses,
        queries_used=tosses * query_cost(spec.beta, spec.eps_prime),
        algorithm="alg1",
    )


def algorithm2(
    spec: CoinSpec, target_successes: int, seed: int, delta: float = 0.25
) -> Estimate:
    """Waiting-time estimator: geometric draws until the success budget.

    The estimate is 1 / r_bar, the reciprocal mean waiting time.  The
    reported half-width is the distribution-free (Chebyshev) guarantee
    eps_r = 1 / sqrt(delta * successes) that holds with confidence
    1 - delta.
    """
    if target_successes < 1:
        raise ValueError("target_successes must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    p = min(max(spec.heads_probability, 0.0), 1.0)
    if p <= 0.0:
        raise ValueError("success probability is zero; no success can occur")
    expected = target_successes / p
    budget = f"expected tosses = {target_successes} / p = {expected:.6g}"
    if expected > _MAX_DRAW_COUNT:
        raise ValueError(
            f"toss budget infeasible: {budget} exceeds 2^63 - 1 = "
            f"{_MAX_DRAW_COUNT}, the most tosses an int64 waiting-time draw counts"
        )
    waits = np.random.default_rng(seed).geometric(p, size=target_successes).tolist()
    if _MAX_DRAW_COUNT in waits:  # numpy clips a longer wait to the limit
        raise ValueError(
            f"toss budget infeasible: a waiting time reached 2^63 - 1 = "
            f"{_MAX_DRAW_COUNT}, where numpy's geometric draw clips ({budget})"
        )
    total = sum(waits)  # Python ints: the int64 sum wraps for long waits
    eps_r = 1.0 / math.sqrt(delta * target_successes)
    value = target_successes / total
    return Estimate(
        value=value,
        half_width=eps_r * value,
        relative_target=eps_r,
        confidence=1.0 - delta,
        samples_used=total,
        queries_used=total * query_cost(spec.beta, spec.eps_prime),
        algorithm="alg2",
    )


AdditiveRunner = Callable[[float, float], Estimate]


def relative_from_additive(
    runner: AdditiveRunner, eps_r: float, delta: float
) -> Estimate:
    """Relative-precision estimate of p from iterated additive-precision runs.

    Round r runs the additive estimator at precision eps_r / 2^r with
    per-round failure budget (6/pi^2) delta / r^2, and stops as soon as the
    point estimate exceeds 1 / 2^r (p <= 1, so round 1 needs no bound on
    p).  The failure budgets sum to delta, so the final estimate carries
    confidence 1 - delta.
    """
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    samples = 0
    queries = 0
    for r in range(1, _ROUND_CAP + 1):
        eps_additive = eps_r / 2.0**r
        delta_r = (6.0 / math.pi**2) * delta / r**2
        est = runner(eps_additive, delta_r)
        samples += est.samples_used
        queries += est.queries_used
        if est.value > 1.0 / 2.0**r:
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
    """Additive-precision estimator of p on a coin, for the halving wrapper.

    Tosses in batches until the Agresti-Coull half-width reaches the
    requested additive precision.  Every batch of every call draws from one
    generator seeded once, so the calls see independent tosses and a
    wrapper run is fully deterministic.
    """
    rng = np.random.default_rng(seed)
    q = query_cost(spec.beta, spec.eps_prime)

    def runner(eps_p: float, delta_step: float) -> Estimate:
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
                    value=p_hat,
                    half_width=eps_hat,
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
