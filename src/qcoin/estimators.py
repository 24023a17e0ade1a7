"""Estimators of the coin's heads probability p from coin-toss statistics.

The heads probability is p = exp(-beta) Z / 2^n, so an estimate of p with
relative precision eps_r is an estimate of the partition function Z with
the same relative precision; callers form Z where they write it.  An
estimator takes the coin as p and the query cost of one toss, the only
two numbers the Bernoulli process needs.  Two sampling strategies are
implemented.  The first tosses a fixed number of coins and reports the
Agresti-Coull proportion estimate; the second tosses until a fixed
number of successes, whose mean waiting time is 1/p and directly yields
a relative-precision estimate.  A halving wrapper turns any
additive-precision estimator into a relative-precision one.  The budget
functions carry eps_r and delta; an estimate holds only what its run drew.

Every estimator runs R independent repetitions at once from one seeded
generator: the toss counts are drawn as arrays from their exact
distributions by ``qcoin.coin``'s samplers, never toss by toss, and R = 1
is a single estimate.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable

import numpy as np

from .coin import draw_heads, draw_tosses_to_heads
from .record import Record

_TOSS_BUDGET = 100_000_000  # tosses per repetition of an additive-runner call
_ROUND_CAP = 64  # halving rounds of relative_from_additive before giving up


def z_quantile(delta: float) -> float:
    """z such that Phi(z) = 1 - delta/2 for the standard normal CDF."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return -NormalDist().inv_cdf(delta / 2.0)


def ac_estimate(
    successes: int | np.ndarray, tosses: int | np.ndarray, delta: float
) -> tuple:
    """Agresti-Coull proportion estimate and its additive half-width.

    p_hat = (successes + z^2/2) / (tosses + z^2),
    eps_p = z sqrt(p_hat (1 - p_hat) / tosses).
    The shrinkage keeps the estimate consistent near p = 0, where the raw
    proportion misbehaves.  Counts may be ints or arrays of them; the
    estimates broadcast.
    """
    if np.any(tosses < 1):
        raise ValueError("tosses must be >= 1")
    if np.any((successes < 0) | (successes > tosses)):
        raise ValueError("successes must lie in [0, tosses]")
    z = z_quantile(delta)
    z2 = z * z
    p_hat = (successes + z2 / 2.0) / (tosses + z2)
    eps_p = z * np.sqrt(p_hat * (1.0 - p_hat) / tosses)
    return p_hat, eps_p


def _ceil_budget(numerator: float, denominator: float, formula: str) -> int:
    """ceil(numerator / denominator); infeasible where float64 cannot hold the quotient.

    The denominator of a budget is a product of squares and probabilities,
    which can underflow to 0 while each factor is positive.
    """
    budget = numerator / denominator if denominator > 0 else math.inf
    if budget == math.inf:
        raise ValueError(f"toss budget infeasible: {formula} is past float64's range")
    return math.ceil(budget)


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
    return _ceil_budget(8.0 * z * z, eps_r**2 * p_lower_bound,
                        f"8 z^2 / (eps_r^2 p) at eps_r = {eps_r:.6g}, delta = {delta:.6g} "
                        f"and p = {p_lower_bound:.6g}")


def success_count_thm2(eps_r: float, delta: float) -> int:
    """Success budget ceil(1 / (delta eps_r^2)) for the waiting-time estimator."""
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return _ceil_budget(1.0, delta * eps_r**2,
                        f"1 / (delta eps_r^2) at eps_r = {eps_r:.6g} and delta = {delta:.6g}")


def expected_total_tosses_thm2(p: float, eps_r: float, delta: float) -> float:
    """Mean total tosses: success budget times the mean waiting time 1/p."""
    if p <= 0:
        raise ValueError("p must be positive")
    return success_count_thm2(eps_r, delta) / p


class Estimate(Record):
    """Heads-probability estimates of independent repetitions, in units of p.

    Entry i of ``value``, ``samples`` and ``rounds`` (the halving round that
    stopped it; None outside the wrapper) belongs to repetition i; a single
    estimate is one repetition.  ``samples`` holds each repetition's tosses
    (int64), and ``queries_per_sample`` is the oracle cost of one toss.
    """

    __slots__ = fields = ("value", "samples", "queries_per_sample", "rounds")

    def __init__(
        self,
        value: np.ndarray,
        samples: np.ndarray,
        queries_per_sample: int,
        rounds: np.ndarray | None = None,
    ) -> None:
        if np.any(samples < 0):
            raise ValueError("samples must be non-negative")
        self._set(value=value, samples=samples,
                  queries_per_sample=queries_per_sample, rounds=rounds)

    @property
    def samples_used(self) -> int:
        """Tosses over all repetitions, summed as Python ints (no int64 wrap)."""
        return sum(self.samples.tolist())

    @property
    def queries_used(self) -> int:
        """Oracle queries over all repetitions."""
        return self.samples_used * self.queries_per_sample


def algorithm1(
    p: float, queries_per_toss: int, tosses: int, delta: float, seed: int,
    reps: int = 1,
) -> Estimate:
    """Fixed-budget estimator: toss, then the Agresti-Coull p_hat.

    The head counts of all ``reps`` repetitions are one binomial draw.
    """
    if tosses < 1:
        raise ValueError("tosses must be >= 1")
    heads = draw_heads(np.random.default_rng(seed), p, tosses, size=reps)
    return Estimate(
        value=ac_estimate(heads, tosses, delta)[0],
        samples=np.full(reps, tosses, dtype=np.int64),
        queries_per_sample=queries_per_toss,
    )


def algorithm2(
    p: float, queries_per_toss: int, target_successes: int, seed: int,
    reps: int = 1,
) -> Estimate:
    """Waiting-time estimator: toss until the success budget k.

    The estimate is 1 / r_bar, the reciprocal mean waiting time.  The total
    tosses of a repetition, the sum of k geometric waits, is drawn as
    k + NegBin(k, p) (failures before the k-th success), one draw for all
    ``reps`` repetitions.  With k = ``success_count_thm2(eps_r, delta)``
    the estimate is within eps_r of p, relatively, with confidence
    1 - delta by Chebyshev's inequality.
    """
    k = target_successes
    if k < 1:
        raise ValueError("target_successes must be >= 1")
    total = draw_tosses_to_heads(np.random.default_rng(seed), p, k, size=reps)
    return Estimate(
        value=k / total,
        samples=total,
        queries_per_sample=queries_per_toss,
    )


# runner(eps_p, delta_step, reps): one additive estimate per repetition
AdditiveRunner = Callable[[float, float, int], Estimate]


def relative_from_additive(
    runner: AdditiveRunner, eps_r: float, delta: float, reps: int = 1
) -> Estimate:
    """Relative-precision estimate of p from iterated additive-precision runs.

    Round r runs the additive estimator at precision eps_r / 2^r with
    per-round failure budget (6/pi^2) delta / r^2, and a repetition stops
    as soon as its point estimate exceeds 1 / 2^r (p <= 1, so round 1 needs
    no bound on p).  The failure budgets sum to delta, so each final
    estimate carries confidence 1 - delta.  Every round runs the
    repetitions still going together, in one runner call.
    """
    if not 0 < eps_r < 1:
        raise ValueError("eps_r must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    value = np.empty(reps)
    samples = np.zeros(reps, dtype=np.int64)
    rounds = np.zeros(reps, dtype=np.int64)
    running = np.arange(reps)
    for r in range(1, _ROUND_CAP + 1):
        delta_r = (6.0 / math.pi**2) * delta / r**2
        est = runner(eps_r / 2.0**r, delta_r, running.size)
        samples[running] += est.samples
        stop = est.value > 1.0 / 2.0**r
        done = running[stop]
        value[done] = est.value[stop]
        rounds[done] = r
        running = running[~stop]
        if not running.size:
            return Estimate(
                value=value,
                samples=samples,
                queries_per_sample=est.queries_per_sample,
                rounds=rounds,
            )
    raise RuntimeError(
        f"estimate never exceeded the shrinking threshold within "
        f"{_ROUND_CAP} rounds"
    )


def make_additive_runner(p: float, queries_per_toss: int, seed: int) -> AdditiveRunner:
    """Additive-precision estimator of p on a coin, for the halving wrapper.

    Each repetition tosses in batches of its own size until its
    Agresti-Coull half-width reaches the requested additive precision; one
    binomial draw per batch step covers every repetition still tossing.
    Every draw of every call comes from one generator seeded once, so the
    calls see independent tosses and a wrapper run is fully deterministic.
    A batch that would take a repetition past ``_TOSS_BUDGET`` tosses is an
    infeasible budget, raised before it is drawn; so is a precision below
    the smallest half-width that ``_TOSS_BUDGET`` tosses can give, raised
    before any draw.
    """
    rng = np.random.default_rng(seed)

    def over_budget(eps_p: float) -> ValueError:
        return ValueError(
            f"toss budget infeasible: an additive run at precision "
            f"{eps_p:.3g} on a coin with p = {p:.6g} needs more than "
            f"_TOSS_BUDGET = {_TOSS_BUDGET} tosses"
        )

    def runner(eps_p: float, delta_step: float, reps: int = 1) -> Estimate:
        z = z_quantile(delta_step)
        # after n tosses the Agresti-Coull half-width is >= z^2 / (2 (n + z^2))
        if eps_p < z * z / (2.0 * (_TOSS_BUDGET + z * z)):
            raise over_budget(eps_p)
        heads = np.zeros(reps, dtype=np.int64)
        tossed = np.zeros(reps, dtype=np.int64)
        p_hat = np.empty(reps)
        active = np.arange(reps)
        batch = np.full(reps, 256, dtype=np.int64)
        while active.size:
            heads[active] += draw_heads(rng, p, batch)
            tossed[active] += batch
            est_p, est_eps = ac_estimate(heads[active], tossed[active], delta_step)
            p_hat[active] = est_p
            going = est_eps > eps_p
            active, est_p = active[going], est_p[going]
            needed = np.ceil(z * z * est_p * (1.0 - est_p) / eps_p**2)
            next_batch = np.clip(needed - tossed[active], 256, 4_000_000)
            if np.any(tossed[active] + next_batch > _TOSS_BUDGET):
                raise over_budget(eps_p)
            batch = next_batch.astype(np.int64)
        return Estimate(
            value=p_hat,
            samples=tossed,
            queries_per_sample=queries_per_toss,
        )

    return runner
