"""The two-outcome quantum coin: exact probabilities and seeded count samplers.

A coin toss is the success/failure of post-selecting the block-encoding
ancillas after applying the propagator to the maximally mixed input state.
The coin is fully characterized by its heads probability p
(``oracle.ideal_coin_probability``) and the query cost of one toss
(``query_cost``), and the estimators read only Bernoulli-process
statistics, so the samplers take p and draw counts from their exact
distributions instead of simulating tosses one by one.  Every head count
and every wait in the package is drawn by ``draw_heads`` (a binomial head
count) or ``draw_tosses_to_heads`` (the k + NegBin(k, p) tosses until k
heads), which check numpy's int64 limits.
Every draw is reproducible from its 64-bit seed (``experiments.SeedStream``
derives them) via numpy's PCG64 generator (``numpy.random.default_rng``).

The fragmented coin splits the imaginary-time evolution into schedule steps
with restart-on-failure; the overall heads probability factorizes over the
steps, only the per-toss query cost changes.  ``toss_fragmented`` samples
its attempt count, its per-step execution counts and its query total
exactly, at a cost independent of the number of attempts.
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonian import Spectrum
from .oracle import step_probabilities
from .propagator import required_degree
from .record import Record

_EPS_PRIME_FLOOR = 1e-16  # cost accounting for the ideal coin
MAX_DRAW_COUNT = 2**63 - 1  # int64: numpy's draw counts in and out, depths, shots
# the limit of the Poisson draw inside numpy's negative_binomial
_NEGBIN_MAX = MAX_DRAW_COUNT - 10.0 * math.sqrt(MAX_DRAW_COUNT)


def query_cost(beta: float, eps_prime: float) -> int:
    """Oracle calls per toss: the certified approximation degree.

    The ideal coin (eps_prime = 0) is accounted at the 1e-16 floor.
    """
    if eps_prime < 0 or eps_prime > 1:
        raise ValueError("eps_prime must be in [0, 1]")
    return required_degree(beta, max(eps_prime, _EPS_PRIME_FLOOR))


def draw_heads(rng: np.random.Generator, p: float, count, size=None):
    """Heads in ``count`` tosses at probability p (clipped to [0, 1]): one draw.

    ``count`` is an int or an int64 array of counts.  An int past numpy's
    int64 limit is an infeasible budget.
    """
    if not isinstance(count, np.ndarray):
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > MAX_DRAW_COUNT:
            raise ValueError(
                f"toss budget infeasible: count = {count} exceeds 2^63 - 1 = "
                f"{MAX_DRAW_COUNT}, the most tosses one binomial draw takes"
            )
    return rng.binomial(count, min(max(p, 0.0), 1.0), size=size)


def draw_tosses_to_heads(rng: np.random.Generator, p: float, k: int, size=None):
    """Tosses until the k-th head at probability p (clipped): k + NegBin(k, p).

    A budget past numpy's limits is infeasible: k / p past int64 or (1 - p) /
    p (k + 10 sqrt(k)) past ``_NEGBIN_MAX`` before the draw, a total that
    would wrap int64 after it.
    """
    p = min(max(p, 0.0), 1.0)
    if p <= 0.0:
        raise ValueError("success probability is zero; no success can occur")
    try:
        expected = k / p
    except OverflowError:  # k is past float64's range
        expected = math.inf
    budget = f"expected tosses = {k} / p = {expected:.6g}"
    if (expected > MAX_DRAW_COUNT
            or (1.0 - p) / p * (k + 10.0 * math.sqrt(k)) > _NEGBIN_MAX):
        raise ValueError(
            f"toss budget infeasible: {budget}; numpy's int64 negative-binomial "
            f"draw of the tosses needs k / p <= 2^63 - 1 = {MAX_DRAW_COUNT} and "
            f"(1 - p) / p (k + 10 sqrt(k)) <= {_NEGBIN_MAX:.6g}"
        )
    failures = rng.negative_binomial(k, p, size=size)
    if np.any(failures > MAX_DRAW_COUNT - k):  # k + failures would wrap int64
        raise ValueError(
            f"toss budget infeasible: a toss count passed "
            f"2^63 - 1 = {MAX_DRAW_COUNT} ({budget})"
        )
    return k + failures


def toss(p: float, count: int, seed: int) -> int:
    """Heads in ``count`` i.i.d. tosses at probability p, deterministic per seed."""
    return int(draw_heads(np.random.default_rng(seed), p, count))


class Schedule(Record):
    """Inverse-temperature schedule 0 = beta_0 <= ... <= beta_l = beta/2.

    The values are in half-beta units: step k runs the coin at inverse
    temperature 2 w_k, w_k = betas[k] - betas[k-1], succeeds with probability
    ``step_probabilities[k-1]`` and costs ``step_query_costs[k-1]`` queries.
    The builder computes both; the probabilities multiply out to the full coin's.
    """

    __slots__ = fields = ("betas", "step_probabilities", "step_query_costs")

    def __init__(self, betas: np.ndarray, step_probabilities: np.ndarray,
                 step_query_costs: np.ndarray) -> None:
        betas = np.asarray(betas, dtype=float)
        probs = np.asarray(step_probabilities, dtype=float)
        costs = np.asarray(step_query_costs, dtype=np.int64)
        if betas.ndim != 1 or len(betas) < 2:
            raise ValueError("schedule needs at least one step")
        if betas[0] != 0.0:
            raise ValueError("schedule must start at 0")
        if np.any(np.diff(betas) < 0):
            raise ValueError("schedule must be non-decreasing")
        for name, arr in (("step_probabilities", probs), ("step_query_costs", costs)):
            if arr.shape != (len(betas) - 1,):
                raise ValueError(f"{name} must have one entry per step")
        for arr in (betas, probs, costs):
            arr.setflags(write=False)
        self._set(betas=betas, step_probabilities=probs, step_query_costs=costs)

    @property
    def l(self) -> int:
        return len(self.betas) - 1


def uniform_schedule(
    spectrum: Spectrum, beta: float, l: int, eps_total: float
) -> Schedule:
    """Evenly spaced schedule with the error budget split evenly.

    Every step is costed at the nominal width, ``query_cost(beta / l,
    eps_total / l)``: one certification per schedule, though the widths
    of ``np.linspace`` may differ in the last bit.
    """
    if l < 1:
        raise ValueError("need at least one step")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    betas = np.linspace(0.0, beta / 2.0, l + 1)
    costs = np.full(l, query_cost(beta / l, eps_total / l))
    return Schedule(betas, step_probabilities(spectrum, betas), costs)


class FragmentedRun(Record):
    """Counts of a fragmented-coin simulation.

    An attempt runs the steps in order until one fails (tails, restart) or
    all pass (heads); ``step_executions[k]`` counts the runs of step k+1 and
    ``queries`` is the exact total query cost.
    """

    __slots__ = fields = ("attempts", "successes", "queries", "step_executions")

    def __init__(
        self, attempts: int, successes: int, queries: int, step_executions: np.ndarray
    ) -> None:
        self._set(attempts=attempts, successes=successes, queries=queries,
                  step_executions=step_executions)

    @property
    def queries_per_success(self) -> float:
        return self.queries / max(self.successes, 1)


def toss_fragmented(
    schedule: Schedule, count_successes_target: int, seed: int
) -> FragmentedRun:
    """Sample the sequential-step process until the target number of successes.

    Each attempt runs the steps in order with their ideal success
    probabilities p_j; the first failed step aborts it.  With k successes
    and p_full = prod_j p_j, the failed attempts number NegBin(k, p_full),
    and each failed attempt independently stops at step s with weight
    (prod_{j<s} p_j)(1 - p_s), so their stop steps are one multinomial
    draw.  Step j runs once per success plus once per failed attempt that
    stopped at step j or later.
    """
    k = count_successes_target
    if k < 0:
        raise ValueError("count_successes_target must be non-negative")
    probs = np.clip(schedule.step_probabilities, 0.0, 1.0)
    p_full = float(np.prod(probs))
    rng = np.random.default_rng(seed)
    attempts = draw_tosses_to_heads(rng, p_full, k) if k else 0
    failures = attempts - k
    stops = np.zeros(len(probs), dtype=np.int64)
    if failures:
        reach = np.concatenate(([1.0], np.cumprod(probs[:-1])))
        weights = reach * (1.0 - probs)
        stops = rng.multinomial(failures, weights / weights.sum())
    executions = k + np.cumsum(stops[::-1])[::-1]
    costs = schedule.step_query_costs
    # Python ints: the int64 dot product wraps for long runs of tiny p_full
    queries = sum(int(e) * int(c) for e, c in zip(executions, costs))
    return FragmentedRun(attempts, k, queries, executions)


def _queries_per_success(probs: np.ndarray, costs: np.ndarray) -> float:
    """sum_j q_j / prod_{k>=j} p_k by suffix products; inf past float64."""
    with np.errstate(over="ignore", divide="ignore"):
        suffix = np.cumprod(probs[::-1])[::-1]
        return float(np.sum(costs / suffix))


def expected_queries_per_success(schedule: Schedule) -> float:
    """Mean queries per fragmented success: sum_j q_j / prod_{k>=j} p_k."""
    return _queries_per_success(schedule.step_probabilities, schedule.step_query_costs)


def fragmented_query_bound(schedule: Schedule) -> float | None:
    """Upper bound on the expected queries per fragmented success, any schedule.

    The expected cost of the worst-step schedule: l steps, each at the
    smallest step probability and the largest step cost, that is
    max_j q_j * sum_{m=1}^{l} p_min^-m.  It is formed by the expected
    cost's own operations in the same order, and float64 rounding is
    monotone in each operand, so it is never below
    ``expected_queries_per_success``.  None where float64 cannot hold it.
    """
    l = schedule.l
    bound = _queries_per_success(np.full(l, schedule.step_probabilities.min()),
                                 np.full(l, schedule.step_query_costs.max()))
    return bound if math.isfinite(bound) else None


def schedule_size_lower_bound(p_full: float, b: float) -> float:
    """-log2(p_full) / b: minimum schedule length at step probabilities >= 2^-b.

    With p_full = e^-beta Z_beta / 2^n this is
    (n + beta log2(e) - log2(Z_beta)) / b.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    return -math.log2(p_full) / b + 0.0  # + 0.0: p_full = 1 gives 0.0, not -0.0
