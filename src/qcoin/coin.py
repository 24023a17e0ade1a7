"""The two-outcome quantum coin: exact probabilities and seeded count samplers.

A coin toss is the success/failure of post-selecting the block-encoding
ancillas after applying the propagator to the maximally mixed input state.
The coin is fully characterized by its heads probability, computed once
per ``CoinSpec``, and the estimators read only Bernoulli-process
statistics, so the samplers draw counts from their exact distributions
instead of simulating tosses one by one: ``toss`` is one binomial draw of
the head count.  Every draw is reproducible from its 64-bit seed via
numpy's PCG64 generator (``numpy.random.default_rng``); ``SeedStream``
derives those seeds.

The fragmented coin splits the imaginary-time evolution into schedule steps
with restart-on-failure; the overall heads probability factorizes over the
steps, only the per-toss query cost changes.  ``toss_fragmented`` samples
its attempt count, its per-step execution counts and its query total
exactly, at a cost independent of the number of attempts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import Spectrum
from .oracle import ideal_coin_probability
from .propagator import ChebyshevApproximant, _clenshaw, required_degree

_EPS_PRIME_FLOOR = 1e-16  # cost accounting for the ideal coin


@dataclass(frozen=True, eq=False)
class CoinSpec:
    """Coin definition: unit spectrum, inverse temperature, approximation error.

    ``eps_prime = 0`` is the ideal coin (no approximant); otherwise a
    certified approximant with ``certified_error <= eps_prime`` must be
    attached.  The sub-normalization exp(-beta/2) is implied, never stored.
    """

    spectrum: Spectrum
    beta: float
    eps_prime: float = 0.0
    approximant: ChebyshevApproximant | None = None
    heads_probability: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if not 0 <= self.eps_prime <= 1:
            raise ValueError("eps_prime must be in [0, 1]")
        if (self.approximant is not None) != (self.eps_prime > 0):
            raise ValueError(
                "approximant must be present exactly when eps_prime > 0"
            )
        if self.approximant is not None:
            if self.approximant.certified_error > self.eps_prime:
                raise ValueError(
                    f"approximant certified_error "
                    f"{self.approximant.certified_error:.3e} exceeds "
                    f"eps_prime {self.eps_prime:.3e}"
                )
            if self.approximant.target_beta != self.beta:
                raise ValueError("approximant was built for a different beta")
        object.__setattr__(self, "heads_probability", success_probability(self))


class SeedStream:
    """Sequential deterministic 64-bit seeds derived from a root seed."""

    def __init__(self, root: int):
        self._seq = np.random.SeedSequence(root)

    def next(self) -> int:
        return int(self._seq.spawn(1)[0].generate_state(1)[0])


def success_probability(spec: CoinSpec) -> float:
    """Heads probability alpha^2 Tr[ftilde rho ftilde^dagger], rho = 1/2^n.

    Computed once per coin into ``CoinSpec.heads_probability``, through the
    sub-normalized propagator amplitudes: p = mean_lambda g(lambda)^2 with
    g = exp(-beta/2) * ftilde.  The ideal coin is ``ideal_coin_probability``.
    """
    if spec.approximant is None:
        return ideal_coin_probability(spec.spectrum, spec.beta)
    ftilde = _clenshaw(spec.approximant.coefficients, spec.spectrum.values)
    amplitudes = math.exp(-spec.beta / 2.0) * ftilde
    return float(np.mean(amplitudes**2))


def query_cost(beta: float, eps_prime: float) -> int:
    """Oracle calls per toss: the certified approximation degree.

    The ideal coin (eps_prime = 0) is accounted at the 1e-16 floor.
    """
    if eps_prime < 0 or eps_prime > 1:
        raise ValueError("eps_prime must be in [0, 1]")
    return required_degree(beta, max(eps_prime, _EPS_PRIME_FLOOR))


def toss(spec: CoinSpec, count: int, seed: int | np.random.Generator) -> int:
    """Number of heads in ``count`` i.i.d. coin tosses, deterministic per seed.

    ``seed`` is a 64-bit seed or a live ``numpy.random.Generator``, which
    the draw advances.  Each toss costs ``query_cost(spec.beta,
    spec.eps_prime)`` queries.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    p = min(max(spec.heads_probability, 0.0), 1.0)
    return int(np.random.default_rng(seed).binomial(count, p))


@dataclass(frozen=True)
class Schedule:
    """Inverse-temperature schedule 0 = beta_0 <= ... <= beta_l = beta/2.

    The values are in half-beta units: a schedule for total inverse
    temperature beta ends at beta/2, and step k runs the coin at inverse
    temperature 2 * (betas[k] - betas[k-1]).  ``per_step_eps`` is the
    approximation-error budget per step, used for cost accounting.
    """

    betas: np.ndarray
    per_step_eps: np.ndarray

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=float)
        eps = np.asarray(self.per_step_eps, dtype=float)
        if betas.ndim != 1 or len(betas) < 2:
            raise ValueError("schedule needs at least one step")
        if betas[0] != 0.0:
            raise ValueError("schedule must start at 0")
        if np.any(np.diff(betas) < 0):
            raise ValueError("schedule must be non-decreasing")
        if eps.shape != (len(betas) - 1,):
            raise ValueError("per_step_eps must have one entry per step")
        for name, arr in (("betas", betas), ("per_step_eps", eps)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def l(self) -> int:
        return len(self.betas) - 1

    @property
    def step_widths(self) -> np.ndarray:
        return np.diff(self.betas)

    def step_query_costs(self) -> np.ndarray:
        return np.array(
            [
                query_cost(2.0 * w, e)
                for w, e in zip(self.step_widths, self.per_step_eps)
            ],
            dtype=np.int64,
        )

    def step_probabilities(self, spectrum: Spectrum) -> np.ndarray:
        """Success probability of each step with ideal propagators.

        Step k's probability is the ratio of full-coin success probabilities
        at the accumulated inverse temperatures,
        p_k = Z(2 beta_k) / (e^{2 w_k} Z(2 beta_{k-1})) with
        w_k = beta_k - beta_{k-1}, so the product over all steps telescopes
        to the unfragmented heads probability.  It is evaluated as
        ``_step_probability``, whose factors cannot overflow.
        """
        s = [_shifted_mean(spectrum, b) for b in self.betas]
        return np.array([
            _step_probability(spectrum, w, s_lo, s_hi)
            for w, s_lo, s_hi in zip(self.step_widths, s, s[1:])
        ])


def _shifted_mean(spectrum: Spectrum, b: float) -> float:
    """S(b) = mean exp(-2 b (lambda - lambda_min)), which lies in [1/2^n, 1]."""
    shifted = spectrum.values - spectrum.values[0]
    return math.fsum(np.exp(-2.0 * b * shifted)) / spectrum.dim


def _step_probability(spectrum: Spectrum, w: float, s_lo: float, s_hi: float) -> float:
    """p = exp(-2 w (1 + lambda_min)) S(b_hi) / S(b_lo) for a step of width w.

    The same ratio as Z(2 b_hi) / (e^{2 w} Z(2 b_lo)), with the ground-state
    factor exp(-2 b lambda_min) taken out of both partition functions: the
    exponent is at most ~0 on a unit spectrum and S(b_lo) >= 1/2^n, so no
    intermediate overflows where Z or e^{2 w} would.
    """
    return math.exp(-2.0 * w * (1.0 + float(spectrum.values[0]))) * s_hi / s_lo


def uniform_schedule(beta: float, l: int, eps_total: float) -> Schedule:
    """Evenly spaced schedule with the error budget split evenly."""
    if l < 1:
        raise ValueError("need at least one step")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return Schedule(
        betas=np.linspace(0.0, beta / 2.0, l + 1),
        per_step_eps=np.full(l, eps_total / l),
    )


@dataclass(frozen=True)
class FragmentedRun:
    """Counts of a fragmented-coin simulation.

    An attempt runs the steps in order until one fails (tails, restart) or
    all pass (heads); ``step_executions[k]`` counts the runs of step k+1 and
    ``queries`` is the exact total query cost.
    """

    attempts: int
    successes: int
    queries: int
    step_executions: np.ndarray
    step_probabilities: np.ndarray

    @property
    def queries_per_success(self) -> float:
        return self.queries / max(self.successes, 1)


def toss_fragmented(
    spectrum: Spectrum, schedule: Schedule, count_successes_target: int, seed: int
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
    probs = np.clip(schedule.step_probabilities(spectrum), 0.0, 1.0)
    p_full = float(np.prod(probs))
    rng = np.random.default_rng(seed)
    try:
        failures = int(rng.negative_binomial(k, p_full)) if k else 0
    except ValueError:
        expected = k / p_full if p_full > 0 else math.inf
        raise ValueError(
            f"fragmented coin infeasible: p_full = {p_full:.3e}, expected "
            f"attempts k/p_full = {expected:.3e} for k = {k} successes"
        ) from None
    stops = np.zeros(len(probs), dtype=np.int64)
    if failures:
        reach = np.concatenate(([1.0], np.cumprod(probs[:-1])))
        weights = reach * (1.0 - probs)
        stops = rng.multinomial(failures, weights / weights.sum())
    executions = k + np.cumsum(stops[::-1])[::-1]
    costs = schedule.step_query_costs()
    # Python ints: the int64 dot product wraps for long runs of tiny p_full
    queries = sum(int(e) * int(c) for e, c in zip(executions, costs))
    return FragmentedRun(k + failures, k, queries, executions, probs)


def expected_queries_per_success(spectrum: Spectrum, schedule: Schedule) -> float:
    """Mean queries per fragmented success: sum_j q_j / prod_{k>=j} p_k."""
    probs = schedule.step_probabilities(spectrum)
    costs = schedule.step_query_costs().astype(float)
    # suffix products prod_{k=j..l} p_k
    suffix = np.cumprod(probs[::-1])[::-1]
    return float(np.sum(costs / suffix))


def fragmented_query_bound(
    spectrum: Spectrum, schedule: Schedule, assume_equal_probabilities: bool = True
) -> float:
    """Upper bound on the expected queries per fragmented success.

    With ``assume_equal_probabilities`` (the closed form; valid when every
    step probability equals 2^-b):
        max_j q_j * 2^b/(2^b - 1) * 2^n e^beta / Z_beta.
    Otherwise the rigorous geometric-sum form for any schedule, with b from
    the smallest step probability:  max_j q_j * sum_{m=1}^{l} 2^{m b}.
    """
    l = schedule.l
    probs = schedule.step_probabilities(spectrum)
    max_cost = float(schedule.step_query_costs().max(initial=0))
    b = -math.log2(float(probs.min()))
    if b <= 0:
        return max_cost * l
    if not assume_equal_probabilities:
        return max_cost * float(np.sum(2.0 ** (b * np.arange(1, l + 1))))
    beta_total = 2.0 * float(schedule.betas[-1])
    inv_p_total = 1.0 / ideal_coin_probability(spectrum, beta_total)
    factor = 2.0**b / (2.0**b - 1.0)
    return max_cost * factor * inv_p_total


def equal_step_schedule(
    spectrum: Spectrum, beta: float, l: int, eps_total: float
) -> Schedule:
    """Schedule whose steps all have (numerically) equal success probability.

    Built by bisection on each breakpoint: the step probability is
    non-increasing in the step's upper endpoint, so each beta_k is pinned to
    make p_k equal to the geometric mean of the total success probability.
    """
    if l < 1:
        raise ValueError("need at least one step")
    p_total = ideal_coin_probability(spectrum, beta)
    target = p_total ** (1.0 / l)
    betas = [0.0]
    for k in range(1, l):
        lo, hi = betas[-1], beta / 2.0
        s_lo = _shifted_mean(spectrum, betas[-1])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            p_mid = _step_probability(
                spectrum, mid - betas[-1], s_lo, _shifted_mean(spectrum, mid)
            )
            if p_mid > target:
                lo = mid
            else:
                hi = mid
        betas.append(0.5 * (lo + hi))
    betas.append(beta / 2.0)
    return Schedule(np.array(betas), np.full(l, eps_total / l))


def schedule_size_lower_bound(p_full: float, b: float) -> float:
    """-log2(p_full) / b: minimum schedule length at step probabilities >= 2^-b.

    With p_full = e^-beta Z_beta / 2^n this is
    (n + beta log2(e) - log2(Z_beta)) / b.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    return -math.log2(p_full) / b
