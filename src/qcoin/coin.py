"""The two-outcome quantum coin: exact probabilities and seeded toss streams.

A coin toss is the success/failure of post-selecting the block-encoding
ancillas after applying the propagator to the maximally mixed input state.
The coin is fully characterized by its heads probability, so sampling draws
Bernoulli outcomes from the exactly computed probability rather than
simulating amplitudes; every stream is reproducible from its 64-bit seed
via numpy's PCG64 generator (``numpy.random.default_rng``).

The fragmented coin splits the imaginary-time evolution into schedule steps
with restart-on-failure; the overall heads probability factorizes over the
steps, only the per-toss query cost changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import Hamiltonian
from .oracle import exact_partition_function
from .propagator import ChebyshevApproximant, _clenshaw, required_degree

_EPS_PRIME_FLOOR = 1e-16  # cost accounting for the ideal coin


@dataclass(frozen=True)
class CoinSpec:
    """Coin definition: Hamiltonian, inverse temperature, approximation error.

    ``eps_prime = 0`` is the ideal coin (no approximant); otherwise a
    certified approximant with ``certified_error <= eps_prime`` must be
    attached.  The sub-normalization exp(-beta/2) is implied, never stored.
    """

    hamiltonian: Hamiltonian
    beta: float
    eps_prime: float = 0.0
    approximant: ChebyshevApproximant | None = None

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


@dataclass
class TossStream:
    """Seeded heads/tails sequence with per-toss query-cost accounting."""

    outcomes: np.ndarray
    seed: int
    per_toss_queries: np.ndarray

    def __post_init__(self) -> None:
        self.outcomes = np.asarray(self.outcomes, dtype=bool)
        self.per_toss_queries = np.asarray(self.per_toss_queries, dtype=np.int64)
        if self.per_toss_queries.shape != self.outcomes.shape:
            raise ValueError("per_toss_queries must match outcomes in length")

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def n_heads(self) -> int:
        return int(self.outcomes.sum())

    @property
    def queries_consumed(self) -> int:
        return int(self.per_toss_queries.sum())

    def to_csv(self, path) -> None:
        """Columns: index, outcome in {0, 1}, cumulative_queries."""
        cumulative = np.cumsum(self.per_toss_queries)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,outcome,cumulative_queries\n")
            for i, (o, q) in enumerate(zip(self.outcomes, cumulative)):
                fh.write(f"{i},{int(o)},{int(q)}\n")


def success_probability(spec: CoinSpec) -> float:
    """Heads probability alpha^2 Tr[ftilde rho ftilde^dagger], rho = 1/2^n.

    Computed through the sub-normalized propagator amplitudes at the
    eigenvalues: p = mean_lambda g(lambda)^2 with g = exp(-beta/2) * ftilde.
    For the ideal coin this equals exp(-beta) Tr[exp(-beta H)] / 2^n.
    """
    evals = spec.hamiltonian.unit_spectrum()
    alpha = math.exp(-spec.beta / 2.0)
    if spec.approximant is None:
        amplitudes = np.exp(-spec.beta * (1.0 + evals) / 2.0)
    else:
        amplitudes = alpha * _clenshaw(spec.approximant.coefficients, evals)
    return float(np.mean(amplitudes**2))


def query_cost(beta: float, eps_prime: float) -> int:
    """Oracle calls per toss: the certified approximation degree.

    The ideal coin (eps_prime = 0) is accounted at the 1e-16 floor.
    """
    if eps_prime < 0 or eps_prime > 1:
        raise ValueError("eps_prime must be in [0, 1]")
    return required_degree(beta, max(eps_prime, _EPS_PRIME_FLOOR))


def toss(spec: CoinSpec, count: int, seed: int) -> TossStream:
    """Draw ``count`` i.i.d. coin outcomes, deterministic per seed."""
    if count < 0:
        raise ValueError("count must be non-negative")
    p = min(max(success_probability(spec), 0.0), 1.0)
    rng = np.random.default_rng(seed)
    outcomes = rng.random(count) < p
    q = query_cost(spec.beta, spec.eps_prime)
    return TossStream(outcomes, seed, np.full(count, q, dtype=np.int64))


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

    @property
    def step_coin_betas(self) -> np.ndarray:
        """Coin inverse temperature run at each step (twice the width)."""
        return 2.0 * self.step_widths

    def step_query_costs(self) -> np.ndarray:
        return np.array(
            [
                query_cost(2.0 * w, e)
                for w, e in zip(self.step_widths, self.per_step_eps)
            ],
            dtype=np.int64,
        )

    def step_probabilities(self, h: Hamiltonian) -> np.ndarray:
        """Success probability of each step with ideal propagators.

        Step k's probability is the ratio of full-coin success probabilities
        at the accumulated inverse temperatures:
        p_k = Z(2 beta_k) / (e^{2 w_k} Z(2 beta_{k-1})) with
        w_k = beta_k - beta_{k-1}, so the product over all steps telescopes
        to the unfragmented heads probability.
        """
        z = [exact_partition_function(h, 2.0 * b) for b in self.betas]
        return np.array([
            z_hi / (math.exp(2.0 * (b_hi - b_lo)) * z_lo)
            for z_lo, z_hi, b_lo, b_hi in zip(z, z[1:], self.betas, self.betas[1:])
        ])


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


@dataclass
class FragmentedRun:
    """Outcome of a fragmented-coin simulation.

    ``stream`` holds one entry per attempt (heads = full traversal, tails =
    restart) with that attempt's query cost; ``step_executions[k]`` counts
    how many times step k+1 was run.
    """

    stream: TossStream
    step_executions: np.ndarray
    step_probabilities: np.ndarray

    @property
    def attempts(self) -> int:
        return len(self.stream)

    @property
    def successes(self) -> int:
        return self.stream.n_heads

    @property
    def queries_per_success(self) -> float:
        return self.stream.queries_consumed / max(self.successes, 1)


def toss_fragmented(
    h: Hamiltonian,
    schedule: Schedule,
    count_successes_target: int,
    seed: int,
    max_attempts: int = 10_000_000,
) -> FragmentedRun:
    """Run the sequential-step process until the target number of successes.

    Each attempt runs the steps in order with their ideal success
    probabilities; the first failed step aborts the attempt (tails) and the
    process restarts from step 1.  Query costs accumulate per executed step.
    """
    if count_successes_target < 0:
        raise ValueError("count_successes_target must be non-negative")
    l = schedule.l
    probs = np.clip(schedule.step_probabilities(h), 0.0, 1.0)
    costs = schedule.step_query_costs()
    prefix_cost = np.cumsum(costs)  # queries spent reaching the end of step k
    rng = np.random.default_rng(seed)
    outcomes: list[bool] = []
    attempt_queries: list[int] = []
    executions = np.zeros(l, dtype=np.int64)
    successes = 0
    block: np.ndarray = np.empty(0)
    used = 0
    while successes < count_successes_target:
        if len(outcomes) >= max_attempts:
            raise RuntimeError(
                f"exceeded {max_attempts} attempts before reaching "
                f"{count_successes_target} successes"
            )
        if used + l > len(block):
            block = rng.random(max(4096, l))
            used = 0
        draws = block[used : used + l]
        failed = np.nonzero(draws >= probs)[0]
        steps_run = l if len(failed) == 0 else int(failed[0]) + 1
        used += steps_run
        executions[:steps_run] += 1
        heads = len(failed) == 0
        outcomes.append(heads)
        attempt_queries.append(int(prefix_cost[steps_run - 1]) if l else 0)
        if heads:
            successes += 1
    stream = TossStream(np.array(outcomes, dtype=bool), seed,
                        np.array(attempt_queries, dtype=np.int64))
    return FragmentedRun(stream, executions, probs)


def expected_queries_per_success(h: Hamiltonian, schedule: Schedule) -> float:
    """Mean queries per fragmented success: sum_j q_j / prod_{k>=j} p_k."""
    probs = schedule.step_probabilities(h)
    costs = schedule.step_query_costs().astype(float)
    # suffix products prod_{k=j..l} p_k
    suffix = np.cumprod(probs[::-1])[::-1]
    return float(np.sum(costs / suffix))


def fragmented_query_bound(
    h: Hamiltonian, schedule: Schedule, assume_equal_probabilities: bool = True
) -> float:
    """Upper bound on the expected queries per fragmented success.

    With ``assume_equal_probabilities`` (the closed form; valid when every
    step probability equals 2^-b):
        max_j q_j * 2^b/(2^b - 1) * 2^n e^beta / Z_beta.
    Otherwise the rigorous geometric-sum form for any schedule, with b from
    the smallest step probability:  max_j q_j * sum_{m=1}^{l} 2^{m b}.
    """
    l = schedule.l
    probs = schedule.step_probabilities(h)
    max_cost = float(schedule.step_query_costs().max(initial=0))
    b = -math.log2(float(probs.min()))
    if b <= 0:
        return max_cost * l
    if not assume_equal_probabilities:
        return max_cost * float(np.sum(2.0 ** (b * np.arange(1, l + 1))))
    beta_total = 2.0 * float(schedule.betas[-1])
    z = exact_partition_function(h, beta_total)
    inv_p_total = h.dim * math.exp(beta_total) / z
    factor = 2.0**b / (2.0**b - 1.0)
    return max_cost * factor * inv_p_total


def equal_step_schedule(
    h: Hamiltonian, beta: float, l: int, eps_total: float
) -> Schedule:
    """Schedule whose steps all have (numerically) equal success probability.

    Built by bisection on each breakpoint: the step probability is
    non-increasing in the step's upper endpoint, so each beta_k is pinned to
    make p_k equal to the geometric mean of the total success probability.
    """
    if l < 1:
        raise ValueError("need at least one step")
    p_total = math.exp(-beta) * exact_partition_function(h, beta) / h.dim
    target = p_total ** (1.0 / l)
    betas = [0.0]
    for k in range(1, l):
        lo, hi = betas[-1], beta / 2.0
        z_lo = exact_partition_function(h, 2.0 * betas[-1])

        def step_p(b_hi: float) -> float:
            z_hi = exact_partition_function(h, 2.0 * b_hi)
            return z_hi / (math.exp(2.0 * (b_hi - betas[-1])) * z_lo)

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if step_p(mid) > target:
                lo = mid
            else:
                hi = mid
        betas.append(0.5 * (lo + hi))
    betas.append(beta / 2.0)
    return Schedule(np.array(betas), np.full(l, eps_total / l))


def schedule_size_lower_bound(n: int, beta: float, z_beta: float, b: float) -> float:
    """(n + beta log2(e) - log2(z_beta)) / b: minimum schedule length."""
    if b <= 0:
        raise ValueError("b must be positive")
    return (n + beta * math.log2(math.e) - math.log2(z_beta)) / b
