"""The equal-probability fragmentation schedule: the tests' reference.

The fragment command runs uniform schedules (``qcoin.coin.uniform_schedule``).
The closed-form query bound ``fragmented_query_bound`` assumes instead that
every step has the same success probability; ``equal_step_schedule`` builds
such a schedule, so the tests can check the closed form where it holds.
"""

from __future__ import annotations

import numpy as np

from qcoin import coin
from qcoin.hamiltonian import Spectrum
from qcoin.oracle import ideal_coin_probability, step_probabilities


def equal_step_schedule(
    spectrum: Spectrum, beta: float, l: int, eps_total: float
) -> coin.Schedule:
    """Schedule whose steps all have (numerically) equal success probability.

    Built by bisection on each breakpoint: the step probability is
    non-increasing in the step's upper endpoint, so each beta_k is pinned to
    make p_k equal to the geometric mean of the total success probability.
    Each step is costed by ``coin.query_cost``, looked up at call time.
    """
    if l < 1:
        raise ValueError("need at least one step")
    p_total = ideal_coin_probability(spectrum, beta)
    target = p_total ** (1.0 / l)
    betas = [0.0]
    for k in range(1, l):
        lo, hi = betas[-1], beta / 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            (p_mid,) = step_probabilities(spectrum, np.array([betas[-1], mid]))
            if p_mid > target:
                lo = mid
            else:
                hi = mid
        betas.append(0.5 * (lo + hi))
    betas.append(beta / 2.0)
    costs = [coin.query_cost(2.0 * w, eps_total / l) for w in np.diff(betas)]
    return coin.Schedule(spectrum, np.array(betas), np.array(costs))
