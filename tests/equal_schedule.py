"""The equal-probability fragmentation schedule and its closed-form bound.

The fragment command runs uniform schedules (``qcoin.coin.uniform_schedule``)
and bounds them with ``qcoin.coin.fragmented_query_bound``, which holds for
any schedule.  The paper's closed form, ``closed_form_query_bound``, assumes
instead that every step has the same success probability, and is no bound
for uniform schedules; ``equal_step_schedule`` builds a schedule whose steps
are equal, so the tests can check the closed form where it holds.
"""

from __future__ import annotations

import math

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
    betas = np.array([*betas, beta / 2.0])
    costs = [coin.query_cost(2.0 * w, eps_total / l) for w in np.diff(betas)]
    return coin.Schedule(betas, step_probabilities(spectrum, betas), np.array(costs))


def closed_form_query_bound(schedule: coin.Schedule) -> float:
    """The paper's bound for step probabilities all equal to 2^-b, b > 0:

        max_j q_j * 2^b / (2^b - 1) / p_total,  p_total = prod_j p_j,

    with b from the smallest step probability.
    """
    probs = schedule.step_probabilities
    max_cost = float(schedule.step_query_costs.max())
    b = -math.log2(float(probs.min()))
    factor = 2.0**b / (2.0**b - 1.0)
    return max_cost * factor / float(np.prod(probs))
