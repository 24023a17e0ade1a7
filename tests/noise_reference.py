"""Dense-grid reference for the noise fit: the least residual sum over xi.

For each xi of a dense grid (xi = 0 and 10^5 log-spaced values from 1e-16
to 1) the best p is the linear least-squares one, clipped to [0, 1], and
the residual sum is formed from the residuals themselves.  The grid's least
residual sum bounds the global minimum from above, so a fit that finds the
global minimum reads at or below it, up to rounding.
"""

from __future__ import annotations

import numpy as np

DENSE_XI = np.concatenate([[0.0], np.logspace(-16.0, 0.0, 10**5)])


def profile_rss(xi, depths, measured_p) -> np.ndarray:
    """The residual sum at each xi, with p the clipped least-squares value."""
    centered = np.asarray(measured_p, dtype=float)[:, None] - 0.5
    a = (1.0 - np.asarray(xi, dtype=float)) ** np.asarray(depths, dtype=float)[:, None]
    aa = (a * a).sum(axis=0)  # a is depth by xi
    c = np.clip((a * centered).sum(axis=0) / np.where(aa > 0.0, aa, 1.0), -0.5, 0.5)
    r = c * a - centered
    return (r * r).sum(axis=0)


def dense_grid_rss(depths, measured_p) -> float:
    """The least residual sum of (xi, p) over the dense xi grid."""
    return float(profile_rss(DENSE_XI, depths, measured_p).min())


def rounding_slack(rss, depths) -> float:
    """A residual sum plus the rounding that a comparison with it allows.

    The sum times 1 + 1e-12, plus the squared float64 rounding of the
    residuals, so an exact series (sum ~1e-33) compares by rounding.
    """
    eps = np.finfo(float).eps
    return rss * (1.0 + 1e-12) + len(depths) * eps**2


def rss_bound(depths, measured_p) -> float:
    """The residual sum a global fit may not exceed: the dense grid's, with
    rounding_slack."""
    return rounding_slack(dense_grid_rss(depths, measured_p), depths)
