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
_DECAY = 1.0 - DENSE_XI


def dense_grid_rss(depths, measured_p) -> float:
    """The least residual sum of (xi, p) over the dense xi grid."""
    centered = np.asarray(measured_p, dtype=float)[:, None] - 0.5
    a = _DECAY ** np.asarray(depths, dtype=float)[:, None]  # depth by xi
    aa = (a * a).sum(axis=0)
    c = np.clip((a * centered).sum(axis=0) / np.where(aa > 0.0, aa, 1.0), -0.5, 0.5)
    r = c * a - centered
    return float((r * r).sum(axis=0).min())


def rss_bound(depths, measured_p) -> float:
    """The residual sum a global fit may not exceed.

    The reference times 1 + 1e-12, plus the squared float64 rounding of the
    residuals, so an exact series (reference ~1e-33) compares by rounding.
    """
    eps = np.finfo(float).eps
    return dense_grid_rss(depths, measured_p) * (1.0 + 1e-12) + len(depths) * eps**2
