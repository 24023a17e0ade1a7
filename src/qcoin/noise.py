"""Layered global-depolarizing noise: forward model, fitting, mitigation.

Each circuit layer is modeled as the ideal operation followed by a global
depolarizing channel of strength xi, which contracts the measured success
probability toward 1/2:

    pbar(L) = 1/2 + (1 - xi)^L (p - 1/2).

Inserting identity layer pairs amplifies the noise without changing the
ideal outcome, so measurements at several depths determine (xi, p) by
least squares.  For a fixed xi the model is linear in p, so the fit
profiles p out and searches xi in one dimension: a grid over [0, 1] finds
the global minimum's bracket, and a bracketed root of the profile's slope
refines it (Bates & Watts, Nonlinear Regression Analysis, 1988; Brent,
Algorithms for Minimization without Derivatives, 1973).  Inverting the map
mitigates any later measurement taken at a known depth.
"""

from __future__ import annotations

import math

import numpy as np

from .coin import draw_heads
from .record import Record

# the profile is scanned at xi = 0 and at xi 3.7% apart from 1e-16 to 1
# (1 - xi rounds to 1 below about 5.6e-17).  Where p sits at 0 or 1 far
# down the decay, a basin of the profile spans a few percent of xi: half as
# many points miss one in tests/test_noise.py
_XI_GRID = np.concatenate([[0.0], np.logspace(-16.0, 0.0, 1023)])
# log of the rounded 1 - xi, the base that _profile_at sees (log1p(-xi) would
# rank the xi below 5.6e-17 that it cannot tell apart); -inf at xi = 1
with np.errstate(divide="ignore"):
    _LOG_DECAY = np.log(1.0 - _XI_GRID)
_BLOCK = 2**18  # xi-by-depth cells per vectorised block of the grid pass
# the root search stops at a bracket of 2 eps, 4 ulps of 1 - xi (or of xi)
_TOL = math.ulp(1.0)
_MAX_STEPS = 100  # slope evaluations of one root search; ~10 is usual
_BELOW_ONE = math.nextafter(1.0, 0.0)


class FitDegenerateError(ValueError):
    """The depth series carries no signal (all points at the 1/2 fixed point)."""


class LayerSeries(Record):
    """Measured success probabilities at strictly increasing circuit depths."""

    __slots__ = fields = ("depths", "measured_p", "shots_per_point")

    def __init__(
        self, depths: np.ndarray, measured_p: np.ndarray, shots_per_point: int
    ) -> None:
        depths = np.asarray(depths, dtype=np.int64)
        measured = np.asarray(measured_p, dtype=float)
        if depths.ndim != 1 or depths.shape != measured.shape:
            raise ValueError("depths and measured_p must be 1-d and equal length")
        if len(depths) and depths.min() < 1:
            raise ValueError("depths must be positive")
        if np.any(np.diff(depths) <= 0):
            raise ValueError("depths must be strictly increasing")
        if np.any((measured < 0) | (measured > 1)):
            raise ValueError("measured_p must lie in [0, 1]")
        if shots_per_point < 1:
            raise ValueError("shots_per_point must be >= 1")
        for arr in (depths, measured):
            arr.setflags(write=False)
        self._set(depths=depths, measured_p=measured, shots_per_point=shots_per_point)


def noisy_success_probability(p_ideal: float, xi: float, layers: int) -> float:
    """Contract p_ideal toward 1/2 by (1 - xi)^layers."""
    if not 0.0 <= p_ideal <= 1.0:
        raise ValueError("p_ideal must be in [0, 1]")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be in [0, 1]")
    if layers < 0:
        raise ValueError("layers must be non-negative")
    return _forward((xi, p_ideal), layers)


def simulate_noisy_tosses(
    p_ideal: float, xi: float, layers: int, shots: int, seed: int
) -> int:
    """Binomial draw of successes at the noisy probability, seeded."""
    pbar = noisy_success_probability(p_ideal, xi, layers)
    return int(draw_heads(np.random.default_rng(seed), pbar, shots, name="shots"))


def identity_insertion_depths(base_layers: int, insertions: int) -> list[int]:
    """Depths [base, base+2, ...]: each inserted identity adds two layers."""
    if base_layers < 1:
        raise ValueError("base_layers must be >= 1")
    if insertions < 0:
        raise ValueError("insertions must be non-negative")
    return [base_layers + 2 * k for k in range(insertions + 1)]


class NoiseFit(Record):
    """Result of fitting (xi, p) to a depth series, each with its 1-sigma."""

    __slots__ = fields = (
        "xi", "xi_sigma", "p_hat", "p_sigma", "residual_norm", "covariance",
        "iterations",
    )

    def __init__(
        self,
        xi: float,
        xi_sigma: float,
        p_hat: float,
        p_sigma: float,
        residual_norm: float,
        covariance: np.ndarray,
        iterations: int,
    ) -> None:
        self._set(xi=xi, xi_sigma=xi_sigma, p_hat=p_hat, p_sigma=p_sigma,
                  residual_norm=residual_norm, covariance=covariance,
                  iterations=iterations)

    def summary(self) -> dict:
        """The fitted values that sweep and noise-fit reports carry."""
        return {
            "xi": self.xi,
            "xi_sigma": self.xi_sigma,
            "p_hat": self.p_hat,
            "p_sigma": self.p_sigma,
            "residual": self.residual_norm,
        }


def _forward(theta, depths):
    """pbar at depth(s) ``depths`` for theta = (xi, p), scalars or arrays."""
    xi, p = theta
    return 0.5 + (1.0 - xi) ** depths * (p - 0.5)


def _jacobian(theta: np.ndarray, depths: np.ndarray) -> np.ndarray:
    xi, p = theta
    d_xi = -depths * (1.0 - xi) ** (depths - 1) * (p - 0.5)
    return np.column_stack([d_xi, (1.0 - xi) ** depths])


def fitted_curve(fit: NoiseFit, depths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fitted pbar at each depth and its first-order 1-sigma band."""
    theta = np.array([fit.xi, fit.p_hat])
    depths = np.asarray(depths, dtype=float)
    jac = _jacobian(theta, depths)
    variance = np.sum((jac @ fit.covariance) * jac, axis=1)
    return _forward(theta, depths), np.sqrt(np.maximum(variance, 0.0))


def _profile_at(xi: float, depths: np.ndarray, centered: np.ndarray):
    """Residual sum, its slope in xi, and the best c = p - 1/2, at one xi.

    For a fixed xi the model 1/2 + c (1 - xi)^L is linear in c, so c is the
    least-squares ratio, clipped so that p stays in [0, 1].  By the envelope
    theorem the slope of the profile is the partial derivative at that c.
    """
    below = (1.0 - xi) ** (depths - 1.0)
    a = (1.0 - xi) * below
    aa = float(a @ a)
    c = min(max(float(a @ centered) / aa, -0.5), 0.5) if aa > 0.0 else 0.0
    r = c * a - centered
    return float(r @ r), -2.0 * c * float((r * depths) @ below), c


def _rising_root(slope, lo: float, hi: float) -> tuple[float, int]:
    """Where slope(xi) turns from <= 0 to > 0 in [lo, hi], and the evaluations made.

    Brent's method (1973, ch. 4): secant or inverse quadratic steps inside the
    bracket, bisection where they would not shrink it fast enough.  It ends at
    a zero slope, a bracket of 2 _TOL or _MAX_STEPS evaluations; where the
    slope keeps one sign across [lo, hi], at the end it falls towards.
    """
    a, fa, b, fb = lo, slope(lo), hi, slope(hi)
    if fa > 0.0 or fb <= 0.0:
        return (lo if fa > 0.0 else hi), 2
    c, fc, d, e = a, fa, b - a, b - a
    for steps in range(2, _MAX_STEPS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        m = 0.5 * (c - b)
        if abs(m) <= _TOL or fb == 0.0:
            return b, steps
        if abs(e) < _TOL or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            ok = 2.0 * p < min(3.0 * m * q - abs(_TOL * q), abs(e * q))
            d, e = (p / q, d) if ok else (m, m)
        a, fa = b, fb
        b += d if abs(d) > _TOL else math.copysign(_TOL, m)
        fb = slope(b)
    return b, _MAX_STEPS


def fit_noise_model(series: LayerSeries) -> NoiseFit:
    """Least-squares fit of (xi, p) to the depth series, global in xi.

    p is profiled out, and the residual sum is scanned on a fixed grid of xi
    (decays exp(L log(1 - xi)), in blocks of at most _BLOCK cells); between
    the grid neighbours of its best point, a bracketed root of the profile's
    slope refines xi to float precision.  Standard deviations come from the
    Jacobian covariance (J^T J)^-1 scaled by the residual variance, floored
    at the binomial shot variance.  ``iterations`` counts the profile
    evaluations: grid points, root-finder steps and candidates.
    """
    if len(series.depths) < 3:
        raise ValueError("need at least 3 depth points to fit two parameters")
    if float(np.max(np.abs(series.measured_p - 0.5))) == 0.0:
        raise FitDegenerateError(
            "all points sit at the depolarizing fixed point 0.5"
        )
    depths = series.depths.astype(float)
    y = series.measured_p
    centered = y - 0.5
    grid_ss, rows = [], max(1, _BLOCK // len(depths))
    for start in range(0, len(_LOG_DECAY), rows):
        a = np.exp(np.multiply.outer(_LOG_DECAY[start:start + rows], depths))
        aa = np.einsum("ij,ij->i", a, a)
        a *= np.clip(a @ centered / np.where(aa > 0.0, aa, 1.0), -0.5, 0.5)[:, None]
        a -= centered  # the residuals themselves: their sum stays exact on an exact series
        grid_ss.append(np.einsum("ij,ij->i", a, a))
    best = int(np.argmin(np.concatenate(grid_ss)))
    # an ulp short of xi = 1, where every decay is 0 and so is the slope
    lo = _XI_GRID[max(best - 1, 0)]
    hi = min(_XI_GRID[min(best + 1, len(_XI_GRID) - 1)], _BELOW_ONE)
    root, steps = _rising_root(lambda xi: _profile_at(xi, depths, centered)[1],
                               float(lo), float(hi))
    # the grid's best point stays a candidate and wins a tie: where the slope
    # is all rounding (xi ~ 0 on an exact series) the root can drift off
    candidates = (float(_XI_GRID[best]), root)
    profiles = [_profile_at(xi, depths, centered) for xi in candidates]
    pick = min(range(len(candidates)), key=lambda k: profiles[k][0])
    ss, _, c = profiles[pick]
    xi = candidates[pick]

    jac = _jacobian((xi, 0.5 + c), depths)
    dof = max(len(y) - 2, 1)
    # Residual variance floored at the known binomial shot variance: with only
    # a few depth points the chi-square fluctuation of RSS/dof would otherwise
    # underestimate the parameter spread half the time.
    shot_var = float(np.mean(np.maximum(y * (1.0 - y), 1e-12)))
    s2 = max(ss / dof, shot_var / series.shots_per_point)
    (xx, xp), (_, pp) = jtj = jac.T @ jac
    det = xx * pp - xp * xp  # the 2x2 inverse in closed form, pinv where singular
    cov = (np.array([[pp, -xp], [-xp, xx]]) / det if det > 0.0 else np.linalg.pinv(jtj)) * s2
    xi_sigma, p_sigma = (math.sqrt(max(float(v), 0.0)) for v in cov.diagonal())
    return NoiseFit(
        xi=xi,
        xi_sigma=xi_sigma,
        p_hat=0.5 + c,
        p_sigma=p_sigma,
        residual_norm=math.sqrt(ss),
        covariance=cov,
        iterations=len(_XI_GRID) + steps + len(candidates),
    )


def mitigate(
    measured_p: float, p_sigma: float, xi: float, xi_sigma: float, layers: int
) -> tuple[float, float, bool]:
    """Invert the noise map at depth ``layers``.

    Returns the value clamped to [0, 1], its first-order 1-sigma from
    (p_sigma, xi_sigma), and whether the value was clamped.
    """
    if xi >= 1.0:
        raise ValueError("xi = 1 leaves no signal; the noise map is singular")
    if layers < 0:
        raise ValueError("layers must be non-negative")
    if p_sigma < 0:
        raise ValueError("p_sigma must be non-negative")
    decay = (1.0 - xi) ** layers
    raw = 0.5 + (measured_p - 0.5) / decay
    value = min(max(raw, 0.0), 1.0)
    d_xi = (measured_p - 0.5) * layers / ((1.0 - xi) ** (layers + 1))
    return value, math.hypot(1.0 / decay * p_sigma, d_xi * xi_sigma), value != raw
