"""Layered global-depolarizing noise: forward model, fitting, mitigation.

Each circuit layer is modeled as the ideal operation followed by a global
depolarizing channel of strength xi, which contracts the measured success
probability toward 1/2:

    pbar(L) = 1/2 + (1 - xi)^L (p - 1/2).

Inserting identity layer pairs amplifies the noise without changing the
ideal outcome, so measurements at several depths determine (xi, p) by
nonlinear least squares; inverting the map mitigates any later measurement
taken at a known depth.
"""

from __future__ import annotations

import math

import numpy as np

from .coin import draw_heads
from .record import Record, ValueRecord

_MAX_ITERATIONS = 200  # Gauss-Newton iterations before FitConvergenceError


class FitDegenerateError(ValueError):
    """The depth series carries no signal (all points at the 1/2 fixed point)."""


class FitConvergenceError(RuntimeError):
    """The least-squares iteration hit its cap without converging."""

    def __init__(self, message: str, best: "NoiseFit"):
        super().__init__(message)
        self.best = best


class NoiseModel(ValueRecord):
    """Per-layer depolarizing strength with its fit standard deviation."""

    __slots__ = fields = ("xi", "xi_sigma")

    def __init__(self, xi: float, xi_sigma: float = 0.0) -> None:
        if not 0.0 <= xi <= 1.0:
            raise ValueError(f"xi must be in [0, 1], got {xi}")
        if xi_sigma < 0.0:
            raise ValueError("xi_sigma must be non-negative")
        self._set(xi=xi, xi_sigma=xi_sigma)


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
    """Result of fitting (xi, p) to a depth series."""

    __slots__ = fields = (
        "model", "p_hat", "p_sigma", "residual_norm", "covariance", "iterations"
    )

    def __init__(
        self,
        model: NoiseModel,
        p_hat: float,
        p_sigma: float,
        residual_norm: float,
        covariance: np.ndarray,
        iterations: int,
    ) -> None:
        self._set(model=model, p_hat=p_hat, p_sigma=p_sigma,
                  residual_norm=residual_norm, covariance=covariance,
                  iterations=iterations)

    def summary(self) -> dict:
        """The fitted values that sweep and noise-fit reports carry."""
        return {
            "xi": self.model.xi,
            "xi_sigma": self.model.xi_sigma,
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
    theta = np.array([fit.model.xi, fit.p_hat])
    depths = np.asarray(depths, dtype=float)
    jac = _jacobian(theta, depths)
    variance = np.sum((jac @ fit.covariance) * jac, axis=1)
    return _forward(theta, depths), np.sqrt(np.maximum(variance, 0.0))


def _initial_guess(series: LayerSeries) -> np.ndarray:
    """Two-point log-ratio of the centered signal, inverted at the first depth."""
    centered = series.measured_p - 0.5
    first, last = centered[0], centered[-1]
    span = int(series.depths[-1] - series.depths[0])
    xi0 = 0.02
    if first != 0.0:
        ratio = last / first
        if 0.0 < ratio < 1.0:
            xi0 = 1.0 - ratio ** (1.0 / span)
    xi0 = min(max(xi0, 1e-6), 0.999)
    p0 = 0.5 + first / (1.0 - xi0) ** series.depths[0]
    return np.array([xi0, min(max(p0, 0.0), 1.0)])


def fit_noise_model(series: LayerSeries) -> NoiseFit:
    """Least-squares fit of (xi, p) to the depth series.

    Gauss-Newton with Levenberg-style damping; parameters are kept inside
    the box [0, 1]^2 by projection.  Parameter standard deviations come
    from the Jacobian-based covariance (J^T J)^-1 scaled by the residual
    variance, floored at the known binomial shot variance.
    """
    if len(series.depths) < 3:
        raise ValueError("need at least 3 depth points to fit two parameters")
    if float(np.max(np.abs(series.measured_p - 0.5))) == 0.0:
        raise FitDegenerateError(
            "all points sit at the depolarizing fixed point 0.5"
        )
    depths = series.depths.astype(float)
    y = series.measured_p
    theta = _initial_guess(series)
    r = _forward(theta, depths) - y
    ss = float(r @ r)
    damping = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        jac = _jacobian(theta, depths)
        grad = jac.T @ r
        hess = jac.T @ jac
        # active-set reduction: freeze coordinates pinned at a bound whose
        # gradient points outward, else the projected joint step zigzags
        # along the boundary without converging
        free = ~(
            ((theta <= 0.0) & (grad > 0.0)) | ((theta >= 1.0) & (grad < 0.0))
        )
        if not free.any():
            converged = True
            break
        accepted = False
        for _ in range(40):
            step = np.zeros(2)
            hess_f = hess[np.ix_(free, free)]
            step[free] = np.linalg.solve(
                hess_f + damping * np.diag(np.maximum(np.diag(hess_f), 1e-12)),
                -grad[free],
            )
            candidate = np.clip(theta + step, 0.0, 1.0)
            r_new = _forward(candidate, depths) - y
            ss_new = float(r_new @ r_new)
            if ss_new <= ss:
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            break
        moved = float(np.max(np.abs(candidate - theta)))
        improvement = ss - ss_new
        theta, r, ss = candidate, r_new, ss_new
        damping = max(damping / 3.0, 1e-12)
        if moved < 1e-12 or improvement < 1e-16 * max(ss, 1e-30):
            converged = True
            break

    jac = _jacobian(theta, depths)
    dof = max(len(y) - 2, 1)
    # Residual variance floored at the known binomial shot variance: with only
    # a few depth points the chi-square fluctuation of RSS/dof would otherwise
    # underestimate the parameter spread half the time.
    shot_var = float(np.mean(np.maximum(y * (1.0 - y), 1e-12)))
    s2 = max(ss / dof, shot_var / series.shots_per_point)
    try:
        cov = np.linalg.inv(jac.T @ jac) * s2
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jac.T @ jac) * s2
    sigmas = np.sqrt(np.maximum(np.diag(cov), 0.0))
    fit = NoiseFit(
        model=NoiseModel(xi=float(theta[0]), xi_sigma=float(sigmas[0])),
        p_hat=float(theta[1]),
        p_sigma=float(sigmas[1]),
        residual_norm=math.sqrt(ss),
        covariance=cov,
        iterations=iterations,
    )
    if not converged and iterations >= _MAX_ITERATIONS:
        raise FitConvergenceError(
            f"no convergence after {_MAX_ITERATIONS} iterations", best=fit
        )
    return fit


def mitigate(
    measured_p: float, model: NoiseModel, layers: int
) -> tuple[float, bool]:
    """Invert the noise map; returns (value clamped to [0, 1], clamped flag)."""
    if model.xi >= 1.0:
        raise ValueError("xi = 1 leaves no signal; the noise map is singular")
    if layers < 0:
        raise ValueError("layers must be non-negative")
    decay = (1.0 - model.xi) ** layers
    raw = 0.5 + (measured_p - 0.5) / decay
    clamped_value = min(max(raw, 0.0), 1.0)
    return clamped_value, clamped_value != raw


def propagate_uncertainty(
    measured_p: float, p_sigma: float, model: NoiseModel, layers: int
) -> float:
    """First-order uncertainty of the mitigated value from (sigma_p, sigma_xi)."""
    if p_sigma < 0:
        raise ValueError("p_sigma must be non-negative")
    if model.xi >= 1.0:
        raise ValueError("xi = 1 leaves no signal; the noise map is singular")
    decay = (1.0 - model.xi) ** layers
    d_measured = 1.0 / decay
    d_xi = (measured_p - 0.5) * layers / ((1.0 - model.xi) ** (layers + 1))
    return math.hypot(d_measured * p_sigma, d_xi * model.xi_sigma)
