"""Scalar classical filtering baselines.

Three filters for one-dimensional diffusions observed in additive white
noise: the discrete Kalman recursion, the continuous Kalman-Bucy filter,
and a finite-difference solver for the unnormalized (Zakai) density,
whose normalization gives the nonlinear filter.  The grid solver is the
oracle the linear filters are checked against.  Its explicit step is a
tridiagonal operator fixed by the model, the grid and dt; a run builds
it once (``_zakai_operator``) and applies it every step
(``_zakai_apply``), and the public ``zakai_grid_step`` is the two in
one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable
import warnings

import numpy as np

from .errors import (
    DegenerateDensityError,
    DegenerateVarianceWarning,
    DimensionError,
    DomainError,
    StabilityError,
)
from .qkf import _check_dt

__all__ = [
    "ScalarLGModel",
    "DiscreteKalmanState",
    "GridDensity",
    "DiffusionModel1D",
    "kalman_predict",
    "kalman_update",
    "kalman_bucy_step",
    "zakai_grid_step",
    "ks_normalize",
]


@dataclass(frozen=True)
class ScalarLGModel:
    """Linear-Gaussian scalar model.

    Discrete reading: x_k = A x_{k-1} + B u_k + w_k with Var(w) = Q and
    observation y_k = H x_k + v_k, Var(v) = 1.  Continuous reading:
    dX = A X dt + B u dt + dW with process intensity Q, observation
    dY = H X dt + dV.
    """

    A: float
    B: float
    H: float
    Q: float

    def __post_init__(self) -> None:
        if self.Q < 0.0:
            raise DomainError(f"process noise variance Q must be >= 0, got {self.Q}")


@dataclass(frozen=True)
class DiscreteKalmanState:
    """Estimate x_hat with error variance P after step k."""

    x_hat: float
    P: float
    k: int = 0


@dataclass(frozen=True)
class GridDensity:
    """A density sampled on a uniform grid (unnormalized or normalized)."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        xs = np.ascontiguousarray(self.xs, dtype=np.float64)
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if xs.ndim != 1 or xs.size < 3:
            raise DimensionError("grid needs at least 3 points")
        if vals.shape != xs.shape:
            raise DimensionError(
                f"values shape {vals.shape} does not match grid {xs.shape}"
            )
        xs.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vals)

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def mass(self) -> float:
        """Trapezoid integral of the values."""
        return float(np.trapezoid(self.values, dx=self.dx))


@dataclass(frozen=True)
class DiffusionModel1D:
    """dX = v(X) dt + sigma(X) dW observed through dY = h(X) dt + dV.

    The callables must accept ndarray arguments (vectorized on the grid).
    """

    v: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# discrete Kalman


def kalman_predict(
    state: DiscreteKalmanState, u: float, model: ScalarLGModel
) -> tuple[float, float]:
    """One prediction: returns (x_tilde, P_tilde) = (A x + B u, A^2 P + Q)."""
    x_tilde = model.A * state.x_hat + model.B * u
    p_tilde = model.A * model.A * state.P + model.Q
    return x_tilde, p_tilde


def kalman_update(
    pred: tuple[float, float],
    y: float,
    model: ScalarLGModel,
    mode: str = "standard",
    k: int = 0,
) -> DiscreteKalmanState:
    """Measurement update of the predicted pair against observation y.

    mode="standard" uses the gain K = P~ H / (H^2 P~ + 1) for unit
    observation noise; this is the exact Gaussian Bayes posterior.

    mode="unnormalized" applies the raw-gain update
    x_hat = x~ + H P~ I, P = (1 - H^2 P~) P~, which omits the innovation
    normalization.  It agrees with the standard update to first order in
    H^2 P~ and goes degenerate (negative P) for H^2 P~ > 1; a degenerate
    result is returned as computed, with a ``DegenerateVarianceWarning``.
    """
    x_tilde, p_tilde = pred
    innovation = y - model.H * x_tilde
    if mode == "standard":
        gain = p_tilde * model.H / (model.H * model.H * p_tilde + 1.0)
        x_hat = x_tilde + gain * innovation
        p = (1.0 - gain * model.H) * p_tilde
    elif mode == "unnormalized":
        x_hat = x_tilde + model.H * p_tilde * innovation
        p = (1.0 - model.H * model.H * p_tilde) * p_tilde
        if p < 0.0:
            warnings.warn(
                f"unnormalized update produced negative variance P={p:.3e} "
                f"(H^2 P_pred = {model.H * model.H * p_tilde:.3f} > 1)",
                DegenerateVarianceWarning,
                stacklevel=2,
            )
    else:
        raise DomainError(f"unknown kalman_update mode {mode!r}")
    return DiscreteKalmanState(x_hat, p, k)


# ---------------------------------------------------------------------------
# Kalman-Bucy


def _variance_rate(p: float, model: ScalarLGModel) -> float:
    return 2.0 * model.A * p + model.Q - (model.H * p) ** 2


def kalman_bucy_step(
    state: DiscreteKalmanState,
    dY: float,
    u: float,
    dt: float,
    model: ScalarLGModel,
) -> DiscreteKalmanState:
    """One continuous-filter step.

    The mean is advanced by explicit Euler with the gain frozen at the
    step start (the stochastic term must not anticipate):

        dx = A x dt + B u dt + H P (dY - H x dt),

    while the deterministic variance equation dP/dt = 2AP + Q - H^2 P^2
    takes a classical RK4 step.
    """
    _check_dt(dt)
    x, p = state.x_hat, state.P
    x_new = x + model.A * x * dt + model.B * u * dt + model.H * p * (
        dY - model.H * x * dt
    )
    k1 = _variance_rate(p, model)
    k2 = _variance_rate(p + 0.5 * dt * k1, model)
    k3 = _variance_rate(p + 0.5 * dt * k2, model)
    k4 = _variance_rate(p + dt * k3, model)
    p_new = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return DiscreteKalmanState(x_new, p_new, state.k + 1)


# ---------------------------------------------------------------------------
# Zakai grid solver


def _zakai_operator(grid: GridDensity, dt: float, model: DiffusionModel1D):
    """The step operator of ``zakai_grid_step`` on ``grid``'s points, built
    once: the bands (diag, up, lo) of the tridiagonal I + dt L*, the
    observation function h on the grid, max |h| and the largest
    x = |dY| max |h| at which a step has no negative entry (-1 if the
    bands have one), for the mass bound of ``_zakai_apply``.

    With the face rates a_i = dt/dx (v_i/2 + sigma_i^2/(2 dx)) out of
    cell i through its right face and b_i = dt/dx (v_i/2 - sigma_i^2/(2 dx))
    through its left, diag = 1 - a_i + b_i (no face beyond either end),
    up_i = -b_{i+1} and lo_i = a_{i-1}: the flux form of
    ``zakai_grid_step``, term by term.

    Raises ``DomainError`` unless dt is positive and finite, and
    ``StabilityError`` if max(sigma^2) dt / dx^2 > 0.5.
    """
    _check_dt(dt)
    xs = grid.xs
    dx = grid.dx
    v = np.asarray(model.v(xs), dtype=np.float64)
    s2 = np.asarray(model.sigma(xs), dtype=np.float64) ** 2
    h = np.asarray(model.h(xs), dtype=np.float64)

    cfl = float(np.max(s2)) * dt / (dx * dx)
    if cfl > 0.5:
        raise StabilityError(
            f"diffusion number max(sigma^2) dt / dx^2 = {cfl:.3f} > 0.5; "
            "reduce dt or coarsen the grid"
        )
    c = dt / dx
    adv = (0.5 * c) * v
    dif = (0.5 * c / dx) * s2
    right = adv + dif
    left = adv - dif
    diag = np.ones_like(xs)
    diag[:-1] -= right[:-1]
    diag[1:] += left[1:]
    up, lo = -left[1:], right[:-1]
    floor = min(float(diag.min()), 0.5)
    if min(floor, float(up.min()), float(lo.min())) < 0.0:
        floor = -1.0
    return diag, up, lo, h, float(np.max(np.abs(h))), floor


def _zakai_apply(op, g: np.ndarray, dY: float, dx: float, room: float = 0.0):
    """One step of the ``_zakai_operator`` ``op`` on the values g:
    (I + dt L* + dY diag(h)) g, rescaled by a power of two when its mass
    leaves [1e-50, 1e50].  Returns the new values and the room left.

    The mass is summed only when it could have left that window.  A step
    without negative entries (x = |dY| max |h| up to the operator's
    floor) maps g >= 0 to values >= 0, and its columns sum to 1 + dY h_i,
    so it moves the mass by a factor in [1 - x, 1 + x].  ``room`` is the
    distance to the window in e-folds, less one, at the last sum, less
    -ln(1 - x) per step since; the step sums the mass when the room is
    spent (a room of 0 sums at once), and a sum that finds a negative
    value leaves no room."""
    diag, up, lo, h, h_max, floor = op
    new = (diag + dY * h) * g
    new[:-1] += up * g[1:]
    new[1:] += lo * g[:-1]
    x = abs(dY) * h_max
    if x <= floor:
        room += math.log1p(-x)
        if room > 0.0:
            return new, room
    # powers of two leave every normalized quantity bit-identical
    total = float(np.abs(new).sum()) * dx
    if total != 0.0 and not (1e-50 < total < 1e50):
        scale = 2.0 ** (-math.frexp(total)[1])
        new = new * scale
        total *= scale
    if total == 0.0 or new.min() < 0.0:
        return new, 0.0
    return new, math.log(min(total / 1e-50, 1e50 / total)) - 1.0


def zakai_grid_step(
    grid: GridDensity, dY: float, dt: float, model: DiffusionModel1D
) -> GridDensity:
    """One Euler step of the unnormalized filtering density:

        xi <- xi + L*xi dt + h xi dY,

    where L* g = -(v g)' + (sigma^2 g / 2)'' is discretized in flux form
    with central differences and zero-flux boundaries, so the Riemann
    mass is conserved exactly by the L* part.  The step builds its
    operator, a tridiagonal matrix, on every call; a run on a fixed grid
    builds it once with ``_zakai_operator`` and steps with
    ``_zakai_apply``, the same arithmetic.

    Raises ``StabilityError`` if max(sigma^2) dt / dx^2 > 0.5.
    """
    op = _zakai_operator(grid, dt, model)
    return GridDensity(grid.xs, _zakai_apply(op, grid.values, dY, grid.dx)[0])


def ks_normalize(grid: GridDensity) -> tuple[GridDensity, float, float]:
    """Normalize a grid density; return it with its mean and variance.

    Trapezoid rule throughout.  Nonpositive total mass raises
    ``DegenerateDensityError``.
    """
    mass = grid.mass()
    if not (mass > 0.0) or not math.isfinite(mass):
        raise DegenerateDensityError(f"density mass {mass} is not positive")
    rho = grid.values / mass
    dx = grid.dx
    mean = float(np.trapezoid(grid.xs * rho, dx=dx))
    var = float(np.trapezoid(grid.xs * grid.xs * rho, dx=dx)) - mean * mean
    return GridDensity(grid.xs, rho), mean, var
