"""Kalman-type filter for a damped, continuously monitored cavity mode.

For mode damping gamma and detuning omega under quadrature measurement
at phase theta, the conditional mean a_hat and the conditional second
moments (V, W) close on themselves: (V, W) obey a deterministic coupled
Riccati pair and a_hat follows a linear recursion driven by the
innovations.  The covariances are integrated with classical RK4 (they
are smooth ODEs); the mean takes Euler-Maruyama steps with the gain
frozen at the step start, as the stochastic calculus requires.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DivergenceError, DomainError

__all__ = [
    "ModeParams",
    "RiccatiState",
    "QKFState",
    "riccati_rhs",
    "riccati_integrate",
    "qkf_step",
    "optimal_quadrature_scan",
]


@dataclass(frozen=True)
class ModeParams:
    """Damping rate gamma (>= 0) and detuning omega of the mode."""

    gamma: float
    omega: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma < 0.0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class RiccatiState:
    """Conditional covariances at time t: V real, W complex."""

    V: float
    W: complex
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.V < -1e-10:
            raise DomainError(f"V must be nonnegative, got {self.V}")


@dataclass(frozen=True)
class QKFState:
    """Filtered mean a_hat together with its covariance state."""

    a_hat: complex
    riccati: RiccatiState


def _step_count(T: float, dt: float, stride: int = 1, *, min_steps: int = 1,
                error=DomainError,
                names: tuple[str, str] = ("dt=", "record_stride=")) -> int:
    """Number n >= min_steps of dt steps that tile [0, T], with ``stride``
    dividing n.  Otherwise raises ``error``, naming dt and the stride by
    ``names``; the tiling tolerance is 1e-12 relative to max(1, |T|)."""
    if dt <= 0.0:
        raise error(f"dt must be positive, got {dt}")
    n = int(round(T / dt))
    if n < min_steps or abs(n * dt - T) > 1e-12 * max(1.0, abs(T)):
        raise error(f"{names[0]}{dt} does not divide T={T}")
    if n % stride != 0:
        raise error(f"{names[1]}{stride} does not divide {n} steps")
    return n


def _rhs(v: float, w: complex, theta: float, gamma: float, omega: float,
         w_form: str) -> tuple[float, complex]:
    """Raw Riccati right-hand side, python scalars for speed.

    Squares are written as products so overflow yields inf (caught by the
    integrator as divergence) instead of an OverflowError mid-stage.
    """
    e_p = cmath.exp(1j * theta)
    e_m = cmath.exp(-1j * theta)
    z = v + e_p * e_p * w
    dv = -gamma * v - gamma * (z.real * z.real + z.imag * z.imag)
    lead = w if w_form == "w" else v
    y = e_m * v + e_p * w
    dw = -(gamma + 2j * omega) * lead - gamma * (y * y)
    return dv, dw


def riccati_rhs(
    V: float,
    W: complex,
    theta: float,
    params: ModeParams,
    w_form: str = "w",
) -> tuple[float, complex]:
    """Time derivatives (dV/dt, dW/dt) of the conditional covariances:

        dV/dt = -gamma V - gamma |V + e^{2i theta} W|^2
        dW/dt = -(gamma + 2i omega) W - gamma (e^{-i theta} V + e^{i theta} W)^2

    ``w_form`` selects the first term of the W equation: "w" (default)
    uses W there; "v" is an alternate printed convention that puts V in
    that slot and is kept only for comparison runs.
    """
    if w_form not in ("w", "v"):
        raise DomainError(f"w_form must be 'w' or 'v', got {w_form!r}")
    return _rhs(float(V), complex(W), float(theta), params.gamma,
                params.omega, w_form)


def _advance_riccati(
    v: float,
    w: complex,
    t: float,
    dt: float,
    gamma: float,
    omega: float,
    theta_of_t: Callable[[float], float],
    w_form: str = "w",
) -> tuple[float, complex]:
    """One classical RK4 step of the covariance pair."""
    th1 = theta_of_t(t)
    k1v, k1w = _rhs(v, w, th1, gamma, omega, w_form)
    th2 = theta_of_t(t + 0.5 * dt)
    k2v, k2w = _rhs(v + 0.5 * dt * k1v, w + 0.5 * dt * k1w, th2, gamma, omega, w_form)
    k3v, k3w = _rhs(v + 0.5 * dt * k2v, w + 0.5 * dt * k2w, th2, gamma, omega, w_form)
    th4 = theta_of_t(t + dt)
    k4v, k4w = _rhs(v + dt * k3v, w + dt * k3w, th4, gamma, omega, w_form)
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    w_new = w + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    if -1e-12 < v_new < 0.0:
        v_new = 0.0
    return v_new, w_new


def _mean_update(a_hat: complex, drift: complex, gain: complex,
                 dI: float, dt: float) -> complex:
    """Shared Euler-Maruyama expression for the filtered mean.

    Kept as one function so every filter variant produces bit-identical
    arithmetic when their coefficients coincide.
    """
    return a_hat + drift * dt + gain * dI


def _as_theta_fn(theta) -> Callable[[float], float]:
    if callable(theta):
        return theta
    val = float(theta)
    return lambda _t: val


def riccati_integrate(
    initial: RiccatiState,
    theta,
    params: ModeParams,
    dt: float,
    T: float,
    w_form: str = "w",
    record_stride: int = 1,
) -> list[RiccatiState]:
    """Integrate the covariance pair on [initial.t, initial.t + T].

    ``theta`` may be a constant or a callable of time.  Returns the
    sampled states every ``record_stride`` steps, starting with the
    initial state.  Raises ``DivergenceError`` if the state leaves the
    finite range (the Riccati flow can blow up only for unphysical data).
    """
    n = _step_count(T, dt, min_steps=0)
    theta_fn = _as_theta_fn(theta)
    v, w, t = initial.V, initial.W, initial.t
    out = [initial]
    for k in range(n):
        v, w = _advance_riccati(v, w, t, dt, params.gamma, params.omega,
                                theta_fn, w_form)
        t = initial.t + (k + 1) * dt
        if not (math.isfinite(v) and cmath.isfinite(w)):
            raise DivergenceError(
                f"covariance integration diverged at step {k + 1} (t={t})"
            )
        if (k + 1) % record_stride == 0 or k == n - 1:
            out.append(RiccatiState(v, w, t))
    return out


def qkf_step(
    state: QKFState,
    dI: float,
    beta: complex,
    theta_t: float,
    params: ModeParams,
    dt: float,
) -> QKFState:
    """One filter step driven by the innovations increment dI.

    The mean update

        da = -(gamma/2 + i omega) a dt + beta dt
             + sqrt(gamma) (W e^{i theta} + V e^{-i theta}) dI

    uses the covariances at the step start; the covariance pair then
    advances by one RK4 step.  ``beta`` is a deterministic drive.
    """
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    ric = state.riccati
    v, w, t = ric.V, ric.W, ric.t
    gamma, omega = params.gamma, params.omega
    theta = float(theta_t)

    drift = -complex(0.5 * gamma, omega) * state.a_hat
    if beta != 0.0:
        drift = drift + beta
    gain = math.sqrt(gamma) * (w * cmath.exp(1j * theta) + v * cmath.exp(-1j * theta))
    a_new = _mean_update(state.a_hat, drift, gain, dI, dt)
    v_new, w_new = _advance_riccati(v, w, t, dt, gamma, omega, lambda _t: theta)
    return QKFState(a_new, RiccatiState(v_new, w_new, t + dt))


def optimal_quadrature_scan(
    params: ModeParams,
    initial: RiccatiState,
    T: float,
    theta_grid: Sequence[float],
    dt: float = 1e-3,
) -> tuple[float, list[float]]:
    """Terminal conditional variance V(T) per constant measurement phase.

    Integrates the covariance pair once per theta in ``theta_grid`` and
    returns (theta_star, [V(T) for each theta]); theta_star attains the
    minimum, ties broken by the smallest phase folded to [0, pi).
    """
    thetas = list(theta_grid)
    if not thetas:
        raise DomainError("theta_grid must be nonempty")
    v_at_t = []
    for th in thetas:
        series = riccati_integrate(initial, float(th), params, dt, T,
                                   record_stride=max(1, int(round(T / dt))))
        v_at_t.append(series[-1].V)
    v_min = min(v_at_t)
    folded = [th % math.pi for th, vt in zip(thetas, v_at_t) if vt == v_min]
    return min(folded), v_at_t
