"""Kalman-type filter for a damped, continuously monitored cavity mode.

For mode damping gamma and detuning omega under quadrature measurement
at phase theta, the conditional mean a_hat and the conditional second
moments (V, W) close on themselves: (V, W) obey a deterministic coupled
Riccati pair and a_hat follows a linear recursion driven by the
innovations.  The covariances are integrated with classical RK4 (they
are smooth ODEs) by one generator, ``_covariances``, which advances the
pair for every consumer: ``riccati_integrate``, ``qkf_step``,
``control.pid_filter_step`` and each co-simulation batch.  The mean
takes Euler-Maruyama steps with the gain frozen at the step start, as the
stochastic calculus requires.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise DomainError(
                f"gamma must be finite and >= 0, got {self.gamma}")
        if not math.isfinite(self.omega):
            raise DomainError(f"omega must be finite, got {self.omega}")


@dataclass(frozen=True)
class RiccatiState:
    """Conditional covariances at time t: V real, W complex."""

    V: float
    W: complex
    t: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.V) and cmath.isfinite(self.W)):
            raise DomainError("covariances must be finite")
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
    >= 1 dividing n.  Otherwise raises ``error``, naming dt and the stride by
    ``names``; the tiling tolerance is 1e-12 relative to max(1, |T|)."""
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise error(f"T={T} and dt={dt} must be finite")
    if dt <= 0.0:
        raise error(f"dt must be positive, got {dt}")
    if stride < 1:
        raise error(f"{names[1]}{stride} must be >= 1")
    n = int(round(T / dt))
    if n < min_steps or abs(n * dt - T) > 1e-12 * max(1.0, abs(T)):
        raise error(f"{names[0]}{dt} does not divide T={T}")
    if n % stride != 0:
        raise error(f"{names[1]}{stride} does not divide {n} steps")
    return n


def _rk4_linear(a: np.ndarray, b: np.ndarray, dt: float, x0,
                s: np.ndarray, s_half: np.ndarray) -> np.ndarray:
    """States of x' = a x + b s(t) on the grid t_k = k dt, k = 0..n, after
    classical RK4 steps from x0, as an (n + 1, order) array.

    ``s`` holds the m input channels at the grid times, shape (n + 1, m),
    ``s_half`` at the step midpoints t_k + dt/2, shape (n, m): the only
    times an RK4 step reads them; b is (order, m).  One step is exactly
    the affine map

        x(t + dt) = M x(t) + N0 b s(t) + Nh b s(t + dt/2) + (dt/6) b s(t + dt)

    with Z = dt a, M = I + Z + Z^2/2 + Z^3/6 + Z^4/24,
    N0 = dt/6 (I + Z + Z^2/2 + Z^3/4) and Nh = dt/6 (4I + 2Z + Z^2/2),
    so the input terms are summed up front and each step is one product
    with M and one addition.
    """
    eye = np.eye(a.shape[0], dtype=np.complex128)
    z = dt * np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    z2 = z @ z
    z3 = z2 @ z
    m = eye + z + z2 / 2.0 + z3 / 6.0 + (z2 @ z2) / 24.0
    x = np.empty((len(s), a.shape[0]), dtype=np.complex128)
    x[0] = x0
    g = x[1:]  # the input terms, summed in place, then stepped over
    np.matmul(s[:-1], ((eye + z + z2 / 2.0 + z3 / 4.0) @ b).T, out=g)
    g += s_half @ ((4.0 * eye + 2.0 * z + z2 / 2.0) @ b).T
    g += s[1:] @ b.T
    g *= dt / 6.0
    for k in range(len(g)):
        x[k + 1] += m @ x[k]
    return x


def _phases(theta: float) -> tuple[complex, complex, complex]:
    """(e^{i theta}, e^{-i theta}, e^{i theta} e^{i theta}) for ``_rhs``."""
    e_p = cmath.exp(1j * theta)
    return e_p, cmath.exp(-1j * theta), e_p * e_p


def _lead_is_v(w_form: str) -> bool:
    """``w_form`` resolved for ``_rhs``: True for the printed "v" variant.
    Raises ``DomainError`` for any value other than "w" and "v"."""
    if w_form not in ("w", "v"):
        raise DomainError(f"w_form must be 'w' or 'v', got {w_form!r}")
    return w_form == "v"


def _rhs(v: float, w: complex, phases, gamma: float, decay: complex,
         lead_v: bool) -> tuple[float, complex]:
    """Raw Riccati right-hand side at the ``_phases`` of theta, python
    scalars for speed; ``decay`` is -(gamma + 2i omega) and ``lead_v`` the
    resolved ``w_form``.

    Squares are written as products so overflow yields inf (caught by the
    integrator as divergence) instead of an OverflowError mid-stage.
    """
    e_p, e_m, e_pp = phases
    z = v + e_pp * w
    dv = -gamma * v - gamma * (z.real * z.real + z.imag * z.imag)
    lead = v if lead_v else w
    y = e_m * v + e_p * w
    dw = decay * lead - gamma * (y * y)
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
    return _rhs(float(V), complex(W), _phases(float(theta)), params.gamma,
                -(params.gamma + 2j * params.omega), _lead_is_v(w_form))


def _covariances(V: float, W: complex, theta, params: ModeParams, dt: float,
                 t0: float = 0.0, lead_v: bool = False):
    """Yield the covariance pair (V, W) after each classical RK4 step of
    ``dt`` from (V, W) at ``t0``: the one recursion of the pair.

    ``theta`` is a constant, whose ``_phases`` are resolved once, or a
    callable of time, read at the start, middle and end of every step.
    ``lead_v`` is the resolved ``w_form``.  Raises ``DivergenceError`` at
    the first step that leaves the finite range, and ``DomainError`` at
    the first whose V is below -1e-10 (the "v" form can leave the
    nonnegative range).
    """
    gamma = params.gamma
    decay = -(gamma + 2j * params.omega)
    theta_of_t = theta if callable(theta) else None
    if theta_of_t is None:
        ph1 = ph2 = ph4 = _phases(float(theta))
    v, w, t, k = V, W, t0, 0
    while True:
        if theta_of_t is not None:
            ph1 = _phases(theta_of_t(t))
            ph2 = _phases(theta_of_t(t + 0.5 * dt))
            ph4 = _phases(theta_of_t(t + dt))
        k1v, k1w = _rhs(v, w, ph1, gamma, decay, lead_v)
        k2v, k2w = _rhs(v + 0.5 * dt * k1v, w + 0.5 * dt * k1w, ph2, gamma, decay, lead_v)
        k3v, k3w = _rhs(v + 0.5 * dt * k2v, w + 0.5 * dt * k2w, ph2, gamma, decay, lead_v)
        k4v, k4w = _rhs(v + dt * k3v, w + dt * k3w, ph4, gamma, decay, lead_v)
        v = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        w = w + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if -1e-12 < v < 0.0:
            v = 0.0
        k += 1
        t = t0 + k * dt
        if not (math.isfinite(v) and cmath.isfinite(w)):
            raise DivergenceError(
                f"covariance integration diverged at step {k} (t={t})")
        if v < -1e-10:
            raise DomainError(
                f"V must be nonnegative, got {v} at step {k} (t={t})")
        yield v, w


def _mean_update(a_hat: complex, drift: complex, gain: complex,
                 dI: float, dt: float) -> complex:
    """Shared Euler-Maruyama expression for the filtered mean.

    Kept as one function so every filter variant produces bit-identical
    arithmetic when their coefficients coincide.
    """
    return a_hat + drift * dt + gain * dI


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
    initial state.  ``w_form`` is that of ``riccati_rhs``, checked once
    (``DomainError``) and resolved before the first step.  Raises
    ``DivergenceError`` if the state leaves the finite range (the Riccati
    flow can blow up only for unphysical data).
    """
    lead_v = _lead_is_v(w_form)
    n = _step_count(T, dt, min_steps=0)
    if record_stride < 1:
        raise DomainError(f"record_stride={record_stride} must be >= 1")
    pairs = _covariances(initial.V, initial.W, theta, params, dt, initial.t,
                         lead_v)
    out = [initial]
    for k, (v, w) in zip(range(1, n + 1), pairs):
        if k % record_stride == 0 or k == n:
            out.append(RiccatiState(v, w, initial.t + k * dt))
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
    v_new, w_new = next(_covariances(v, w, theta, params, dt, t))
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
