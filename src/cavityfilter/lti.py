"""Complex-coefficient rational transfer functions for the filter loop.

The filtered mode is a genuinely complex scalar (its open-loop pole
sits at -gamma/2 - i omega), so everything here works over complex
polynomials rather than the usual real-coefficient conventions; in
particular conjugate pole symmetry does not hold and is never assumed.

Polynomials are stored as ascending coefficient tuples.  Degrees stay
tiny (the loop algebra never exceeds quadratics), so evaluation and
root finding use closed forms where accuracy matters.

``realize``/``step_response`` turn a transfer function into an
integrable state-space system: one observable companion block of order
den_degree, which the r and dr/dt channels share (so the realization
is minimal), plus direct taps.  Two conventions matter for agreement
with the filter's own ODE:

* an improper quotient (numerator degree above denominator degree)
  becomes direct taps on r and its analytic derivative, never a
  numerical difference of r;
* a biproper part (equal degrees) is NOT split off as a feedthrough
  d*r; its top coefficient enters the block through the dr/dt
  channel.  The filter state responds to a reference step with a
  continuous trajectory from 0, and a feedthrough term would jump at
  t=0 while the derivative channel correctly contributes nothing for
  an ideal step.  Both forms have the same Laplace transform; only
  this one also matches the time-domain filter on the built-in
  reference signals.

The realized system is linear and time-invariant, so ``step_response``
takes classical RK4 steps as one affine map built once
(``qkf._rk4_linear``): the reference enters only through its
values at the grid times and step midpoints, read once each.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AlgebraError,
    DomainError,
    InfeasibleGainError,
    PoleEvaluationError,
)
from .control import PIDGains, ReferenceSignal, _reference_at
from .qkf import ModeParams, _rk4_linear, _step_count

__all__ = [
    "RationalTF",
    "StateSpaceRealization",
    "plant_tf",
    "pid_tf",
    "closed_loop",
    "setpoint_tf",
    "pole_place_pi",
    "freq_response",
    "realize",
    "step_response",
]

_TRIM_REL = 1e-12


def _trim(coeffs) -> tuple:
    vals = [complex(c) for c in coeffs]
    if not vals:
        return (0.0 + 0.0j,)
    scale = max(abs(c) for c in vals)
    if scale == 0.0:
        return (0.0 + 0.0j,)
    while len(vals) > 1 and abs(vals[-1]) <= _TRIM_REL * scale:
        vals.pop()
    return tuple(vals)


def _polyval(coeffs: Sequence[complex], s: complex) -> complex:
    out = 0.0 + 0.0j
    for c in reversed(coeffs):
        out = out * s + c
    return out


def _polymul(a: Sequence[complex], b: Sequence[complex]) -> list:
    out = [0.0 + 0.0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _polyadd(a: Sequence[complex], b: Sequence[complex]) -> list:
    n = max(len(a), len(b))
    out = [0.0 + 0.0j] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] += bi
    return out


def _quadratic_roots(c0: complex, c1: complex, c2: complex) -> list:
    """Roots of c2 s^2 + c1 s + c0, cancellation-safe."""
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = cmath.sqrt(disc)
    # pick the sign that avoids subtracting nearly equal magnitudes
    if abs(c1 + sq) >= abs(c1 - sq):
        q = -0.5 * (c1 + sq)
    else:
        q = -0.5 * (c1 - sq)
    if q == 0.0:  # c1 = 0 and disc = 0
        return [0.0 + 0.0j, 0.0 + 0.0j]
    return [q / c2, c0 / q]


@dataclass(frozen=True)
class RationalTF:
    """Ratio of complex polynomials in s, coefficients ascending.

    Trailing coefficients below 1e-12 of the largest are trimmed at
    construction; the denominator must survive trimming."""

    num: tuple
    den: tuple

    def __init__(self, num, den):
        object.__setattr__(self, "num", _trim(num))
        object.__setattr__(self, "den", _trim(den))
        if self.den == (0.0 + 0.0j,):
            raise AlgebraError("denominator is identically zero")

    def __call__(self, s: complex) -> complex:
        return _polyval(self.num, complex(s)) / _polyval(self.den, complex(s))

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    def poles(self) -> list:
        return self._roots(self.den)

    def zeros(self) -> list:
        if self.num == (0.0 + 0.0j,):
            return []
        return self._roots(self.num)

    @staticmethod
    def _roots(coeffs: tuple) -> list:
        deg = len(coeffs) - 1
        if deg <= 0:
            return []
        if deg == 1:
            return [-coeffs[0] / coeffs[1]]
        if deg == 2:
            return _quadratic_roots(*coeffs)
        return list(np.roots(list(reversed(coeffs))))


@dataclass(frozen=True)
class StateSpaceRealization:
    """Observable companion block, shared by both input channels, plus
    direct taps.

        dx/dt = a x + b_r r(t) + b_dr dr/dt(t)
        y     = c x + d_r r(t) + d_dr dr/dt(t)

    Reconstructing d_r + d_dr s + c (sI - a)^{-1} (b_r + s b_dr)
    recovers the source transfer function exactly as rational algebra.
    """

    a: np.ndarray
    b_r: np.ndarray
    b_dr: np.ndarray
    c: np.ndarray
    d_r: complex
    d_dr: complex

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def transfer_at(self, s: complex) -> complex:
        out = self.d_r + self.d_dr * s
        if self.order:
            m = s * np.eye(self.order, dtype=np.complex128) - self.a
            out += self.c @ np.linalg.solve(m, self.b_r + s * self.b_dr)
        return complex(out)


def plant_tf(params: ModeParams) -> RationalTF:
    """Open-loop response of the filtered mean: G(s) = 1/(s + gamma/2 + i omega)."""
    return RationalTF((1.0,), (complex(0.5 * params.gamma, params.omega), 1.0))


def pid_tf(gains: PIDGains) -> RationalTF:
    """Controller K(s) = k_P + k_I / s + k_D s as one rational function.

    With k_I = 0 the 1/s pole is removable and the constructed form is
    the polynomial k_P + k_D s over 1."""
    if gains.k_I == 0.0:
        return RationalTF((gains.k_P, gains.k_D), (1.0,))
    return RationalTF((gains.k_I, gains.k_P, gains.k_D), (0.0, 1.0))


def closed_loop(g: RationalTF, k: RationalTF) -> RationalTF:
    """Unity-feedback loop H = GK/(1 + GK) by exact polynomial algebra.

    Common factors of s shared by numerator and denominator (from
    integrator poles) are cancelled at relative tolerance 1e-12; any
    other common factors are left in place.
    """
    n = _polymul(g.num, k.num)
    d = _polyadd(_polymul(g.den, k.den), n)
    scale_n = max(abs(c) for c in n)
    scale_d = max(abs(c) for c in d)
    if scale_d <= _TRIM_REL * max(
            scale_n, max(abs(c) for c in _polymul(g.den, k.den))):
        raise AlgebraError("closed loop 1 + G K is identically singular")
    while (len(n) > 1 and len(d) > 1
           and abs(n[0]) <= _TRIM_REL * scale_n
           and abs(d[0]) <= _TRIM_REL * scale_d):
        n = n[1:]
        d = d[1:]
    return RationalTF(n, d)


def setpoint_tf(gains: PIDGains, params: ModeParams) -> RationalTF:
    """Reference-to-estimate loop with set-point weight mu on the P term:

        H(s) = (mu k_P s + k_I) / (s^2 + s(gamma/2 + i omega + k_P) + k_I).

    Defined for PI controllers only (k_D must be 0)."""
    if gains.k_D != 0.0:
        raise DomainError("setpoint_tf is a PI form; k_D must be 0")
    p = complex(0.5 * params.gamma, params.omega)
    return RationalTF((gains.k_I, gains.mu * gains.k_P),
                      (gains.k_I, p + gains.k_P, 1.0))


def pole_place_pi(zeta: float, omega0: float, params: ModeParams) -> PIDGains:
    """PI gains putting the loop denominator at s^2 + 2 zeta omega0 s + omega0^2.

    Matching coefficients of the PI closed loop forces

        k_P = 2 zeta omega0 - gamma/2,    k_I = omega0^2,

    valid only for an undetuned mode (omega = 0, else the denominator
    is complex and no real gain pair can realize it)."""
    if zeta <= 0.0 or omega0 <= 0.0:
        raise DomainError(f"zeta and omega0 must be positive, got {zeta}, {omega0}")
    if params.omega != 0.0:
        raise DomainError("pole placement requires an undetuned mode (omega = 0)")
    k_p = 2.0 * zeta * omega0 - 0.5 * params.gamma
    if k_p < 0.0:
        raise InfeasibleGainError(
            f"2 zeta omega0 = {2.0 * zeta * omega0} < gamma/2 = "
            f"{0.5 * params.gamma}: proportional gain would be negative"
        )
    return PIDGains(k_p, omega0 * omega0, 0.0)


def freq_response(tf: RationalTF, omega_grid) -> list:
    """Evaluate tf on the imaginary axis, s = i Omega."""
    out = []
    for om in omega_grid:
        s = 1j * float(om)
        dval = _polyval(tf.den, s)
        scale = sum(abs(c) * abs(s) ** k for k, c in enumerate(tf.den))
        if abs(dval) <= 1e-12 * max(scale, 1e-300):
            raise PoleEvaluationError(
                f"pole on the evaluation grid at Omega={float(om)!r}"
            )
        out.append(_polyval(tf.num, s) / dval)
    return out


def realize(tf: RationalTF) -> StateSpaceRealization:
    """Minimal realization of a transfer function: one observable
    companion block of order den_degree plus direct taps.

    With lead the top coefficient of den, a is the companion matrix of
    den / lead (ones on the subdiagonal, -den[:k] / lead in the last
    column) and c = e_k, so c (sI - a)^{-1} b is the polynomial with
    coefficients b over den / lead: the r and dr/dt channels share the
    block and differ only in b_r and b_dr.  Excess of degree one, or a
    constant den, is divided out into the taps (d_r, d_dr) and the
    remainder drives r.  A biproper top coefficient num_k s^k =
    s num_k s^(k-1) drives the dr/dt channel, never a feedthrough.
    Excess beyond one is rejected: it would need second derivatives of
    the reference.
    """
    num = np.array(tf.num)
    den = np.array(tf.den)
    k = len(den) - 1
    excess = len(num) - 1 - k
    if excess > 1:
        raise DomainError(
            "numerator degree exceeds denominator degree by more than "
            "one; realization would need higher reference derivatives"
        )
    lead = den[-1]
    taps = np.zeros(2, dtype=np.complex128)
    b_r = np.zeros(k, dtype=np.complex128)
    b_dr = np.zeros(k, dtype=np.complex128)
    if excess == 1 or k == 0:
        q, rem = np.polydiv(num[::-1], den[::-1])
        taps[:len(q)] = q[::-1]
        rem = rem[::-1][:k]
        b_r[:len(rem)] = rem / lead
    else:
        b_r[:len(num)] = num[:k] / lead
        if excess == 0:
            b_dr[-1] = num[k] / lead
    a = np.eye(k, k=-1, dtype=np.complex128)
    a[:, -1:] = -den[:k, None] / lead
    c = np.zeros(k, dtype=np.complex128)
    c[-1:] = 1.0
    for arr in (a, b_r, b_dr, c):
        arr.setflags(write=False)
    return StateSpaceRealization(a, b_r, b_dr, c, complex(taps[0]),
                                 complex(taps[1]))


def step_response(tf: RationalTF, ref: ReferenceSignal, T: float, dt: float):
    """Time response of the realized system to a built-in reference.

    Classical RK4 from zero initial state; returns (t, y) on the full step
    grid.  The system is linear and time-invariant, so every step is the
    one affine map of ``qkf._rk4_linear``; r and dr/dt are read once
    at each grid time and step midpoint.  The derivative channel sees
    ref.derivative, so an ideal step excites only the r channel, matching
    the filter's own convention.
    """
    n = _step_count(T, dt)
    sys = realize(tf)
    ts = np.arange(n + 1) * dt
    rdr = _reference_at(ref, ts)
    ys = sys.d_r * rdr[:, 0] + sys.d_dr * rdr[:, 1]
    if sys.order:
        x = _rk4_linear(sys.a, np.stack([sys.b_r, sys.b_dr], axis=1), dt, 0.0,
                        rdr, _reference_at(ref, ts[:-1] + 0.5 * dt))
        ys = ys + x @ sys.c
    ts.setflags(write=False)
    ys.setflags(write=False)
    return ts, ys
