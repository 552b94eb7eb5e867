"""PID feedback around the filtered mode estimate.

The loop actuates on the filtered mean rather than on the raw record:
the error e = r - a_hat feeds proportional, integral, and derivative
terms, which enter the mode's coefficients as Hamiltonian displacement
drives.  The derivative channel is special twice over.  First, the
estimate's time derivative is not defined pathwise, so the D term uses
the filter's drift (the predictable part of da_hat) instead of a
numerical difference.  Second, feeding the measurement current back
through a Hamiltonian shifts both coefficients: L picks up -iF_D and H
picks up the compensating (F_D L + L' F_D)/2 term, which is what keeps
the observed quadrature L + L' unchanged by the feedback.

The feedback therefore moves only a few complex scalars on a fixed
ladder basis (see ``fock._LADDER_KEYS``):

    L = c1 a + c2 a',    H = omega a'a + z a' + conj(z) a
                             + w (a^2 + a'a) + conj(w) (a'^2 + a'a),

with c1 = sqrt(gamma) + k_D conj(Xi) and c2 = -k_D Xi.  ``controlled_slh``
materializes them as dense SLH coefficients; ``closed_loop_cosim``
never does, and steps the truth from the scalars alone (banded for a
state vector, dense sums over the basis for a density matrix).

``closed_loop_cosim`` runs the full-Fock-space truth and the two-moment
filter side by side on one synthesized record, which is the ground
truth the cheap filter is judged against everywhere in this package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DimensionError, DomainError, CavityFilterError
from .fock import (
    CavityOperator,
    CovariancePair,
    DensityOperator,
    StateVector,
    _annihilation_matrix,
    _band_apply,
    _band_buffers,
    _check_truncation,
    _gaussian_vector,
    _ladder_banded,
    _ladder_dense,
    _moments_from_density,
    _moments_from_vector,
    gaussian_state,
)
from .qkf import (
    ModeParams,
    QKFState,
    RiccatiState,
    _advance_riccati,
    _mean_update,
    _step_count,
)
from .trajectory import (
    NoiseStream,
    SLHCoefficients,
    TrajectoryState,
    _sme_kernel,
    _sse_update,
    damped_cavity_slh,
)

__all__ = [
    "PIDGains",
    "ReferenceSignal",
    "ClosedLoopState",
    "ClosedLoopRecord",
    "XiGain",
    "error_signal",
    "xi_gain",
    "drift_estimate",
    "controlled_slh",
    "pid_filter_step",
    "noise_free_response",
    "closed_loop_cosim",
]

_REFERENCE_KINDS = ("constant", "step", "ramp", "sinusoid")


@dataclass(frozen=True)
class PIDGains:
    """Nonnegative PID gains with set-point weights.

    mu scales the reference inside the proportional term and nu scales
    its derivative inside the derivative term; the integral term always
    integrates the unweighted error r - a_hat."""

    k_P: float
    k_I: float = 0.0
    k_D: float = 0.0
    mu: float = 1.0
    nu: float = 1.0

    def __post_init__(self) -> None:
        for name in ("k_P", "k_I", "k_D"):
            val = getattr(self, name)
            if not (val >= 0.0 and math.isfinite(val)):
                raise DomainError(f"{name} must be a nonnegative real, got {val}")
        if not (math.isfinite(self.mu) and math.isfinite(self.nu)):
            raise DomainError("set-point weights must be finite")

    @property
    def all_zero(self) -> bool:
        return self.k_P == 0.0 and self.k_I == 0.0 and self.k_D == 0.0


@dataclass(frozen=True)
class ReferenceSignal:
    """Analytic reference r(t) with an analytic derivative.

    kinds (all zero, resp. held, before ``onset``):
      constant: r = amplitude                      dr = 0
      step:     r = amplitude for t >= onset       dr = 0 (the jump
                itself is not differentiable; the derivative channel
                sees nothing from an ideal step)
      ramp:     r = amplitude + slope (t - onset)  dr = slope
      sinusoid: r = amplitude e^{i freq (t-onset)} dr = i freq r
    """

    kind: str
    amplitude: complex = 1.0 + 0.0j
    onset: float = 0.0
    slope: float = 0.0
    frequency: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _REFERENCE_KINDS:
            raise DomainError(
                f"kind must be one of {_REFERENCE_KINDS}, got {self.kind!r}"
            )
        if not (self.onset >= 0.0 and math.isfinite(self.onset)):
            raise DomainError(f"onset must be a nonnegative real, got {self.onset}")
        for name in ("slope", "frequency"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    def value(self, t: float) -> complex:
        if self.kind == "constant":
            return complex(self.amplitude)
        if t < self.onset:
            return 0.0j
        if self.kind == "step":
            return complex(self.amplitude)
        if self.kind == "ramp":
            return complex(self.amplitude) + self.slope * (t - self.onset)
        return complex(self.amplitude) * cmath.exp(
            1j * self.frequency * (t - self.onset))

    def derivative(self, t: float) -> complex:
        if self.kind in ("constant", "step") or t < self.onset:
            return 0.0j
        if self.kind == "ramp":
            return complex(self.slope)
        return 1j * self.frequency * self.value(t)


@dataclass(frozen=True)
class XiGain:
    """Innovations gain of the derivative-controlled filter,
    sqrt(gamma) (V + W) / (1 + k_D)."""

    value: complex


@dataclass(frozen=True)
class ClosedLoopState:
    """Filter state, accumulated integral of the error, optional truth."""

    filter: QKFState
    integral_error: complex = 0.0j
    truth: Union[TrajectoryState, None] = None
    t: float = 0.0

    def __post_init__(self) -> None:
        ie = complex(self.integral_error)
        if not (math.isfinite(ie.real) and math.isfinite(ie.imag)):
            raise DomainError("integral_error must be finite")


@dataclass(frozen=True)
class ClosedLoopRecord:
    """Paired truth/filter series from a co-simulation (uniform grid).

    ``qv`` is the quadratic variation of the filter innovations over
    the whole run, accumulated at full step resolution."""

    t: np.ndarray
    truth_mean_a: np.ndarray
    truth_mean_n: np.ndarray
    a_hat: np.ndarray
    V: np.ndarray
    W: np.ndarray
    Y: np.ndarray
    I: np.ndarray
    final: ClosedLoopState
    qv: float


def error_signal(r_t: complex, a_hat: complex) -> complex:
    """Tracking error e = r(t) - a_hat."""
    return complex(r_t) - complex(a_hat)


def xi_gain(cov: RiccatiState, gains: PIDGains, gamma: float) -> XiGain:
    """Innovations gain sqrt(gamma) (V + W) / (1 + k_D)."""
    return XiGain(_xi(cov.V, cov.W, gains.k_D, gamma))


def _xi(v: float, w: complex, k_D: float, gamma: float) -> complex:
    return math.sqrt(gamma) * (v + w) / (1.0 + k_D)


def drift_estimate(
    gains: PIDGains,
    filt: QKFState,
    ref: ReferenceSignal,
    integral_error: complex,
    t: float,
    params: ModeParams,
) -> complex:
    """Predictable part of da_hat/dt in the PID loop:

        [-(gamma/2 + i omega) a_hat + k_P (mu r - a_hat)
         + k_I integral_error + k_D nu dr/dt] / (1 + k_D).

    This is also the surrogate for the non-differentiable estimate
    velocity inside the derivative Hamiltonian.  Zero-gain terms are
    skipped outright so that gain-by-gain reductions agree at the bit
    level, not merely numerically.
    """
    return _drift(gains, filt.a_hat, integral_error, t, params, ref)


def _drift(gains: PIDGains, a_hat: complex, integral_error: complex,
           t: float, params: ModeParams, ref: ReferenceSignal) -> complex:
    return _drift_at(gains, a_hat, integral_error, ref.value(t),
                     _d_reference(gains, ref, t), params)


def _d_reference(gains: PIDGains, ref: ReferenceSignal, t: float) -> complex:
    """dr/dt where the derivative channel reads it, else 0."""
    return ref.derivative(t) if gains.k_D != 0.0 else 0.0j


def _drift_at(gains: PIDGains, a_hat: complex, integral_error: complex,
              r_t: complex, dr_t: complex, params: ModeParams) -> complex:
    num = -complex(0.5 * params.gamma, params.omega) * a_hat
    if gains.k_P != 0.0:
        num = num + gains.k_P * (gains.mu * r_t - a_hat)
    if gains.k_I != 0.0:
        num = num + gains.k_I * integral_error
    if gains.k_D != 0.0:
        num = num + gains.k_D * (gains.nu * dr_t)
    return num / (1.0 + gains.k_D)


@lru_cache(maxsize=32)
def _open_loop_slh(gamma: float, omega: float, dim: int) -> SLHCoefficients:
    return damped_cavity_slh(ModeParams(gamma, omega), dim)


def _feedback_scalars(gains: PIDGains, a_hat: complex,
                      integral_error: complex, V: float, W: complex,
                      t: float, params: ModeParams, ref: ReferenceSignal):
    """(c1, c2, z, w, drift, xi, r(t)): everything the PID loop feeds back
    at one filter state, with the reference, the drift and the Xi gain
    evaluated once for both the coefficients and the filter update.

    S = 1 throughout.  P and I act purely through the displacement z of
    the error and its integral.  D modifies the coupling,
    L = sqrt(gamma) a - iF_D with F_D = i k_D (Xi* a - Xi a'), so
    c1 = sqrt(gamma) + k_D Xi* and c2 = -k_D Xi, and adds the
    derivative Hamiltonian to z plus the current-feedback correction
    (F_D L_0 + L_0' F_D)/2 with L_0 = sqrt(gamma) a, which is
    w (a^2 + a'a) + h.c. with w = i sqrt(gamma) k_D Xi* / 2.
    """
    sg = math.sqrt(params.gamma)
    r_t, dr_t = ref.value(t), _d_reference(gains, ref, t)
    drift = _drift_at(gains, a_hat, integral_error, r_t, dr_t, params)
    xi = _xi(V, W, gains.k_D, params.gamma)
    z = 0.0j
    if gains.k_P != 0.0:
        z += 1j * gains.k_P * (gains.mu * r_t - a_hat)
    if gains.k_I != 0.0:
        z += 1j * gains.k_I * complex(integral_error)
    if gains.k_D == 0.0:
        return sg, 0.0j, z, 0.0j, drift, xi, r_t
    lam_hat = sg * 2.0 * a_hat.real
    z += 1j * gains.k_D * (gains.nu * dr_t - drift + lam_hat * xi)
    xi_c = xi.conjugate()
    return (sg + gains.k_D * xi_c, -gains.k_D * xi, z,
            0.5j * sg * gains.k_D * xi_c, drift, xi, r_t)


def _slh_coefficients(c1: complex, c2: complex, z: complex, w: complex,
                      omega: float):
    """Ladder-basis coefficients of L, L', L'L and H, one row each.

    L'L is the closed form |c1|^2 a'a + |c2|^2 a a' + conj(c2) c1 a^2
    + conj(c1) c2 a'^2: truncated products of a and a' equal their
    closed forms, so no matrix product is needed and H is Hermitian by
    construction."""
    c1c, c2c, zc, wc = (complex(c1).conjugate(), complex(c2).conjugate(),
                        z.conjugate(), w.conjugate())
    # columns: a'^2, a', a'a, a, a^2, a a' (fock._LADDER_KEYS)
    return [
        [0.0, c2, 0.0, c1, 0.0, 0.0],
        [0.0, c1c, 0.0, c2c, 0.0, 0.0],
        [c1c * c2, 0.0, (c1c * c1).real, 0.0, c2c * c1, (c2c * c2).real],
        [wc, z, omega + 2.0 * w.real, zc, w, 0.0],
    ]


def _sse_coefficients(c1, c2, z, w, omega):
    """Ladder-basis rows of L and A0 = -iH - L'L/2."""
    l_row, _, ll_row, h_row = _slh_coefficients(c1, c2, z, w, omega)
    return [l_row, [-1j * h - 0.5 * q for h, q in zip(h_row, ll_row)]]


def controlled_slh(
    gains: PIDGains,
    filt: QKFState,
    ref: ReferenceSignal,
    integral_error: complex,
    t: float,
    params: ModeParams,
    dim: int,
) -> SLHCoefficients:
    """SLH coefficients of the mode under the PID feedback actuation,
    materialized densely from the scalars of ``_feedback_scalars``.

    The result satisfies L + iF_D = sqrt(gamma) a and H = H' exactly.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    if gains.all_zero:
        return _open_loop_slh(params.gamma, params.omega, dim)
    ric = filt.riccati
    c1, c2, z, w, *_ = _feedback_scalars(gains, filt.a_hat, integral_error,
                                         ric.V, ric.W, t, params, ref)
    coef = _slh_coefficients(c1, c2, z, w, params.omega)
    l_mat, h_mat = _ladder_dense([coef[0], coef[3]], dim)
    return SLHCoefficients(1.0 + 0.0j, CavityOperator(dim, l_mat),
                           CavityOperator(dim, h_mat))


def _filter_update(a_hat: complex, integral_error: complex, V: float,
                   W: complex, r_t: complex, drift: complex, xi: complex,
                   dI: float, params: ModeParams, dt: float):
    """(a_hat, integral_error, V, W) one closed-loop filter step later.

    The one copy of the update arithmetic, shared by ``pid_filter_step``
    and the co-simulation loop."""
    a_new = _mean_update(a_hat, drift, xi, dI, dt)
    v_new, w_new = _advance_riccati(V, W, 0.0, dt, params.gamma, params.omega,
                                    _untilted)
    ie_new = integral_error + error_signal(r_t, a_hat) * dt
    return a_new, ie_new, v_new, w_new


def _untilted(_t: float) -> float:
    return 0.0


def pid_filter_step(
    state: ClosedLoopState,
    dI: float,
    gains: PIDGains,
    ref: ReferenceSignal,
    params: ModeParams,
    dt: float,
) -> ClosedLoopState:
    """One closed-loop filter step driven by the innovations increment.

    The mean moves by drift_estimate dt plus the Xi gain times dI, with
    both coefficients frozen at the step start; the integral error
    accumulates (r - a_hat) dt the same way; the covariances advance by
    one RK4 step of the theta=0 Riccati pair.  With all gains zero this
    reproduces the uncontrolled filter step bit for bit.
    """
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    filt = state.filter
    ric = filt.riccati
    drift = _drift(gains, filt.a_hat, state.integral_error, state.t, params, ref)
    xi = _xi(ric.V, ric.W, gains.k_D, params.gamma)
    a_new, ie_new, v_new, w_new = _filter_update(
        filt.a_hat, state.integral_error, ric.V, ric.W, ref.value(state.t),
        drift, xi, dI, params, dt)
    return ClosedLoopState(
        filter=QKFState(a_new, RiccatiState(v_new, w_new, ric.t + dt)),
        integral_error=ie_new,
        truth=state.truth,
        t=state.t + dt,
    )


def noise_free_response(
    gains: PIDGains,
    ref: ReferenceSignal,
    params: ModeParams,
    T: float,
    dt: float,
    a0: complex = 0.0j,
    ie0: complex = 0.0j,
):
    """Deterministic skeleton of the closed-loop filter: RK4 on

        da/dt  = drift_estimate(a, ie, t),
        die/dt = r(t) - a,

    i.e. the filter recursion with the innovations switched off.
    Returns (t, a_hat, integral_error) arrays on the full step grid.
    """
    n = _step_count(T, dt)

    def rhs(t, a, ie):
        return (_drift(gains, a, ie, t, params, ref), ref.value(t) - a)

    ts = np.empty(n + 1)
    a_arr = np.empty(n + 1, dtype=np.complex128)
    ie_arr = np.empty(n + 1, dtype=np.complex128)
    a, ie = complex(a0), complex(ie0)
    ts[0], a_arr[0], ie_arr[0] = 0.0, a, ie
    for k in range(n):
        t = k * dt
        k1a, k1e = rhs(t, a, ie)
        k2a, k2e = rhs(t + 0.5 * dt, a + 0.5 * dt * k1a, ie + 0.5 * dt * k1e)
        k3a, k3e = rhs(t + 0.5 * dt, a + 0.5 * dt * k2a, ie + 0.5 * dt * k2e)
        k4a, k4e = rhs(t + dt, a + dt * k3a, ie + dt * k3e)
        a = a + (dt / 6.0) * (k1a + 2.0 * (k2a + k3a) + k4a)
        ie = ie + (dt / 6.0) * (k1e + 2.0 * (k2e + k3e) + k4e)
        ts[k + 1] = (k + 1) * dt
        a_arr[k + 1] = a
        ie_arr[k + 1] = ie
    for arr in (ts, a_arr, ie_arr):
        arr.setflags(write=False)
    return ts, a_arr, ie_arr


def closed_loop_cosim(
    alpha: complex,
    cov: CovariancePair,
    gains: PIDGains,
    ref: ReferenceSignal,
    params: ModeParams,
    dim: int,
    noise: NoiseStream,
    T: float,
    dt: float,
    record_stride: int = 1,
    truth_alpha: Union[complex, None] = None,
    truth_cov: Union[CovariancePair, None] = None,
) -> ClosedLoopRecord:
    """Co-simulate the Fock-space truth and the two-moment filter.

    Per step: (1) the feedback scalars (c1, c2, z, w) and the filter's
    drift and gain are computed once from the current filter state;
    (2) the truth advances one step on the sampled noise increment;
    (3) the record increment dY = lambda_truth dt + dW is synthesized;
    (4) the filter consumes its own innovations
    dI' = dY - sqrt(gamma) 2 Re(a_hat) dt.  All coefficients are frozen
    at step start, so neither side anticipates.

    The truth never sees dense SLH coefficients.  A state vector is
    stepped from the bands of L and A0 = -iH - L'L/2 on the ladder
    basis, in O(dim) per step; a density matrix from dense L, L', L'L
    and H summed over the same basis.  Without gains the coefficients
    are built once, before the loop.

    The filter is initialized at (alpha, cov).  The truth defaults to
    the same Gaussian data, integrated as a state vector when the data
    is pure and as a density matrix otherwise; ``truth_alpha`` and
    ``truth_cov`` override it, which is how an ensemble represents a
    mixed prior as a classical draw over pure preparations.
    """
    n = _step_count(T, dt, record_stride)
    if abs(noise.dt - dt) > 1e-15:
        raise DomainError(f"noise stream dt {noise.dt} != integration dt {dt}")

    t_alpha = alpha if truth_alpha is None else truth_alpha
    t_cov = cov if truth_cov is None else truth_cov
    pure = abs(t_cov.physicality_excess()) <= 1e-8
    if pure:
        state_arr = _gaussian_vector(t_alpha, t_cov, dim).amplitudes
        buffers = _band_buffers(dim)
    else:
        state_arr = gaussian_state(t_alpha, t_cov, dim).entries

    def truth_coefficients(c1, c2, z, w):
        if pure:
            return _ladder_banded(
                _sse_coefficients(c1, c2, z, w, params.omega), dim)
        return _ladder_dense(_slh_coefficients(c1, c2, z, w, params.omega),
                             dim)

    a_hat, ie = complex(alpha), 0.0j
    v, w_cov = cov.V, cov.W
    sg = math.sqrt(params.gamma)
    fixed = None
    if gains.all_zero:
        fixed = truth_coefficients(sg, 0.0j, 0.0j, 0.0j)
    a_mat = _annihilation_matrix(dim)
    dws = noise.increments(n)

    n_rec = n // record_stride + 1
    rec_t = np.empty(n_rec)
    rec_ta = np.empty(n_rec, dtype=np.complex128)
    rec_tn = np.empty(n_rec)
    rec_ah = np.empty(n_rec, dtype=np.complex128)
    rec_v = np.empty(n_rec)
    rec_w = np.empty(n_rec, dtype=np.complex128)
    rec_y = np.empty(n_rec)
    rec_i = np.empty(n_rec)

    def record(idx, t, arr, y, i_acc):
        if pure:
            ma, mn, _ = _moments_from_vector(arr, a_mat)
            pop = (abs(arr[-1]) ** 2 + abs(arr[-2]) ** 2) / np.vdot(arr, arr).real
        else:
            ma, mn, _ = _moments_from_density(arr, dim)
            pop = (arr[-1, -1] + arr[-2, -2]).real
        _check_truncation(float(pop), f"closed loop (t={t:.4g})")
        rec_t[idx] = t
        rec_ta[idx] = ma
        rec_tn[idx] = mn
        rec_ah[idx] = a_hat
        rec_v[idx] = v
        rec_w[idx] = w_cov
        rec_y[idx] = y
        rec_i[idx] = i_acc

    record(0, 0.0, state_arr, 0.0, 0.0)

    y_acc = 0.0
    i_acc = 0.0
    qv = 0.0
    idx = 1
    for k in range(n):
        t = k * dt
        c1, c2, z, w, drift, xi, r_t = _feedback_scalars(
            gains, a_hat, ie, v, w_cov, t, params, ref)
        coef = fixed if fixed is not None else truth_coefficients(c1, c2, z, w)
        dw = dws[k]
        try:
            if pure:
                u, a0_psi = _band_apply(coef, state_arr, buffers)
                state_arr, lam = _sse_update(state_arr, u, a0_psi, 1.0 + 0.0j,
                                             dw, dt)
            else:
                l_mat, ld, ll, h_mat = coef
                state_arr, lam = _sme_kernel(state_arr, l_mat, ld, ll, h_mat,
                                             1.0 + 0.0j, dw, dt)
        except CavityFilterError as exc:
            raise type(exc)(f"step {k} (t={t:.6g}): {exc}") from exc
        dy = lam * dt + dw
        di_f = dy - (sg * 2.0 * a_hat.real) * dt
        a_hat, ie, v, w_cov = _filter_update(a_hat, ie, v, w_cov, r_t,
                                             drift, xi, di_f, params, dt)
        if not (v >= -1e-10 and cmath.isfinite(ie)):
            raise DomainError(f"step {k} (t={t:.6g}): filter left its domain "
                              f"(V={v}, integral_error={ie})")
        y_acc += dy
        i_acc += di_f
        qv += di_f * di_f
        if (k + 1) % record_stride == 0:
            record(idx, (k + 1) * dt, state_arr, y_acc, i_acc)
            idx += 1

    t_end = n * dt
    if pure:
        truth = TrajectoryState(t_end, y_acc, float(np.sum(dws)),
                                psi=StateVector(dim, state_arr))
    else:
        truth = TrajectoryState(t_end, y_acc, float(np.sum(dws)),
                                rho=DensityOperator(dim, state_arr))
    final = ClosedLoopState(
        filter=QKFState(a_hat, RiccatiState(v, w_cov, t_end)),
        integral_error=ie, truth=truth, t=t_end)
    for arr in (rec_t, rec_ta, rec_tn, rec_ah, rec_v, rec_w, rec_y, rec_i):
        arr.setflags(write=False)
    return ClosedLoopRecord(rec_t, rec_ta, rec_tn, rec_ah, rec_v, rec_w,
                            rec_y, rec_i, final, qv)
