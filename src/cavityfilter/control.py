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
materializes them as SLH coefficients on the ladder basis, whose
steppers read L and A0 = -iH - L'L/2 from the same ladder rows;
``closed_loop_cosim`` never does, and steps the truth from those rows
alone (banded for a state vector, dense sums over the basis for the
factor X of a density matrix rho = XX').

``closed_loop_cosim`` runs the full-Fock-space truth and the two-moment
filter side by side on one synthesized record, which is the ground
truth the cheap filter is judged against everywhere in this package.
It is the open-loop trajectory with another coefficient source, so it
runs on the one trajectory loop of ``trajectory._integrate``: its
``step`` closure computes the feedback scalars, steps the truth and
updates the filter, and a ``sample`` hook adds the filter's columns to
the loop's record of the truth.

The loop steps a batch of truths in lockstep (``_cosim``), which is how
an ensemble shard runs; a single co-simulation is the batch of one.
Every filter of a batch starts from the same covariances, so each step
evaluates what the filters share once: it draws the Riccati pair from
the batch's one ``qkf._covariances`` generator, and computes r(t), dr/dt
and the Xi gain (``_shared_scalars``).  Each truth keeps its own
filter mean, integral error, drift and displacement z in Python scalars;
c1, c2 and w depend on Xi alone, so the truths' coefficients differ only
in z.  Pure truths are stepped as one (B, dim) stack.  Under feedback
the (B, 2, 6) ladder rows of (L, A0) are built in one call
(``_ladder_rows``) and contracted with the six ladder-basis products of
every state by one batched matmul (``fock._ladder_apply``); without
gains the constant coefficients are combined into bands once, before the
loop (``fock._band_apply``).  One ``_sse_update`` then steps the stack.
Mixed truths form L X and A0 X by one stacked matrix product, a dense
product per truth, before the same update.  Every truth gets the bits of
its own run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CavityFilterError, DomainError
from .fock import (
    CovariancePair,
    _band_apply,
    _band_buffers,
    _gaussian_vector,
    _ladder_apply,
    _ladder_banded,
    _ladder_dense,
    gaussian_state,
)
from .qkf import (
    ModeParams,
    QKFState,
    RiccatiState,
    _covariances,
    _mean_update,
    _rk4_linear,
    _step_count,
)
from .trajectory import (
    NoiseStream,
    SLHCoefficients,
    TrajectoryState,
    _at_column,
    _density_factor,
    _integrate,
    _ladder_rows,
    _ladder_slh,
    _sse_update,
    _step_total,
)

__all__ = [
    "PIDGains",
    "ReferenceSignal",
    "ClosedLoopState",
    "ClosedLoopRecord",
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
        if not cmath.isfinite(complex(self.amplitude)):
            raise DomainError(f"amplitude must be finite, got {self.amplitude}")
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


def _sq_error(rec: ClosedLoopRecord) -> np.ndarray:
    """|<a> - a_hat|^2 conditioned on the truth, at each record point:
    <a'a> - 2 Re(a_hat* <a>) + |a_hat|^2."""
    return (rec.truth_mean_n
            - 2.0 * (np.conj(rec.a_hat) * rec.truth_mean_a).real
            + np.abs(rec.a_hat) ** 2)


def error_signal(r_t: complex, a_hat: complex) -> complex:
    """Tracking error e = r(t) - a_hat."""
    return complex(r_t) - complex(a_hat)


def xi_gain(cov: RiccatiState, gains: PIDGains, gamma: float) -> complex:
    """Innovations gain sqrt(gamma) (V + W) / (1 + k_D)."""
    return _xi(cov.V, cov.W, gains.k_D, gamma)


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
    return _drift_at(gains, filt.a_hat, integral_error, ref.value(t),
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


def _shared_scalars(gains: PIDGains, ref: ReferenceSignal, t: float,
                    V: float, W: complex, params: ModeParams):
    """(r(t), dr/dt, Xi): the feedback inputs that depend only on the
    time and the covariances, so every filter of a batch shares them."""
    return (ref.value(t), _d_reference(gains, ref, t),
            _xi(V, W, gains.k_D, params.gamma))


def _feedback_scalars(gains: PIDGains, a_hat: complex,
                      integral_error: complex, r_t: complex, dr_t: complex,
                      xi: complex, params: ModeParams):
    """(c1, c2, z, w, drift): everything the PID loop feeds back at one
    filter state, from the ``_shared_scalars`` (r_t, dr_t, xi) of the
    step, with the drift evaluated once for both the coefficients and the
    filter update.

    S = 1 throughout.  P and I act purely through the displacement z of
    the error and its integral.  D modifies the coupling,
    L = sqrt(gamma) a - iF_D with F_D = i k_D (Xi* a - Xi a'), so
    c1 = sqrt(gamma) + k_D Xi* and c2 = -k_D Xi, and adds the
    derivative Hamiltonian to z plus the current-feedback correction
    (F_D L_0 + L_0' F_D)/2 with L_0 = sqrt(gamma) a, which is
    w (a^2 + a'a) + h.c. with w = i sqrt(gamma) k_D Xi* / 2.  Only z and
    the drift depend on the filter state; c1, c2 and w depend on Xi alone.
    """
    sg = math.sqrt(params.gamma)
    drift = _drift_at(gains, a_hat, integral_error, r_t, dr_t, params)
    z = 0.0j
    if gains.k_P != 0.0:
        z += 1j * gains.k_P * (gains.mu * r_t - a_hat)
    if gains.k_I != 0.0:
        z += 1j * gains.k_I * complex(integral_error)
    if gains.k_D == 0.0:
        return sg, 0.0j, z, 0.0j, drift
    lam_hat = sg * 2.0 * a_hat.real
    z += 1j * gains.k_D * (gains.nu * dr_t - drift + lam_hat * xi)
    xi_c = xi.conjugate()
    return (sg + gains.k_D * xi_c, -gains.k_D * xi, z,
            0.5j * sg * gains.k_D * xi_c, drift)


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
    ric = filt.riccati
    c1, c2, z, w, _ = _feedback_scalars(
        gains, filt.a_hat, integral_error,
        *_shared_scalars(gains, ref, t, ric.V, ric.W, params), params)
    return _ladder_slh(c1, c2, z, w, params.omega, dim)


def _filter_update(a_hat: complex, integral_error: complex, r_t: complex,
                   drift: complex, xi: complex, dI: float, dt: float):
    """(a_hat, integral_error) one closed-loop filter step later; the
    covariance pair takes its own step of ``qkf._covariances``.

    The one copy of the update arithmetic, shared by ``pid_filter_step``
    and the co-simulation loop."""
    a_new = _mean_update(a_hat, drift, xi, dI, dt)
    return a_new, integral_error + error_signal(r_t, a_hat) * dt


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
    r_t, dr_t, xi = _shared_scalars(gains, ref, state.t, ric.V, ric.W, params)
    drift = _drift_at(gains, filt.a_hat, state.integral_error, r_t, dr_t,
                      params)
    a_new, ie_new = _filter_update(filt.a_hat, state.integral_error, r_t,
                                   drift, xi, dI, dt)
    v_new, w_new = next(_covariances(ric.V, ric.W, 0.0, params, dt))
    return ClosedLoopState(
        filter=QKFState(a_new, RiccatiState(v_new, w_new, ric.t + dt)),
        integral_error=ie_new,
        truth=state.truth,
        t=state.t + dt,
    )


def _reference_at(ref: ReferenceSignal, times: np.ndarray) -> np.ndarray:
    """(r, dr/dt) at each of ``times``, as the rows of a (len, 2) array."""
    return np.fromiter(((ref.value(t), ref.derivative(t))
                        for t in map(float, times)),
                       dtype=np.dtype((np.complex128, 2)), count=len(times))


def noise_free_response(
    gains: PIDGains,
    ref: ReferenceSignal,
    params: ModeParams,
    T: float,
    dt: float,
    a0: complex = 0.0j,
    ie0: complex = 0.0j,
):
    """Deterministic skeleton of the closed-loop filter: classical RK4 on

        da/dt  = drift_estimate(a, ie, t),
        die/dt = r(t) - a,

    i.e. the filter recursion with the innovations switched off.  The
    pair is linear in (a, ie), x' = A x + B (r, dr/dt) with

        A = [[-(gamma/2 + i omega + k_P) / (1 + k_D), k_I / (1 + k_D)],
             [-1, 0]],
        B = [[k_P mu / (1 + k_D), k_D nu / (1 + k_D)], [1, 0]],

    so every step is the one affine map of ``qkf._rk4_linear`` and
    the reference is read once at each grid time and step midpoint.
    Returns (t, a_hat, integral_error) arrays on the full step grid.
    """
    n = _step_count(T, dt)
    s = 1.0 + gains.k_D
    a = np.array([[-(complex(0.5 * params.gamma, params.omega) + gains.k_P) / s,
                   gains.k_I / s],
                  [-1.0, 0.0]], dtype=np.complex128)
    b = np.array([[gains.k_P * gains.mu / s, gains.k_D * gains.nu / s],
                  [1.0, 0.0]], dtype=np.complex128)
    ts = np.arange(n + 1) * dt
    x = _rk4_linear(a, b, dt, (complex(a0), complex(ie0)),
                    _reference_at(ref, ts), _reference_at(ref, ts[:-1] + 0.5 * dt))
    a_arr = np.ascontiguousarray(x[:, 0])
    ie_arr = np.ascontiguousarray(x[:, 1])
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

    The truth never sees dense SLH coefficients.  It is stepped from the
    ladder rows of L and A0 = -iH - L'L/2: a state vector by contracting
    them with its ladder-basis products, in O(dim) per step, a density
    matrix as its factor X (rho = XX') from the dense sums over the same
    basis, with the same state-vector update.  Without gains the
    coefficients are combined once, before the loop.

    The filter is initialized at (alpha, cov).  The truth defaults to
    the same Gaussian data, integrated as a state vector when the data
    is pure and as a density matrix otherwise; ``truth_alpha`` and
    ``truth_cov`` override it, which is how an ensemble represents a
    mixed prior as a classical draw over pure preparations.
    """
    return _cosim(alpha, cov, gains, ref, params, dim, [noise], T, dt,
                  record_stride, [alpha if truth_alpha is None else truth_alpha],
                  cov if truth_cov is None else truth_cov)[0]


def _cosim(alpha: complex, cov: CovariancePair, gains: PIDGains,
           ref: ReferenceSignal, params: ModeParams, dim: int, noises,
           T: float, dt: float, record_stride: int, truth_alphas,
           truth_cov: CovariancePair) -> list:
    """``closed_loop_cosim`` for a batch of truths stepped in lockstep:
    truth b starts from (truth_alphas[b], truth_cov) and is driven by
    ``noises[b]``, and its filter starts from (alpha, cov).  Returns one
    ``ClosedLoopRecord`` per truth, each bit for bit that of its own
    one-truth run.

    Every filter starts from the same covariances, so the Riccati pair
    (one draw from the batch's ``qkf._covariances`` generator), r(t),
    dr/dt and Xi are evaluated once per step for the whole batch;
    the means, integral errors, drifts and displacements are kept per
    truth.  A pure batch is stepped as one (B, dim) stack through one
    contraction of its ladder-basis products (one band application
    without gains) and one ``_sse_update``; a mixed batch forms L X and
    A0 X by one stacked matrix product, a dense product per truth, before
    the same update.  An error of truth b names it as the error's
    ``column``."""
    batch = len(noises)
    pure = abs(truth_cov.physicality_excess()) <= 1e-8
    states = []
    for b, t_alpha in enumerate(truth_alphas):
        try:
            if pure:
                states.append(
                    _gaussian_vector(t_alpha, truth_cov, dim).amplitudes)
            else:
                states.append(_density_factor(
                    gaussian_state(t_alpha, truth_cov, dim).entries))
        except CavityFilterError as exc:
            raise _at_column(exc, b)
    if pure:
        buffers = _band_buffers(dim, batch)

    a_hat = [complex(alpha)] * batch
    ie = [0.0j] * batch
    i_filter = [0.0] * batch
    qv = [0.0] * batch
    v, w_cov = cov.V, cov.W
    pairs = _covariances(v, w_cov, 0.0, params, dt)
    sg = math.sqrt(params.gamma)
    if gains.all_zero:
        # constant coefficients, combined once: bands for a pure batch,
        # dense matrices for a mixed one
        rows = _ladder_rows(sg, 0.0j, [0.0j] * batch, 0.0j, params.omega)
        fixed = (_ladder_banded(rows, dim) if pure
                 else _ladder_dense(rows, dim)).swapaxes(0, 1)

    def truth_products(scalars, arr):
        """(L x, A0 x) of every truth x of ``arr``: c1, c2 and w depend on
        Xi alone, so every truth shares those of the first."""
        if gains.all_zero:
            return _band_apply(fixed, arr, buffers) if pure else fixed @ arr
        c1, c2, _, w, _ = scalars[0]
        coef = _ladder_rows(c1, c2, [sc[2] for sc in scalars], w, params.omega)
        if pure:
            return _ladder_apply(coef, arr, buffers)
        return _ladder_dense(coef, dim).swapaxes(0, 1) @ arr

    n = _step_total(noises, T, dt, record_stride)

    n_rec = n // record_stride + 1
    rec_ah = np.empty((batch, n_rec), dtype=np.complex128)
    rec_v = np.empty(n_rec)
    rec_w = np.empty(n_rec, dtype=np.complex128)
    rec_i = np.empty((batch, n_rec))

    def step(t, arr, dw):
        nonlocal v, w_cov
        r_t, dr_t, xi = _shared_scalars(gains, ref, t, v, w_cov, params)
        scalars = [_feedback_scalars(gains, a_b, ie_b, r_t, dr_t, xi, params)
                   for a_b, ie_b in zip(a_hat, ie)]
        u, a0_x = truth_products(scalars, arr)
        arr, dy = _sse_update(arr, u, a0_x, 1.0 + 0.0j, dw, dt)
        v, w_cov = next(pairs)
        for b, sc in enumerate(scalars):
            di_f = dy[b] - (sg * 2.0 * a_hat[b].real) * dt
            a_hat[b], ie[b] = _filter_update(a_hat[b], ie[b], r_t, sc[4], xi,
                                             di_f, dt)
            if not cmath.isfinite(ie[b]):
                raise _at_column(DomainError(
                    f"filter left its domain (integral_error={ie[b]})"), b)
            i_filter[b] += di_f
            qv[b] += di_f * di_f
        return arr, dy

    def sample(idx):
        rec_ah[:, idx] = a_hat
        rec_v[idx] = v
        rec_w[idx] = w_cov
        rec_i[:, idx] = i_filter

    truths = _integrate(np.stack(states), "psi" if pure else "rho", noises, n,
                        dt, record_stride, step, "closed loop", sample)
    for col in (rec_ah, rec_v, rec_w, rec_i):
        col.setflags(write=False)
    out = []
    for b, truth in enumerate(truths):
        t_end = truth.final.t
        final = ClosedLoopState(
            filter=QKFState(a_hat[b], RiccatiState(v, w_cov, t_end)),
            integral_error=ie[b], truth=truth.final, t=t_end)
        out.append(ClosedLoopRecord(truth.t, truth.mean_a, truth.mean_n,
                                    rec_ah[b], rec_v, rec_w, truth.Y,
                                    rec_i[b], final, qv[b]))
    return out
