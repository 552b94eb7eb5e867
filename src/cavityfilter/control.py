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
alone, a state vector and the factor X of a density matrix rho = XX'
alike.

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
Every filter of a batch starts from the same covariances, and none of
r(t), dr/dt, the Riccati pair and the Xi gain depends on the record, so
the batch reads them from one per-run schedule (``_schedule``): the exact
pair of ``qkf._covariance_path`` and the reference of ``_reference_at``,
evaluated as arrays one block of steps at a time.  c1, c2 and w depend on
Xi alone, so each step forms them once for the shard, and the truths'
coefficients differ only in z.  The truths are stepped as one (B, dim)
stack of vectors, or one (B, dim, r) stack of factors, by one
``trajectory._kraus_update`` on the ladder members the gains can make
nonzero, and I, which ``trajectory._ladder_form`` reads off one probe
row at Xi = 1: a'a and a at zero gain, a' too under P or I (z), all six
under D (c2 and w).  Under gains each step forms one base row of dt A0
on those members, by one ``trajectory._slh_coefficients`` call at
z = 0, and ``trajectory._displaced_rows`` sets each truth's a' and a
entries from its z; at zero gain every step takes the probe's row.  What
is left per truth runs in loops over Python lists: the drifts and
displacements (``_feedback_scalars``), the row fill, the innovations
with their sums, and the filter means and integral errors
(``_filter_update``).  Every truth gets the bits of its own run.
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
    _gaussian_vector,
    gaussian_state,
)
from .qkf import (
    ModeParams,
    QKFState,
    RiccatiState,
    _check_dt,
    _covariance_path,
    _covariances,
    _mean_update,
    _rk4_linear,
    _step_blocks,
    _step_count,
)
from .trajectory import (
    NoiseStream,
    SLHCoefficients,
    TrajectoryState,
    _at_column,
    _density_factor,
    _displaced_rows,
    _integrate,
    _kraus_update,
    _ladder_form,
    _ladder_slh,
    _slh_coefficients,
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
    ric = filt.riccati
    return _feedback_scalars(
        gains, [filt.a_hat], [integral_error],
        *_shared_scalars(gains, ref, t, ric.V, ric.W, params), params)[4][0]


def _d_reference(gains: PIDGains, ref: ReferenceSignal, t: float) -> complex:
    """dr/dt where the derivative channel reads it, else 0."""
    return ref.derivative(t) if gains.k_D != 0.0 else 0.0j


def _shared_scalars(gains: PIDGains, ref: ReferenceSignal, t: float,
                    V: float, W: complex, params: ModeParams):
    """(r(t), dr/dt, Xi): the feedback inputs that depend only on the
    time and the covariances, so every filter of a batch shares them."""
    return (ref.value(t), _d_reference(gains, ref, t),
            _xi(V, W, gains.k_D, params.gamma))


def _schedule(gains: PIDGains, ref: ReferenceSignal, params: ModeParams,
              cov: CovariancePair, dt: float, n: int):
    """Yield (r, dr/dt, Xi, V, W) at steps 0, ..., n of a run from ``cov``:
    the ``_shared_scalars`` of every step, with the exact covariance pair
    of ``qkf._covariance_path``, evaluated in its blocks of steps, so the
    schedule holds one block at a time whatever n.  An error of the path
    is raised when the row of its step is asked for.

    (r, dr/dt) are ``_reference_at``'s rows, dr/dt zero unless the
    derivative channel reads it; Xi takes its real and imaginary parts
    apart, the arithmetic of ``_xi`` up to the sign of a zero."""
    sg = math.sqrt(params.gamma)
    scale = 1.0 + gains.k_D
    for ks, v, w in _covariance_path(cov.V, cov.W, 0.0, params, dt,
                                     _step_blocks(0, n + 1)):
        refs = _reference_at(ref, ks * dt)
        if gains.k_D == 0.0:
            refs[:, 1] = 0.0
        xi = np.empty(len(ks), dtype=np.complex128)
        xi.real = sg * (v + w.real) / scale
        xi.imag = sg * w.imag / scale
        yield from zip(refs[:, 0].tolist(), refs[:, 1].tolist(), xi.tolist(),
                       v.tolist(), w.tolist())


def _feedback_scalars(gains: PIDGains, a_hats, integral_errors,
                      r_t: complex, dr_t: complex, xi: complex,
                      params: ModeParams):
    """(c1, c2, zs, w, drifts): everything the PID loop feeds back at the
    filter states (a_hats[b], integral_errors[b]) of a shard, from the
    ``_shared_scalars`` (r_t, dr_t, xi) of the step.  c1, c2 and w depend
    on Xi alone and are formed once; the displacement zs[b] and the drift
    drifts[b] depend on the filter state, and the drift is evaluated once
    for both the coefficients and the filter update.

    S = 1 throughout.  P and I act purely through the displacement z of
    the error and its integral.  D modifies the coupling,
    L = sqrt(gamma) a - iF_D with F_D = i k_D (Xi* a - Xi a'), so
    c1 = sqrt(gamma) + k_D Xi* and c2 = -k_D Xi, and adds the
    derivative Hamiltonian to z plus the current-feedback correction
    (F_D L_0 + L_0' F_D)/2 with L_0 = sqrt(gamma) a, which is
    w (a^2 + a'a) + h.c. with w = i sqrt(gamma) k_D Xi* / 2.  The drift
    is that of ``drift_estimate``, zero-gain terms skipped outright.

    Factors shared by the shard are formed once; every truth's
    expressions keep their operand order, so each gets the bits of a
    shard of one.
    """
    sg = math.sqrt(params.gamma)
    k_P, k_I, k_D = gains.k_P, gains.k_I, gains.k_D
    kappa = -complex(0.5 * params.gamma, params.omega)
    scale = 1.0 + k_D
    if k_P != 0.0:
        mu_r, i_kp = gains.mu * r_t, 1j * k_P
    if k_I != 0.0:
        i_ki = 1j * k_I
    if k_D != 0.0:
        nu_dr, i_kd, sg2 = gains.nu * dr_t, 1j * k_D, sg * 2.0
        d_term = k_D * nu_dr
    zs, drifts = [], []
    for a_hat, ie in zip(a_hats, integral_errors):
        num = kappa * a_hat
        z = 0.0j
        if k_P != 0.0:
            e_p = mu_r - a_hat
            num = num + k_P * e_p
            z += i_kp * e_p
        if k_I != 0.0:
            num = num + k_I * ie
            z += i_ki * complex(ie)
        if k_D != 0.0:
            num = num + d_term
        drift = num / scale
        if k_D != 0.0:
            z += i_kd * (nu_dr - drift + (sg2 * a_hat.real) * xi)
        zs.append(z)
        drifts.append(drift)
    if k_D == 0.0:
        return sg, 0.0j, zs, 0.0j, drifts
    xi_c = xi.conjugate()
    return (sg + k_D * xi_c, -k_D * xi, zs, 0.5j * sg * k_D * xi_c, drifts)


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
    c1, c2, zs, w, _ = _feedback_scalars(
        gains, [filt.a_hat], [integral_error],
        *_shared_scalars(gains, ref, t, ric.V, ric.W, params), params)
    return _ladder_slh(c1, c2, zs[0], w, params.omega, dim)


def _filter_update(a_hats, integral_errors, r_t: complex, drifts,
                   xi: complex, dIs, dt: float):
    """(a_hats, integral_errors) of a shard one closed-loop filter step
    later, from the innovations increments dIs; the covariance pair
    advances on its own (``qkf._covariances`` in ``pid_filter_step``, the
    ``_schedule`` in the co-simulation).

    The one copy of the update arithmetic, shared by ``pid_filter_step``
    and the co-simulation loop."""
    a_new, ie_new = [], []
    for a_hat, ie, drift, d_i in zip(a_hats, integral_errors, drifts, dIs):
        a_new.append(_mean_update(a_hat, drift, xi, d_i, dt))
        ie_new.append(ie + error_signal(r_t, a_hat) * dt)
    return a_new, ie_new


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
    _check_dt(dt)
    filt = state.filter
    ric = filt.riccati
    r_t, dr_t, xi = _shared_scalars(gains, ref, state.t, ric.V, ric.W, params)
    a_hats, ies = [filt.a_hat], [state.integral_error]
    drifts = _feedback_scalars(gains, a_hats, ies, r_t, dr_t, xi, params)[4]
    a_new, ie_new = _filter_update(a_hats, ies, r_t, drifts, xi, [dI], dt)
    v_new, w_new = next(_covariances(ric.V, ric.W, 0.0, params, dt))
    return ClosedLoopState(
        filter=QKFState(a_new[0], RiccatiState(v_new, w_new, ric.t + dt)),
        integral_error=ie_new[0],
        truth=state.truth,
        t=state.t + dt,
    )


def _reference_at(ref: ReferenceSignal, times: np.ndarray) -> np.ndarray:
    """(r, dr/dt) at each of ``times``, as the rows of a (len, 2) array.

    Built per kind by array expressions, zero before ``onset``: the same
    arithmetic as ``ref.value`` and ``ref.derivative``, so constant, step
    and ramp rows equal theirs bit for bit; the sinusoid's rows take
    numpy's complex exponential and agree to rounding."""
    t = np.asarray(times, dtype=np.float64)
    out = np.zeros((len(t), 2), dtype=np.complex128)
    amp = complex(ref.amplitude)
    if ref.kind == "constant":
        out[:, 0] = amp
        return out
    onset = t >= ref.onset
    if ref.kind == "step":
        out[onset, 0] = amp
    elif ref.kind == "ramp":
        out[onset, 0] = amp + ref.slope * (t[onset] - ref.onset)
        out[onset, 1] = complex(ref.slope)
    else:
        r = amp * np.exp(1j * ref.frequency * (t[onset] - ref.onset))
        out[onset, 0] = r
        out[onset, 1] = 1j * ref.frequency * r
    return out


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

    so the system is linear and time-invariant: ``qkf._rk4_linear``
    takes its classical RK4 steps as one prefix scan over the grid, and
    the reference enters as the arrays of ``_reference_at`` at the grid
    times and step midpoints.  Returns (t, a_hat, integral_error) arrays
    on the full step grid.
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
    ladder rows of L and A0 = -iH - L'L/2 by the Kraus update of
    ``trajectory``: a state vector, or a density matrix as its factor X
    (rho = XX'), by its exact ladder-basis products and one row of
    coefficients.

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

    Every filter starts from the same covariances, so r(t), dr/dt, Xi
    and the Riccati pair are one row of the run's ``_schedule`` per step
    for the whole batch; the row of step k + 1 is read after the truths'
    step k, where an error of the pair is raised.  Per step, c1, c2 and w
    (Xi only) and, under gains, the base row of dt A0 at z = 0 are formed
    once; the means, integral errors, drifts and displacements are lists
    over the truths, and each truth's row is the base row with its own z
    filled in (``_displaced_rows``).  A pure batch is stepped as one
    (B, dim) stack, a mixed one as a (B, dim, r) stack of factors, by one
    ``_kraus_update`` on the ladder members the gains can make nonzero
    (``_ladder_form`` of a probe row: a'a and a at zero gain, a' too under
    P or I, all six under D) and I.  An error of truth b names it as the
    error's ``column``."""
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

    a_hat = [complex(alpha)] * batch
    ie = [0.0j] * batch
    i_filter = [0.0] * batch
    qv = [0.0] * batch
    sg2 = math.sqrt(params.gamma) * 2.0
    # the members: c1, c2 and w depend on Xi alone, so their row at
    # Xi = 1 with z = i under any gain has every entry the gains can make
    # nonzero; at zero gain it is every step's row
    zero_gain = gains.all_zero
    c1, c2, _, w, _ = _feedback_scalars(gains, [], [], 0.0j, 0.0j, 1.0,
                                        params)
    probe = _slh_coefficients(c1, c2, 0.0j if zero_gain else 1.0j, w,
                              params.omega)
    basis, cols = _ladder_form(dim, *probe[:2])
    fixed = [[dt * probe[1][j] for j in cols]] * batch

    n = _step_total(noises, T, dt, record_stride)

    n_rec = n // record_stride + 1
    rec_ah = np.empty((batch, n_rec), dtype=np.complex128)
    rec_v = np.empty(n_rec)
    rec_w = np.empty(n_rec, dtype=np.complex128)
    rec_i = np.empty((batch, n_rec))
    # the row of the step about to be taken, (r, dr/dt, Xi, V, W)
    rows = _schedule(gains, ref, params, cov, dt, n)
    row = next(rows)

    def step(t, arr, dw):
        nonlocal row, a_hat, ie
        r_t, dr_t, xi = row[:3]
        c1, c2, zs, w, drifts = _feedback_scalars(gains, a_hat, ie, r_t, dr_t,
                                                  xi, params)
        # the truths' rows differ only in z: one base row per step
        da_rows = fixed if zero_gain else _displaced_rows(
            _slh_coefficients(c1, c2, 0.0j, w, params.omega)[1], cols, zs, dt)
        arr, dy = _kraus_update(arr, basis, (c1, c2), da_rows, 1.0 + 0.0j,
                                dw, dt)
        row = next(rows)
        di_f = []
        for b, (dy_b, a_b) in enumerate(zip(dy, a_hat)):
            d = dy_b - (sg2 * a_b.real) * dt
            di_f.append(d)
            i_filter[b] += d
            qv[b] += d * d
        a_hat, ie = _filter_update(a_hat, ie, r_t, drifts, xi, di_f, dt)
        if not all(map(cmath.isfinite, ie)):
            b = [cmath.isfinite(ie_b) for ie_b in ie].index(False)
            raise _at_column(DomainError(
                f"filter left its domain (integral_error={ie[b]})"), b)
        return arr, dy

    def sample(idx):
        rec_ah[:, idx] = a_hat
        rec_v[idx], rec_w[idx] = row[3:]
        rec_i[:, idx] = i_filter

    truths = _integrate(np.stack(states), "psi" if pure else "rho", noises, n,
                        dt, record_stride, step, "closed loop", sample)
    for col in (rec_ah, rec_v, rec_w, rec_i):
        col.setflags(write=False)
    v, w_cov = row[3:]
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
