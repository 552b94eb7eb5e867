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

where c1, c2 and w depend on the innovations gain Xi alone
(``_xi_terms``) and z on the filter state.  Xi, (c1, c2, w) and A0's
ladder row are numpy expressions on arrays, evaluated on a block of steps
by a co-simulation and on length-1 arrays for one step, so both get the
same bits.  ``controlled_slh`` materializes them as SLH coefficients;
``closed_loop_cosim`` never does.

``closed_loop_cosim`` runs the full-Fock-space truth and the two-moment
filter side by side on one synthesized record, which is the ground
truth the cheap filter is judged against everywhere in this package.
Every coefficient is frozen at the step start, so neither side
anticipates, and a batch of truths gets the bits of its one-truth runs.
How a step is taken is told once, in ``_cosim``'s docstring.
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
    _NOISE_BLOCK,
    NoiseStream,
    SLHCoefficients,
    TrajectoryState,
    _KrausStepper,
    _at_column,
    _density_factor,
    _integrate,
    _ladder_slh,
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

    One rule computes both, ``_reference_at``: ``value`` and
    ``derivative`` read its row at t, so they have the bits of every
    array of the reference the package forms.
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
        """r(t): the first column of ``_reference_at``'s row at t."""
        return complex(_reference_at(self, (t,))[0, 0])

    def derivative(self, t: float) -> complex:
        """dr/dt at t: the second column of ``_reference_at``'s row."""
        return complex(_reference_at(self, (t,))[0, 1])


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
    w = np.array([cov.W], dtype=np.complex128)
    return complex(_xi(np.array([cov.V]), w, gains.k_D, gamma)[0])


def _xi(v: np.ndarray, w: np.ndarray, k_D: float, gamma: float) -> np.ndarray:
    """``xi_gain`` of the covariance arrays (v, w), complex w."""
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
    return _feedback_scalars(gains, params)(
        [filt.a_hat], [integral_error],
        *_shared_scalars(gains, ref, t, filt.riccati, params))[1][0]


def _shared_scalars(gains: PIDGains, ref: ReferenceSignal, t: float,
                    cov: RiccatiState, params: ModeParams):
    """(r(t), dr/dt, Xi): the feedback inputs that depend only on the
    time and the covariances, so every filter of a batch shares them;
    (r, dr/dt) is ``_reference_at``'s row at t."""
    r_t, dr_t = _reference_at(ref, (t,))[0].tolist()
    return r_t, dr_t, xi_gain(cov, gains, params.gamma)


def _xi_terms(k_D: float, sg: float, xi: np.ndarray) -> tuple:
    """The arrays (c1, c2, w) at the array of innovations gains ``xi``,
    for sg = sqrt(gamma).

    D modifies the coupling, L = sqrt(gamma) a - iF_D with
    F_D = i k_D (Xi* a - Xi a'), so c1 = sqrt(gamma) + k_D Xi* and
    c2 = -k_D Xi, and adds the current-feedback correction
    (F_D L_0 + L_0' F_D)/2 with L_0 = sqrt(gamma) a, which is
    w (a^2 + a'a) + h.c. with w = i sqrt(gamma) k_D Xi* / 2.  Without D
    they are the damped mode's (sqrt(gamma), 0, 0)."""
    if k_D == 0.0:
        zero = np.zeros_like(xi)
        return zero + sg, zero, zero
    xi_c = xi.conj()
    return sg + k_D * xi_c, -k_D * xi, 0.5j * sg * k_D * xi_c


def _schedule(gains: PIDGains, ref: ReferenceSignal, params: ModeParams,
              cov: CovariancePair, dt: float, n: int, stepper):
    """Yield the rows (r, dr/dt, Xi, V, W, (c1, c2), base) of steps 0,
    ..., n of a run from ``cov``, formed as arrays in the blocks of
    ``qkf._covariance_path``, which raises an error of the exact pair
    (V, W) when the row of its step is asked for.  (r, dr/dt) are
    ``_reference_at``'s rows, Xi is ``_xi``'s, (c1, c2) are
    ``_xi_terms``'s and ``base`` is the ``block`` of the run's ``stepper``
    at ``_xi_terms``'s (c1, c2, w): the expressions a single step
    evaluates on length-1 arrays."""
    sg = math.sqrt(params.gamma)
    for ks, v, w in _covariance_path(cov.V, cov.W, 0.0, params, dt,
                                     _step_blocks(0, n + 1)):
        refs = _reference_at(ref, ks * dt)
        xi = _xi(v, w, gains.k_D, params.gamma)
        c1, c2, w_d = _xi_terms(gains.k_D, sg, xi)
        coef = np.column_stack([xi, c1, c2] + stepper.block(c1, c2, w_d))
        # as Python rows 64 steps at a time, so few of them are alive
        for lo in range(0, len(ks), 64):
            part = slice(lo, lo + 64)
            yield from zip(refs[part, 0].tolist(), refs[part, 1].tolist(),
                           coef[part, 0].tolist(), v[part].tolist(),
                           w[part].tolist(), coef[part, 1:3].tolist(),
                           coef[part, 3:].tolist())


def _feedback_scalars(gains: PIDGains, params: ModeParams):
    """The feedback of a run under ``gains``: a function
    (a_hats, integral_errors, r_t, dr_t, xi) -> (zs, drifts), the
    displacement z and the drift of ``drift_estimate`` at the filter
    states (a_hats[b], integral_errors[b]) of a shard, from the
    ``_shared_scalars`` (r_t, dr_t, xi) of the step.  The factors the run
    fixes are formed here, once, and the drift is evaluated once for both
    z and the filter update.  P and I displace by i k_P (mu r - a_hat)
    and i k_I integral_error; D adds the derivative Hamiltonian
    i k_D (nu dr/dt - drift + sqrt(gamma) 2 Re(a_hat) Xi), the one
    reader of dr/dt.  Zero-gain terms are skipped outright, the division
    by 1 + k_D too, and every truth's expressions keep their operand
    order, so each gets the bits of a shard of one.  With every gain zero
    z is 0 and the drift is the function's ``free_drift(a_hat)``,
    kappa a_hat, which needs nothing of the step.
    """
    sg = math.sqrt(params.gamma)
    k_P, k_I, k_D, mu, nu = gains.k_P, gains.k_I, gains.k_D, gains.mu, gains.nu
    kappa = -complex(0.5 * params.gamma, params.omega)
    scale = 1.0 + k_D
    i_kp, i_ki, i_kd, sg2 = 1j * k_P, 1j * k_I, 1j * k_D, sg * 2.0

    def free_drift(a_hat: complex) -> complex:
        return kappa * a_hat

    def scalars(a_hats, integral_errors, r_t: complex, dr_t: complex,
                xi: complex):
        if k_P != 0.0:
            mu_r = mu * r_t
        if k_D != 0.0:
            nu_dr = nu * dr_t
            d_term = k_D * nu_dr
        zs, drifts = [], []
        for a_hat, ie in zip(a_hats, integral_errors):
            drift = kappa * a_hat
            z = 0.0j
            if k_P != 0.0:
                e_p = mu_r - a_hat
                drift = drift + k_P * e_p
                z += i_kp * e_p
            if k_I != 0.0:
                drift = drift + k_I * ie
                z += i_ki * complex(ie)
            if k_D != 0.0:
                drift = (drift + d_term) / scale
                z += i_kd * (nu_dr - drift + (sg2 * a_hat.real) * xi)
            zs.append(z)
            drifts.append(drift)
        return zs, drifts

    scalars.free_drift = free_drift
    return scalars


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
    materialized densely from c1, c2 and w of ``_xi_terms`` and the z of
    ``_feedback_scalars``.

    The result satisfies L + iF_D = sqrt(gamma) a and H = H' exactly.
    """
    r_t, dr_t, xi = _shared_scalars(gains, ref, t, filt.riccati, params)
    zs, _ = _feedback_scalars(gains, params)(
        [filt.a_hat], [integral_error], r_t, dr_t, xi)
    c1, c2, w = (complex(p[0]) for p in _xi_terms(
        gains.k_D, math.sqrt(params.gamma), np.array([xi])))
    return _ladder_slh(c1, c2, zs[0], w, params.omega, dim)


def _filter_update(filters, steps, dt: float, first=None, sg2=None,
                   drifts=None, free_drift=None) -> tuple:
    """The lists (a_hats, ies, i_sums, qvs) of a shard's ``filters`` after
    ``steps``, the (d_ys, r_t, xi) of consecutive closed-loop steps from
    step ``first`` of the run: the mean (``qkf._mean_update``), the
    integral error, and the sum and quadratic variation of the innovations
    dI' = d_ys[b] - sg2 Re(a_hat) dt, or d_ys[b] when sg2 is None.  Under
    gains ``steps`` is one step and ``drifts`` the feedback's; without them
    each step takes the drift ``free_drift(a_hat)`` of the zero-gain
    feedback (``_feedback_scalars``).  r_t and a_hat are complex, so
    r_t - a_hat is ``error_signal``'s.  The covariance pair advances on
    its own.  Each filter takes its steps in turn.  The first step at
    which an integral error is not finite, and of its filters the lowest,
    raises ``DomainError`` with that ``column``, and with its ``step``
    when ``first`` is given (``_integrate`` then names that step).  The
    one copy of the update, for ``pid_filter_step`` and the
    co-simulation.
    """
    a_new, ie_new, i_new, qv_new = out = [], [], [], []
    failed = None
    for b, (a_hat, ie, i_sum, qv) in enumerate(zip(*filters)):
        for j, (d_ys, r_t, xi) in enumerate(steps):
            d = d_ys[b]
            if sg2 is not None:
                d = d - (sg2 * a_hat.real) * dt
            drift = free_drift(a_hat) if drifts is None else drifts[b]
            ie = ie + (r_t - a_hat) * dt
            if not cmath.isfinite(ie):
                failed = _at_column(DomainError(
                    f"filter left its domain (integral_error={ie})"), b,
                    None if first is None else first + j)
                # the filters above b are checked only before step j
                steps = steps[:j]
                break
            a_hat = _mean_update(a_hat, drift, xi, d, dt)
            i_sum = i_sum + d
            qv = qv + d * d
        a_new.append(a_hat)
        ie_new.append(ie)
        i_new.append(i_sum)
        qv_new.append(qv)
    if failed is not None:
        raise failed
    return out


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
    r_t, dr_t, xi = _shared_scalars(gains, ref, state.t, ric, params)
    ies = [state.integral_error]
    drifts = _feedback_scalars(gains, params)([filt.a_hat], ies, r_t, dr_t,
                                              xi)[1]
    (a_new,), (ie_new,), _, _ = _filter_update(
        ([complex(filt.a_hat)], ies, [0.0], [0.0]), [([dI], r_t, xi)], dt,
        drifts=drifts)
    v_new, w_new = next(_covariances(ric.V, ric.W, 0.0, params, dt))
    return ClosedLoopState(
        filter=QKFState(a_new, RiccatiState(v_new, w_new, ric.t + dt)),
        integral_error=ie_new,
        truth=state.truth,
        t=state.t + dt,
    )


def _reference_at(ref: ReferenceSignal, times: np.ndarray) -> np.ndarray:
    """(r, dr/dt) at each of ``times``, as the rows of a (len, 2) array.

    Built per kind by array expressions, zero before ``onset``.  This is
    the one rule of the reference: ``ref.value``, ``ref.derivative``, the
    single steps and the co-simulation's schedule all read its rows."""
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

    Per step the truth advances on the sampled noise increment, the
    record increment dY = lambda_truth dt + dW is synthesized, and the
    filter consumes its own innovations dI' = dY - sqrt(gamma) 2 Re(a_hat)
    dt, with the feedback computed from the filter state at the step
    start (``_cosim`` holds the mechanics).

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

    Xi depends on time alone, so the run's ``_schedule`` forms everything
    that depends only on time, in blocks of steps: r, dr/dt, the
    covariances, Xi, and the Kraus inputs, which the run's
    ``trajectory._KrausStepper`` forms on its own members (its docstring
    holds the members, the row and the Kraus step).  The truths never see
    dense SLH coefficients.  A step takes its row of the schedule (the row
    of step k + 1 is read after step k, where an error of the covariance
    path is raised), forms each truth's z and drift under gains
    (``_feedback_scalars``), takes one ``step`` of the stepper on the
    ladder members the gains can make nonzero, and puts its (dY row, r,
    Xi) on a pending list.  One call of ``_filter_update`` then takes the
    filters over the pending steps: after every step under gains, whose
    next step reads z; at zero gain, where the record does not depend on
    the filters (the estimate is a functional of the record alone),
    before each record point and at least every ``_NOISE_BLOCK`` steps.
    An error of truth b names it as the error's ``column``.  Errors come
    in the order of a step-by-step run: the lowest step first (a step
    that fails makes the filters catch up first, and a filter error keeps
    its own step); in one step a norm guard failure before a filter one,
    and of two truths failing one check the lower."""
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

    filters = ([complex(alpha)] * batch, [0.0j] * batch, [0.0] * batch,
               [0.0] * batch)
    sg2 = math.sqrt(params.gamma) * 2.0
    feedback = _feedback_scalars(gains, params)
    zero_gain = gains.all_zero
    c1, c2, w = (complex(p[0]) for p in _xi_terms(
        gains.k_D, math.sqrt(params.gamma), np.ones(1, dtype=np.complex128)))
    stepper = _KrausStepper(np.stack(states), dt, family=(
        params.omega, c1, c2, 0.0j if zero_gain else 1.0, w))

    n = _step_total(noises, T, dt, record_stride)

    n_rec = n // record_stride + 1
    rec_ah = np.empty((batch, n_rec), dtype=np.complex128)
    rec_v = np.empty(n_rec)
    rec_w = np.empty(n_rec, dtype=np.complex128)
    rec_i = np.empty((batch, n_rec))
    # the row of the step about to be taken
    rows = _schedule(gains, ref, params, cov, dt, n, stepper)
    row = next(rows)
    # the (dY row, r, Xi) of the steps from step ``done`` on that the
    # filters have not taken; they take them when there are ``window``:
    # one under gains, as the next step reads z, else up to the next
    # record point, but no more than a noise block
    pending, done, drifts = [], 0, None
    window = min(_NOISE_BLOCK, record_stride) if zero_gain else 1

    def catch_up():
        nonlocal filters, done, window
        filters = _filter_update(filters, pending, dt, done, sg2, drifts,
                                 feedback.free_drift)
        done += len(pending)
        pending.clear()
        if zero_gain:
            window = min(_NOISE_BLOCK, record_stride - done % record_stride)

    def step(t, arr, dw):
        nonlocal row, drifts
        r_t, dr_t, xi, _, _, c, base = row
        try:
            if zero_gain:
                dy = stepper.step(1.0 + 0.0j, dw, None, c, base)
            else:
                zs, drifts = feedback(filters[0], filters[1], r_t, dr_t, xi)
                dy = stepper.step(1.0 + 0.0j, dw, zs, c, base)
            pending.append((dy, r_t, xi))
            row = next(rows)
        except CavityFilterError:
            # the filters' earlier steps fail first
            catch_up()
            raise
        if len(pending) == window:
            catch_up()
        return stepper.x, dy

    def sample(idx):
        rec_ah[:, idx] = filters[0]
        rec_v[idx], rec_w[idx] = row[3:5]
        rec_i[:, idx] = filters[2]

    truths = _integrate(stepper.x, "psi" if pure else "rho", noises, n, dt,
                        record_stride, step, "closed loop", sample)
    for col in (rec_ah, rec_v, rec_w, rec_i):
        col.setflags(write=False)
    v, w_cov = row[3:5]
    a_hat, ie, _, qv = filters
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
