"""Stochastic trajectory integrators on the truncated Fock space.

Three unravelings of continuous quadrature (homodyne-type) monitoring:

* ``belavkin_zakai_step``: the linear, unnormalized conditional state,
  driven by the raw record increment dY;
* ``sse_step``: the normalized conditional state vector, driven by the
  innovations increment dI (it is the normalization of the linear
  equation, so the two agree pathwise);
* ``sme_step``: the conditioned density matrix, for mixed initial data.

Simulation is innovations-first: the innovations dI are sampled as
Gaussian increments of variance dt (they are exactly a Wiener process),
and the record is synthesized as dY = lambda dt + dI, where lambda is
the conditional mean photocurrent.  This is statistically exact and
avoids representing the field the mode radiates into.

All steppers are fixed-step Euler-Maruyama with per-step
renormalization (weak order 1); the per-step state objects are cheap
wrappers over dense arrays, and ``run_trajectory`` keeps the inner loop
on the raw arrays.

The state-vector step is split in two: forming u = L psi and
w = A0 psi, and the update arithmetic with its norm guard
(``_sse_update``).  ``run_trajectory`` forms u and w by dense matvecs
from ``SLHCoefficients``; the PID co-simulation in ``control`` forms
them from the bands of a few feedback scalars on the ladder basis and
shares the same update.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NormBoundsError,
    StepSizeError,
    CavityFilterError,
)
from .fock import (
    CavityOperator,
    DensityOperator,
    StateVector,
    _annihilation_matrix,
    _check_truncation,
    _mode_matrices,
    _moments_from_density,
    _moments_from_vector,
)
from .qkf import ModeParams, _step_count

__all__ = [
    "SLHCoefficients",
    "QuadraturePhase",
    "TrajectoryState",
    "TrajectoryRecord",
    "NoiseStream",
    "damped_cavity_slh",
    "lindblad_apply",
    "measurement_increment",
    "sse_step",
    "sme_step",
    "belavkin_zakai_step",
    "run_trajectory",
]

#: norm movement in one step beyond which the step size is declared too
#: large; the Euler scheme moves the norm by O(dt) per step by design,
#: so the guard sits two orders above the largest healthy excursion
NORM_GUARD = 1e-2

_RESCALE_LO, _RESCALE_HI = 1e-50, 1e50
_HARD_LO, _HARD_HI = 1e-100, 1e100


@dataclass(frozen=True, eq=False)
class SLHCoefficients:
    """Coefficient triple (S, L, H) of the monitored mode.

    S is a unit-modulus scattering phase (fixed at 1 throughout this
    package), L the coupling operator into the monitored field, H the
    Hamiltonian.  Identity-based equality: steppers cache the derived
    matrices per instance, so reuse the same object while coefficients
    are unchanged.
    """

    s: complex
    l: CavityOperator
    h: CavityOperator

    def __post_init__(self) -> None:
        if abs(abs(complex(self.s)) - 1.0) > 1e-12:
            raise DomainError(f"scattering phase must be unimodular, got {self.s}")
        if self.l.dim != self.h.dim:
            raise DimensionError(
                f"L dim {self.l.dim} != H dim {self.h.dim}"
            )
        if not self.h.is_hermitian(1e-10):
            raise DomainError("H must be Hermitian (within 1e-10)")

    @property
    def dim(self) -> int:
        return self.l.dim


@dataclass(frozen=True)
class QuadraturePhase:
    """Deterministic measurement quadrature phase theta(t), radians.

    Wraps a constant or a callable of time."""

    theta: Union[float, Callable[[float], float]]

    def at(self, t: float) -> float:
        th = self.theta
        return th(t) if callable(th) else th

    @property
    def constant(self) -> Union[float, None]:
        """The phase value if constant, else None."""
        return None if callable(self.theta) else float(self.theta)


@dataclass(frozen=True)
class TrajectoryState:
    """State of one trajectory: exactly one of psi/rho/chi is set,
    plus the accumulated record Y and innovations I."""

    t: float
    Y: float
    I: float
    psi: Union[StateVector, None] = None
    rho: Union[DensityOperator, None] = None
    chi: Union[StateVector, None] = None

    def __post_init__(self) -> None:
        present = sum(x is not None for x in (self.psi, self.rho, self.chi))
        if present != 1:
            raise DomainError(
                f"exactly one of psi/rho/chi must be set, got {present}"
            )
        if not (math.isfinite(self.Y) and math.isfinite(self.I)):
            raise DomainError("record and innovations must be finite")


@dataclass(frozen=True)
class NoiseStream:
    """Counter-based Gaussian increment stream.

    The same (seed, dt) always reproduces the same increments
    bit-exactly; per-trajectory streams are derived by XOR-ing the
    trajectory index into the seed, which never collides across an
    ensemble."""

    seed: int
    dt: float
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise DomainError(f"seed must be a 64-bit value, got {self.seed}")
        if self.dt <= 0.0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        object.__setattr__(
            self, "_gen", np.random.Generator(np.random.Philox(key=int(self.seed)))
        )

    def increments(self, n: int) -> np.ndarray:
        """The next n Gaussian increments of variance dt."""
        return self._gen.normal(0.0, math.sqrt(self.dt), n)

    def spawn(self, index: int) -> "NoiseStream":
        """Independent stream for trajectory ``index``."""
        return NoiseStream(int(self.seed) ^ int(index), self.dt)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled series along one trajectory (uniform grid including t=0)."""

    t: np.ndarray
    mean_a: np.ndarray
    mean_n: np.ndarray
    mean_a2: np.ndarray
    Y: np.ndarray
    I: np.ndarray
    final: TrajectoryState


def damped_cavity_slh(params: ModeParams, dim: int) -> SLHCoefficients:
    """The uncontrolled damped mode: S=1, L=sqrt(gamma) a, H=omega a'a."""
    mats = _mode_matrices(dim)
    l_op = CavityOperator(dim, math.sqrt(params.gamma) * mats["a"])
    h_op = CavityOperator(dim, params.omega * mats["n"])
    return SLHCoefficients(1.0 + 0.0j, l_op, h_op)


@lru_cache(maxsize=64)
def _stepper_matrices(slh: SLHCoefficients):
    """(L, L', L'L, A0 = -iH - L'L/2, H) as contiguous arrays, cached per
    SLH instance (identity equality makes frozen instances cacheable)."""
    l_mat = slh.l.entries
    ld = np.ascontiguousarray(l_mat.conj().T)
    ll = ld @ l_mat
    a0 = -1j * slh.h.entries - 0.5 * ll
    return l_mat, ld, ll, np.ascontiguousarray(a0), slh.h.entries


# ---------------------------------------------------------------------------
# kernels on raw arrays


def _sse_kernel(psi: np.ndarray, l_mat: np.ndarray, a0: np.ndarray,
                cis: complex, dI: float, dt: float):
    """One normalized-vector step.  Returns (new psi, lambda).

    d psi = A0 psi dt + (lam/2) L_th psi dt - (lam^2/8) psi dt
            + (L_th - lam/2) psi dI,      A0 = -iH - L'L/2,

    with L_th = e^{i theta} L and lam = 2 Re e^{i theta} <L>; explicit
    renormalization closes the step.
    """
    return _sse_update(psi, l_mat @ psi, a0 @ psi, cis, dI, dt)


def _sse_update(psi: np.ndarray, u: np.ndarray, w: np.ndarray,
                cis: complex, dI: float, dt: float):
    """The step of ``_sse_kernel`` from u = L psi and w = A0 psi, however
    they were formed (dense matvecs here, bands in the co-simulation)."""
    lam = 2.0 * (cis * np.vdot(psi, u)).real
    cu = u if cis == 1.0 else cis * u
    psi_new = (1.0 - (0.125 * lam * lam) * dt - (0.5 * lam) * dI) * psi
    psi_new += dt * w
    psi_new += ((0.5 * lam) * dt + dI) * cu
    n2 = np.vdot(psi_new, psi_new).real
    nrm = math.sqrt(n2)
    if abs(nrm - 1.0) > NORM_GUARD:
        raise StepSizeError(
            f"norm moved to {nrm:.6f} in one step; reduce dt"
        )
    psi_new *= 1.0 / nrm
    return psi_new, lam


def _sme_kernel(rho: np.ndarray, l_mat: np.ndarray, ld: np.ndarray,
                ll: np.ndarray, h_mat: np.ndarray, cis: complex,
                dI: float, dt: float):
    """One density-matrix step.  Returns (new rho, lambda).

    d rho = (L rho L' - {L'L, rho}/2 + i[rho, H]) dt
            + (L_th rho + rho L_th' - lam rho) dI,

    followed by Hermitization, trace renormalization, and a positivity
    check (smallest eigenvalue above -1e-6, else the step is too large).
    """
    lr = l_mat @ rho
    meas = lr if cis == 1.0 else cis * lr
    lam = 2.0 * np.trace(meas).real
    drift = lr @ ld
    drift -= 0.5 * (ll @ rho + rho @ ll)
    drift += 1j * (rho @ h_mat - h_mat @ rho)
    rho_new = rho + dt * drift
    rho_new += dI * (meas + meas.conj().T)
    rho_new -= (dI * lam) * rho
    rho_new = 0.5 * (rho_new + rho_new.conj().T)
    tr = np.trace(rho_new).real
    rho_new *= 1.0 / tr
    low = float(np.linalg.eigvalsh(rho_new)[0])
    if low < -1e-6:
        raise StepSizeError(
            f"density matrix eigenvalue dipped to {low:.3e}; reduce dt"
        )
    return rho_new, lam


def _zakai_kernel(chi: np.ndarray, l_mat: np.ndarray, a0: np.ndarray,
                  dY: float, dt: float):
    """One linear (unnormalized) step driven by the raw record:

        d chi = L chi dY - (L'L/2 + iH) chi dt.

    Returns (new chi, lambda of the normalized state).  The vector is
    rescaled by a power of two when its norm leaves [1e-50, 1e50]
    (mantissas, and hence all normalized quantities, are unchanged);
    beyond 1e+-100 the caller gets a NormBoundsError.
    """
    n2 = np.vdot(chi, chi).real
    u = l_mat @ chi
    lam = 2.0 * np.vdot(chi, u).real / n2
    chi_new = chi + dt * (a0 @ chi)
    chi_new += dY * u
    nrm = math.sqrt(np.vdot(chi_new, chi_new).real)
    if not (_RESCALE_LO < nrm < _RESCALE_HI):
        if not (_HARD_LO < nrm < _HARD_HI):
            raise NormBoundsError(
                f"unnormalized state norm {nrm:.3e} left the representable band"
            )
        chi_new *= 2.0 ** (-math.frexp(nrm)[1])
    return chi_new, lam


# ---------------------------------------------------------------------------
# public operations


def lindblad_apply(slh: SLHCoefficients, x: CavityOperator) -> CavityOperator:
    """Adjoint-generator action on an operator:

        L(X) = L'[X, L]/2 + [L', X] L/2 - i [X, H].
    """
    if x.dim != slh.dim:
        raise DimensionError(f"operator dim {x.dim} != SLH dim {slh.dim}")
    l_mat, ld, _, _, h_mat = _stepper_matrices(slh)
    xm = x.entries
    out = 0.5 * (ld @ (xm @ l_mat - l_mat @ xm))
    out += 0.5 * ((ld @ xm - xm @ ld) @ l_mat)
    out -= 1j * (xm @ h_mat - h_mat @ xm)
    return CavityOperator(x.dim, out)


def _conditional_lambda(state: TrajectoryState, slh: SLHCoefficients,
                        cis: complex) -> float:
    l_mat = slh.l.entries
    if state.psi is not None:
        psi = state.psi.amplitudes
        val = np.vdot(psi, l_mat @ psi) / np.vdot(psi, psi).real
    elif state.chi is not None:
        chi = state.chi.amplitudes
        val = np.vdot(chi, l_mat @ chi) / np.vdot(chi, chi).real
    else:
        val = np.sum(state.rho.entries.T * l_mat)
    return 2.0 * (cis * val).real


def measurement_increment(state: TrajectoryState, slh: SLHCoefficients,
                          theta_t: float, dW: float, dt: float) -> float:
    """Synthesized record increment dY = lambda dt + dW, where
    lambda = <e^{i theta} L + e^{-i theta} L'> on the conditional state."""
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    cis = np.exp(1j * float(theta_t))
    lam = _conditional_lambda(state, slh, complex(cis))
    return lam * dt + dW


def sse_step(state: TrajectoryState, slh: SLHCoefficients, theta_t: float,
             dI: float, dt: float) -> TrajectoryState:
    """One normalized conditional-vector step driven by innovations dI.

    The record and innovations accumulators advance consistently:
    Y += lambda dt + dI and I += dI.
    """
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if state.psi is None:
        raise DomainError("sse_step needs a state vector (psi)")
    psi = state.psi.amplitudes
    if abs(np.vdot(psi, psi).real - 1.0) > 1e-9:
        raise DomainError("sse_step needs a normalized state vector")
    l_mat, _, _, a0, _ = _stepper_matrices(slh)
    cis = complex(np.exp(1j * float(theta_t)))
    psi_new, lam = _sse_kernel(psi, l_mat, a0, cis, dI, dt)
    return TrajectoryState(
        t=state.t + dt,
        Y=state.Y + lam * dt + dI,
        I=state.I + dI,
        psi=StateVector(state.psi.dim, psi_new),
    )


def sme_step(state: TrajectoryState, slh: SLHCoefficients, theta_t: float,
             dI: float, dt: float) -> TrajectoryState:
    """One conditioned density-matrix step driven by innovations dI."""
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if state.rho is None:
        raise DomainError("sme_step needs a density matrix (rho)")
    l_mat, ld, ll, _, h_mat = _stepper_matrices(slh)
    cis = complex(np.exp(1j * float(theta_t)))
    rho_new, lam = _sme_kernel(state.rho.entries, l_mat, ld, ll, h_mat,
                               cis, dI, dt)
    return TrajectoryState(
        t=state.t + dt,
        Y=state.Y + lam * dt + dI,
        I=state.I + dI,
        rho=DensityOperator(state.rho.dim, rho_new),
    )


def belavkin_zakai_step(state: TrajectoryState, slh: SLHCoefficients,
                        dY: float, dt: float) -> TrajectoryState:
    """One linear unnormalized step driven by the raw record dY.

    Any fixed measurement phase is absorbed into L by the caller.  The
    innovations accumulator uses the normalized state's lambda:
    I += dY - lambda dt.
    """
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if state.chi is None:
        raise DomainError("belavkin_zakai_step needs an unnormalized vector (chi)")
    l_mat, _, _, a0, _ = _stepper_matrices(slh)
    chi_new, lam = _zakai_kernel(state.chi.amplitudes, l_mat, a0, dY, dt)
    return TrajectoryState(
        t=state.t + dt,
        Y=state.Y + dY,
        I=state.I + dY - lam * dt,
        chi=StateVector(state.chi.dim, chi_new),
    )


# ---------------------------------------------------------------------------
# trajectory runner


def _as_slh_provider(source) -> Callable[[float, object], SLHCoefficients]:
    """Normalize an SLH source: constant, f(t), or f(t, state_array)."""
    if isinstance(source, SLHCoefficients):
        return lambda _t, _state: source
    if callable(source):
        n_par = len(inspect.signature(source).parameters)
        if n_par == 1:
            return lambda t, _state: source(t)
        if n_par == 2:
            return source
    raise DomainError(
        "slh source must be SLHCoefficients or a callable of (t) or (t, state)"
    )


def run_trajectory(
    initial,
    slh_source,
    theta,
    noise: NoiseStream,
    T: float,
    dt: float,
    mode: str = "sse",
    record_stride: int = 1,
) -> TrajectoryRecord:
    """Integrate one monitored trajectory on [0, T] and sample it.

    Parameters
    ----------
    initial : StateVector or DensityOperator
        StateVector for modes "sse" and "zakai", DensityOperator for "sme".
    slh_source : SLHCoefficients or callable
        Constant coefficients, or ``f(t)`` / ``f(t, state_array)`` for
        time- or state-dependent coefficients.
    theta : float, callable or QuadraturePhase
        Measurement phase.  Mode "zakai" requires a constant phase (it
        is absorbed into L).
    noise : NoiseStream
        Its dt must equal the integration step.
    mode : {"sse", "sme", "zakai"}

    Records (t, <a>, <a'a>, <a^2>, Y, I) every ``record_stride`` steps,
    including t=0; the stride must divide the step count.  Stepper
    failures are re-raised with the failing step index.
    """
    n = _step_count(T, dt, record_stride)
    if abs(noise.dt - dt) > 1e-15:
        raise DomainError(f"noise stream dt {noise.dt} != integration dt {dt}")
    if mode not in ("sse", "sme", "zakai"):
        raise DomainError(f"unknown mode {mode!r}")

    phase = theta if isinstance(theta, QuadraturePhase) else QuadraturePhase(theta)
    const_theta = phase.constant
    if mode == "zakai" and const_theta is None:
        raise DomainError("zakai mode needs a constant measurement phase")

    provider = _as_slh_provider(slh_source)

    if mode == "sme":
        if not isinstance(initial, DensityOperator):
            raise DomainError("sme mode needs a DensityOperator initial state")
        state_arr = initial.entries
        dim = initial.dim
    else:
        if not isinstance(initial, StateVector):
            raise DomainError(f"{mode} mode needs a StateVector initial state")
        state_arr = initial.amplitudes
        dim = initial.dim

    a_mat = _annihilation_matrix(dim)
    dws = noise.increments(n)

    n_rec = n // record_stride + 1
    rec_t = np.empty(n_rec)
    rec_a = np.empty(n_rec, dtype=np.complex128)
    rec_n = np.empty(n_rec)
    rec_a2 = np.empty(n_rec, dtype=np.complex128)
    rec_y = np.empty(n_rec)
    rec_i = np.empty(n_rec)

    def record(idx: int, t: float, arr: np.ndarray, y: float, i_acc: float):
        if mode == "sme":
            ma, mn, ma2 = _moments_from_density(arr, dim)
            pop = (arr[-1, -1] + arr[-2, -2]).real
            _check_truncation(float(pop), f"trajectory (t={t:.4g})")
        else:
            ma, mn, ma2 = _moments_from_vector(arr, a_mat)
            pop = abs(arr[-1]) ** 2 + abs(arr[-2]) ** 2
            pop /= np.vdot(arr, arr).real
            _check_truncation(float(pop), f"trajectory (t={t:.4g})")
        rec_t[idx] = t
        rec_a[idx] = ma
        rec_n[idx] = mn
        rec_a2[idx] = ma2
        rec_y[idx] = y
        rec_i[idx] = i_acc

    record(0, 0.0, state_arr, 0.0, 0.0)

    if const_theta is None:
        cis_at = lambda t: complex(np.exp(1j * phase.at(t)))
    else:
        const_cis = 1.0 + 0.0j if const_theta == 0.0 else complex(
            np.exp(1j * const_theta))
        cis_at = lambda _t: const_cis

    y_acc = 0.0
    i_acc = 0.0
    t = 0.0
    idx = 1
    prev_slh = None
    mats = l_eff = None
    for k in range(n):
        slh = provider(t, state_arr)
        if slh is not prev_slh:
            mats = _stepper_matrices(slh)
            prev_slh = slh
            l_eff = None
        l_mat, ld, ll, a0, h_mat = mats
        cis = cis_at(t)
        dw = dws[k]
        try:
            if mode == "sse":
                state_arr, lam = _sse_kernel(state_arr, l_mat, a0, cis, dw, dt)
                dy = lam * dt + dw
            elif mode == "sme":
                state_arr, lam = _sme_kernel(state_arr, l_mat, ld, ll, h_mat,
                                             cis, dw, dt)
                dy = lam * dt + dw
            else:
                if l_eff is None:
                    l_eff = l_mat if cis == 1.0 else cis * l_mat
                chi_n2 = np.vdot(state_arr, state_arr).real
                lam = 2.0 * (np.vdot(state_arr, l_eff @ state_arr) / chi_n2).real
                dy = lam * dt + dw
                state_arr, _ = _zakai_kernel(state_arr, l_eff, a0, dy, dt)
        except CavityFilterError as exc:
            raise type(exc)(f"step {k} (t={t:.6g}): {exc}") from exc
        t = (k + 1) * dt
        y_acc += dy
        i_acc += dw
        if (k + 1) % record_stride == 0:
            record(idx, t, state_arr, y_acc, i_acc)
            idx += 1

    if mode == "sme":
        final = TrajectoryState(t, y_acc, i_acc,
                                rho=DensityOperator(dim, state_arr))
    elif mode == "sse":
        final = TrajectoryState(t, y_acc, i_acc, psi=StateVector(dim, state_arr))
    else:
        final = TrajectoryState(t, y_acc, i_acc, chi=StateVector(dim, state_arr))

    for arr in (rec_t, rec_a, rec_n, rec_a2, rec_y, rec_i):
        arr.setflags(write=False)
    return TrajectoryRecord(rec_t, rec_a, rec_n, rec_a2, rec_y, rec_i, final)
