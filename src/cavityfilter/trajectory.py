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

The steppers are fixed-step Euler-Maruyama (weak order 1).  Each
``SLHCoefficients`` derives its coefficients once, in one form
(``_kraus``): a basis, the coefficients of L on it and the row of
A0 = -iH - L'L/2.  For an SLH built on the ladder basis a'^2, a', a'a,
a, a^2, a a' the basis holds the members its coefficients use, and I
(their products are exact), else it is the dense basis (L, A0, I), and
every step reads the products of the state with it.  The state-vector
step renormalizes; the Zakai step applies the row I + dt A0
+ dY e^{i theta} L and keeps the unnormalized state, rescaled only by
powers of two.  ``lindblad_apply`` and the record increment of
a density matrix read the public L and H.

A density matrix is carried as a factor X (dim x r) with
rho = XX'/||X||_F^2, taken once from the eigendecomposition of the
initial rho, and X is stepped by the state-vector update itself,
X -> KX / ||KX||_F with

    K = (1 - lam^2 dt/8 - lam dI/2) I + A0 dt + (lam dt/2 + dI) L_th,

lam = 2 Re e^{i theta} tr(L rho).  So rho -> K rho K' / tr(K rho K') is
a Kraus map (Rouchon & Ralph, PRA 91, 012118, 2015): positive and of
unit trace by construction, whatever factor is chosen, and on a pure
state it is the state-vector step.  At dI^2 = dt it differs from the
Euler SME step by O(dt^{3/2}), and by O(dt^2) averaged over the sign of
dI.  No per-step eigenvalue guard is needed; the norm guard of the
update still rejects a non-finite or too coarse step.

There is one trajectory loop, ``_integrate``: it steps a batch of B
truths in lockstep (a (B, dim) stack of vectors or a (B, dim, r) stack
of factors), draws their increments in blocks of 4096 steps, records
(t, <a>, <a'a>, <a^2>, Y, I) behind the truncation check, tags package
errors with their step and builds the final ``TrajectoryState``s; a
``step`` closure says what one step does.  ``run_trajectory`` is the
batch of one over ``_step``, the one SSE, SME or Zakai step,
which ``sse_step`` and ``sme_step`` take too; the PID co-simulation in
``control`` passes the feedback scalars, the truth step and the filter
updates of an ensemble shard.  Every state-vector and density-factor
step is one ``_kraus_update``: the basis products of the whole stack
by one product, each truth's K as one row of coefficients on that
basis, one stacked matmul and the norm guard; the co-simulation uses
the ladder members its gains can make nonzero.  Every row of a stack
gets the bits of a lone state.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property
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
    LEAK_WARN,
    _LADDER_A,
    _LADDER_AD,
    CavityOperator,
    DensityOperator,
    StateVector,
    _check_truncation,
    _ladder,
    _ladder_basis,
    _ladder_dense,
    _moments_from_vector,
)
from .qkf import ModeParams, _check_dt, _step_count

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

#: ``_kraus_update`` rejects a step (``StepSizeError``) whose unnormalized
#: norm is more than this far from 1, or not finite.  It is not a bound on
#: healthy steps: on a coherent state one Euler step moves the squared
#: norm by about Im(alpha)^2 (dI^2 - dt), and so the norm by half that.
#: At |Im alpha| = 1.8 and dt = 5e-4 the norm moves 5.5e-3 on a
#: 2.8-sigma increment and passes 1e-2 at about 3.7 sigma
NORM_GUARD = 1e-2

_RESCALE_LO, _RESCALE_HI = 1e-50, 1e50
_HARD_LO, _HARD_HI = 1e-100, 1e100


@dataclass(frozen=True, eq=False)
class SLHCoefficients:
    """Coefficient triple (S, L, H) of the monitored mode.

    S is a unit-modulus scattering phase (fixed at 1 throughout this
    package), L the coupling operator into the monitored field, H the
    Hamiltonian.  Equality is identity (the fields hold arrays).  Steppers
    read only (L, A0), in the one form ``_kraus``: the ladder rows that
    ``_ladder_slh`` instances keep, on the members where L or A0 has a
    nonzero entry, else a dense basis built once.
    """

    s: complex
    l: CavityOperator
    h: CavityOperator
    _ladder: Union[list, None] = field(default=None, init=False, repr=False)

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

    def _check_dim(self, dim: int) -> None:
        """DimensionError unless a dim-dimensional state fits the SLH."""
        if dim != self.dim:
            raise DimensionError(f"dim {dim} != SLH dim {self.dim}")

    @cached_property
    def _kraus(self):
        # (basis, L's coefficients, A0's row), the one form every stepper
        # reads: when built on the ladder basis (L = c1 a + c2 a'), the
        # members its rows use (``_ladder_form``); else the dense basis
        # (L, A0 = -iH - L'L/2, I), built once here
        if self._ladder is not None:
            l_row, a0_row = self._ladder
            basis, cols = _ladder_form(self.dim, l_row, a0_row)
            return (basis, (l_row[_LADDER_A], l_row[_LADDER_AD]),
                    [a0_row[j] for j in cols])
        l_mat = self.l.entries
        ll = np.ascontiguousarray(l_mat.conj().T) @ l_mat
        stack = np.concatenate([l_mat, -1j * self.h.entries - 0.5 * ll,
                                np.eye(self.dim)])
        return (stack, 0, None), (1.0, 0.0), [0.0, 1.0]


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
    trajectory index into the seed.  Within one ensemble the streams are
    distinct, but base seeds that differ only in their low bits replay
    each other's trajectory sets: trajectory i of base seed s ^ 1 gets
    the stream of trajectory i ^ 1 of base seed s."""

    seed: int
    dt: float
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise DomainError(f"seed must be a 64-bit value, got {self.seed}")
        if not math.isfinite(self.dt):
            raise DomainError(f"dt={self.dt} must be finite")
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


def _slh_coefficients(c1: complex, c2: complex, z: complex, w: complex,
                      omega: float):
    """Ladder-basis rows of L, A0 = -iH - L'L/2 and H.

    A0 takes L'L in the closed form |c1|^2 a'a + |c2|^2 a a'
    + conj(c2) c1 a^2 + conj(c1) c2 a'^2: truncated products of a and a'
    equal their closed forms, so no matrix product is needed and H is
    Hermitian by construction."""
    c1c, c2c = complex(c1).conjugate(), complex(c2).conjugate()
    # columns: a'^2, a', a'a, a, a^2, a a' (fock._LADDER_KEYS); A0 entry by
    # entry, where L'L has no a' or a entry
    h = [w.conjugate(), z, omega + 2.0 * w.real, z.conjugate(), w, 0.0]
    a0 = [-1j * h[0] - 0.5 * (c1c * c2), -1j * h[1],
          -1j * h[2] - 0.5 * (c1c * c1).real, -1j * h[3],
          -1j * h[4] - 0.5 * (c2c * c1), -1j * h[5] - 0.5 * (c2c * c2).real]
    return [[0.0, c2, 0.0, c1, 0.0, 0.0], a0, h]


def _ladder_form(dim: int, l_row, a0_row) -> tuple:
    """(basis, cols): the ladder basis (``fock._ladder_basis``) on the
    columns ``cols`` where the ladder row of L or of A0 has a nonzero
    entry, and on a, which m = <x, a x> needs, so a step forms no product
    whose coefficient is zero.  Every ladder stepper takes its members
    here: an SLH from its own rows, a co-simulation from one row that has
    every entry its gains can make nonzero."""
    cols = tuple(j for j, (l, a0) in enumerate(zip(l_row, a0_row))
                 if j == _LADDER_A or l != 0 or a0 != 0)
    return _ladder_basis(dim, cols), cols


def _displaced_rows(a0_row, cols, zs, dt: float) -> list:
    """The rows of dt A0 on ``cols`` of truths whose coefficients differ
    only in the displacement z, one for each z of ``zs``: ``a0_row`` is
    the A0 row of ``_slh_coefficients`` at z = 0, and z enters only the
    a' and a entries, as -i z and -i conj(z), so each row equals
    ``[dt * a0[j] for j in cols]`` of its own z bit for bit."""
    base = [dt * a0_row[j] for j in cols]
    at_ad, at_a = cols.index(_LADDER_AD), cols.index(_LADDER_A)
    rows = []
    for z in zs:
        row = base.copy()
        row[at_ad] = dt * (-1j * z)
        row[at_a] = dt * (-1j * z.conjugate())
        rows.append(row)
    return rows


def _ladder_slh(c1: complex, c2: complex, z: complex, w: complex,
                omega: float, dim: int) -> SLHCoefficients:
    """S = 1, L = c1 a + c2 a' and H of ``_slh_coefficients``; the rows
    of L and A0 are kept, so the steppers' A0 is the closed form too."""
    rows = _slh_coefficients(c1, c2, z, w, omega)
    l_mat, h_mat = _ladder_dense([rows[0], rows[2]], dim)
    slh = SLHCoefficients(1.0 + 0.0j, CavityOperator(dim, l_mat),
                          CavityOperator(dim, h_mat))
    object.__setattr__(slh, "_ladder", rows[:2])
    return slh


def damped_cavity_slh(params: ModeParams, dim: int) -> SLHCoefficients:
    """The uncontrolled damped mode: S=1, L=sqrt(gamma) a, H=omega a'a."""
    return _ladder_slh(math.sqrt(params.gamma), 0.0j, 0.0j, 0.0j,
                       params.omega, dim)


# ---------------------------------------------------------------------------
# kernels on raw arrays


def _kraus_update(x: np.ndarray, basis, c, da_rows, cis: complex, dI,
                  dt: float):
    """One normalized step x[b] -> K_b x[b] / ||K_b x[b]|| of a stack x of
    states (B, dim) or density factors (B, dim, r) on the innovations
    increments dI[b], with the Kraus operator of the module docstring

        K_b = keep_b I + dt A0_b + move_b e^{i theta} L,
        keep = 1 - lam^2 dt/8 - lam dI/2,   move = lam dt/2 + dI,

    lam = 2 Re e^{i theta} <L>, e^{i theta} = cis.  ``basis`` is
    (stack, k, k'): the (n dim, dim) stack of the basis members X_0 ..
    X_{n-1}, the last of them I; a ladder basis holds only the members
    the rows can make nonzero (``fock._ladder_basis``), so a step forms
    no product whose coefficient is always zero.  ``da_rows[b]`` is the
    row of dt A0_b on X_0 .. X_{n-2}, and L = c X_k + c' X_k' with
    (c, c') = ``c``, where X_k' is the adjoint of X_k (and no term if k'
    is None), so <L> = c m + c' conj(m) with m = <x, X_k x>.  Returns the
    stack and the list of record increments dY[b] = lam[b] dt + dI[b].

    The n basis products of the whole stack are one product with
    ``stack`` (``_basis_products``); each K_b is one row of n Python
    scalars, and one stacked matmul applies the rows.
    m and the squared norms come from ``_row_dots``, so every row of a
    stack gets the bits of a lone state.  A row that fails the norm guard
    raises, naming the row as ``column``."""
    stack, k, k_adj = basis
    c, c_adj = c
    batch = len(x)
    prods = _basis_products(x, stack)
    dy, rows = [], []
    for m, di, da in zip(_row_dots(x, prods[:, k]), dI, da_rows):
        lam = 2.0 * (cis * (c * m + c_adj * m.conjugate())).real
        dy.append(lam * dt + di)
        move = ((0.5 * lam) * dt + di) * cis
        row = len(rows)
        rows += da
        rows[row + k] += move * c
        if k_adj is not None:
            rows[row + k_adj] += move * c_adj
        rows.append(1.0 - (0.125 * lam * lam) * dt - (0.5 * lam) * di)
    new = np.matmul(np.array(rows, dtype=np.complex128).reshape(batch, 1, -1),
                    prods)
    scale = []
    for b, sq in enumerate(_row_dots(new, new)):
        nrm = math.sqrt(sq.real)
        if not abs(nrm - 1.0) <= NORM_GUARD:
            raise _at_column(StepSizeError(
                f"norm moved to {nrm:.6f} in one step; reduce dt"), b)
        scale.append(1.0 / nrm)
    # a real scale on the float64 view: the same bits for a scalar and
    # for a column of scalars
    flat = new.view(np.float64)
    flat *= scale[0] if batch == 1 else np.array(scale)[:, None, None]
    return new.reshape(x.shape), dy


def _basis_products(x: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The (B, n, dim r) products X_j x[b] of a stack x of vectors
    (B, dim) or factors (B, dim, r) with the n members of ``stack``
    (n dim, dim), by one matmul, so their cost scales with n; a real stack
    multiplies the float64 view of x, which is exact for a ladder basis
    (``fock._ladder_basis``)."""
    batch, dim = x.shape[:2]
    cols = np.ascontiguousarray(x)
    if stack.dtype == np.float64:
        prods = np.matmul(stack, cols.view(np.float64).reshape(batch, dim, -1))
        prods = prods.view(np.complex128)
    else:
        prods = np.matmul(stack, cols.reshape(batch, dim, -1))
    return prods.reshape(batch, len(stack) // dim, -1)


def _row_dots(x: np.ndarray, y: np.ndarray) -> list:
    """<x[b], y[b]> of two stacks, as a list of complex: one ``np.vecdot``
    over the flattened rows, which gives the bits of a row-wise
    ``np.vdot``, or the ``np.vdot`` itself for a one-row stack, where it
    costs less."""
    if len(x) == 1:
        return [complex(np.vdot(x, y))]
    return np.vecdot(x.reshape(len(x), -1), y.reshape(len(y), -1)).tolist()


def _at_column(exc: CavityFilterError, column: int) -> CavityFilterError:
    """``exc`` marked as the failure of column ``column`` of a batch."""
    exc.column = column
    return exc


def _density_factor(rho: np.ndarray) -> np.ndarray:
    """A factor X of unit Frobenius norm with rho = XX' / ||X||_F^2.

    The columns are the eigenvectors of rho scaled by the square roots of
    their weights; weights within roundoff of zero (relative to the
    largest) carry no resolvable sign and are dropped, so a pure state
    gives one column."""
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > vals[-1] * rho.shape[0] * np.finfo(float).eps
    x = vecs[:, keep] * np.sqrt(vals[keep])
    return x / np.linalg.norm(x)


def _factor_density(x: np.ndarray) -> np.ndarray:
    """The density matrix XX' of a factor, Hermitized and of unit trace."""
    rho = x @ x.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _linear_parts(slh: SLHCoefficients, chi: np.ndarray, cis: complex):
    """(the ``_kraus`` form of ``slh``, the basis products of the vector
    chi, lam = 2 Re e^{i theta} <chi, L chi> / <chi, chi>): what the Zakai
    step and the record increment read."""
    slh._check_dim(chi.shape[0])
    form = slh._kraus
    (stack, k, _), (c, c_adj), _ = form
    prods = _basis_products(chi[None], stack)[0]
    m = complex(np.vdot(chi, prods[k]))
    lam = 2.0 * (cis * (c * m + c_adj * m.conjugate())).real
    return form, prods, lam / np.vdot(chi, chi).real


def _zakai_update(prods: np.ndarray, form, cis: complex, dY: float,
                  dt: float) -> np.ndarray:
    """One linear (unnormalized) step driven by the raw record,
    d chi = e^{i theta} L chi dY + A0 chi dt, as the row
    I + dt A0 + dY e^{i theta} L on the basis products ``prods`` of chi
    (``_linear_parts``).  A norm outside [1e-50, 1e50] is rescaled by a
    power of two (normalized quantities keep their bits); beyond 1e+-100
    the caller gets a NormBoundsError."""
    (_, k, k_adj), (c, c_adj), a0_row = form
    row = [dt * a for a in a0_row] + [1.0]
    row[k] += dY * cis * c
    if k_adj is not None:
        row[k_adj] += dY * cis * c_adj
    chi_new = np.array(row, dtype=np.complex128) @ prods
    nrm = math.sqrt(np.vdot(chi_new, chi_new).real)
    if not (_RESCALE_LO < nrm < _RESCALE_HI):
        if not (_HARD_LO < nrm < _HARD_HI):
            raise NormBoundsError(
                f"unnormalized state norm {nrm:.3e} left the representable band"
            )
        chi_new *= 2.0 ** (-math.frexp(nrm)[1])
    return chi_new


def _step(mode: str, slh: SLHCoefficients, cis: complex, x: np.ndarray,
          dw: float, dt: float):
    """One step of a single vector or density factor x (mode "sse", "sme"
    or "zakai") on the innovations increment dw at the measurement phase
    e^{i theta} = cis, over the (L, A0) of ``slh``.  Returns (new x, dY).
    Every mode reads the products of x with the SLH's basis: the SSE and
    SME steps are ``_kraus_update``, and the Zakai step is one row on the
    same products (``_zakai_update``), driven by the record
    dY = lam dt + dw of the normalized state."""
    if mode == "zakai":
        form, prods, lam = _linear_parts(slh, x, cis)
        dy = lam * dt + dw
        return _zakai_update(prods, form, cis, dy, dt), dy
    slh._check_dim(x.shape[0])
    basis, c, a0_row = slh._kraus
    x_new, dy = _kraus_update(x[None], basis, c, ([dt * a for a in a0_row],),
                              cis, (dw,), dt)
    return x_new[0], dy[0]


# ---------------------------------------------------------------------------
# public operations


def _check_normalized(psi: np.ndarray, what: str) -> None:
    if abs(np.vdot(psi, psi).real - 1.0) > 1e-9:
        raise DomainError(f"{what} needs a normalized state vector")


def lindblad_apply(slh: SLHCoefficients, x: CavityOperator) -> CavityOperator:
    """Adjoint-generator action on an operator:

        L(X) = L'[X, L]/2 + [L', X] L/2 - i [X, H],

    in commutator form, so L(I) = 0 exactly.
    """
    slh._check_dim(x.dim)
    l_mat, h_mat = slh.l.entries, slh.h.entries
    ld = l_mat.conj().T
    xm = x.entries
    out = 0.5 * (ld @ (xm @ l_mat - l_mat @ xm))
    out += 0.5 * ((ld @ xm - xm @ ld) @ l_mat)
    out -= 1j * (xm @ h_mat - h_mat @ xm)
    return CavityOperator(x.dim, out)


def measurement_increment(state: TrajectoryState, slh: SLHCoefficients,
                          theta_t: float, dW: float, dt: float) -> float:
    """Synthesized record increment dY = lambda dt + dW, where
    lambda = <e^{i theta} L + e^{-i theta} L'> on the conditional state."""
    _check_dt(dt)
    cis = complex(np.exp(1j * float(theta_t)))
    vec = state.psi if state.psi is not None else state.chi
    if vec is not None:
        lam = _linear_parts(slh, vec.amplitudes, cis)[2]
    else:
        slh._check_dim(state.rho.dim)
        lam = 2.0 * (cis * np.sum(state.rho.entries.T * slh.l.entries)).real
    return lam * dt + dW


def sse_step(state: TrajectoryState, slh: SLHCoefficients, theta_t: float,
             dI: float, dt: float) -> TrajectoryState:
    """One normalized conditional-vector step driven by innovations dI.

    The record and innovations accumulators advance consistently:
    Y += lambda dt + dI and I += dI.
    """
    _check_dt(dt)
    if state.psi is None:
        raise DomainError("sse_step needs a state vector (psi)")
    psi = state.psi.amplitudes
    _check_normalized(psi, "sse_step")
    psi_new, dy = _step("sse", slh, complex(np.exp(1j * float(theta_t))), psi,
                        dI, dt)
    return TrajectoryState(
        t=state.t + dt,
        Y=state.Y + dy,
        I=state.I + dI,
        psi=StateVector(state.psi.dim, psi_new),
    )


def sme_step(state: TrajectoryState, slh: SLHCoefficients, theta_t: float,
             dI: float, dt: float) -> TrajectoryState:
    """One conditioned density-matrix step driven by innovations dI.

    rho is factored as XX' and X takes the state-vector step, so the new
    state is the Kraus map K rho K' / tr(K rho K') of the module
    docstring: positive and of unit trace for any dt the norm guard
    accepts.
    """
    _check_dt(dt)
    if state.rho is None:
        raise DomainError("sme_step needs a density matrix (rho)")
    x, dy = _step("sme", slh, complex(np.exp(1j * float(theta_t))),
                  _density_factor(state.rho.entries), dI, dt)
    return TrajectoryState(
        t=state.t + dt,
        Y=state.Y + dy,
        I=state.I + dI,
        rho=DensityOperator(state.rho.dim, _factor_density(x)),
    )


def belavkin_zakai_step(state: TrajectoryState, slh: SLHCoefficients,
                        dY: float, dt: float) -> TrajectoryState:
    """One linear unnormalized step driven by the raw record dY.

    Any fixed measurement phase is absorbed into L by the caller.  The
    innovations accumulator uses the normalized state's lambda:
    I += dY - lambda dt.
    """
    _check_dt(dt)
    if state.chi is None:
        raise DomainError("belavkin_zakai_step needs an unnormalized vector (chi)")
    form, prods, lam = _linear_parts(slh, state.chi.amplitudes, 1.0 + 0.0j)
    return TrajectoryState(
        t=state.t + dt,
        Y=state.Y + dY,
        I=state.I + dY - lam * dt,
        chi=StateVector(state.chi.dim,
                        _zakai_update(prods, form, 1.0 + 0.0j, dY, dt)),
    )


# ---------------------------------------------------------------------------
# trajectory runner


def _as_slh_provider(source, view=None) -> Callable[[float, object],
                                                     SLHCoefficients]:
    """Normalize an SLH source: constant, f(t), or f(t, state_array).

    The form is the number of parameters without a default.  ``view``
    maps the stepped array to the state array a state-dependent source
    sees (the density matrix of a factor)."""
    if isinstance(source, SLHCoefficients):
        return lambda _t, _state: source
    if callable(source):
        n_par = sum(p.default is p.empty
                    for p in inspect.signature(source).parameters.values())
        if n_par == 1:
            return lambda t, _state: source(t)
        if n_par == 2:
            if view is None:
                return source
            return lambda t, arr: source(t, view(arr))
    raise DomainError(
        "slh source must be SLHCoefficients or a callable of (t) or (t, state)"
    )


#: steps of noise drawn at a time, so a batch of B trajectories holds
#: B x 4096 increments whatever the run length
_NOISE_BLOCK = 4096


def _step_total(noises, T: float, dt: float, stride: int) -> int:
    """The step count of a run on [0, T], after checking that dt and the
    record stride divide the grid and that every stream's dt is dt."""
    n = _step_count(T, dt, stride)
    for noise in noises:
        if abs(noise.dt - dt) > 1e-15:
            raise DomainError(
                f"noise stream dt {noise.dt} != integration dt {dt}")
    return n


def _integrate(arr: np.ndarray, kind: str, noises, n: int, dt: float,
               stride: int, step, what: str, sample=None) -> list:
    """The trajectory loop: n lockstep ``step``s of a batch of B truths,
    driven by the increments of ``noises`` (one stream per truth).

    ``arr`` stacks the truths' raw arrays along its first axis and
    ``kind`` is their ``TrajectoryState`` field: vectors (B, dim) for
    "psi" and "chi", density factors X (B, dim, r) for "rho"
    (``_density_factor``), whose final states are XX'.  The increments are
    drawn in blocks of ``_NOISE_BLOCK`` steps, which continue each stream
    bit for bit.  ``step(t, arr, dw)`` gets the B increments of one step
    (a tuple of floats) and returns the next stack and the B record
    increments dY; package errors it raises are re-raised tagged with the
    step, and keep the batch column they name as ``column`` (0 if none).
    (t, <a>,
    <a'a>, <a^2>, Y, I) of every truth are recorded at t = 0 and every
    ``stride`` steps behind the truncation check labelled ``what``, and
    ``sample(idx)`` then lets the caller record its own columns at index
    idx.  Y accumulates dY and I the increments dw.  Returns one
    ``TrajectoryRecord`` per truth, in batch order.
    """
    batch, dim = arr.shape[:2]
    n_rec = n // stride + 1
    rec_t = np.empty(n_rec)
    rec_a = np.empty((batch, n_rec), dtype=np.complex128)
    rec_n = np.empty((batch, n_rec))
    rec_a2 = np.empty((batch, n_rec), dtype=np.complex128)
    rec_y = np.empty((batch, n_rec))
    rec_i = np.empty((batch, n_rec))
    # one complex copy per run: numpy would cast the real matrix on every
    # product with a complex state
    a_mat = _ladder("a", dim).astype(np.complex128)
    y_acc = [0.0] * batch
    # I of every truth after each step of the current noise block, which
    # starts at step ``start``
    i_acc = np.zeros((1, batch))

    def record(idx: int):
        t = idx * stride * dt
        for b, x in enumerate(arr):
            n2 = np.vdot(x, x).real
            rec_a[b, idx], rec_n[b, idx], rec_a2[b, idx] = (
                _moments_from_vector(x, a_mat, n2))
            pop = np.vdot(x[-2:], x[-2:]).real / n2
            # the check acts only above its warning level, so the label
            # is formatted only then
            if pop > LEAK_WARN:
                try:
                    _check_truncation(float(pop), f"{what} (t={t:.4g})")
                except CavityFilterError as exc:
                    raise _at_column(exc, b)
        rec_t[idx] = t
        rec_y[:, idx] = y_acc
        rec_i[:, idx] = i_acc[idx * stride - start]
        if sample is not None:
            sample(idx)

    start = 0
    record(0)
    for start in range(0, n, _NOISE_BLOCK):
        size = min(_NOISE_BLOCK, n - start)
        block = np.stack([noise.increments(size) for noise in noises], axis=1)
        # summed in step order, as a running total would be
        i_acc = np.cumsum(np.concatenate([i_acc[-1:], block]), axis=0)
        for k, dw in enumerate(zip(*block.T.tolist()), start):
            t = k * dt
            try:
                arr, dy = step(t, arr, dw)
            except CavityFilterError as exc:
                raise _at_column(type(exc)(f"step {k} (t={t:.6g}): {exc}"),
                                 getattr(exc, "column", 0)) from exc
            for b in range(batch):
                y_acc[b] += dy[b]
            if (k + 1) % stride == 0:
                record((k + 1) // stride)

    for col in (rec_t, rec_a, rec_n, rec_a2, rec_y, rec_i):
        col.setflags(write=False)
    out = []
    for b, x in enumerate(arr):
        state = (DensityOperator(dim, _factor_density(x)) if kind == "rho"
                 else StateVector(dim, x))
        final = TrajectoryState(n * dt, y_acc[b], i_acc[-1, b],
                                **{kind: state})
        out.append(TrajectoryRecord(rec_t, rec_a[b], rec_n[b], rec_a2[b],
                                    rec_y[b], rec_i[b], final))
    return out


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
        StateVector ("sse": normalized; "zakai"), DensityOperator ("sme").
    slh_source : SLHCoefficients or callable
        Constant coefficients, or ``f(t)`` / ``f(t, state_array)`` for
        time- or state-dependent coefficients; in mode "sme" the state
        array is the density matrix.
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
    if mode not in ("sse", "sme", "zakai"):
        raise DomainError(f"unknown mode {mode!r}")

    phase = theta if isinstance(theta, QuadraturePhase) else QuadraturePhase(theta)
    const_theta = phase.constant
    if mode == "zakai" and const_theta is None:
        raise DomainError("zakai mode needs a constant measurement phase")

    provider = _as_slh_provider(slh_source,
                                _factor_density if mode == "sme" else None)

    if mode == "sme":
        if not isinstance(initial, DensityOperator):
            raise DomainError("sme mode needs a DensityOperator initial state")
        state_arr = _density_factor(initial.entries)
    else:
        if not isinstance(initial, StateVector):
            raise DomainError(f"{mode} mode needs a StateVector initial state")
        state_arr = initial.amplitudes
        if mode == "sse":
            _check_normalized(state_arr, "sse mode")

    if const_theta is None:
        cis_at = lambda t: complex(np.exp(1j * phase.at(t)))
    else:
        const_cis = complex(np.exp(1j * const_theta))
        cis_at = lambda _t: const_cis

    def step(t, arr, dw):
        x, dy = _step(mode, provider(t, arr[0]), cis_at(t), arr[0], dw[0], dt)
        return x[None], [dy]

    kind = {"sse": "psi", "sme": "rho", "zakai": "chi"}[mode]
    n = _step_total([noise], T, dt, record_stride)
    return _integrate(state_arr[None], kind, [noise], n, dt, record_stride,
                      step, "trajectory")[0]
