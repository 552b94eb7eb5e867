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

A density matrix is carried as a factor X with rho = XX'/||X||_F^2 and
takes the state-vector step, so every step is a Kraus map (Rouchon &
Ralph, PRA 91, 012118, 2015): positive and of unit trace by
construction, with fixed steps (weak order 1).

Every step reads (L, A0 = -iH - L'L/2) in the one form of its
``SLHCoefficients`` (``_kraus``) and is one row per truth of the run's
one ``_KrausStepper``, whose docstring holds the map, the members, the
row and the step mechanics; ``lindblad_apply`` and the record increment
of a density matrix read the public L and H.  There is one trajectory
loop, ``_integrate``, which steps a batch of truths in lockstep:
``run_trajectory`` is the batch of one, and the PID co-simulation in
``control`` passes the step of an ensemble shard.
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

#: A Kraus step is rejected (``StepSizeError``) when the ratio
#: sqrt(s'/s) of a row's norms after and before it is more than this far
#: from 1, or not finite.  It is not a bound on healthy steps: on a
#: coherent state one Euler step moves the squared norm by about
#: Im(alpha)^2 (dI^2 - dt), and so the norm by half that.  At
#: |Im alpha| = 1.8 and dt = 5e-4 the norm moves 5.5e-3 on a 2.8-sigma
#: increment and passes 1e-2 at about 3.7 sigma
NORM_GUARD = 1e-2

#: the band of squared norms an unnormalized row keeps (rescaled by a
#: power of two when it leaves), and the one beyond which it is lost
_BAND_LO, _BAND_HI = 1e-100, 1e100
_HARD_LO, _HARD_HI = 1e-200, 1e200


@dataclass(frozen=True, eq=False)
class SLHCoefficients:
    """Coefficient triple (S, L, H) of the monitored mode.

    S is a unit-modulus scattering phase (fixed at 1 throughout this
    package), L the coupling operator into the monitored field, H the
    Hamiltonian.  Equality is identity (the fields hold arrays).  Steppers
    read only (L, A0), in the one form ``_kraus``.
    """

    s: complex
    l: CavityOperator
    h: CavityOperator
    _ladder: Union[tuple, None] = field(default=None, init=False, repr=False)

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
        # the form every stepper reads, built once, by the stepper's rules
        return _KrausStepper._form(self)


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
        present = ((self.psi is not None) + (self.rho is not None)
                   + (self.chi is not None))
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


def _ladder_slh(c1: complex, c2: complex, z: complex, w: complex,
                omega: float, dim: int) -> SLHCoefficients:
    """S = 1, L = c1 a + c2 a' and H = omega a'a + z a' + conj(z) a
    + w (a^2 + a'a) + conj(w) (a'^2 + a'a); the scalars are kept
    (``_ladder``), and the stepper forms the closed form of A0 from them."""
    l_row = [0.0, c2, 0.0, c1, 0.0, 0.0]
    h_row = [w.conjugate(), z, omega + 2.0 * w.real, z.conjugate(), w, 0.0]
    l_mat, h_mat = _ladder_dense([l_row, h_row], dim)
    slh = SLHCoefficients(1.0 + 0.0j, CavityOperator(dim, l_mat),
                          CavityOperator(dim, h_mat))
    object.__setattr__(slh, "_ladder", (omega, c1, c2, z, w))
    return slh


def damped_cavity_slh(params: ModeParams, dim: int) -> SLHCoefficients:
    """The uncontrolled damped mode: S=1, L=sqrt(gamma) a, H=omega a'a."""
    return _ladder_slh(math.sqrt(params.gamma), 0.0j, 0.0j, 0.0j,
                       params.omega, dim)


# ---------------------------------------------------------------------------
# kernels on raw arrays


class _KrausStepper:
    """The Kraus step x[b] -> K_b x[b] of one run's stack of states
    (B, dim) or density factors (B, dim, r), with the Kraus operator

        K_b = keep_b I + dt A0_b + move_b e^{i theta} L,
        keep = 1 - lam^2 dt/8 - lam dI/2,   move = lam dt/2 + dI,

    lam = 2 Re e^{i theta} tr(L rho), e^{i theta} = cis, on the
    increments dI[b]; ``zakai`` takes the linear row
    I + dt A0 + dY e^{i theta} L instead.

    The stepper owns the row.  ``basis`` is (stack, k, k'): the
    (n dim, dim) stack of the members X_0 .. X_{n-1}, the last of them I,
    with L = c X_k + c' X_k' (no term if k' is None), X_k' the adjoint of
    X_k.  Built from ``slh``, it reads the SLH's form ``_kraus``
    (``_form``): a dense stack (L, A0, I) with (c, c') = (1, 0), or the
    members of a ladder SLH (omega, c1, c2, z, w) (``_ladder``), the
    columns where L's row or A0's closed form (``_a0_row``) is nonzero,
    and a, which m needs.  It keeps (c, c') = ``c`` and ``base``, the row
    of dt A0 on X_0 .. X_{n-2}, formed once per form; ``take`` hands it
    the next SLH of a run.  Built from a co-simulation's ``family``, the
    ladder SLH at unit Xi with z = 1 under any gain, it steps on that
    SLH's members, which hold every entry the gains can make nonzero,
    since c1, c2 and w depend on Xi alone: a'a and a at zero gain, a' too
    under P or I, all six under D.  ``block`` forms the base rows of a
    block of its steps, and each step is given its own (c, base).  So a
    step forms no product whose coefficient is always zero.  ``_a0_row``
    is the one row builder, a numpy expression on arrays: once per ladder
    SLH (on length-1 arrays), once per family and once per block.

    A density factor X (dim x r, rho = XX'/||X||_F^2) is taken once from
    the eigendecomposition of the initial rho (``_density_factor``), and
    x -> K x maps rho -> K rho K' / tr(K rho K'), whatever factor is
    chosen.  At dI^2 = dt the map differs from the Euler SME step by
    O(dt^{3/2}), and by O(dt^2) averaged over the sign of dI.  It does not
    see the scale of its input, so the rows x[b] are carried unnormalized
    and divided by their norm only where read (the record, a
    state-dependent source, the final state); no per-step eigenvalue guard
    is needed, and the norm guard still rejects a non-finite or too coarse
    step.

    The stepper holds ``prods``, the basis products of the current stack
    (one matmul, on the float64 view of the states for a real stack,
    exact for a ladder basis), and ``ms``, each row's
    (m, s) = (<x, X_k x>, <x, x>) from one ``np.vecdot`` of the rows
    against X_k x and I x, so lam = 2 Re cis (c m + c' conj(m)) / s.  A
    step fills each row's K as n Python scalars, applies them by one
    stacked matmul into the state buffer and forms the products and
    (m, s) of the new stack; ``_settle`` then applies the norm guard to
    sqrt(s'/s) and keeps s in its band by powers of two.  The buffers and their views are made
    once, so a step allocates none of them, and every row of a stack gets
    the bits of a lone state.  ``x`` is the current stack."""

    def __init__(self, x0: np.ndarray, dt: float, slh=None, family=None):
        self.dt = dt
        batch, dim = x0.shape[:2]
        if family is None:
            self.basis = self._read(slh, dim)
        else:
            self._omega = family[0]
            self._cols, self.basis, _ = self._ladder(dim, *family)
        stack, self._k, self._k_adj = self.basis
        n = len(stack) // dim
        real = stack.dtype == np.float64
        self._stack = stack
        self.prods = np.empty((batch, n, x0[0].size), dtype=np.complex128)
        self._prods_f = (self.prods.view(np.float64) if real
                         else self.prods).reshape(batch, n * dim, -1)
        # X_k x and I x, the products that (m, s) read
        self._prods_ms = self.prods[:, self._k::n - 1 - self._k]
        self._coef = np.empty((batch, 1, n), dtype=np.complex128)
        self._coef_flat = self._coef.reshape(-1)
        self.x = x = np.array(x0, dtype=np.complex128, order="C")
        # the products operand, and the rows as contraction out and
        # (m, s) operand
        self._x_op = (x.view(np.float64) if real else x).reshape(
            batch, dim, -1)
        self._rows = x.reshape(batch, 1, -1)
        self.ms = self._products()

    @staticmethod
    def _a0_row(c1, c2, w, omega: float) -> list:
        """The ladder row of A0 = -iH - L'L/2 at z = 0 for L = c1 a + c2 a'
        and the H of a ladder form, with L'L in its closed form
        |c1|^2 a'a + |c2|^2 a a' + conj(c2) c1 a^2 + conj(c1) c2 a'^2
        (truncated products of a and a' equal it).  c1, c2 and w are
        complex arrays, and each entry is one numpy expression on them, for
        a block of steps and for one ladder SLH (length-1 arrays) alike, so
        both get the same bits."""
        c1c, c2c, z = c1.conj(), c2.conj(), np.zeros_like(c1)
        # columns a'^2, a', a'a, a, a^2, a a' (fock._LADDER_KEYS); the a'
        # and a entries are -i z and -i conj(z) at z = 0, with the signed
        # zeros ``_ladder`` writes for a zero z
        return [-1j * w.conj() - 0.5 * (c1c * c2), -1j * z,
                -1j * (omega + 2.0 * w.real) - 0.5 * (c1c * c1).real,
                -1j * z.conj(), -1j * w - 0.5 * (c2c * c1),
                -0.5 * (c2c * c2).real]

    @staticmethod
    def _ladder(dim: int, omega: float, c1, c2, z, w) -> tuple:
        """(cols, basis, A0's row on them) of the ladder SLH
        (omega, c1, c2, z, w): the columns where L's row or A0's is
        nonzero, and a."""
        a0 = [complex(e[0]) for e in _KrausStepper._a0_row(
            *[np.array([v], dtype=np.complex128) for v in (c1, c2, w)],
            omega)]
        a0[1], a0[3] = -1j * z, -1j * z.conjugate()
        cols = tuple(j for j, col in enumerate(zip(
            [0.0, c2, 0.0, c1, 0.0, 0.0], a0)) if j == _LADDER_A or any(col))
        return cols, _ladder_basis(dim, cols), [a0[j] for j in cols]

    @staticmethod
    def _form(slh: SLHCoefficients) -> tuple:
        """(basis, (c, c'), A0's row on X_0 .. X_{n-2}) of ``slh``."""
        if slh._ladder is None:
            l_mat = slh.l.entries
            ll = np.ascontiguousarray(l_mat.conj().T) @ l_mat
            stack = np.concatenate([l_mat, -1j * slh.h.entries - 0.5 * ll,
                                    np.eye(slh.dim)])
            return (stack, 0, None), (1.0, 0.0), [0.0, 1.0]
        _, basis, a0 = _KrausStepper._ladder(slh.dim, *slh._ladder)
        return basis, slh._ladder[1:3], a0

    def _read(self, slh: SLHCoefficients, dim: int) -> tuple:
        """Take ``c`` and ``base`` from the form of ``slh``, whose dim must
        be ``dim`` (``DimensionError``); return its basis."""
        slh._check_dim(dim)
        basis, self.c, a0 = self._form = slh._kraus
        # dt A0 by the same numpy product as ``block``
        self._base = (self.dt * np.array(a0, dtype=np.complex128)).tolist()
        return basis

    def take(self, slh: SLHCoefficients) -> "_KrausStepper":
        """This stepper on the form of ``slh``, or a new one on the current
        stack when that form's members or dim differ."""
        if (slh._kraus is self._form
                or self._read(slh, self.x.shape[1]) is self.basis):
            return self
        return _KrausStepper(self.x, self.dt, slh)

    def block(self, c1, c2, w) -> list:
        """The family's row of dt A0 at z = 0 on X_0 .. X_{n-2}, one array
        per member, at the arrays (c1, c2, w) of a block of steps."""
        a0 = self._a0_row(c1, c2, w, self._omega)
        return [self.dt * a0[j] for j in self._cols]

    def _products(self) -> list:
        """Form the products of the current stack; return its (m, s)."""
        np.matmul(self._stack, self._x_op, out=self._prods_f)
        return np.vecdot(self._rows, self._prods_ms).tolist()

    def _apply(self) -> list:
        """Apply the coefficient rows: the stack becomes their
        contraction with its products, in place; return the new (m, s)."""
        np.matmul(self._coef, self.prods, out=self._rows)
        return self._products()

    def lams(self, cis: complex) -> list:
        """lam[b] = 2 Re e^{i theta} <L> of each row (NaN for a zero row,
        which the Zakai step's band then rejects)."""
        c, c_adj = self.c
        return [2.0 * (cis * (c * m + c_adj * m.conjugate())).real / s.real
                if s else math.nan for m, s in self.ms]

    def step(self, cis: complex, dI, zs=None, c=None, base=None) -> list:
        """One Kraus step of every row; returns the record increments
        dY[b] = lam[b] dt + dI[b].

        (c, base) are the form's unless given (a family's step).  With
        ``zs`` None every truth takes ``base``; else the truths' A0 differ
        only in the displacement zs[b] of H, which enters the a' and a
        entries (X_k' and X_k) as -i z and -i conj(z), and the row loop
        writes them from zs[b], so each row is dt A0 of its own z bit for
        bit."""
        if c is None:
            c, base = self.c, self._base
        k, k_adj, dt = self._k, self._k_adj, self.dt
        c, c_adj = c
        dy, rows = [], []
        for b, ((m, s), di) in enumerate(zip(self.ms, dI)):
            lam = 2.0 * (cis * (c * m + c_adj * m.conjugate())).real / s.real
            dy.append(lam * dt + di)
            move = ((0.5 * lam) * dt + di) * cis
            row = len(rows)
            rows += base
            if zs is None:
                rows[row + k] += move * c
                if k_adj is not None:
                    rows[row + k_adj] += move * c_adj
            else:
                z = zs[b]
                rows[row + k] = dt * (-1j * z.conjugate()) + move * c
                rows[row + k_adj] = dt * (-1j * z) + move * c_adj
            rows.append(1.0 - (0.125 * lam * lam) * dt - (0.5 * lam) * di)
        self._coef_flat[:] = rows
        self._settle(self._apply(), True)
        return dy

    def zakai(self, cis: complex, dY: float) -> None:
        """One linear step of the single vector chi held, driven by the raw
        record: d chi = e^{i theta} L chi dY + A0 chi dt, as the row
        I + dt A0 + dY e^{i theta} L."""
        c, c_adj = self.c
        row = self._base + [1.0]
        row[self._k] += dY * cis * c
        if self._k_adj is not None:
            row[self._k_adj] += dY * cis * c_adj
        self._coef_flat[:] = row
        self._settle(self._apply(), False)

    def _settle(self, ms: list, guard: bool) -> None:
        """Take ``ms`` as the new (m, s), after the norm guard (when
        ``guard``) and the band: a row whose s left [1e-100, 1e100] is
        rescaled by a power of two, which no normalized quantity sees, and
        one beyond 1e+-200 raises ``NormBoundsError``."""
        rescaled = False
        for b, ((_, s), (_, s0)) in enumerate(zip(ms, self.ms)):
            s = s.real
            if guard:
                nrm = math.sqrt(s / s0.real)
                if not abs(nrm - 1.0) <= NORM_GUARD:
                    raise _at_column(StepSizeError(
                        f"norm moved to {nrm:.6f} in one step; reduce dt"), b)
            if not _BAND_LO < s < _BAND_HI:
                nrm = math.sqrt(s)
                if not _HARD_LO < s < _HARD_HI:
                    raise _at_column(NormBoundsError(
                        f"unnormalized state norm {nrm:.3e} left the "
                        f"representable band"), b)
                self.x[b].view(np.float64)[...] *= 2.0 ** -math.frexp(nrm)[1]
                rescaled = True
        self.ms = self._products() if rescaled else ms


def _unit(x: np.ndarray, sq=None) -> np.ndarray:
    """The row x divided by its norm, from its squared norm ``sq`` if
    given (a stepper's s)."""
    return x / math.sqrt(np.vdot(x, x).real if sq is None else sq)


def _at_column(exc: CavityFilterError, column: int,
               step: Union[int, None] = None) -> CavityFilterError:
    """``exc`` marked as the failure of column ``column`` of a batch, and
    of step ``step`` of the run when given (``_integrate`` then names that
    step, not the one it was taking)."""
    exc.column = column
    if step is not None:
        exc.step = step
    return exc


def _density_factor(rho: np.ndarray) -> np.ndarray:
    """A factor X with rho = XX' / ||X||_F^2 and ||X||_F^2 = tr rho.

    The columns are the eigenvectors of rho scaled by the square roots of
    their weights; weights within roundoff of zero (relative to the
    largest) carry no resolvable sign and are dropped, so a pure state
    gives one column."""
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > vals[-1] * rho.shape[0] * np.finfo(float).eps
    return vecs[:, keep] * np.sqrt(vals[keep])


def _factor_density(x: np.ndarray) -> np.ndarray:
    """The density matrix XX' of a factor, Hermitized and of unit trace."""
    rho = x @ x.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# public operations


def _check_normalized(sq: float, what: str) -> None:
    """DomainError unless the squared norm ``sq`` is 1 (within 1e-9)."""
    if abs(sq - 1.0) > 1e-9:
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
        lam = _KrausStepper(vec.amplitudes[None], dt, slh).lams(cis)[0]
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
    stepper = _KrausStepper(state.psi.amplitudes[None], dt, slh)
    _check_normalized(stepper.ms[0][1].real, "sse_step")
    dy = stepper.step(complex(np.exp(1j * float(theta_t))), (dI,))[0]
    psi = _unit(stepper.x[0], stepper.ms[0][1].real)
    return TrajectoryState(state.t + dt, state.Y + dy, state.I + dI,
                           psi=StateVector(state.psi.dim, psi))


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
    stepper = _KrausStepper(_density_factor(state.rho.entries)[None], dt,
                            slh)
    dy = stepper.step(complex(np.exp(1j * float(theta_t))), (dI,))[0]
    rho = _factor_density(stepper.x[0])
    return TrajectoryState(state.t + dt, state.Y + dy, state.I + dI,
                           rho=DensityOperator(state.rho.dim, rho))


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
    stepper = _KrausStepper(state.chi.amplitudes[None], dt, slh)
    lam = stepper.lams(1.0 + 0.0j)[0]
    stepper.zakai(1.0 + 0.0j, dY)
    return TrajectoryState(state.t + dt, state.Y + dY, state.I + dY - lam * dt,
                           chi=StateVector(state.chi.dim, stepper.x[0]))


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
    (``_density_factor``); final states are XX' of unit trace and "psi"
    vectors divided by their norm.  The increments are drawn in blocks of
    ``_NOISE_BLOCK`` steps, which continue each stream bit for bit.
    ``step(t, arr, dw)`` gets the B increments of one step (a tuple of
    floats) and returns the next stack and the B record increments dY;
    package errors it raises are re-raised tagged with the step (their own
    ``step`` if they name one, as a step that catches up on earlier ones
    does), and keep the batch column they name as ``column`` (0 if none).

    (t, <a>, <a'a>, <a^2>, Y, I) of every truth are recorded at t = 0 and
    every ``stride`` steps behind the truncation check labelled ``what``,
    and ``sample(idx)`` then lets the caller record its own columns at
    index idx.  Y accumulates dY and I the increments dw.  Returns one
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
                at = getattr(exc, "step", k)
                raise _at_column(
                    type(exc)(f"step {at} (t={at * dt:.6g}): {exc}"),
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
                 else StateVector(dim, _unit(x) if kind == "psi" else x))
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
        time- or state-dependent coefficients; the state array is the
        unit vector in mode "sse" and the density matrix in mode "sme".
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

    provider = _as_slh_provider(
        slh_source, {"sse": _unit, "sme": _factor_density}.get(mode))

    if mode == "sme":
        if not isinstance(initial, DensityOperator):
            raise DomainError("sme mode needs a DensityOperator initial state")
        state_arr = _density_factor(initial.entries)
    else:
        if not isinstance(initial, StateVector):
            raise DomainError(f"{mode} mode needs a StateVector initial state")
        state_arr = initial.amplitudes
        if mode == "sse":
            _check_normalized(np.vdot(state_arr, state_arr).real,
                              "sse mode")

    if const_theta is None:
        cis_at = lambda t: complex(np.exp(1j * phase.at(t)))
    else:
        const_cis = complex(np.exp(1j * const_theta))
        cis_at = lambda _t: const_cis

    # one stepper per run, built again only when a source's members or dim
    # change (``_KrausStepper.take``)
    stepper = None

    def step(t, arr, dw):
        nonlocal stepper
        slh = provider(t, arr[0])
        stepper = (_KrausStepper(arr, dt, slh) if stepper is None
                   else stepper.take(slh))
        cis = cis_at(t)
        if mode != "zakai":
            return stepper.x, stepper.step(cis, dw)
        dy = stepper.lams(cis)[0] * dt + dw[0]
        stepper.zakai(cis, dy)
        return stepper.x, [dy]

    kind = {"sse": "psi", "sme": "rho", "zakai": "chi"}[mode]
    n = _step_total([noise], T, dt, record_stride)
    return _integrate(state_arr[None], kind, [noise], n, dt, record_stride,
                      step, "trajectory")[0]
