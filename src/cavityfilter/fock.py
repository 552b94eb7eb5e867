"""Truncated Fock-space algebra for a single cavity mode.

Operators and states live on the span of the photon-number states
|0>, ..., |dim-1>.  Storage is dense complex128: the dimensions of
interest stay well below a few hundred, where dense linear algebra is
both faster and simpler than sparse structures.  The one exception is
the ladder basis a'^2, a', a'a, a, a^2, a a', whose members each have a
single nonzero diagonal.  Its real matrices and the identity are kept
once per dim, in one read-only table (``_ladder_table``) that every
reader takes: the operator constructors, the Gaussian unitaries, the
moments and the steppers' bases (``_ladder_basis``: the members a
step's coefficients use, and I).  A combination of the members is kept
as its row of coefficients and made dense only where an operator is
materialized (``_ladder_dense``).  A truth step never combines them:
the basis products of a whole stack of states are one product with the
real basis (on the float64 view of the states, so numpy casts no
complex copy of it), exact because each row of a member has one nonzero
entry, and each state's row of coefficients is contracted with its own
products.

Truncation policy: constructors check the population of the top two
Fock levels and warn above 1e-8 (``TruncationWarning``) or raise above
1e-4 (``TruncationError``).  Silent truncation bias is the dominant
failure mode of Fock-space simulations, so it is never silent here.

``scipy.linalg`` is imported on the first call of ``_expm``, which only
squeezed or displaced Gaussian priors reach: importing it costs more than
the rest of the package, and thermal, vacuum and coherent priors never
need it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    TruncationError,
    TruncationWarning,
)

__all__ = [
    "CavityOperator",
    "StateVector",
    "DensityOperator",
    "CovariancePair",
    "annihilation_op",
    "creation_op",
    "number_op",
    "identity_op",
    "coherent_state",
    "gaussian_state",
    "expectation",
    "conditional_covariances",
]

#: soft / hard thresholds of the truncation policy
LEAK_WARN = 1e-8
LEAK_ERROR = 1e-4


def _require_min_dim(dim: int) -> None:
    """The minimum truncation: ``DimensionError`` unless dim >= 2."""
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")


def _frozen_complex_matrix(entries, dim: int) -> np.ndarray:
    mat = np.ascontiguousarray(entries, dtype=np.complex128)
    if mat.shape != (dim, dim):
        raise DimensionError(
            f"operator entries must be {dim} x {dim}, got {mat.shape}"
        )
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class CavityOperator:
    """A dense operator on the truncated mode space.

    Parameters
    ----------
    dim : int
        Fock truncation; the operator acts on C^dim.
    entries : array_like
        Square complex matrix of shape (dim, dim).  Stored read-only.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _require_min_dim(self.dim)
        object.__setattr__(
            self, "entries", _frozen_complex_matrix(self.entries, self.dim)
        )

    def dagger(self) -> "CavityOperator":
        """Hermitian adjoint."""
        return CavityOperator(self.dim, self.entries.conj().T)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(
            np.max(np.abs(self.entries - self.entries.conj().T)) <= tol
        )


@dataclass(frozen=True)
class StateVector:
    """A (possibly unnormalized) vector on the truncated mode space.

    Normalized constructors produce unit norm to within 1e-12; the
    unnormalized linear filtering equations are allowed to scale it.
    """

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _require_min_dim(self.dim)
        amp = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.dim,):
            raise DimensionError(
                f"amplitudes must have shape ({self.dim},), got {amp.shape}"
            )
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise DomainError("state amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return StateVector(self.dim, self.amplitudes / n)


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix: Hermitian within 1e-12, unit trace within 1e-10.

    Positivity is checked where states are manufactured from data
    (``gaussian_state``), not on every wrap, because the eigenvalue sweep
    is the only O(dim^3) part of validation.  The conditioned steppers
    need no check: they carry rho as a factor XX' and step X, so the
    states they return are positive by construction.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _require_min_dim(self.dim)
        mat = _frozen_complex_matrix(self.entries, self.dim)
        if not np.isfinite(mat).all():
            raise DomainError("density matrix entries must be finite")
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_defect > 1e-12:
            raise DomainError(
                f"density matrix not Hermitian (defect {herm_defect:.3e})"
            )
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-10:
            raise DomainError(f"density matrix trace {tr} is not 1")
        object.__setattr__(self, "entries", mat)


def _check_covariances(v: float, w: complex) -> None:
    """The one check of a covariance pair (V, W), for ``CovariancePair``
    and ``qkf.RiccatiState``: both finite and V nonnegative down to a
    rounding floor of 1e-10, else ``DomainError``."""
    if not (math.isfinite(v) and cmath.isfinite(w)):
        raise DomainError("covariances must be finite")
    if v < -1e-10:
        raise DomainError(f"V must be nonnegative, got {v}")


@dataclass(frozen=True)
class CovariancePair:
    """Conditional second moments (V, W) of the mode.

    V = <a' a> - <a'><a> is the conditional number variance (real),
    W = <a a> - <a><a> the conditional squeezing moment (complex),
    with a' the creation operator.
    """

    V: float
    W: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "V", float(self.V))
        object.__setattr__(self, "W", complex(self.W))
        _check_covariances(self.V, self.W)

    def physicality_excess(self) -> float:
        """V(V+1) - |W|^2; nonnegative (within roundoff) for Gaussian
        states realizable on the mode."""
        return self.V * (self.V + 1.0) - abs(self.W) ** 2

    def is_physical(self, tol: float = 1e-8) -> bool:
        return self.physicality_excess() >= -tol


# ---------------------------------------------------------------------------
# operator constructors


#: the ladder basis a'^2, a', a'a, a, a^2, a a' of the structured
#: coefficients; each member has one nonzero entry per row at most
_LADDER_KEYS = ("ad2", "ad", "n", "a", "a2", "aad")
#: the columns of a and a' in a ladder row
_LADDER_A, _LADDER_AD = _LADDER_KEYS.index("a"), _LADDER_KEYS.index("ad")


@lru_cache(maxsize=None)
def _ladder_table(dim: int) -> np.ndarray:
    """The one copy of the ladder matrices: the read-only real
    (7, dim, dim) table of the ladder basis (``_LADDER_KEYS``) followed by
    the identity.  Every entry is a closed form, not a matrix product
    (sqrt(k) sqrt(k) rounds away from k); the top level of a a' is
    truncated to 0."""
    _require_min_dim(dim)
    k = np.arange(1.0, dim)
    a, a2 = np.diag(np.sqrt(k), 1), np.diag(np.sqrt(k[:-1] * k[1:]), 2)
    table = np.stack([a2.T, a.T, np.diag(np.arange(dim)), a, a2,
                      np.diag(np.append(k, 0.0)), np.eye(dim)], dtype=float)
    table.setflags(write=False)
    return table


def _ladder(key: str, dim: int) -> np.ndarray:
    """The read-only real matrix ``key`` (of ``_LADDER_KEYS``) of the
    ladder table."""
    return _ladder_table(dim)[_LADDER_KEYS.index(key)]


@lru_cache(maxsize=None)
def _ladder_basis(dim: int, cols: tuple) -> tuple:
    """(stack, index of a, index of a'): the members ``cols`` (increasing
    indices into ``_LADDER_KEYS``, a among them) of the ladder table
    followed by I, as one read-only ((len(cols) + 1) dim, dim) stack,
    rows j dim .. (j + 1) dim - 1 holding member j; the index of a' is
    None if a' is not a member.  Every row has at most one nonzero entry,
    so its product with any vector, or with the float64 view of a complex
    one, is exact: one rounded multiplication per entry, whatever the
    BLAS kernel or batch shape."""
    stack = _ladder_table(dim)[list(cols) + [len(_LADDER_KEYS)]].reshape(
        -1, dim)
    stack.setflags(write=False)
    return (stack, cols.index(_LADDER_A),
            cols.index(_LADDER_AD) if _LADDER_AD in cols else None)


def _ladder_dense(coef, dim: int) -> np.ndarray:
    """Dense matrices sum_j coef[i, j] X_j, one per row of ``coef``."""
    return np.tensordot(np.asarray(coef, dtype=np.complex128),
                        _ladder_table(dim)[:len(_LADDER_KEYS)], axes=1)


def annihilation_op(dim: int) -> CavityOperator:
    """The mode annihilation operator: a|n> = sqrt(n)|n-1>.

    The top row of a' is truncated away, so [a, a'] equals the identity
    except for the (dim-1, dim-1) entry, which equals -(dim-1).
    """
    return CavityOperator(dim, _ladder("a", dim))


def creation_op(dim: int) -> CavityOperator:
    """The mode creation operator, adjoint of ``annihilation_op``."""
    return CavityOperator(dim, _ladder("ad", dim))


def number_op(dim: int) -> CavityOperator:
    """The photon-number operator N|n> = n|n>."""
    return CavityOperator(dim, _ladder("n", dim))


def identity_op(dim: int) -> CavityOperator:
    return CavityOperator(dim, _ladder_table(dim)[-1])


# ---------------------------------------------------------------------------
# state constructors


def _expm(mat: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, imported on first use (see the module
    docstring)."""
    from scipy.linalg import expm

    return expm(mat)


def _check_truncation(top_two_population: float, what: str) -> None:
    if top_two_population > LEAK_ERROR:
        raise TruncationError(
            f"{what}: top two Fock levels hold {top_two_population:.3e} "
            f"of the population (limit {LEAK_ERROR:.0e}); increase dim"
        )
    if top_two_population > LEAK_WARN:
        warnings.warn(
            f"{what}: top two Fock levels hold {top_two_population:.3e} "
            "of the population; results may carry truncation bias",
            TruncationWarning,
            stacklevel=3,
        )


def coherent_state(alpha: complex, dim: int) -> StateVector:
    """Truncated coherent state with amplitude ``alpha``, renormalized.

    Amplitudes follow c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!),
    computed by the stable recurrence c_{n+1} = c_n alpha / sqrt(n+1).
    """
    _require_min_dim(dim)
    alpha = complex(alpha)
    amp = np.zeros(dim, dtype=np.complex128)
    c = complex(math.exp(-0.5 * abs(alpha) ** 2))
    amp[0] = c
    for n in range(1, dim):
        c = c * alpha / math.sqrt(n)
        amp[n] = c
    amp /= np.linalg.norm(amp)
    # population check on the state actually returned
    top_two = float(abs(amp[-1]) ** 2 + abs(amp[-2]) ** 2)
    _check_truncation(top_two, f"coherent_state(alpha={alpha})")
    return StateVector(dim, amp)


def _thermal_diag(nbar: float, dim: int) -> np.ndarray:
    """Geometric photon-number distribution, renormalized on the cutoff."""
    if nbar <= 1e-14:
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    q = nbar / (nbar + 1.0)
    p = (1.0 - q) * q ** np.arange(dim)
    return p / p.sum()


def _gaussian_unitaries(alpha: complex, cov: CovariancePair, dim: int) -> list:
    """The unitaries that prepare the Gaussian data (alpha, V, W) from a
    thermal (or vacuum) state, in the order they act: S(xi) if r > 0,
    then D(alpha) if alpha != 0 (r and xi as in ``gaussian_state``)."""
    half = max(cov.V, 0.0) + 0.5
    w = cov.W
    r = 0.5 * math.atanh(min(abs(w) / half, 1.0 - 1e-16))
    phase = -w / abs(w) if abs(w) > 0.0 else 1.0 + 0.0j
    xi = r * phase
    ad2, ad, _, a, a2 = _ladder_table(dim)[:5]
    out = []
    if r > 0.0:
        out.append(_expm(0.5 * (np.conj(xi) * a2 - xi * ad2)))
    if alpha != 0.0:
        out.append(_expm(alpha * ad - np.conj(alpha) * a))
    return out


def gaussian_state(alpha: complex, cov: CovariancePair, dim: int) -> DensityOperator:
    """Displaced squeezed thermal state with moments (alpha, V, W).

    The construction is closed form.  Writing V + 1/2 = (nbar + 1/2) cosh(2r)
    and |W| = (nbar + 1/2) sinh(2r) gives

        nbar = sqrt((V + 1/2)^2 - |W|^2) - 1/2,
        r    = atanh(|W| / (V + 1/2)) / 2,
        phase of the squeezing axis from W = -e^{i phi} sinh(r) cosh(r) (2 nbar + 1),

    after which rho = D(alpha) S(xi) rho_th(nbar) S' D' with
    S(xi) = expm((conj(xi) a^2 - xi a'^2)/2) and D(alpha) = expm(alpha a' - conj(alpha) a).

    Raises
    ------
    DomainError
        If the pair (V, W) violates V(V+1) >= |W|^2 (up to 1e-8).
    TruncationError
        If the top two Fock populations of the result exceed 1e-4.
    """
    _require_min_dim(dim)
    if not cov.is_physical():
        raise DomainError(
            f"covariances V={cov.V}, W={cov.W} violate V(V+1) >= |W|^2 "
            f"(excess {cov.physicality_excess():.3e})"
        )
    alpha = complex(alpha)
    v = max(cov.V, 0.0)
    w = cov.W

    if v <= 1e-14 and abs(w) <= 1e-14:
        # pure coherent data: build the vector directly (exact at alpha=0)
        psi = coherent_state(alpha, dim)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        return DensityOperator(dim, rho)

    half = v + 0.5
    nbar = math.sqrt(max(half * half - abs(w) ** 2, 0.25)) - 0.5
    rho = np.diag(_thermal_diag(nbar, dim)).astype(np.complex128)
    for u in _gaussian_unitaries(alpha, cov, dim):
        rho = u @ rho @ u.conj().T

    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    top_two = float((rho[-1, -1].real + rho[-2, -2].real) / tr)
    _check_truncation(top_two, f"gaussian_state(V={cov.V}, W={cov.W})")
    rho /= tr
    low = float(np.linalg.eigvalsh(rho)[0])
    if low < -1e-10:
        raise DomainError(
            f"constructed state has eigenvalue {low:.3e} < -1e-10; "
            "increase dim"
        )
    return DensityOperator(dim, rho)


def _gaussian_vector(alpha: complex, cov: CovariancePair, dim: int) -> StateVector:
    """Pure Gaussian data as a state vector: D(alpha) S(xi) |0>.

    Valid only for saturated covariances V(V+1) = |W|^2 (within 1e-8),
    the pure slice of the Gaussian family handled by gaussian_state."""
    _require_min_dim(dim)
    if abs(cov.physicality_excess()) > 1e-8:
        raise DomainError(
            f"V={cov.V}, W={cov.W} is not pure: V(V+1) - |W|^2 = "
            f"{cov.physicality_excess():.3e}"
        )
    alpha = complex(alpha)
    if max(cov.V, 0.0) <= 1e-14:
        return coherent_state(alpha, dim)

    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    for u in _gaussian_unitaries(alpha, cov, dim):
        psi = u @ psi
    nrm2 = float(np.vdot(psi, psi).real)
    top_two = float((abs(psi[-1]) ** 2 + abs(psi[-2]) ** 2) / nrm2)
    _check_truncation(top_two, f"gaussian_vector(V={cov.V}, W={cov.W})")
    return StateVector(dim, psi / math.sqrt(nrm2))


# ---------------------------------------------------------------------------
# expectations and moments


def expectation(op: CavityOperator, state) -> complex:
    """<X> on a state: <psi|X|psi>/<psi|psi> or tr(rho X)."""
    if not isinstance(state, (StateVector, DensityOperator)):
        raise DomainError(f"unsupported state type {type(state).__name__}")
    if op.dim != state.dim:
        raise DimensionError(f"operator dim {op.dim} != state dim {state.dim}")
    if isinstance(state, DensityOperator):
        # tr(rho X) without forming the product matrix
        return complex(np.sum(state.entries.T * op.entries))
    psi = state.amplitudes
    n2 = np.vdot(psi, psi).real
    if n2 == 0.0:
        raise DomainError("expectation on the zero vector")
    return complex(np.vdot(psi, op.entries @ psi) / n2)


def _moments_from_vector(psi: np.ndarray, a: np.ndarray, n2: float):
    """(<a>, <a'a>, <a^2>) of a possibly unnormalized vector whose
    squared norm is ``n2``."""
    u = a @ psi
    mean_a = np.vdot(psi, u) / n2
    mean_n = np.vdot(u, u).real / n2
    mean_a2 = np.vdot(psi, a @ u) / n2
    return complex(mean_a), float(mean_n), complex(mean_a2)


def _moments_from_density(rho: np.ndarray, dim: int):
    """(<a>, <a'a>, <a^2>) of a density matrix via tr(rho X) = sum(rho.T * X)."""
    _, _, n, a, a2 = _ladder_table(dim)[:5]
    rt = rho.T
    mean_a = complex(np.sum(rt * a))
    mean_n_c = complex(np.sum(rt * n))
    mean_a2 = complex(np.sum(rt * a2))
    if abs(mean_n_c.imag) > 1e-10:
        raise DomainError(
            f"<a'a> has imaginary part {mean_n_c.imag:.3e}; state is corrupted"
        )
    return mean_a, mean_n_c.real, mean_a2


def conditional_covariances(state) -> CovariancePair:
    """Second conditional moments of the mode on the given state.

    Returns V = <a'a> - |<a>|^2 (its imaginary part, bounded by 1e-10,
    is discarded) and W = <a^2> - <a>^2.
    """
    if isinstance(state, StateVector):
        psi = state.amplitudes
        mean_a, mean_n, mean_a2 = _moments_from_vector(
            psi, _ladder("a", state.dim), np.vdot(psi, psi).real)
    elif isinstance(state, DensityOperator):
        mean_a, mean_n, mean_a2 = _moments_from_density(state.entries, state.dim)
    else:
        raise DomainError(f"unsupported state type {type(state).__name__}")
    v = mean_n - abs(mean_a) ** 2
    w = mean_a2 - mean_a * mean_a
    if -1e-10 < v < 0.0:
        v = 0.0  # roundoff below the vacuum floor
    return CovariancePair(v, w)
