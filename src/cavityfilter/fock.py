"""Truncated Fock-space algebra for a single cavity mode.

Operators and states live on the span of the photon-number states
|0>, ..., |dim-1>.  Storage is dense complex128: the dimensions of
interest stay well below a few hundred, where dense linear algebra is
both faster and simpler than sparse structures.  The one exception is
the ladder basis a, a', a'a, a a', a^2, a'^2, whose members each have a
single nonzero diagonal: a combination of them is kept either dense or
as its few bands, which act on a vector by elementwise products on
shifted slices in O(dim).  A combination whose coefficients change at
every step is not combined at all: the six basis products of the vector
are formed once and contracted with the coefficients
(``_ladder_apply``).

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

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        if self.dim < 2:
            raise DimensionError(f"dim must be >= 2, got {self.dim}")
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
        if self.dim < 2:
            raise DimensionError(f"dim must be >= 2, got {self.dim}")
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
        if self.dim < 2:
            raise DimensionError(f"dim must be >= 2, got {self.dim}")
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

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


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
        if not (math.isfinite(self.V) and np.isfinite(self.W)):
            raise DomainError("covariances must be finite")
        if self.V < -1e-10:
            raise DomainError(f"V must be nonnegative, got {self.V}")

    def physicality_excess(self) -> float:
        """V(V+1) - |W|^2; nonnegative (within roundoff) for Gaussian
        states realizable on the mode."""
        return self.V * (self.V + 1.0) - abs(self.W) ** 2

    def is_physical(self, tol: float = 1e-8) -> bool:
        return self.physicality_excess() >= -tol


# ---------------------------------------------------------------------------
# operator constructors


@lru_cache(maxsize=None)
def _annihilation_matrix(dim: int) -> np.ndarray:
    """Read-only raw matrix of the annihilation operator (cached)."""
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        mat[n - 1, n] = math.sqrt(n)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _mode_matrices(dim: int) -> dict:
    """Cached read-only products of a and a' used by hot assembly paths.

    Keys: a, ad, n (a'a), aad (a a'), a2, ad2.
    """
    a = _annihilation_matrix(dim)
    ad = np.ascontiguousarray(a.conj().T)
    # closed forms, not matmuls: sqrt(k) sqrt(k) rounds away from k
    n = np.diag(np.arange(dim, dtype=np.complex128))
    aad_diag = np.arange(1, dim + 1, dtype=np.complex128)
    aad_diag[-1] = 0.0  # truncated top level
    aad = np.diag(aad_diag)
    a2 = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim - 2):
        a2[k, k + 2] = math.sqrt((k + 1) * (k + 2))
    ad2 = np.ascontiguousarray(a2.conj().T)
    out = {"a": a, "ad": ad, "n": n, "aad": aad, "a2": a2, "ad2": ad2}
    for v in out.values():
        v.setflags(write=False)
    return out


#: the ladder basis a'^2, a', a'a, a, a^2, a a' of the structured
#: coefficients and the Fock-index offset o_j of each: X_j[k, k + o_j] is
#: the only nonzero entry of row k.  The first five run through the
#: offsets -2..2 in order; a a' shares the main diagonal with a'a.
_LADDER_KEYS = ("ad2", "ad", "n", "a", "a2", "aad")
_LADDER_OFFSETS = (-2, -1, 0, 1, 2, 0)
#: the row of the shifted window of ``_band_buffers`` that each ladder
#: basis member reads
_LADDER_WINDOW = np.array(_LADDER_OFFSETS) + 2


@lru_cache(maxsize=None)
def _ladder_stack(dim: int) -> np.ndarray:
    """Read-only (6, dim, dim) stack of the ladder basis matrices."""
    mats = _mode_matrices(dim)
    stack = np.stack([mats[key] for key in _LADDER_KEYS])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def _ladder_bands(dim: int) -> np.ndarray:
    """Read-only (6, dim) bands of the ladder basis: row j holds
    X_j[k, k + o_j], zero where k + o_j leaves the space.  Read off the
    closed forms of ``_mode_matrices``, so the banded and the dense forms
    of a ladder combination share every entry."""
    stack = _ladder_stack(dim)
    k = np.arange(dim)
    bands = np.zeros((len(_LADDER_KEYS), dim), dtype=np.complex128)
    for j, off in enumerate(_LADDER_OFFSETS):
        rows = k[(k + off >= 0) & (k + off < dim)]
        bands[j, rows] = stack[j, rows, rows + off]
    bands.setflags(write=False)
    return bands


def _ladder_dense(coef, dim: int) -> np.ndarray:
    """Dense matrices sum_j coef[i, j] X_j, one per row of ``coef``."""
    return np.tensordot(np.asarray(coef, dtype=np.complex128),
                        _ladder_stack(dim), axes=1)


def _ladder_banded(coef, dim: int) -> np.ndarray:
    """Banded form of the ladder combinations in the rows of ``coef``
    (..., rows, 6): a (..., rows, 5, dim) array whose [..., i, o + 2, k]
    entry is X_i[k, k + o]."""
    coef = np.asarray(coef, dtype=np.complex128)
    scaled = coef[..., None] * _ladder_bands(dim)
    scaled[..., 2, :] += scaled[..., 5, :]
    return scaled[..., :5, :]


def _band_buffers(dim: int, batch: int = 1):
    """(pad, window) for ``_band_apply`` on a (batch, dim) stack: a zero
    buffer (batch, dim + 4) and its (batch, 5, dim) view whose [b, o + 2]
    row is the buffer's row b shifted by o."""
    pad = np.zeros((batch, dim + 4), dtype=np.complex128)
    return pad, sliding_window_view(pad, dim, axis=1)


def _band_apply(bands: np.ndarray, psi: np.ndarray, buffers) -> np.ndarray:
    """(X_i psi[b])_{i, b} for the banded operators of ``_ladder_banded``:
    ``bands`` (rows, 1, 5, dim) shared by the stack psi (batch, dim), or
    (rows, batch, 5, dim) with one set per state.  Returns
    (rows, batch, dim).

    The five bands are summed in offset order -2..2: a reduction over a
    non-contiguous axis, which numpy accumulates in index order along
    the contiguous Fock index, so every state of a stack gets the bits
    of a lone state."""
    pad, window = buffers
    pad[:, 2:psi.shape[1] + 2] = psi
    return np.add.reduce(bands * window, axis=2)


def _ladder_apply(coef: np.ndarray, psi: np.ndarray, buffers) -> np.ndarray:
    """(sum_j coef[b, i, j] X_j psi[b])_{i, b} for per-state ladder rows
    ``coef`` (batch, rows, 6) on the stack psi (batch, dim), with the
    ``_band_buffers`` of the stack.  Returns (rows, batch, dim), as
    ``_band_apply`` does.

    The six basis products X_j psi[b] are one gather of the shifted
    window times ``_ladder_bands``; one batched matmul contracts them
    with the coefficients, state by state, so every state of a stack
    gets the bits of a lone state."""
    pad, window = buffers
    pad[:, 2:psi.shape[1] + 2] = psi
    prods = window[:, _LADDER_WINDOW]
    prods *= _ladder_bands(psi.shape[1])
    return np.matmul(coef, prods).swapaxes(0, 1)


def annihilation_op(dim: int) -> CavityOperator:
    """The mode annihilation operator: a|n> = sqrt(n)|n-1>.

    The top row of a' is truncated away, so [a, a'] equals the identity
    except for the (dim-1, dim-1) entry, which equals -(dim-1).
    """
    return CavityOperator(dim, _annihilation_matrix(dim))


def creation_op(dim: int) -> CavityOperator:
    """The mode creation operator, adjoint of ``annihilation_op``."""
    return CavityOperator(dim, _annihilation_matrix(dim).conj().T)


def number_op(dim: int) -> CavityOperator:
    """The photon-number operator N|n> = n|n>."""
    return CavityOperator(dim, np.diag(np.arange(dim, dtype=np.complex128)))


def identity_op(dim: int) -> CavityOperator:
    return CavityOperator(dim, np.eye(dim, dtype=np.complex128))


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
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
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
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
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
    r = 0.5 * math.atanh(min(abs(w) / half, 1.0 - 1e-16))
    phase = -w / abs(w) if abs(w) > 0.0 else 1.0 + 0.0j
    xi = r * phase

    mats = _mode_matrices(dim)
    a, ad, a2, ad2 = mats["a"], mats["ad"], mats["a2"], mats["ad2"]

    rho = np.diag(_thermal_diag(nbar, dim)).astype(np.complex128)
    if r > 0.0:
        squeeze = _expm(0.5 * (np.conj(xi) * a2 - xi * ad2))
        rho = squeeze @ rho @ squeeze.conj().T
    if alpha != 0.0:
        displace = _expm(alpha * ad - np.conj(alpha) * a)
        rho = displace @ rho @ displace.conj().T

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
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    if abs(cov.physicality_excess()) > 1e-8:
        raise DomainError(
            f"V={cov.V}, W={cov.W} is not pure: V(V+1) - |W|^2 = "
            f"{cov.physicality_excess():.3e}"
        )
    alpha = complex(alpha)
    v = max(cov.V, 0.0)
    if v <= 1e-14:
        return coherent_state(alpha, dim)

    half = v + 0.5
    r = 0.5 * math.atanh(min(abs(cov.W) / half, 1.0 - 1e-16))
    phase = -cov.W / abs(cov.W) if abs(cov.W) > 0.0 else 1.0 + 0.0j
    xi = r * phase

    mats = _mode_matrices(dim)
    a, ad, a2, ad2 = mats["a"], mats["ad"], mats["a2"], mats["ad2"]
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    if r > 0.0:
        psi = _expm(0.5 * (np.conj(xi) * a2 - xi * ad2)) @ psi
    if alpha != 0.0:
        psi = _expm(alpha * ad - np.conj(alpha) * a) @ psi
    nrm2 = float(np.vdot(psi, psi).real)
    top_two = float((abs(psi[-1]) ** 2 + abs(psi[-2]) ** 2) / nrm2)
    _check_truncation(top_two, f"gaussian_vector(V={cov.V}, W={cov.W})")
    return StateVector(dim, psi / math.sqrt(nrm2))


# ---------------------------------------------------------------------------
# expectations and moments


def expectation(op: CavityOperator, state) -> complex:
    """<X> on a state: <psi|X|psi>/<psi|psi> or tr(rho X)."""
    if isinstance(state, StateVector):
        if op.dim != state.dim:
            raise DimensionError(
                f"operator dim {op.dim} != state dim {state.dim}"
            )
        psi = state.amplitudes
        n2 = np.vdot(psi, psi).real
        if n2 == 0.0:
            raise DomainError("expectation on the zero vector")
        return complex(np.vdot(psi, op.entries @ psi) / n2)
    if isinstance(state, DensityOperator):
        if op.dim != state.dim:
            raise DimensionError(
                f"operator dim {op.dim} != state dim {state.dim}"
            )
        # tr(rho X) without forming the product matrix
        return complex(np.sum(state.entries.T * op.entries))
    raise DomainError(f"unsupported state type {type(state).__name__}")


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
    mats = _mode_matrices(dim)
    rt = rho.T
    mean_a = complex(np.sum(rt * mats["a"]))
    mean_n_c = complex(np.sum(rt * mats["n"]))
    mean_a2 = complex(np.sum(rt * mats["a2"]))
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
            psi, _annihilation_matrix(state.dim), np.vdot(psi, psi).real)
    elif isinstance(state, DensityOperator):
        mean_a, mean_n, mean_a2 = _moments_from_density(state.entries, state.dim)
    else:
        raise DomainError(f"unsupported state type {type(state).__name__}")
    v = mean_n - abs(mean_a) ** 2
    w = mean_a2 - mean_a * mean_a
    if -1e-10 < v < 0.0:
        v = 0.0  # roundoff below the vacuum floor
    return CovariancePair(v, w)
