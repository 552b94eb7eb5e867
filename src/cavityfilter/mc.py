"""Ensemble runs and the statistical verdicts built on them.

Two identities make the filter testable without access to any internal
of the truth simulation:

* innovations statistics: along a correctly matched filter the
  accumulated innovation record is a standard Wiener process, so its
  terminal ensemble mean is ~N(0, T/n) and each trajectory's quadratic
  variation is T up to O(1/sqrt(steps));
* error identity: the ensemble mean squared estimation error
  E|a - a_hat|^2 equals the deterministic conditional variance V(t).

The second identity needs a genuine prior ensemble, not one repeated
initial state.  A Gaussian prior with V >= |W| is realized here as a
mixture of coherent states (its P representation): each trajectory
draws a coherent displacement from the prior statistics and simulates
a pure truth, while the filter is started on the mixed prior moments.
The draw uses an RNG stream keyed independently of the measurement
noise so that enabling it does not shift any dW sequence.

Trajectory seeds are base_seed XOR index: counter-mode generators give
uncorrelated streams for distinct keys and the ensemble stays exactly
reproducible.  The worker count is taken from QKF_THREADS (default: the
CPUs this process may run on).  The indices are split into that many
contiguous shards of ceil(n_traj / workers) trajectories, one task each,
and a shard steps its trajectories in lockstep (``control._cosim``): one
(B, dim) stack of pure truths, one Riccati step per step for the shard,
the filter means kept per trajectory.  Every trajectory gets the bits
of its own one-trajectory run, and the reduction is sequential in index
order, so aggregate bytes depend neither on the worker count nor on the
shard size.  When several trajectories fail, the lowest failing index is
reported, with the error its own run raises.

``concurrent.futures`` is imported only by a run with more than one
shard, so a one-process CLI run does not load the process-pool machinery
at start-up.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import CavityFilterError, ConfigError, DomainError
from .fock import CovariancePair
from .qkf import ModeParams, RiccatiState, _step_count
from .control import PIDGains, ReferenceSignal, _cosim, _sq_error
from .trajectory import NoiseStream

__all__ = [
    "EnsembleConfig",
    "TrajectorySample",
    "EnsembleResult",
    "FilterScenario",
    "InnovationsVerdict",
    "MSEReport",
    "run_ensemble",
    "innovations_test",
    "mse_vs_V",
]

# salt for the per-trajectory prior draw; any fixed key distinct from the
# measurement-noise key family works
_ALPHA_SALT = 0xA5A5A5A5A5A5A5A5

_QV_LOW = 0.95
_QV_HIGH = 1.05


@dataclass(frozen=True)
class EnsembleConfig:
    """Run geometry shared by every trajectory of an ensemble."""

    n_traj: int
    T: float
    dt: float
    base_seed: int
    scenario: str
    record_stride: int = 1

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise DomainError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= self.base_seed < 2**64:
            raise DomainError(f"base_seed must be a 64-bit integer, "
                              f"got {self.base_seed}")
        if self.record_stride < 1:
            raise DomainError(
                f"record_stride must be >= 1, got {self.record_stride}")
        _step_count(self.T, self.dt, self.record_stride)


@dataclass(frozen=True)
class TrajectorySample:
    """Per-trajectory series reduced by the ensemble runner."""

    t: np.ndarray
    truth_mean_a: np.ndarray
    a_hat: np.ndarray
    sq_error: np.ndarray
    V: np.ndarray
    terminal_I: float
    qv: float


@dataclass(frozen=True)
class EnsembleResult:
    """Index-ordered aggregates over an ensemble.

    ``mse`` is the ensemble mean of |a - a_hat|^2 evaluated through the
    truth moments; ``V`` is the (trajectory-independent) filter
    variance on the same grid; ``terminal_I`` and ``qv`` hold the
    terminal innovation and its full-resolution quadratic variation per
    trajectory."""

    config: EnsembleConfig
    t: np.ndarray
    mean_truth_a: np.ndarray
    var_truth_a: np.ndarray
    mean_a_hat: np.ndarray
    mse: np.ndarray
    V: np.ndarray
    terminal_I: np.ndarray
    qv: np.ndarray


@dataclass(frozen=True)
class FilterScenario:
    """Builder for filter-vs-truth trajectories under a common prior.

    With ``purify`` the truth of trajectory i is a pure coherent state
    displaced by a draw from the prior covariance (prior mean plus
    Gaussian), while the filter always starts on (alpha, cov).  That
    mixture is the prior only when V >= |W| (a Gaussian P function), so
    any other prior is rejected.  Without ``purify`` the truth simply
    shares the filter's initial data.  The record is always the
    theta = 0 quadrature that ``closed_loop_cosim`` observes.  Calling
    the scenario runs one trajectory; ``shard`` runs several in
    lockstep, which is how ``run_ensemble`` uses it.
    """

    params: ModeParams
    dim: int
    alpha: complex
    cov: CovariancePair
    purify: bool = False
    gains: PIDGains = PIDGains(0.0)
    reference: ReferenceSignal = ReferenceSignal("constant", amplitude=0.0)

    def __post_init__(self) -> None:
        if self.purify and self.cov.V < abs(self.cov.W):
            raise DomainError(
                f"purify needs V >= |W| (a coherent-state mixture), got "
                f"V={self.cov.V}, |W|={abs(self.cov.W)}")

    def __call__(self, config: EnsembleConfig, index: int,
                 noise: NoiseStream) -> TrajectorySample:
        """Trajectory ``index`` on ``noise``: the one-trajectory shard."""
        return self.shard(config, [index], [noise])[0]

    def shard(self, config: EnsembleConfig, indices: Sequence[int],
              noises: Sequence[NoiseStream]) -> list:
        """Trajectories ``indices`` on their ``noises``, stepped in
        lockstep (``control._cosim``); each sample has the bits of its
        own one-trajectory run.  An error of the trajectory at position j
        of ``indices`` names j as the error's ``column``."""
        truth_alphas = [self.alpha] * len(indices)
        truth_cov = self.cov
        if self.purify:
            truth_alphas = [
                self.alpha + _draw_displacement(
                    self.cov, _prior_rng(config.base_seed, i))
                for i in indices]
            truth_cov = CovariancePair(0.0, 0.0j)
        recs = _cosim(
            self.alpha, self.cov, self.gains, self.reference, self.params,
            self.dim, noises, config.T, config.dt, config.record_stride,
            truth_alphas, truth_cov)
        return [_sample(rec) for rec in recs]


def _prior_rng(base_seed: int, index: int) -> np.random.Generator:
    """The prior-draw stream of trajectory ``index``."""
    return np.random.Generator(
        np.random.Philox(key=(base_seed ^ index) ^ _ALPHA_SALT))


def _sample(rec) -> TrajectorySample:
    return TrajectorySample(rec.t, rec.truth_mean_a, rec.a_hat,
                            _sq_error(rec), rec.V, float(rec.I[-1]), rec.qv)


def _draw_displacement(cov: CovariancePair, rng: np.random.Generator) -> complex:
    """One draw x + iy with E|.|^2 = V and E[(.)^2] = W."""
    sigma = 0.5 * np.array(
        [[cov.V + cov.W.real, cov.W.imag],
         [cov.W.imag, cov.V - cov.W.real]])
    vals, vecs = np.linalg.eigh(sigma)
    vals = np.clip(vals, 0.0, None)
    x, y = vecs @ (np.sqrt(vals) * rng.standard_normal(2))
    return complex(x, y)


def _worker_count() -> int:
    """QKF_THREADS, else the number of CPUs this process may run on."""
    env = os.environ.get("QKF_THREADS")
    if env is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise ConfigError(f"QKF_THREADS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigError(f"QKF_THREADS must be >= 1, got {workers}")
    return workers


def _run_shard(task) -> list:
    """The samples of one contiguous shard of an ensemble, in index
    order.  A failure is re-raised tagged with its trajectory index; when
    several trajectories of the shard fail, the lowest index is reported
    (the lower part of the shard is rerun first), as it is when every
    trajectory runs alone."""
    scenario, config, indices = task
    noises = [NoiseStream(seed=config.base_seed ^ i, dt=config.dt)
              for i in indices]
    try:
        return scenario.shard(config, indices, noises)
    except CavityFilterError as exc:
        column = getattr(exc, "column", 0)
        if column:
            _run_shard((scenario, config, indices[:column]))
        raise type(exc)(f"trajectory {indices[column]}: {exc}") from exc


def run_ensemble(config: EnsembleConfig, scenario) -> EnsembleResult:
    """Run n_traj trajectories and reduce them in index order.

    The indices are split into ``workers`` contiguous shards of
    ceil(n_traj / workers) trajectories; each shard is stepped in
    lockstep by ``scenario.shard(config, indices, noises)`` (see
    ``FilterScenario``), in a worker process of its own when there is
    more than one shard, so the scenario has to be picklable.  The
    output bytes do not depend on the worker count.  Any trajectory
    failure aborts the whole run, tagged with the lowest failing index.
    """
    workers = min(_worker_count(), config.n_traj)
    size = -(-config.n_traj // workers)
    shards = [(scenario, config, range(lo, min(lo + size, config.n_traj)))
              for lo in range(0, config.n_traj, size)]
    if len(shards) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            return _reduce(config, chain.from_iterable(
                pool.map(_run_shard, shards)))
    return _reduce(config, _run_shard(shards[0]))


def _reduce(config: EnsembleConfig, samples) -> EnsembleResult:
    t = None
    sum_a = sum_abs2 = sum_hat = sum_sq = None
    v_path = None
    terminal = np.empty(config.n_traj)
    qv = np.empty(config.n_traj)
    count = 0
    for i, s in enumerate(samples):
        if t is None:
            t = s.t
            sum_a = np.zeros_like(s.truth_mean_a)
            sum_abs2 = np.zeros(len(t))
            sum_hat = np.zeros_like(s.a_hat)
            sum_sq = np.zeros(len(t))
            v_path = s.V
        elif s.t.shape != t.shape:
            raise DomainError(f"trajectory {i}: record grid mismatch")
        sum_a += s.truth_mean_a
        sum_abs2 += np.abs(s.truth_mean_a) ** 2
        sum_hat += s.a_hat
        sum_sq += s.sq_error
        terminal[i] = s.terminal_I
        qv[i] = s.qv
        count += 1
    n = float(count)
    mean_a = sum_a / n
    var_a = np.maximum(sum_abs2 / n - np.abs(mean_a) ** 2, 0.0)
    out = EnsembleResult(config, t, mean_a, var_a, sum_hat / n, sum_sq / n,
                         v_path, terminal, qv)
    for arr in (out.t, out.mean_truth_a, out.var_truth_a, out.mean_a_hat,
                out.mse, out.V, out.terminal_I, out.qv):
        arr.setflags(write=False)
    return out


@dataclass(frozen=True)
class InnovationsVerdict:
    """Whiteness checks with their thresholds recorded.

    The terminal-mean test is a 3 sigma z-test against N(0, T/n); the
    quadratic-variation test requires every trajectory's QV/T inside
    fixed bounds (meaningful for dt <= 1e-4 T)."""

    n_traj: int
    terminal_mean: float
    mean_threshold: float
    mean_ok: bool
    qv_ratio_min: float
    qv_ratio_max: float
    qv_low: float
    qv_high: float
    qv_ok: bool

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.qv_ok


def innovations_test(source, qv=None, T=None) -> InnovationsVerdict:
    """Wiener-statistics verdict on innovation records.

    Accepts either an EnsembleResult or raw arrays (terminal
    innovations, per-trajectory quadratic variations) plus the horizon.
    """
    if isinstance(source, EnsembleResult):
        terminal = np.asarray(source.terminal_I, dtype=float)
        qv_arr = np.asarray(source.qv, dtype=float)
        horizon = source.config.T
    else:
        if qv is None or T is None:
            raise DomainError("raw innovations need qv and T alongside")
        terminal = np.asarray(source, dtype=float)
        qv_arr = np.asarray(qv, dtype=float)
        horizon = float(T)
    if terminal.shape != qv_arr.shape or terminal.ndim != 1 or not len(terminal):
        raise DomainError("terminal innovations and qv must be matching "
                          "nonempty 1-d arrays")
    if horizon <= 0.0:
        raise DomainError(f"T must be positive, got {horizon}")
    n = len(terminal)
    mean = float(np.mean(terminal))
    threshold = 3.0 * math.sqrt(horizon / n)
    ratios = qv_arr / horizon
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    return InnovationsVerdict(
        n_traj=n,
        terminal_mean=mean,
        mean_threshold=threshold,
        mean_ok=abs(mean) <= threshold,
        qv_ratio_min=lo,
        qv_ratio_max=hi,
        qv_low=_QV_LOW,
        qv_high=_QV_HIGH,
        qv_ok=_QV_LOW <= lo and hi <= _QV_HIGH,
    )


@dataclass(frozen=True)
class MSEReport:
    """Ensemble MSE against the deterministic variance on one grid.

    ``max_rel_dev`` is taken over t >= window_start (the transient
    before it is excluded)."""

    t: np.ndarray
    mse: np.ndarray
    V: np.ndarray
    max_rel_dev: float
    window_start: float

    def __post_init__(self) -> None:
        if float(np.min(self.mse)) < -1e-9 or float(np.min(self.V)) < -1e-12:
            raise DomainError("MSE and V entries must be nonnegative")
        object.__setattr__(self, "mse", np.maximum(self.mse, 0.0))
        object.__setattr__(self, "V", np.maximum(self.V, 0.0))
        for arr in (self.t, self.mse, self.V):
            arr.setflags(write=False)


def mse_vs_V(result: EnsembleResult,
             riccati: Sequence[RiccatiState]) -> MSEReport:
    """Compare ensemble MSE with a Riccati series on the same grid.

    The relative deviation |mse - V| / V is evaluated pointwise for
    t in [0.1 T, T]; where V is exactly zero the MSE must vanish too.
    """
    t = result.t
    if len(riccati) != len(t):
        raise DomainError(f"grid mismatch: {len(riccati)} Riccati samples "
                          f"for {len(t)} records")
    rt = np.array([s.t for s in riccati])
    if np.max(np.abs(rt - t)) > 1e-9:
        raise DomainError("grid mismatch: Riccati times differ from records")
    v = np.array([s.V for s in riccati])
    horizon = result.config.T
    start = 0.1 * horizon
    window = t >= start - 1e-12
    worst = 0.0
    for mk, vk in zip(result.mse[window], v[window]):
        if vk > 0.0:
            worst = max(worst, float(abs(mk - vk) / vk))
        elif mk > 1e-30:
            worst = math.inf
    return MSEReport(t, np.array(result.mse), v, worst, start)
