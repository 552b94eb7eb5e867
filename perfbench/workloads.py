"""The benchmark workloads: inputs built from a seed, one pass, checks.

Each workload is described by the INI config its CLI subcommand would
read, so building the inputs means parsing that config and building
the prior state from it.  One pass runs the workload through public
functions of ``cavityfilter`` and returns the checks it made on the
outputs, a digest of the outputs and the time spent integrating truth
trajectories.  Every call into the package sits inside a span, which
the benchmark's tracer records in traced runs and ignores otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cavityfilter import (
    EnsembleConfig,
    FilterScenario,
    NoiseStream,
    PIDGains,
    ReferenceSignal,
    RiccatiState,
    closed_loop_cosim,
    gaussian_state,
    innovations_test,
    mse_vs_V,
    riccati_integrate,
    run_ensemble,
)
from cavityfilter import cli

#: criterion 9's tolerance on max |a_hat - <a>| along a co-simulation
PID_GAP_TOL = 0.1
#: criterion 1's tolerance on the same gap, for the zero-gain filter run
#: by ``cli filter`` on a mixed (density-matrix) truth
FILTER_GAP_TOL = 5e-2
#: ensemble V is the filter's RK4 Riccati path; riccati_integrate runs the
#: same recursion, so the two may differ only by roundoff
V_MATCH_TOL = 1e-12

CLI_SUBCOMMANDS = ("filter", "riccati", "tf", "tune", "classical")

#: horizon and ensemble size per workload; "tiny" is for the smoke mode
#: only and sits below the innovations test's dt <= 1e-4 T precondition
SIZES = {
    "full": {"ensemble-thermal": {"T": 2.0, "n_traj": 8},
             "pid-cosim": {"T": 0.5},
             "cli-sme": {"T": 0.2}},
    "tiny": {"ensemble-thermal": {"T": 0.01, "n_traj": 2},
             "pid-cosim": {"T": 0.01},
             "cli-sme": {"T": 0.01}},
}

ENSEMBLE_INI = """\
[mode]
gamma = 1.0
omega = 0.0
dim = 30

[initial]
state = thermal
nbar = 0.5

[run]
T = {T}
dt = 1e-4
n_traj = {n_traj}
seed = {seed}
stride = 50
"""

PID_INI = """\
[mode]
gamma = 1.0
omega = 0.5
dim = 30

[initial]
state = coherent
alpha = 0.5

[control]
k_P = 2.0
k_I = 1.0
k_D = 0.5

[reference]
kind = step
amplitude = 1.0

[run]
T = {T}
dt = 1e-4
seed = {seed}
stride = 10
"""

CLI_INI = """\
[mode]
gamma = 1.0
omega = 0.0
dim = 30

[initial]
state = thermal
nbar = 0.5

[control]
k_P = 2.0
k_I = 1.0
k_D = 0.5
zeta = 0.7
omega0 = 2.0

[reference]
kind = step
amplitude = 1.0

[run]
T = {T}
dt = 1e-4
seed = {seed}
stride = 10
"""


def derive_seed(name: str, seed: int) -> int:
    """64-bit program seed for one workload and benchmark seed.

    Hashing keeps the trajectory sets of different benchmark seeds
    apart; ``base_seed XOR index`` would alias seeds that differ only
    in their low bits."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class PassResult:
    """What one pass produced: output checks as (name, passed, detail),
    an output digest, seconds spent integrating truth trajectories and
    run-specific numbers that are recorded but not gated on."""

    checks: list
    digest: str
    traj_s: float
    notes: dict = field(default_factory=dict)


class Workload:
    """Shared inputs: the parsed config and the quantities derived from it."""

    name = ""
    ini = ""
    purify = False

    def __init__(self, seed: int, workdir: Path, size: str = "full"):
        self.size = size
        self.workdir = Path(workdir)
        self.program_seed = derive_seed(self.name, seed)
        self.config_text = self.ini.format(seed=self.program_seed,
                                           **SIZES[size][self.name])
        cfg = cli.parse_config(self.config_text)
        self.cfg = cfg
        self.params = cfg.params
        self.dim = cfg.dim
        self.dt = cfg.dt
        self.T = cfg.T
        self.stride = cfg.stride
        self.n_steps = int(round(cfg.T / cfg.dt))
        self.alpha = cfg.alpha
        self.cov = cfg.cov
        self.gains, self.reference = self.loop_controls(cfg)
        # the prior as a Fock-space density matrix
        self.prior = gaussian_state(cfg.alpha, cfg.cov, cfg.dim)
        self.scenario = FilterScenario(
            params=cfg.params, dim=cfg.dim, alpha=cfg.alpha, cov=cfg.cov,
            purify=self.purify, gains=self.gains, reference=self.reference)

    @staticmethod
    def loop_controls(cfg):
        """Gains and reference of the truth/filter loop the workload runs."""
        return cfg.gains, cfg.reference

    @property
    def truth_pure(self) -> bool:
        """Whether truth trajectories are state vectors (SSE) rather
        than density matrices (SME)."""
        return self.purify or abs(self.cov.physicality_excess()) <= 1e-8

    @property
    def steps_per_pass(self) -> int:
        return self.n_steps

    def run_pass(self, tr, workers: int) -> PassResult:
        raise NotImplementedError

    def after_pass(self) -> None:
        """Clean-up kept out of the timed pass."""


class EnsembleThermal(Workload):
    """Zero-gain ensemble from the purified thermal prior, as
    ``cavityfilter ensemble`` runs it."""

    name = "ensemble-thermal"
    ini = ENSEMBLE_INI
    purify = True

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        cfg = self.cfg
        self.n_traj = cfg.n_traj
        self.ens_config = EnsembleConfig(
            n_traj=cfg.n_traj, T=cfg.T, dt=cfg.dt, base_seed=cfg.seed,
            scenario=cfg.state, record_stride=cfg.stride)

    @property
    def steps_per_pass(self) -> int:
        return self.n_traj * self.n_steps

    def run_pass(self, tr, workers):
        os.environ["QKF_THREADS"] = str(workers)
        t0 = time.perf_counter()
        with tr.span("mc.run_ensemble", workers=workers, n_traj=self.n_traj,
                     steps=self.steps_per_pass):
            result = run_ensemble(self.ens_config, self.scenario)
        traj_s = time.perf_counter() - t0
        with tr.span("mc.innovations_test"):
            verdict = innovations_test(result)
        with tr.span("qkf.riccati_integrate", steps=self.n_steps):
            ric = riccati_integrate(RiccatiState(self.cov.V, self.cov.W), 0.0,
                                    self.params, self.dt, self.T,
                                    record_stride=self.stride)
        with tr.span("mc.mse_vs_V"):
            report = mse_vs_V(result, ric)
        v_gap = float(np.max(np.abs(result.V - [s.V for s in ric])))
        checks = [
            ("innovations_verdict", verdict.passed,
             f"mean {verdict.terminal_mean:.4g} vs {verdict.mean_threshold:.4g}, "
             f"qv ratio [{verdict.qv_ratio_min:.4f}, {verdict.qv_ratio_max:.4f}]"),
            ("ensemble_V_equals_riccati", v_gap <= V_MATCH_TOL,
             f"max |V - V_riccati| = {v_gap:.3g}"),
        ]
        notes = {
            "mse_max_rel_dev": report.max_rel_dev,
            "qv_ratio_min": verdict.qv_ratio_min,
            "qv_ratio_max": verdict.qv_ratio_max,
            "terminal_mean": verdict.terminal_mean,
            "mean_threshold": verdict.mean_threshold,
        }
        digest = digest_arrays(result.t, result.mean_truth_a,
                               result.var_truth_a, result.mean_a_hat,
                               result.mse, result.V, result.terminal_I,
                               result.qv)
        return PassResult(checks, digest, traj_s, notes)


class PidCosim(Workload):
    """One PID co-simulation from a pure coherent start."""

    name = "pid-cosim"
    ini = PID_INI

    def run_pass(self, tr, workers):
        t0 = time.perf_counter()
        with tr.span("control.closed_loop_cosim", steps=self.n_steps):
            rec = closed_loop_cosim(
                self.alpha, self.cov, self.gains, self.reference, self.params,
                self.dim, NoiseStream(seed=self.cfg.seed, dt=self.dt),
                self.T, self.dt, record_stride=self.stride)
        traj_s = time.perf_counter() - t0
        gap = float(np.max(np.abs(rec.a_hat - rec.truth_mean_a)))
        checks = [("filter_tracks_truth", gap <= PID_GAP_TOL,
                   f"max |a_hat - <a>| = {gap:.4g} (tol {PID_GAP_TOL})")]
        digest = digest_arrays(rec.t, rec.truth_mean_a, rec.truth_mean_n,
                               rec.a_hat, rec.V, rec.W, rec.Y, rec.I,
                               np.array([rec.qv]))
        return PassResult(checks, digest, traj_s, {"max_gap": gap})


class CliSme(Workload):
    """In-process CLI runs on one thermal-prior config: ``filter`` on a
    mixed truth (density-matrix SME path), then riccati, tf, tune and
    classical."""

    name = "cli-sme"
    ini = CLI_INI

    @staticmethod
    def loop_controls(cfg):
        # ``cli filter`` runs the loop open; the config's gains feed tf
        return PIDGains(0.0), ReferenceSignal("constant", amplitude=0.0)

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "cli-sme.ini"
        self.config_path.write_text(self.config_text, encoding="utf-8")
        self._passes = 0

    def run_pass(self, tr, workers):
        self._passes += 1
        out = self.workdir / f"pass{self._passes}"
        checks, traj_s = run_cli(tr, self.config_path, out, CLI_SUBCOMMANDS)
        gap = filter_gap(out / "trajectory.csv")
        checks.append(("filter_tracks_truth", gap <= FILTER_GAP_TOL,
                       f"max |a_hat - <a>| in trajectory.csv = {gap:.4g} "
                       f"(tol {FILTER_GAP_TOL})"))
        files = sorted(out.iterdir())
        h = hashlib.sha256()
        for path in files:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        notes = {"max_gap": gap,
                 "bytes_written": sum(p.stat().st_size for p in files)}
        return PassResult(checks, h.hexdigest(), traj_s, notes)

    def after_pass(self):
        for old in self.workdir.glob("pass*"):
            for path in old.iterdir():
                path.unlink()
            old.rmdir()


def run_cli(tr, config_path: Path, out: Path, subcommands):
    """Run CLI subcommands in-process; one check per exit code.

    Returns (checks, seconds spent in ``filter``).  The paths each
    subcommand prints go to a buffer, not to the benchmark's stdout."""
    checks = []
    traj_s = 0.0
    for sub in subcommands:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with tr.span(f"cli.{sub}"), contextlib.redirect_stdout(buf):
            code = cli.main([sub, str(config_path), "--out", str(out)])
        if sub == "filter":
            traj_s = time.perf_counter() - t0
        checks.append((f"cli_{sub}_exit_0", code == 0, f"exit code {code}"))
    return checks, traj_s


def filter_gap(path: Path) -> float:
    """max |a_hat - <a>_truth| over the rows of a trajectory.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    truth = np.array([complex(float(r["re_a_truth"]), float(r["im_a_truth"]))
                      for r in rows])
    est = np.array([complex(float(r["re_a_hat"]), float(r["im_a_hat"]))
                    for r in rows])
    return float(np.max(np.abs(est - truth)))


WORKLOADS = {w.name: w for w in (EnsembleThermal, PidCosim, CliSme)}


def cli_ini(seed: int, size: str) -> str:
    """The cli-sme config for a program seed."""
    return CLI_INI.format(seed=seed, **SIZES[size]["cli-sme"])


def build(name: str, seed: int, workdir, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, Path(workdir), size)
