"""Command-line frontend: config parsing, subcommands, file emission.

Configs are flat INI-style sections ([mode], [initial], [measurement],
[control], [reference], [run]); unknown sections or keys are rejected
so typos fail loudly instead of silently running defaults.  Numbers
accept anything Python's float()/complex() accepts ("0.5", "1+2j").

Every subcommand writes fixed filenames into the output directory and
prints the paths it wrote on stdout.  CSV cells carry 17 significant
digits, which round-trips 64-bit floats exactly, so identical config
plus seed reproduces identical bytes regardless of QKF_THREADS.

Exit codes: 0 ok; 2 config error; 3 numeric/stability error;
4 statistical-test failure under `ensemble --assert`.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CavityFilterError, ConfigError
from .fock import CovariancePair
from .qkf import ModeParams, RiccatiState, _step_count, riccati_integrate
from .control import (
    PIDGains,
    ReferenceSignal,
    _reference_at,
    _sq_error,
    closed_loop_cosim,
    error_signal,
)
from .trajectory import NoiseStream
from .classical import (
    DiffusionModel1D,
    DiscreteKalmanState,
    GridDensity,
    ScalarLGModel,
    _zakai_apply,
    _zakai_operator,
    kalman_bucy_step,
    kalman_predict,
    kalman_update,
    ks_normalize,
)
from . import lti
from .mc import (
    EnsembleConfig,
    FilterScenario,
    innovations_test,
    mse_vs_V,
    run_ensemble,
)

__all__ = ["ScenarioConfig", "parse_config", "run_subcommand", "main"]

_SECTIONS = {
    "mode": ("gamma", "omega", "dim"),
    "initial": ("state", "alpha", "nbar", "V", "W"),
    "measurement": ("theta",),
    "control": ("k_P", "k_I", "k_D", "mu", "nu", "zeta", "omega0"),
    "reference": ("kind", "amplitude", "onset", "slope", "frequency"),
    "run": ("T", "dt", "n_traj", "seed", "stride", "out_dir"),
}

_STATES = ("vacuum", "coherent", "thermal", "gaussian")

_KIND_NAMES = {float: "a number", complex: "a complex number", int: "an integer"}

_MSE_THRESHOLD = 0.10

# CSV layout for paired truth/filter series
_TRAJ_HEADER = "t,re_a_truth,im_a_truth,n_truth,re_a_hat,im_a_hat,V,re_W,im_W,Y,I"


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated run description shared by all subcommands."""

    params: ModeParams
    dim: int
    state: str
    alpha: complex
    cov: CovariancePair
    theta: float
    gains: PIDGains
    zeta: Optional[float]
    omega0: Optional[float]
    reference: ReferenceSignal
    T: float
    dt: float
    n_traj: int
    seed: int
    stride: int
    out_dir: str


class _Section:
    """One config section with typed, path-named accessors."""

    def __init__(self, name: str, raw: dict):
        self.name = name
        self.raw = dict(raw)
        self.seen = set()

    def _take(self, key: str) -> Optional[str]:
        self.seen.add(key)
        val = self.raw.get(key)
        if val is None:
            return None
        val = val.strip()
        if not val:
            raise ConfigError(f"{self.name}.{key}: empty value")
        return val

    def text(self, key: str, default: Optional[str] = None) -> Optional[str]:
        val = self._take(key)
        return default if val is None else val

    def value(self, key: str, kind=float, default=None, required=False):
        """The value of ``key`` as ``kind`` (float, complex or int), finite
        unless an int."""
        val = self._take(key)
        if val is None:
            if required:
                raise ConfigError(f"{self.name}.{key}: required")
            return default
        try:
            out = kind(val)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not {_KIND_NAMES[kind]} "
                              f"({val!r})") from None
        if kind is not int and not cmath.isfinite(out):
            raise ConfigError(f"{self.name}.{key}: must be finite")
        return out

    def reject_unused(self) -> None:
        for key in self.raw:
            if key not in self.seen:
                raise ConfigError(f"{self.name}.{key}: not used for this scenario")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a sectioned key-value config document."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    if cp.defaults():
        raise ConfigError("a [DEFAULT] section is not supported")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")

    def sec(name: str) -> _Section:
        return _Section(name, dict(cp[name]) if cp.has_section(name) else {})

    mode = sec("mode")
    gamma = mode.value("gamma", required=True)
    omega = mode.value("omega", default=0.0)
    dim = mode.value("dim", int, required=True)
    try:
        params = ModeParams(gamma=gamma, omega=omega)
    except CavityFilterError as exc:
        raise ConfigError(f"mode.gamma: {exc}") from None
    if dim < 2:
        raise ConfigError(f"mode.dim: must be >= 2, got {dim}")

    initial = sec("initial")
    state = initial.text("state")
    if state is None:
        raise ConfigError("initial.state: required")
    if state not in _STATES:
        raise ConfigError(f"initial.state: unknown state {state!r} "
                          f"(expected one of {', '.join(_STATES)})")
    alpha = 0.0 + 0.0j
    cov = CovariancePair(0.0, 0.0j)
    if state == "coherent":
        alpha = initial.value("alpha", complex)
        if alpha is None:
            raise ConfigError("initial.alpha: required for state=coherent")
    elif state == "thermal":
        nbar = initial.value("nbar", required=True)
        if nbar < 0.0:
            raise ConfigError(f"initial.nbar: must be >= 0, got {nbar}")
        cov = CovariancePair(nbar, 0.0j)
    elif state == "gaussian":
        alpha = initial.value("alpha", complex, 0.0 + 0.0j)
        v = initial.value("V", required=True)
        w = initial.value("W", complex, 0.0 + 0.0j)
        try:
            cov = CovariancePair(v, w)
        except CavityFilterError as exc:
            raise ConfigError(f"initial.V: {exc}") from None
    initial.reject_unused()

    measurement = sec("measurement")
    theta = measurement.value("theta", default=0.0)

    control = sec("control")
    kwargs = {"k_P": 0.0, "k_I": 0.0, "k_D": 0.0, "mu": 1.0, "nu": 1.0}
    for key in tuple(kwargs):
        val = control.value(key)
        if val is not None:
            kwargs[key] = val
    try:
        gains = PIDGains(**kwargs)
    except CavityFilterError as exc:
        raise ConfigError(f"control.{_offending_gain(kwargs)}: {exc}") from None
    zeta = control.value("zeta")
    omega0 = control.value("omega0")

    reference = sec("reference")
    kind = reference.text("kind", default="constant")
    amplitude = reference.value("amplitude", complex, 0.0 + 0.0j)
    onset = reference.value("onset", default=0.0)
    slope = reference.value("slope", default=0.0)
    frequency = reference.value("frequency", default=0.0)
    try:
        ref = ReferenceSignal(kind, amplitude=amplitude, onset=onset,
                              slope=slope, frequency=frequency)
    except CavityFilterError as exc:
        # each ReferenceSignal message starts with its field's name
        raise ConfigError(f"reference.{str(exc).split()[0]}: {exc}") from None

    run = sec("run")
    T = run.value("T", required=True)
    dt = run.value("dt", required=True)
    if T <= 0.0:
        raise ConfigError(f"run.T: must be positive, got {T}")
    if dt <= 0.0:
        raise ConfigError(f"run.dt: must be positive, got {dt}")
    n_traj = run.value("n_traj", int, 1)
    if n_traj < 1:
        raise ConfigError(f"run.n_traj: must be >= 1, got {n_traj}")
    seed = run.value("seed", int, 0)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"run.seed: must fit in 64 bits, got {seed}")
    stride = run.value("stride", int, 1)
    if stride < 1:
        raise ConfigError(f"run.stride: must be >= 1, got {stride}")
    out_dir = run.text("out_dir", default=".")

    return ScenarioConfig(params=params, dim=dim, state=state, alpha=alpha,
                          cov=cov, theta=theta, gains=gains, zeta=zeta,
                          omega0=omega0, reference=ref, T=T, dt=dt,
                          n_traj=n_traj, seed=seed, stride=stride,
                          out_dir=out_dir)


def _offending_gain(kwargs: dict) -> str:
    for name in ("k_P", "k_I", "k_D"):
        if kwargs.get(name, 0.0) < 0.0:
            return name
    return "k_P"


# ---------------------------------------------------------------------------
# emission helpers


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and one line per row of floats, each cell as
    ``format(x, ".17g")`` writes it (``"%.17g" % x`` is the same text),
    streamed row by row so the file is never held in memory."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        line = None
        for row in rows:
            row = tuple(row)
            if line is None:
                line = ",".join(["%.17g"] * len(row)) + "\n"
            fh.write(line % row)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _require_untilted(cfg: ScenarioConfig, name: str) -> None:
    if cfg.theta != 0.0:
        raise ConfigError(
            f"measurement.theta: the {name} subcommand supports theta=0 only")


def _traj_rows(rec):
    for k in range(len(rec.t)):
        yield (rec.t[k], rec.truth_mean_a[k].real, rec.truth_mean_a[k].imag,
               rec.truth_mean_n[k], rec.a_hat[k].real, rec.a_hat[k].imag,
               rec.V[k], rec.W[k].real, rec.W[k].imag, rec.Y[k], rec.I[k])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_riccati(cfg: ScenarioConfig, out: Path):
    states = riccati_integrate(RiccatiState(cfg.cov.V, cfg.cov.W), cfg.theta,
                               cfg.params, cfg.dt, cfg.T,
                               record_stride=cfg.stride)
    path = out / "riccati.csv"
    _write_csv(path, "t,V,re_W,im_W",
               ((s.t, s.V, s.W.real, s.W.imag) for s in states))
    return [path], True


def _cosim_csv(cfg: ScenarioConfig, out: Path, name: str, csv_name: str):
    """The co-simulation of ``cfg`` and the path of its series, written to
    ``csv_name``."""
    _require_untilted(cfg, name)
    rec = closed_loop_cosim(
        cfg.alpha, cfg.cov, cfg.gains, cfg.reference, cfg.params, cfg.dim,
        NoiseStream(seed=cfg.seed, dt=cfg.dt), cfg.T, cfg.dt,
        record_stride=cfg.stride)
    path = out / csv_name
    _write_csv(path, _TRAJ_HEADER, _traj_rows(rec))
    return rec, path


def _cmd_filter(cfg: ScenarioConfig, out: Path):
    """The co-simulation without feedback: zero gains, zero reference."""
    _, path = _cosim_csv(
        replace(cfg, gains=PIDGains(0.0),
                reference=ReferenceSignal("constant", amplitude=0.0 + 0.0j)),
        out, "filter", "trajectory.csv")
    return [path], True


def _cmd_closed_loop(cfg: ScenarioConfig, out: Path):
    rec, csv_path = _cosim_csv(cfg, out, "closed-loop", "closed_loop.csv")
    sq = _sq_error(rec)
    terminal = error_signal(cfg.reference.value(float(rec.t[-1])),
                            complex(rec.a_hat[-1]))
    summary = {
        "T": cfg.T,
        "dt": cfg.dt,
        "seed": cfg.seed,
        "terminal_error": abs(terminal),
        "terminal_innovation": float(rec.I[-1]),
        "sq_error_mean": float(np.mean(sq)),
        "sq_error_max": float(np.max(sq)),
        "qv": rec.qv,
    }
    json_path = out / "closed_loop.json"
    _write_json(json_path, summary)
    return [csv_path, json_path], True


def _cmd_ensemble(cfg: ScenarioConfig, out: Path):
    _require_untilted(cfg, "ensemble")
    # a mixed prior with a P function runs as a coherent-state mixture;
    # any other prior runs its truth as given (vector or density factor)
    purify = cfg.cov.V > 0.0 and cfg.cov.V >= abs(cfg.cov.W)
    scenario = FilterScenario(params=cfg.params, dim=cfg.dim, alpha=cfg.alpha,
                              cov=cfg.cov, purify=purify,
                              gains=cfg.gains, reference=cfg.reference)
    config = EnsembleConfig(n_traj=cfg.n_traj, T=cfg.T, dt=cfg.dt,
                            base_seed=cfg.seed, scenario=cfg.state,
                            record_stride=cfg.stride)
    result = run_ensemble(config, scenario)
    verdict = innovations_test(result)
    ric = riccati_integrate(RiccatiState(cfg.cov.V, cfg.cov.W), 0.0,
                            cfg.params, cfg.dt, cfg.T,
                            record_stride=cfg.stride)
    report = mse_vs_V(result, ric)

    csv_path = out / "ensemble.csv"
    rows = ((result.t[k], result.mean_truth_a[k].real,
             result.mean_truth_a[k].imag, result.var_truth_a[k],
             result.mean_a_hat[k].real, result.mean_a_hat[k].imag,
             result.mse[k], result.V[k]) for k in range(len(result.t)))
    _write_csv(csv_path,
               "t,re_mean_a,im_mean_a,var_a,re_mean_a_hat,im_mean_a_hat,mse,V",
               rows)

    mse_pass = report.max_rel_dev <= _MSE_THRESHOLD
    summary = {
        "T": cfg.T,
        "dt": cfg.dt,
        "base_seed": cfg.seed,
        "scenario": cfg.state,
        **asdict(verdict),
        "innovations_pass": verdict.passed,
        "mse_max_rel_dev": report.max_rel_dev,
        "mse_window_start": report.window_start,
        "mse_threshold": _MSE_THRESHOLD,
        "mse_pass": mse_pass,
        "overall_pass": verdict.passed and mse_pass,
    }
    json_path = out / "ensemble.json"
    _write_json(json_path, summary)
    return [csv_path, json_path], verdict.passed and mse_pass


def _cmd_tf(cfg: ScenarioConfig, out: Path):
    g = lti.plant_tf(cfg.params)
    k = lti.pid_tf(cfg.gains)
    h = lti.closed_loop(g, k)

    # half-integer-offset grid: never hits poles on the imaginary axis
    # (the PI controller has one at Omega = 0)
    omegas = [math.copysign(0.05 + 0.1 * j, s)
              for s in (-1.0, 1.0) for j in range(320)]
    omegas.sort()
    gv = lti.freq_response(g, omegas)
    kv = lti.freq_response(k, omegas)
    hv = lti.freq_response(h, omegas)
    freq_path = out / "tf_freq.csv"
    _write_csv(freq_path, "Omega,re_G,im_G,re_K,im_K,re_H,im_H",
               ((om, a.real, a.imag, b.real, b.imag, c.real, c.imag)
                for om, a, b, c in zip(omegas, gv, kv, hv)))

    ts, ys = lti.step_response(h, cfg.reference, cfg.T, cfg.dt)
    ts, ys = ts[::cfg.stride], ys[::cfg.stride]
    rs = _reference_at(cfg.reference, ts)[:, 0]
    step_path = out / "tf_step.csv"
    _write_csv(step_path, "t,re_r,im_r,re_y,im_y",
               ((t, r.real, r.imag, y.real, y.imag)
                for t, r, y in zip(ts, rs, ys)))
    return [freq_path, step_path], True


def _cmd_tune(cfg: ScenarioConfig, out: Path):
    if cfg.zeta is None:
        raise ConfigError("control.zeta: required for tune")
    if cfg.omega0 is None:
        raise ConfigError("control.omega0: required for tune")
    gains = lti.pole_place_pi(cfg.zeta, cfg.omega0, cfg.params)
    h = lti.closed_loop(lti.plant_tf(cfg.params), lti.pid_tf(gains))
    poles = sorted(h.poles(), key=lambda p: (p.real, p.imag))
    targets = sorted(
        lti.RationalTF((1.0,), (cfg.omega0 ** 2, 2.0 * cfg.zeta * cfg.omega0,
                                1.0)).poles(),
        key=lambda p: (p.real, p.imag))
    err = max(abs(p - q) for p, q in zip(poles, targets))
    summary = {
        "zeta": cfg.zeta,
        "omega0": cfg.omega0,
        "k_P": gains.k_P,
        "k_I": gains.k_I,
        "k_D": gains.k_D,
        "pole1_re": poles[0].real,
        "pole1_im": poles[0].imag,
        "pole2_re": poles[1].real,
        "pole2_im": poles[1].imag,
        "max_pole_error": err,
    }
    path = out / "tune.json"
    _write_json(path, summary)
    return [path], True


#: the fixed grid of the classical chain's Zakai filter
_CLASSICAL_XS = np.linspace(-10.0, 10.0, 801)


def _check_classical(cfg: ScenarioConfig) -> None:
    """The classical chain's config faults, found before any work: a prior
    without variance, and a run.dt above the explicit Zakai step's
    diffusion bound sigma^2 dt / dx^2 <= 0.5 on the fixed grid (unit
    sigma)."""
    if cfg.cov.V <= 0.0:
        raise ConfigError(
            "initial.state: the classical comparison needs a positive prior "
            "variance (use state=thermal or state=gaussian)")
    dx = float(_CLASSICAL_XS[1] - _CLASSICAL_XS[0])
    if cfg.dt / (dx * dx) > 0.5:
        raise ConfigError(
            f"run.dt: {cfg.dt} exceeds the classical grid filter's stability "
            f"bound 0.5 dx^2 = {0.5 * dx * dx:.6g} (dx = {dx:.6g})")


def _cmd_classical(cfg: ScenarioConfig, out: Path):
    """Kalman / Kalman-Bucy / grid-filter chain on the classical analog.

    The mode maps to the scalar model dX = -(gamma/2) X dt + dW observed
    through dY = X dt + dV; the discrete filter runs on the matched
    per-step model (A_d = 1 + A dt, H_d = sqrt(dt), Q_d = dt).  The config
    is checked by ``_check_classical``."""
    a = -0.5 * cfg.params.gamma
    cont = ScalarLGModel(A=a, B=0.0, H=1.0, Q=1.0)
    disc = ScalarLGModel(A=1.0 + a * cfg.dt, B=0.0, H=math.sqrt(cfg.dt),
                         Q=cfg.dt)
    model = DiffusionModel1D(v=lambda x: a * x,
                             sigma=lambda x: np.ones_like(x),
                             h=lambda x: x)
    xs = _CLASSICAL_XS
    p0, x0 = cfg.cov.V, cfg.alpha.real
    grid = GridDensity(xs, np.exp(-0.5 * (xs - x0) ** 2 / p0)
                       / math.sqrt(2.0 * math.pi * p0))
    kb = DiscreteKalmanState(x0, p0)
    dk = DiscreteKalmanState(x0, p0)

    n = int(round(cfg.T / cfg.dt))  # the grid is checked by run_subcommand
    noise = NoiseStream(seed=cfg.seed, dt=cfg.dt)
    # as Python floats: the step loop does no numpy scalar arithmetic
    dws = noise.increments(n).tolist()
    dvs = noise.spawn(1).increments(n).tolist()
    rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ 0x5DEECE66D))
    truth = x0 + math.sqrt(p0) * rng.standard_normal()
    sq = math.sqrt(cfg.dt)

    zakai = _zakai_operator(grid, cfg.dt, model)
    g, dx, room = grid.values, grid.dx, 0.0
    rows = []

    def record(t):
        _, zm, zv = ks_normalize(GridDensity(xs, g))
        rows.append((t, truth, dk.x_hat, dk.P, kb.x_hat, kb.P, zm, zv))

    record(0.0)
    for i in range(n):
        dy = truth * cfg.dt + dvs[i]
        truth += a * truth * cfg.dt + dws[i]
        g, room = _zakai_apply(zakai, g, dy, dx, room)
        kb = kalman_bucy_step(kb, dy, 0.0, cfg.dt, cont)
        dk = kalman_update(kalman_predict(dk, 0.0, disc), dy / sq, disc,
                           k=i + 1)
        if (i + 1) % cfg.stride == 0:
            record((i + 1) * cfg.dt)

    path = out / "classical.csv"
    _write_csv(path,
               "t,x_truth,kalman_mean,kalman_var,kb_mean,kb_var,"
               "zakai_mean,zakai_var", rows)
    return [path], True


_DISPATCH = {
    "riccati": _cmd_riccati,
    "filter": _cmd_filter,
    "closed-loop": _cmd_closed_loop,
    "ensemble": _cmd_ensemble,
    "tf": _cmd_tf,
    "tune": _cmd_tune,
    "classical": _cmd_classical,
}


def run_subcommand(name: str, config: ScenarioConfig,
                   out_dir: Union[str, None] = None,
                   assert_stats: bool = False):
    """Execute one subcommand; returns (exit_code, written paths).  Every
    subcommand but ``tune`` checks the run grid before any work, and
    ``classical`` its own config faults too."""
    if name not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {name!r}")
    if name != "tune":
        _step_count(config.T, config.dt, config.stride, error=ConfigError,
                    names=("run.dt: ", "run.stride: "))
    if name == "classical":
        _check_classical(config)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written, stats_ok = _DISPATCH[name](config, out)
    if assert_stats and not stats_ok:
        return 4, written
    return 0, written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityfilter",
        description="Filtering and feedback runs for a damped bosonic mode.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the scenario config file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides run.out_dir)")
        if name == "ensemble":
            p.add_argument("--assert", dest="assert_stats",
                           action="store_true",
                           help="exit 4 when a statistical verdict fails")
    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        code, written = run_subcommand(
            args.command, config, out_dir=args.out,
            assert_stats=getattr(args, "assert_stats", False))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CavityFilterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    if code != 0:
        print("error: statistical verdict failed (see ensemble.json)",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
