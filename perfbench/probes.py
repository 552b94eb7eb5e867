"""Timings for each module, taken in the traced run.

Each probe times public calls on the workload's own inputs: the same
dim, dt, seed, gains and prior, with filter states taken from a
co-simulation record of the workload.  The CLI, ``lti`` and
``classical`` are reached only through the CLI, so their probes run the
cli-sme config (with this workload's seed) on every workload.

``control.cosim_other_us`` is the part of one co-simulation step that
the timed parts do not cover:

    cosim_step = controlled_slh + kernel + pid_filter_step
                 + noise_draw + moments / record_stride + cosim_other

where the kernel is the SSE step for a pure truth and the SME step for
a mixed one.
"""

from __future__ import annotations

import math
import os
import statistics
from pathlib import Path

import numpy as np

from cavityfilter import (
    CavityOperator,
    ClosedLoopState,
    CovariancePair,
    DiffusionModel1D,
    DiscreteKalmanState,
    EnsembleConfig,
    GridDensity,
    NoiseStream,
    QKFState,
    RiccatiState,
    ScalarLGModel,
    annihilation_op,
    closed_loop,
    closed_loop_cosim,
    coherent_state,
    controlled_slh,
    damped_cavity_slh,
    expectation,
    freq_response,
    gaussian_state,
    innovations_test,
    kalman_bucy_step,
    mse_vs_V,
    number_op,
    pid_filter_step,
    pid_tf,
    plant_tf,
    riccati_integrate,
    run_ensemble,
    run_trajectory,
    step_response,
    zakai_grid_step,
)
from cavityfilter import cli

import workloads

SSE_STEPS = 2000
SME_STEPS = 500
RICCATI_STEPS = 2000
NOISE_DRAWS = 200_000
MOMENT_CALLS = 200
ZAKAI_STEPS = 500
KB_STEPS = 5000
REPEATS = 5
#: trajectories in the small ensemble that gives the pool metrics on
#: workloads that do not run an ensemble themselves
MINI_ENSEMBLE = 2

#: the Omega grid of ``cli tf``: half-integer offsets that miss the PI pole
TF_OMEGAS = sorted(math.copysign(0.05 + 0.1 * j, s)
                   for s in (-1.0, 1.0) for j in range(320))


def _median_per(tr, name: str, repeats: int, fn, per: float, scale: float):
    """Run fn ``repeats`` times inside spans; median duration / per * scale."""
    vals = []
    for _ in range(repeats):
        with tr.span(name, per=per) as sp:
            fn()
        vals.append(sp.duration / per * scale)
    return statistics.median(vals)


def _truth_initial(w):
    """Initial truth state of trajectory 0 in the representation the
    workload integrates: a vector for a pure truth, else the density."""
    if w.truth_pure:
        return coherent_state(w.alpha, w.dim)
    return w.prior


def module_probes(w, tr, workers: int, ensemble_stats=None):
    """Per-module metrics for workload ``w``, and the parts of one
    co-simulation step (µs) that add up to ``control.cosim_step_us``.

    ``ensemble_stats`` holds, for a workload that runs an ensemble in its
    passes, the median ``run_ensemble`` seconds per worker count
    (``walls``) and the median verdict time (``verdict_ms``)."""
    m = {}
    dt, dim, params = w.dt, w.dim, w.params
    slh = damped_cavity_slh(params, dim)

    # trajectory
    psi0 = coherent_state(w.alpha, dim)
    m["trajectory.sse_step_us"] = _median_per(
        tr, "trajectory.run_trajectory_sse", REPEATS,
        lambda: run_trajectory(psi0, slh, 0.0, NoiseStream(w.cfg.seed, dt),
                               SSE_STEPS * dt, dt, mode="sse",
                               record_stride=SSE_STEPS),
        SSE_STEPS, 1e6)
    rho0 = w.prior
    m["trajectory.sme_step_us"] = _median_per(
        tr, "trajectory.run_trajectory_sme", 3,
        lambda: run_trajectory(rho0, slh, 0.0, NoiseStream(w.cfg.seed, dt),
                               SME_STEPS * dt, dt, mode="sme",
                               record_stride=SME_STEPS),
        SME_STEPS, 1e6)
    m["trajectory.noise_ns"] = _median_per(
        tr, "trajectory.noise_increments", REPEATS,
        lambda: NoiseStream(w.cfg.seed, dt).increments(NOISE_DRAWS),
        NOISE_DRAWS, 1e9)
    m["trajectory.steps"] = float(w.steps_per_pass)

    # fock
    state = _truth_initial(w)
    a_op = annihilation_op(dim)
    ops = (a_op, number_op(dim),
           CavityOperator(dim, a_op.entries @ a_op.entries))

    def moments():
        for _ in range(MOMENT_CALLS):
            for op in ops:
                expectation(op, state)

    m["fock.moments_us"] = _median_per(tr, "fock.expectation", REPEATS,
                                       moments, MOMENT_CALLS, 1e6)
    m["fock.prior_build_ms"] = _median_per(
        tr, "fock.gaussian_state", REPEATS,
        lambda: gaussian_state(w.alpha, w.cov, dim), 1, 1e3)

    # qkf
    m["qkf.riccati_step_us"] = _median_per(
        tr, "qkf.riccati_integrate", REPEATS,
        lambda: riccati_integrate(RiccatiState(w.cov.V, w.cov.W), 0.0, params,
                                  dt, RICCATI_STEPS * dt,
                                  record_stride=RICCATI_STEPS),
        RICCATI_STEPS, 1e6)

    # control: one co-simulation of the workload's trajectory 0, whose
    # record supplies the filter states for the per-call probes
    truth_alpha = truth_cov = None
    if w.purify:
        truth_alpha, truth_cov = w.alpha, CovariancePair(0.0, 0.0j)
    with tr.span("control.closed_loop_cosim", steps=w.n_steps) as sp:
        rec = closed_loop_cosim(
            w.alpha, w.cov, w.gains, w.reference, params, dim,
            NoiseStream(w.cfg.seed, dt), w.T, dt, record_stride=w.stride,
            truth_alpha=truth_alpha, truth_cov=truth_cov)
    m["control.cosim_step_us"] = sp.duration / w.n_steps * 1e6
    states = [QKFState(complex(rec.a_hat[k]),
                       RiccatiState(float(rec.V[k]), complex(rec.W[k]),
                                    float(rec.t[k])))
              for k in range(len(rec.t))]
    times = [float(x) for x in rec.t]
    loops = [ClosedLoopState(filter=s, t=t) for s, t in zip(states, times)]
    d_i = NoiseStream(w.cfg.seed, dt).increments(len(states))

    def slh_calls():
        for s, t in zip(states, times):
            controlled_slh(w.gains, s, w.reference, 0.0j, t, params, dim)

    def filter_calls():
        for st, di in zip(loops, d_i):
            pid_filter_step(st, float(di), w.gains, w.reference, params, dt)

    m["control.controlled_slh_us"] = _median_per(
        tr, "control.controlled_slh", 3, slh_calls, len(states), 1e6)
    m["control.pid_filter_step_us"] = _median_per(
        tr, "control.pid_filter_step", 3, filter_calls, len(states), 1e6)
    kernel = "sse_step_us" if w.truth_pure else "sme_step_us"
    parts = {
        "control.controlled_slh_us": m["control.controlled_slh_us"],
        f"trajectory.{kernel}": m[f"trajectory.{kernel}"],
        "control.pid_filter_step_us": m["control.pid_filter_step_us"],
        "trajectory.noise_ns/1000": m["trajectory.noise_ns"] * 1e-3,
        f"fock.moments_us/{w.stride}": m["fock.moments_us"] / w.stride,
    }
    m["control.cosim_other_us"] = (m["control.cosim_step_us"]
                                   - sum(parts.values()))
    parts["control.cosim_other_us"] = m["control.cosim_other_us"]

    # mc
    one = EnsembleConfig(1, w.T, dt, w.cfg.seed, w.name, w.stride)
    with tr.span("mc.filter_scenario", steps=w.n_steps) as sp:
        w.scenario(one, 0, NoiseStream(w.cfg.seed, dt))
    m["mc.traj_s"] = sp.duration
    if ensemble_stats:
        n_traj = w.n_traj
        wall_1 = ensemble_stats["walls"][1]
        wall_n = ensemble_stats["walls"][workers]
        verdict_ms = ensemble_stats["verdict_ms"]
    else:
        n_traj = MINI_ENSEMBLE
        config = EnsembleConfig(n_traj, w.T, dt, w.cfg.seed, w.name, w.stride)
        walls = {}
        for count in (1, workers):
            os.environ["QKF_THREADS"] = str(count)
            with tr.span("mc.run_ensemble", workers=count,
                         n_traj=n_traj) as sp:
                result = run_ensemble(config, w.scenario)
            walls[count] = sp.duration
        os.environ["QKF_THREADS"] = str(workers)
        wall_1, wall_n = walls[1], walls[workers]
        ric = riccati_integrate(RiccatiState(w.cov.V, w.cov.W), 0.0, params,
                                dt, w.T, record_stride=w.stride)
        with tr.span("mc.verdict") as sp:
            innovations_test(result)
            mse_vs_V(result, ric)
        verdict_ms = sp.duration * 1e3
    # with one worker run_ensemble maps in-process, so wall_1 is the sum
    # of the trajectory times the pool has to share out
    m["mc.pool_overhead_s"] = wall_n - wall_1 / workers
    m["mc.parallel_efficiency"] = wall_1 / (workers * wall_n)
    m["mc.trajectories"] = float(n_traj)
    m["mc.verdict_ms"] = verdict_ms

    # cli: parse the workload's own config
    m["cli.parse_config_us"] = _median_per(
        tr, "cli.parse_config", REPEATS,
        lambda: [cli.parse_config(w.config_text) for _ in range(50)],
        50, 1e6)

    # lti and classical, on the cli-sme config
    cli_cfg = cli.parse_config(workloads.cli_ini(w.cfg.seed, w.size))
    h = closed_loop(plant_tf(cli_cfg.params), pid_tf(cli_cfg.gains))
    m["lti.freq_response_us"] = _median_per(
        tr, "lti.freq_response", REPEATS,
        lambda: freq_response(h, TF_OMEGAS), len(TF_OMEGAS), 1e6)
    m["lti.step_response_ms"] = _median_per(
        tr, "lti.step_response", 3,
        lambda: step_response(h, cli_cfg.reference, cli_cfg.T, cli_cfg.dt),
        1, 1e3)

    a = -0.5 * cli_cfg.params.gamma
    p0 = cli_cfg.cov.V
    model = DiffusionModel1D(v=lambda x: a * x,
                             sigma=lambda x: np.ones_like(x),
                             h=lambda x: x)
    xs = np.linspace(-10.0, 10.0, 801)
    grid0 = GridDensity(xs, np.exp(-0.5 * xs ** 2 / p0)
                        / math.sqrt(2.0 * math.pi * p0))
    dys = NoiseStream(w.cfg.seed, cli_cfg.dt).increments(KB_STEPS)

    def zakai():
        grid = grid0
        for k in range(ZAKAI_STEPS):
            grid = zakai_grid_step(grid, float(dys[k]), cli_cfg.dt, model)

    cont = ScalarLGModel(A=a, B=0.0, H=1.0, Q=1.0)

    def kalman_bucy():
        kb = DiscreteKalmanState(0.0, p0)
        for k in range(KB_STEPS):
            kb = kalman_bucy_step(kb, float(dys[k]), 0.0, cli_cfg.dt, cont)

    m["classical.zakai_grid_step_us"] = _median_per(
        tr, "classical.zakai_grid_step", 3, zakai, ZAKAI_STEPS, 1e6)
    m["classical.kalman_bucy_step_us"] = _median_per(
        tr, "classical.kalman_bucy_step", 3, kalman_bucy, KB_STEPS, 1e6)
    return m, parts


def cli_probe(w, tr, out: Path) -> tuple[list, int]:
    """Run the CLI subcommands on the cli-sme config with this workload's
    seed; returns the checks and the bytes written."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "cli-sme.ini"
    path.write_text(workloads.cli_ini(w.cfg.seed, w.size), encoding="utf-8")
    checks, _ = workloads.run_cli(tr, path, out / "out",
                                  workloads.CLI_SUBCOMMANDS)
    written = sum(p.stat().st_size for p in (out / "out").iterdir())
    return checks, written
