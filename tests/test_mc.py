"""Ensemble runner and statistical verdict checks.

Base seeds for the statistical runs are pinned and chosen far apart in
the high bits: trajectory seeds are base XOR index, so two small base
seeds enumerate the same set of trajectory seeds in different order
and would not give independent ensembles.
"""

import math
import os

import numpy as np
import pytest

from cavityfilter import cli, mc
from cavityfilter.cli import main as cli_main
from cavityfilter.control import (
    PIDGains,
    ReferenceSignal,
    _cosim,
    closed_loop_cosim,
)
from cavityfilter.errors import DomainError, StepSizeError, TruncationError
from cavityfilter.fock import CovariancePair
from cavityfilter.mc import (
    EnsembleConfig,
    FilterScenario,
    MSEReport,
    _draw_displacement,
    _prior_rng,
    _worker_count,
    innovations_test,
    mse_vs_V,
    run_ensemble,
)
from cavityfilter.lti import closed_loop, pid_tf, plant_tf, step_response
from cavityfilter.qkf import ModeParams, RiccatiState, riccati_integrate
from cavityfilter.trajectory import NoiseStream

PARAMS = ModeParams(gamma=1.0, omega=0.0)
VACUUM = CovariancePair(0.0, 0.0j)
THERMAL = CovariancePair(0.5, 0.0j)
THERMAL_RICCATI = RiccatiState(0.5, 0.0j)


def test_config_validation():
    with pytest.raises(DomainError):
        EnsembleConfig(0, 1.0, 1e-3, 0, "x")
    with pytest.raises(DomainError):
        EnsembleConfig(1, 1.0, -1e-3, 0, "x")
    with pytest.raises(DomainError):
        EnsembleConfig(1, 1.0, 2.0, 0, "x")
    with pytest.raises(DomainError):
        EnsembleConfig(1, 1.0, 1e-3, -5, "x")
    with pytest.raises(DomainError):
        EnsembleConfig(1, 1.0, 1e-3, 0, "x", record_stride=0)


def test_config_rejects_a_grid_that_does_not_tile_the_run():
    # checked where the config is built, not reported later as the
    # failure of trajectory 0 of the first shard
    with pytest.raises(DomainError, match=r"^dt=0\.3 does not divide T=1\.0$"):
        EnsembleConfig(4, 1.0, 0.3, 1, "x")
    with pytest.raises(DomainError,
                       match=r"^record_stride=3 does not divide 10 steps$"):
        EnsembleConfig(4, 1.0, 0.1, 1, "x", record_stride=3)


def test_single_trajectory_matches_direct_run_bitwise():
    sc = FilterScenario(params=PARAMS, dim=14, alpha=0.5, cov=VACUUM)
    cfg = EnsembleConfig(1, 0.1, 1e-3, 42, "unit", record_stride=10)
    res = run_ensemble(cfg, sc)
    rec = closed_loop_cosim(
        0.5, VACUUM, PIDGains(0.0), ReferenceSignal("constant", amplitude=0.0j),
        PARAMS, 14, NoiseStream(seed=42, dt=1e-3), 0.1, 1e-3, record_stride=10)
    assert np.array_equal(res.mean_truth_a, rec.truth_mean_a)
    assert np.array_equal(res.mean_a_hat, rec.a_hat)
    assert np.array_equal(res.V, rec.V)
    assert res.terminal_I[0] == rec.I[-1]
    assert res.qv[0] == rec.qv

    # a 5-trajectory purified PID shard: each column is its own
    # closed_loop_cosim, and the ensemble reduces exactly those runs
    gains, ref = PIDGains(2.0, 1.0, 0.5), ReferenceSignal("step", 1.0)
    params = ModeParams(1.0, 0.5)
    sc = FilterScenario(params=params, dim=20, alpha=0.3, cov=THERMAL,
                        purify=True, gains=gains, reference=ref)
    cfg = EnsembleConfig(5, 0.1, 1e-3, 11 << 40, "pid", record_stride=10)
    noises = [NoiseStream(cfg.base_seed ^ i, cfg.dt) for i in range(5)]
    samples = sc.shard(cfg, range(5), noises)
    alone = []
    for i, s in enumerate(samples):
        draw = mc._draw_displacement(THERMAL, mc._prior_rng(cfg.base_seed, i))
        rec = closed_loop_cosim(
            0.3, THERMAL, gains, ref, params, 20,
            NoiseStream(cfg.base_seed ^ i, cfg.dt), cfg.T, cfg.dt,
            record_stride=10, truth_alpha=0.3 + draw, truth_cov=VACUUM)
        for got, want in ((s.truth_mean_a, rec.truth_mean_a),
                          (s.a_hat, rec.a_hat), (s.V, rec.V)):
            assert got.tobytes() == want.tobytes()
        assert s.terminal_I == rec.I[-1] and s.qv == rec.qv
        alone.append(sc(cfg, i, NoiseStream(cfg.base_seed ^ i, cfg.dt)))
    res = run_ensemble(cfg, sc)
    _assert_same_bytes(res, mc._reduce(cfg, alone))


def _assert_same_bytes(a, b):
    for name in ("t", "mean_truth_a", "var_truth_a", "mean_a_hat", "mse", "V",
                 "terminal_I", "qv"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_repeat_run_identical_bytes():
    sc = FilterScenario(params=PARAMS, dim=22, alpha=0.0, cov=THERMAL,
                        purify=True)
    cfg = EnsembleConfig(5, 0.05, 1e-3, 1 << 40, "repeat", record_stride=10)
    a = run_ensemble(cfg, sc)
    b = run_ensemble(cfg, sc)
    assert a.mean_truth_a.tobytes() == b.mean_truth_a.tobytes()
    assert a.mse.tobytes() == b.mse.tobytes()
    assert a.terminal_I.tobytes() == b.terminal_I.tobytes()
    assert a.qv.tobytes() == b.qv.tobytes()


_SCENARIOS = {
    "purified-zero-gain": FilterScenario(params=PARAMS, dim=22, alpha=0.2,
                                         cov=THERMAL, purify=True),
    "purified-pid": FilterScenario(params=ModeParams(1.0, 0.5), dim=22,
                                   alpha=0.2, cov=THERMAL, purify=True,
                                   gains=PIDGains(2.0, 1.0, 0.5),
                                   reference=ReferenceSignal("step", 1.0)),
    "mixed-prior": FilterScenario(params=PARAMS, dim=22, alpha=0.2,
                                  cov=THERMAL),
}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_worker_count_does_not_change_bytes(monkeypatch, scenario, threads):
    # 1, 2 and 3 workers step shards of 6, 3 and 2 trajectories; each
    # reduces to the bytes of the trajectories run one by one
    sc = _SCENARIOS[scenario]
    cfg = EnsembleConfig(6, 0.05, 1e-3, 3 << 40, "workers", record_stride=10)
    alone = [sc(cfg, i, NoiseStream(cfg.base_seed ^ i, cfg.dt))
             for i in range(6)]
    monkeypatch.setenv("QKF_THREADS", threads)
    _assert_same_bytes(run_ensemble(cfg, sc), mc._reduce(cfg, alone))


def test_worker_count_defaults_to_cpu_affinity(monkeypatch):
    # a process pinned to 3 of 64 CPUs runs 3 workers, not 64
    monkeypatch.delenv("QKF_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9},
                        raising=False)
    assert _worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _worker_count() == 64
    monkeypatch.setenv("QKF_THREADS", "2")
    assert _worker_count() == 2


def test_trajectory_failure_carries_index():
    # alpha far outside the truncation budget of dim=8
    sc = FilterScenario(params=PARAMS, dim=8, alpha=2.5, cov=VACUUM)
    cfg = EnsembleConfig(3, 0.05, 1e-3, 7, "fail")
    with pytest.raises(TruncationError, match="trajectory 0"):
        run_ensemble(cfg, sc)


# trajectories 1, 3 and 4 of this ensemble fail the norm guard on their
# own, at steps 1, 0 and 3; trajectories 0, 2 and 5 run through
_FAILING = FilterScenario(params=PARAMS, dim=24, alpha=0.0,
                          cov=CovariancePair(2.0, 0.0j), purify=True,
                          gains=PIDGains(20.0),
                          reference=ReferenceSignal("step", 1.0))
_FAILING_CFG = EnsembleConfig(6, 0.1, 2e-3, 2 << 20, "fail", record_stride=10)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_shard_failure_reports_the_lowest_failing_index(monkeypatch, threads):
    # the lockstep shard meets trajectory 3's failure first (step 0), but
    # the run reports the lowest failing index with the error its own run
    # raises, whatever the shard size
    cfg = _FAILING_CFG
    lone = {}
    for i in range(cfg.n_traj):
        try:
            _FAILING(cfg, i, NoiseStream(cfg.base_seed ^ i, cfg.dt))
        except StepSizeError as exc:
            lone[i] = str(exc)
    assert sorted(lone) == [1, 3, 4]
    assert lone[1].startswith("step 1 (t=0.002): norm moved")
    assert lone[3].startswith("step 0 (t=0): norm moved")
    monkeypatch.setenv("QKF_THREADS", threads)
    with pytest.raises(StepSizeError) as info:
        run_ensemble(cfg, _FAILING)
    assert str(info.value) == f"trajectory 1: {lone[1]}"


def test_shard_failure_keeps_its_exit_code(tmp_path, capsys, monkeypatch):
    # the same ensemble through the CLI: a numeric failure exits 3
    monkeypatch.setenv("QKF_THREADS", "2")
    path = tmp_path / "fail.ini"
    path.write_text(f"""\
[mode]
gamma = 1
dim = 24

[initial]
state = thermal
nbar = 2

[control]
k_P = 20

[reference]
kind = step
amplitude = 1

[run]
T = 0.1
dt = 2e-3
n_traj = 6
seed = {_FAILING_CFG.base_seed}
stride = 10
""", encoding="utf-8")
    assert cli_main(["ensemble", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "trajectory 1: step 1 (t=0.002): norm moved" in err


def test_draw_displacement_moments():
    cov = CovariancePair(0.5, 0.2 + 0.1j)
    rng = np.random.default_rng(0)
    draws = np.array([_draw_displacement(cov, rng) for _ in range(40000)])
    assert abs(np.mean(np.abs(draws) ** 2) - 0.5) < 0.02
    assert abs(np.mean(draws * draws) - (0.2 + 0.1j)) < 0.02
    assert abs(np.mean(draws)) < 0.02


def test_purify_needs_a_p_function():
    # r = 0.3 squeezed vacuum: V < |W|, so no coherent-state mixture has
    # its moments (clipped draws gave E|d|^2 = 0.206 against V = 0.093)
    sh, ch = math.sinh(0.3), math.cosh(0.3)
    for cov in (CovariancePair(sh * sh, -sh * ch), CovariancePair(0.2, 0.3j)):
        with pytest.raises(DomainError, match="V >= |W|"):
            FilterScenario(params=PARAMS, dim=20, alpha=0.0, cov=cov,
                           purify=True)
        FilterScenario(params=PARAMS, dim=20, alpha=0.0, cov=cov)
    for cov in (THERMAL, CovariancePair(0.3, -0.3), VACUUM):
        FilterScenario(params=PARAMS, dim=20, alpha=0.0, cov=cov, purify=True)


def test_thermal_drawn_truths_stay_coherent(monkeypatch):
    # every truth of a zero-gain purified shard is the coherent state of
    # its prior draw alpha_b, and with L = sqrt(gamma) a, H = omega a'a it
    # stays coherent on every record: <a> = alpha_b e^{-kappa t}, kappa =
    # gamma/2 + i omega, to the Euler row's O(dt |alpha_b|^2) (the gate of
    # test_coherent_truths_stay_coherent), and <a'a> - |<a>|^2 stays at
    # rounding level.  alpha_b is rebuilt from the prior stream; the base
    # seed, dt and both gates were fixed before the first run
    params, dim, T, dt, batch = ModeParams(1.0, 0.5), 30, 0.5, 5e-4, 8
    config = EnsembleConfig(batch, T, dt, 19 << 40, "thermal")
    scenario = FilterScenario(params, dim, 0.0j, THERMAL, purify=True)
    recs = []

    def spy(*args):
        out = _cosim(*args)
        recs.extend(out)
        return out

    monkeypatch.setattr(mc, "_cosim", spy)
    scenario.shard(config, range(batch),
                   [NoiseStream(config.base_seed ^ i, dt) for i in range(batch)])
    assert len(recs) == batch
    kappa = complex(0.5 * params.gamma, params.omega)
    for i, rec in enumerate(recs):
        alpha = 0.0j + _draw_displacement(
            THERMAL, _prior_rng(config.base_seed, i))
        assert rec.t[-1] == pytest.approx(T)
        want = alpha * np.exp(-kappa * rec.t)
        assert (np.max(np.abs(rec.truth_mean_a - want))
                <= 4 * dt * abs(alpha) ** 2)
        assert np.max(np.abs(rec.truth_mean_n
                             - np.abs(rec.truth_mean_a) ** 2)) <= 1e-7


def test_ensemble_mean_follows_damped_decay():
    # purified prior: each truth is coherent, so the ensemble mean of
    # <a> must track alpha0 e^{-(gamma/2 + i omega) t} within 3 SE
    p = ModeParams(gamma=1.0, omega=0.5)
    sc = FilterScenario(params=p, dim=32, alpha=0.5, cov=THERMAL, purify=True)
    cfg = EnsembleConfig(200, 1.0, 5e-4, 5 << 33, "mean", record_stride=40)
    res = run_ensemble(cfg, sc)
    want = 0.5 * np.exp(-(0.5 + 0.5j) * res.t)
    se = np.sqrt(res.var_truth_a / cfg.n_traj)
    assert np.all(np.abs(res.mean_truth_a - want) <= 3.0 * se)


def test_innovations_calibration_on_synthetic_wiener():
    rng = np.random.default_rng(3)
    n, T, dt = 200, 5.0, 1e-4
    steps = int(T / dt)
    dw = rng.normal(0.0, math.sqrt(dt), size=(n, steps))
    v = innovations_test(dw.sum(axis=1), (dw ** 2).sum(axis=1), T)
    assert v.passed
    assert v.mean_threshold == 3.0 * math.sqrt(T / n)
    assert v.qv_low == 0.95 and v.qv_high == 1.05
    assert 0.95 < v.qv_ratio_min < v.qv_ratio_max < 1.05


def test_innovations_detects_drift():
    rng = np.random.default_rng(4)
    n, T, dt = 200, 5.0, 1e-4
    steps = int(T / dt)
    dw = rng.normal(0.0, math.sqrt(dt), size=(n, steps)) + 0.5 * dt
    v = innovations_test(dw.sum(axis=1), (dw ** 2).sum(axis=1), T)
    assert not v.mean_ok
    assert v.qv_ok  # the drift is invisible at quadratic-variation order
    assert not v.passed


def test_innovations_input_validation():
    with pytest.raises(DomainError):
        innovations_test(np.zeros(4))
    with pytest.raises(DomainError):
        innovations_test(np.zeros(4), np.zeros(3), 1.0)
    with pytest.raises(DomainError):
        innovations_test(np.zeros(4), np.zeros(4), 0.0)


def test_innovations_from_filter_runs():
    sc = FilterScenario(params=PARAMS, dim=28, alpha=0.0, cov=THERMAL,
                        purify=True)
    cfg = EnsembleConfig(100, 1.0, 1e-4, 2 << 33, "innov", record_stride=100)
    res = run_ensemble(cfg, sc)
    v = innovations_test(res)
    assert v.mean_ok and v.qv_ok and v.passed


def test_mse_identity_vacuum_is_exact():
    sc = FilterScenario(params=PARAMS, dim=10, alpha=0.0, cov=VACUUM)
    cfg = EnsembleConfig(3, 0.05, 1e-3, 9, "vacuum", record_stride=10)
    res = run_ensemble(cfg, sc)
    ric = riccati_integrate(RiccatiState(0.0, 0.0j), 0.0, PARAMS, 1e-3, 0.05,
                            record_stride=10)
    rep = mse_vs_V(res, ric)
    assert rep.max_rel_dev == 0.0
    assert np.all(rep.mse == 0.0)
    assert np.all(rep.V == 0.0)


def test_mse_identity_thermal_prior():
    sc = FilterScenario(params=PARAMS, dim=28, alpha=0.0, cov=THERMAL,
                        purify=True)
    cfg = EnsembleConfig(200, 1.0, 5e-4, 1 << 33, "mse", record_stride=20)
    res = run_ensemble(cfg, sc)
    ric = riccati_integrate(RiccatiState(0.5, 0.0j), 0.0, PARAMS, 5e-4, 1.0,
                            record_stride=20)
    rep = mse_vs_V(res, ric)
    assert rep.max_rel_dev <= 0.10
    assert rep.window_start == 0.1
    # the ensemble estimate of the initial variance is consistent too
    assert abs(res.mse[0] - 0.5) < 3.0 * 0.5 / math.sqrt(200)


def test_mse_deviation_shrinks_with_ensemble_size():
    devs = {}
    for n in (200, 800):
        sc = FilterScenario(params=PARAMS, dim=28, alpha=0.0, cov=THERMAL,
                            purify=True)
        cfg = EnsembleConfig(n, 0.5, 5e-4, 2 << 33, "scaling",
                             record_stride=20)
        res = run_ensemble(cfg, sc)
        ric = riccati_integrate(RiccatiState(0.5, 0.0j), 0.0, PARAMS, 5e-4,
                                0.5, record_stride=20)
        devs[n] = mse_vs_V(res, ric).max_rel_dev
    ratio = devs[200] / devs[800]
    assert 2.0 / 1.6 <= ratio <= 2.0 * 1.6


def test_closed_loop_ensemble_mse_matches_the_filter_variance():
    # separation under feedback, over an ensemble: the gains act through
    # the record, so on a shared base seed the ensemble MSE under PI and
    # PID stays that of the zero-gain run (the pathwise gap is <= 1.7e-4)
    # while a_hat moves, and each MSE meets the CLI's MSE = V threshold.
    # 768 trajectories: a bootstrap of a separate 512-trajectory zero-gain
    # run (T = 0.25) put the chance of a deviation above 0.10 at 0.7 %
    # (36 % at 128).  At dt = 5e-4 the SSE norm guard fires on the
    # largest prior draw of this seed (|d| = 1.8), hence dt = 2.5e-4
    params, dt, T = ModeParams(1.0, 0.5), 2.5e-4, 0.125
    cfg = EnsembleConfig(768, T, dt, 6 << 40, "separation", record_stride=10)
    ric = riccati_integrate(THERMAL_RICCATI, 0.0, params, dt, T,
                            record_stride=10)
    runs = {}
    for gains in (PIDGains(0.0), PIDGains(2.0, 1.0), PIDGains(2.0, 1.0, 0.5)):
        sc = FilterScenario(params=params, dim=30, alpha=0.0, cov=THERMAL,
                            purify=True, gains=gains,
                            reference=ReferenceSignal("step", 1.0))
        runs[gains] = res = run_ensemble(cfg, sc)
        assert mse_vs_V(res, ric).max_rel_dev <= cli._MSE_THRESHOLD
    free = runs.pop(PIDGains(0.0))
    for res in runs.values():
        assert np.max(np.abs(res.mse - free.mse)) <= 1e-3
        assert np.max(np.abs(res.mean_a_hat - free.mean_a_hat)) >= 0.1


@pytest.mark.parametrize("gains", [PIDGains(0.0), PIDGains(2.0),
                                   PIDGains(2.0, 1.0)], ids=["0", "P", "PI"])
def test_closed_loop_mean_follows_the_transfer_function(gains):
    # the filter mean's drift is affine in (a_hat, integral error) and its
    # gain is deterministic, so E[a_hat] is the noise-free response of the
    # loop, which is the step response ys of GK / (1 + GK); by the tower
    # property E<a>_truth = E[a_hat], and on the output side, where
    # lambda = 2 sqrt(gamma) Re<a> at theta = 0 and the innovations have
    # mean 0, E[Y](t_k) = 2 sqrt(gamma) dt sum_{j<k} Re ys_j.  Gate: 4
    # sample standard errors at every record point, Re and Im apart (max z
    # 1.77 for a_hat, 0.76 for <a> and 1.74 for Y on this seed).  One
    # shard of the ensemble's prior draws per gain set.  PID is left out:
    # at this dt the SSE norm guard fires on truth 135 of this seed
    params, ref = ModeParams(1.0, 0.5), ReferenceSignal("step", 1.0)
    dt, T, stride, n_traj, base = 2.5e-4, 0.5, 40, 256, 7 << 40
    draws = [0.0 + _draw_displacement(THERMAL, _prior_rng(base, i))
             for i in range(n_traj)]
    recs = _cosim(0.0, THERMAL, gains, ref, params, 30,
                  [NoiseStream(base ^ i, dt) for i in range(n_traj)], T, dt,
                  stride, draws, VACUUM)
    ts, ys = step_response(closed_loop(plant_tf(params), pid_tf(gains)),
                           ref, T, dt)
    assert np.allclose(recs[0].t, ts[::stride], rtol=0.0, atol=1e-12)
    mean_y = 2.0 * math.sqrt(params.gamma) * dt * np.concatenate(
        [[0.0], np.cumsum(ys[:-1].real)])
    for series, want in (([r.a_hat for r in recs], ys),
                         ([r.truth_mean_a for r in recs], ys),
                         ([r.Y for r in recs], mean_y)):
        x = np.array(series)
        for part in (np.real, np.imag):
            dev = part(x).mean(axis=0) - part(want[::stride])
            se = part(x).std(axis=0, ddof=1) / math.sqrt(n_traj)
            assert np.all(np.abs(dev) <= 4.0 * se)


def test_mse_grid_mismatch_rejected():
    sc = FilterScenario(params=PARAMS, dim=10, alpha=0.0, cov=VACUUM)
    cfg = EnsembleConfig(2, 0.05, 1e-3, 9, "grid", record_stride=10)
    res = run_ensemble(cfg, sc)
    short = riccati_integrate(RiccatiState(0.0, 0.0j), 0.0, PARAMS, 1e-3,
                              0.05, record_stride=25)
    with pytest.raises(DomainError, match="grid"):
        mse_vs_V(res, short)
    shifted = riccati_integrate(RiccatiState(0.0, 0.0j, t=0.5), 0.0, PARAMS,
                                1e-3, 0.05, record_stride=10)
    with pytest.raises(DomainError, match="grid"):
        mse_vs_V(res, shifted)


def test_mse_report_rejects_negative_entries():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DomainError):
        MSEReport(t, np.full(5, -1e-3), np.ones(5), 0.0, 0.1)
    rep = MSEReport(t, np.full(5, -1e-12), np.ones(5), 0.0, 0.1)
    assert np.all(rep.mse == 0.0)
