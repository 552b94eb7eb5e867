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

from cavityfilter.control import PIDGains, ReferenceSignal, closed_loop_cosim
from cavityfilter.errors import DomainError, TruncationError
from cavityfilter.fock import CovariancePair
from cavityfilter.mc import (
    EnsembleConfig,
    FilterScenario,
    MSEReport,
    _draw_displacement,
    _worker_count,
    innovations_test,
    mse_vs_V,
    run_ensemble,
)
from cavityfilter.qkf import ModeParams, RiccatiState, riccati_integrate
from cavityfilter.trajectory import NoiseStream

PARAMS = ModeParams(gamma=1.0, omega=0.0)
VACUUM = CovariancePair(0.0, 0.0j)
THERMAL = CovariancePair(0.5, 0.0j)


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


def test_worker_count_does_not_change_bytes(monkeypatch):
    sc = FilterScenario(params=PARAMS, dim=22, alpha=0.2, cov=THERMAL,
                        purify=True)
    cfg = EnsembleConfig(6, 0.05, 1e-3, 3 << 40, "workers", record_stride=10)
    monkeypatch.setenv("QKF_THREADS", "1")
    a = run_ensemble(cfg, sc)
    monkeypatch.setenv("QKF_THREADS", "3")
    b = run_ensemble(cfg, sc)
    assert a.mean_truth_a.tobytes() == b.mean_truth_a.tobytes()
    assert a.mean_a_hat.tobytes() == b.mean_a_hat.tobytes()
    assert a.mse.tobytes() == b.mse.tobytes()
    assert a.terminal_I.tobytes() == b.terminal_I.tobytes()


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


def test_draw_displacement_moments():
    cov = CovariancePair(0.5, 0.2 + 0.1j)
    rng = np.random.default_rng(0)
    draws = np.array([_draw_displacement(cov, rng) for _ in range(40000)])
    assert abs(np.mean(np.abs(draws) ** 2) - 0.5) < 0.02
    assert abs(np.mean(draws * draws) - (0.2 + 0.1j)) < 0.02
    assert abs(np.mean(draws)) < 0.02


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
