import cmath
import math

import numpy as np
import pytest

from cavityfilter import qkf
from cavityfilter.classical import (
    DiffusionModel1D,
    DiscreteKalmanState,
    GridDensity,
    ScalarLGModel,
    kalman_bucy_step,
    zakai_grid_step,
)
from cavityfilter.control import (
    ClosedLoopState,
    PIDGains,
    ReferenceSignal,
    _cosim,
    closed_loop_cosim,
    noise_free_response,
    pid_filter_step,
)
from cavityfilter.errors import ConfigError, DivergenceError, DomainError
from cavityfilter.fock import CovariancePair, DensityOperator, coherent_state
from cavityfilter.lti import plant_tf, step_response
from cavityfilter.mc import EnsembleConfig, FilterScenario
from cavityfilter.qkf import (
    ModeParams,
    QKFState,
    RiccatiState,
    _step_count,
    optimal_quadrature_scan,
    qkf_step,
    riccati_integrate,
    riccati_rhs,
)
from cavityfilter.trajectory import (
    NoiseStream,
    TrajectoryState,
    belavkin_zakai_step,
    damped_cavity_slh,
    measurement_increment,
    run_trajectory,
    sme_step,
    sse_step,
)


@pytest.mark.parametrize("pair", [CovariancePair, RiccatiState])
@pytest.mark.parametrize("v,w,message", [
    (math.nan, 0.0j, "covariances must be finite"),
    (0.5, complex(math.inf, 0.0), "covariances must be finite"),
    (-1e-9, 0.0j, "V must be nonnegative, got -1e-09"),
], ids=["nan-V", "inf-W", "negative-V"])
def test_covariance_pairs_share_one_check(pair, v, w, message):
    # the filter's and the Fock prior's covariance pairs reject the same
    # data with the same message, and share the 1e-10 rounding floor
    with pytest.raises(DomainError) as info:
        pair(v, w)
    assert str(info.value) == message
    assert pair(-1e-11, 0.0j).V == -1e-11


def test_vacuum_is_fixed_point_for_any_phase():
    for gamma, omega in ((1.0, 0.0), (2.5, 1.3), (0.0, 0.4)):
        params = ModeParams(gamma, omega)
        for theta in (0.0, 0.3, 1.2, math.pi / 2):
            dv, dw = riccati_rhs(0.0, 0.0, theta, params)
            assert dv == 0.0
            assert dw == 0.0


def test_point_evaluation_of_v_equation():
    dv, dw = riccati_rhs(1.0, 0.0, 0.0, ModeParams(1.0, 0.0))
    assert abs(dv - (-2.0)) <= 1e-15
    assert abs(dw - (-1.0)) <= 1e-15


def test_printed_variant_first_term():
    # alternate convention puts V in the leading W-equation slot
    dv_w, dw_w = riccati_rhs(1.0, 0.5 + 0.0j, 0.0, ModeParams(1.0, 0.0), w_form="w")
    dv_v, dw_v = riccati_rhs(1.0, 0.5 + 0.0j, 0.0, ModeParams(1.0, 0.0), w_form="v")
    assert dv_w == dv_v
    assert abs((dw_w - dw_v) - (-1.0) * (0.5 - 1.0)) < 1e-15


def test_unknown_w_form_is_rejected():
    # the integrator checks the convention itself, before the first step;
    # an unknown value used to integrate the printed "v" variant silently
    params = ModeParams(1.0, 0.0)
    with pytest.raises(DomainError, match="w_form"):
        riccati_rhs(1.0, 0.5, 0.0, params, w_form="bogus")
    with pytest.raises(DomainError, match="w_form"):
        riccati_integrate(RiccatiState(1.0, 0.5), 0.0, params, 1e-3, 0.01,
                          w_form="bogus")
    w_run, v_run = (riccati_integrate(RiccatiState(1.0, 0.5), 0.0, params,
                                      1e-3, 0.01, w_form=form)[-1]
                    for form in ("w", "v"))
    assert w_run.W != v_run.W


def test_dv_is_real_by_construction():
    dv, _ = riccati_rhs(0.7, 0.2 - 0.4j, 0.9, ModeParams(1.3, 0.6))
    assert isinstance(dv, float)


def test_integrate_vacuum_stays_zero():
    series = riccati_integrate(
        RiccatiState(0.0, 0.0), 0.0, ModeParams(1.0, 0.5), 1e-3, 1.0
    )
    assert all(s.V == 0.0 and s.W == 0.0 for s in series)


def test_integrate_thermal_reaches_steady_state():
    params = ModeParams(1.0, 0.0)
    series = riccati_integrate(RiccatiState(0.5, 0.0), 0.0, params, 1e-3, 20.0)
    vs = [s.V for s in series]
    assert all(b <= a + 1e-15 for a, b in zip(vs, vs[1:]))  # decreasing
    final = series[-1]
    dv, dw = riccati_rhs(final.V, final.W, 0.0, params)
    assert abs(dv) <= 1e-9
    assert abs(dw) <= 1e-9


def test_integrate_keeps_v_nonnegative_for_physical_data():
    params = ModeParams(1.0, 0.8)
    for v0, w0 in ((0.5, 0.0), (1.0, 0.9j), (0.3, 0.3 + 0.4j), (2.0, -1.5)):
        assert v0 * (v0 + 1.0) >= abs(w0) ** 2  # physical input
        for theta in (0.0, 0.7):
            series = riccati_integrate(
                RiccatiState(v0, w0), theta, params, 1e-3, 5.0
            )
            assert min(s.V for s in series) >= -1e-10


def _untilted_closed_form(v0, w0, gamma, t):
    """(V, W)(t) at omega = 0, theta = 0 and real W0: u = V + W obeys
    du/dt = -gamma u - 2 gamma u^2, and V - W decays as e^{-gamma t}."""
    decay = np.exp(-gamma * np.asarray(t))
    u = (v0 + w0) * decay / (1.0 + 2.0 * (v0 + w0) * (1.0 - decay))
    d = (v0 - w0) * decay
    return 0.5 * (u + d), 0.5 * (u - d)


@pytest.mark.parametrize("v0,w0,gamma", [(0.5, 0.0, 1.0), (1.2, 0.3, 2.5)])
def test_untilted_riccati_matches_closed_form(v0, w0, gamma):
    # RK4 at dt = 1e-3 reads 1e-14 and 2.4e-11 against the exact pair
    params = ModeParams(gamma, 0.0)
    series = riccati_integrate(RiccatiState(v0, w0), 0.0, params, 1e-3, 2.0)
    v_ref, w_ref = _untilted_closed_form(v0, w0, gamma, [s.t for s in series])
    assert np.max(np.abs(np.array([s.V for s in series]) - v_ref)) < 1e-9
    assert np.max(np.abs(np.array([s.W for s in series]) - w_ref)) < 1e-9
    # the co-simulation advances the same pair once per step under PID
    # feedback, whose Xi gain reads it
    rec = closed_loop_cosim(0.0, CovariancePair(v0, w0),
                            PIDGains(2.0, 1.0, 0.5),
                            ReferenceSignal("step", 0.3), params, 12,
                            NoiseStream(11, 1e-3), 2.0, 1e-3,
                            record_stride=50,
                            truth_cov=CovariancePair(0.0, 0.0j))
    v_ref, w_ref = _untilted_closed_form(v0, w0, gamma, rec.t)
    assert np.max(np.abs(rec.V - v_ref)) < 1e-9
    assert np.max(np.abs(rec.W - w_ref)) < 1e-9


def _linear_fractional_pair(v0, w0, gamma, omega, theta, t):
    """Exact (V, W)(t) from the Hamiltonian-matrix exponential (Davison &
    Maki, IEEE TAC 18, 1973).  In the quadratures of the measured phase,
    N = [[V + Re W_th, Im W_th], [Im W_th, V - Re W_th]] with
    W_th = e^{2i theta} W obeys dN/dt = A N + N A' - N S N, which is solved
    by N = Y X^-1 with [X; Y](t) = expm(t [[-A', S], [0, A]]) [I; N0]."""
    from scipy.linalg import expm  # on first use: start-up stays scipy-free

    w_th = cmath.exp(2j * theta) * w0
    n0 = np.array([[v0 + w_th.real, w_th.imag], [w_th.imag, v0 - w_th.real]])
    a = np.array([[-0.5 * gamma, omega], [-omega, -0.5 * gamma]])
    ham = np.block([[-a.T, np.diag([2.0 * gamma, 0.0])],
                    [np.zeros((2, 2)), a]])
    v, w = [], []
    for tk in t:
        xy = expm(tk * ham) @ np.vstack([np.eye(2), n0])
        n = xy[2:] @ np.linalg.inv(xy[:2])
        v.append(0.5 * (n[0, 0] + n[1, 1]))
        w.append(cmath.exp(-2j * theta)
                 * complex(0.5 * (n[0, 0] - n[1, 1]), n[0, 1]))
    return np.array(v), np.array(w)


@pytest.mark.parametrize("v0,w0,gamma,omega,theta", [
    (0.5, 0.0, 1.0, 0.7, 0.0),
    (1.2, 0.3 - 0.4j, 2.5, -1.3, 0.6),
    (0.8, 0.2j, 1.0, 0.5, 1.1),
])
def test_tilted_riccati_matches_linear_fractional_solution(v0, w0, gamma,
                                                           omega, theta):
    # RK4 at dt = 1e-3 reads 2.5e-14, 2.9e-11 and 5.4e-14 against it
    series = riccati_integrate(RiccatiState(v0, w0), theta,
                               ModeParams(gamma, omega), 1e-3, 2.0,
                               record_stride=100)
    v_ref, w_ref = _linear_fractional_pair(v0, w0, gamma, omega, theta,
                                           [s.t for s in series])
    assert np.max(np.abs(np.array([s.V for s in series]) - v_ref)) < 1e-9
    assert np.max(np.abs(np.array([s.W for s in series]) - w_ref)) < 1e-9


@pytest.mark.parametrize("v0,w0,gamma,omega,theta,dt,T", [
    (0.5, 0.0, 1.0, 0.7, 0.0, 1e-3, 2.0),
    (1.2, 0.3 - 0.4j, 2.5, -1.3, 0.6, 1e-3, 2.0),
    (0.8, 0.2j, 1.0, 0.5, 1.1, 1e-3, 2.0),
    (0.8, 0.2j, 0.0, 0.5, 1.1, 1e-3, 2.0),  # gamma = 0: G = 0, a rotation
    (0.8, 0.2j, 0.0, 0.0, 0.3, 1e-3, 2.0),  # gamma = omega = 0: at rest
    (0.9, 0.3 + 0.2j, 1.5, 0.4, 0.2, 1e-2, 40.0),  # gamma T = 60
])
def test_covariance_path_is_the_linear_fractional_solution(v0, w0, gamma,
                                                           omega, theta, dt,
                                                           T):
    # the exact pair, within 1e-13 of the oracle (RK4 at dt = 1e-4 reads
    # at most 1.5e-15 from it); finite over any horizon, and no 0/0 at
    # gamma = 0 (pytest turns the RuntimeWarning into an error)
    ks = np.arange(0, int(round(T / dt)) + 1, 50)
    (k, v, w), = qkf._covariance_path(v0, w0, theta, ModeParams(gamma, omega),
                                      dt, [ks])
    assert np.array_equal(k, ks)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(w))
    assert (v[0], w[0]) == (v0, w0)
    v_ref, w_ref = _linear_fractional_pair(v0, w0, gamma, omega, theta,
                                           ks * dt)
    assert np.max(np.abs(v - v_ref)) <= 1e-13
    assert np.max(np.abs(w - w_ref)) <= 1e-13


def test_covariance_path_entry_depends_on_its_step_alone():
    # entry k has the same bits whatever the blocks, their boundaries or
    # the other steps asked for; riccati_integrate's record points, at any
    # run length and stride, are those entries
    params, dt = ModeParams(1.3, 0.7), 1e-3
    (_, v, w), = qkf._covariance_path(0.9, 0.2j, 0.4, params, dt,
                                      [np.arange(3001)])
    requests = [list(qkf._step_blocks(0, 3001)),
                [np.arange(0, 1000), np.arange(1000, 3001)],
                [np.arange(7, 3001, 13)], [np.array([2999, 5, 1500, 0])]]
    for blocks in requests:
        for k, v_k, w_k in qkf._covariance_path(0.9, 0.2j, 0.4, params, dt,
                                                blocks):
            assert np.array_equal(v_k, v[k]) and np.array_equal(w_k, w[k])
    for n, stride in ((500, 1), (3000, 100), (1234, 617), (2049, 2049)):
        series = riccati_integrate(RiccatiState(0.9, 0.2j), 0.4, params, dt,
                                   n * dt, record_stride=stride)
        ks = list(range(0, n + 1, stride))
        assert [s.t for s in series] == [k * dt for k in ks]
        got_v, got_w = _pair_columns(series)
        assert np.array_equal(got_v, v[ks]) and np.array_equal(got_w, w[ks])


@pytest.mark.parametrize("stride", [1, 2100])
def test_covariance_path_fails_at_the_step_rk4_fails(stride):
    # from the unphysical start (0.5, -1.5) RK4 (a callable phase) drives V
    # below the floor at step 288; the exact path raises the same error at
    # the same step whatever the stride, and the co-simulation at the end
    # of its step 287, where RK4 raised it
    pattern = (r"V must be nonnegative, got -0\.00071567842\d* at step 288 "
               r"\(t=0\.288")
    for theta in (0.0, lambda t: 0.0):
        with pytest.raises(DomainError, match="^" + pattern):
            riccati_integrate(RiccatiState(0.5, -1.5), theta, ModeParams(1.0),
                              1e-3, 2.1, record_stride=stride)
    with pytest.raises(DomainError, match=r"^step 287 \(t=0\.287\): "
                       + pattern):
        closed_loop_cosim(0.1, CovariancePair(0.5, -1.5), PIDGains(0.0),
                          ReferenceSignal("step", 0.3), ModeParams(1.0), 8,
                          NoiseStream(3, 1e-3), 0.5, 1e-3,
                          record_stride=min(stride, 500),
                          truth_cov=CovariancePair(0.0, 0.0j))


def test_covariance_path_past_the_blow_up_is_a_divergence():
    # from (0.5, -1.5) the exact flow blows up at t = ln 2; a step that
    # jumps past it lands on a finite branch with V > 0, which the
    # det(I + G N0) > 0 check rejects
    with pytest.raises(DivergenceError, match=r"^covariance integration "
                       r"diverged at step 1 \(t=1\.0\)$"):
        riccati_integrate(RiccatiState(0.5, -1.5), 0.0, ModeParams(1.0), 1.0,
                          2.0)


def _pair_columns(series):
    return np.array([s.V for s in series]), np.array([s.W for s in series])


def test_every_filter_advances_the_pair_by_one_recursion():
    # the co-simulation (one truth and a shard of three) and
    # riccati_integrate read the same bits of the exact path; the qkf_step
    # and pid_filter_step chains take RK4 steps, within 1e-12 of it
    # (3.2e-13 at dt = 1e-3)
    params, dt, cov = ModeParams(1.3, 0.7), 1e-3, CovariancePair(0.9, 0.2j)
    gains, ref = PIDGains(2.0, 1.0, 0.5), ReferenceSignal("step", 0.3)
    v_ref, w_ref = _pair_columns(riccati_integrate(
        RiccatiState(cov.V, cov.W), 0.0, params, dt, 0.2, record_stride=10))
    rec = closed_loop_cosim(0.2, cov, gains, ref, params, 12,
                            NoiseStream(5, dt), 0.2, dt, record_stride=10,
                            truth_cov=CovariancePair(0.0, 0.0j))
    assert np.array_equal(rec.V, v_ref) and np.array_equal(rec.W, w_ref)
    recs = _cosim(0.2, cov, gains, ref, params, 12,
                  [NoiseStream(s, dt) for s in (1, 2, 3)], 0.2, dt, 10,
                  [0.1, 0.2j, -0.3], CovariancePair(0.0, 0.0j))
    cfg = EnsembleConfig(3, 0.2, dt, 7 << 40, "pair", record_stride=10)
    scenario = FilterScenario(params=params, dim=20, alpha=0.2,
                              cov=CovariancePair(0.3, 0.1), purify=True,
                              gains=gains, reference=ref)
    samples = scenario.shard(cfg, range(3), [NoiseStream(s, dt)
                                            for s in (1, 2, 3)])
    v_real, _ = _pair_columns(riccati_integrate(
        RiccatiState(0.3, 0.1), 0.0, params, dt, 0.2, record_stride=10))
    for r, s in zip(recs, samples):
        assert np.array_equal(r.V, v_ref) and np.array_equal(r.W, w_ref)
        assert np.array_equal(s.V, v_real)

    rng = np.random.default_rng(8)
    v_tilt, w_tilt = _pair_columns(riccati_integrate(
        RiccatiState(cov.V, cov.W, 0.25), 0.4, params, dt, 0.2))
    v_zero, w_zero = _pair_columns(riccati_integrate(
        RiccatiState(cov.V, cov.W), 0.0, params, dt, 0.2))
    state = QKFState(0.1, RiccatiState(cov.V, cov.W, 0.25))
    loop = ClosedLoopState(QKFState(0.1, RiccatiState(cov.V, cov.W)))
    for k in range(1, 201):
        dI = float(rng.normal(0.0, math.sqrt(dt)))
        state = qkf_step(state, dI, 0.0, 0.4, params, dt)
        loop = pid_filter_step(loop, dI, gains, ref, params, dt)
        assert abs(state.riccati.V - v_tilt[k]) <= 1e-12
        assert abs(state.riccati.W - w_tilt[k]) <= 1e-12
        ric = loop.filter.riccati
        assert abs(ric.V - v_zero[k]) <= 1e-12
        assert abs(ric.W - w_zero[k]) <= 1e-12


def test_constant_phase_is_resolved_once(monkeypatch):
    calls = []

    def counted(theta):
        calls.append(theta)
        return phases(theta)

    phases = qkf._phases
    monkeypatch.setattr(qkf, "_phases", counted)
    riccati_integrate(RiccatiState(0.8, 0.1j), 0.3, ModeParams(1.0, 0.5),
                      1e-3, 0.1)
    assert calls == [0.3]


def test_integrate_divergence_detected():
    with pytest.raises(DivergenceError, match=r"^covariance integration "
                       r"diverged at step 1 \(t=0\.001\)$"):
        riccati_integrate(
            RiccatiState(0.0, 1e200 + 0j), 0.0, ModeParams(1.0, 0.0), 1e-3, 1.0
        )


@pytest.mark.parametrize("stride", [1, 2100])
def test_v_form_leaving_the_nonnegative_range_names_its_step(stride):
    # the printed "v" variant drives V below the -1e-10 floor on physical
    # data; the recursion names the step whatever the record stride
    with pytest.raises(DomainError, match=r"^V must be nonnegative, got "
                       r"-0\.000117\d* at step 1137 \(t=1\.137\)$"):
        riccati_integrate(RiccatiState(0.8, 0.2 - 0.1j), 0.0,
                          ModeParams(1.3, 0.7), 1e-3, 2.1, w_form="v",
                          record_stride=stride)


def test_integrate_callable_theta_matches_constant():
    # a callable phase takes RK4 steps, a constant one the exact path:
    # within 1e-12 of each other (1.1e-13 at dt = 1e-3), on the same grid
    params = ModeParams(1.2, 0.4)
    a = riccati_integrate(RiccatiState(0.8, 0.1j), 0.3, params, 1e-3, 2.0)
    b = riccati_integrate(RiccatiState(0.8, 0.1j), lambda t: 0.3, params, 1e-3, 2.0)
    assert len(a) == len(b)
    assert all(
        abs(x.V - y.V) <= 1e-12 and abs(x.W - y.W) <= 1e-12 and x.t == y.t
        for x, y in zip(a, b)
    )


def test_integrate_rejects_bad_grid():
    with pytest.raises(DomainError):
        riccati_integrate(RiccatiState(0.0, 0.0), 0.0, ModeParams(1.0), 3e-3, 1.0)


def test_qkf_step_vacuum_filter_is_deterministic_decay():
    params = ModeParams(1.0, 0.7)
    dt = 1e-3
    state = QKFState(0.5 + 0.2j, RiccatiState(0.0, 0.0))
    rng = np.random.default_rng(5)
    for k in range(1000):
        # nonzero innovations must not couple when V = W = 0
        state = qkf_step(state, float(rng.normal(0, math.sqrt(dt))), 0.0, 0.0, params, dt)
    expected = (0.5 + 0.2j) * cmath.exp(-(0.5 + 0.7j) * 1.0)
    assert abs(state.a_hat - expected) < 2e-3
    assert state.riccati.V == 0.0


def test_qkf_step_constant_drive_fixed_point():
    params = ModeParams(1.0, 0.0)
    beta = 0.4
    dt = 1e-3
    state = QKFState(0.0, RiccatiState(0.0, 0.0))
    for _ in range(30000):
        state = qkf_step(state, 0.0, beta, 0.0, params, dt)
    assert abs(state.a_hat - 2.0 * beta / params.gamma) < 1e-6


def test_qkf_step_advances_time():
    state = QKFState(0.0, RiccatiState(0.5, 0.0, 1.0))
    out = qkf_step(state, 0.0, 0.0, 0.0, ModeParams(1.0), 1e-2)
    assert abs(out.riccati.t - 1.01) < 1e-15


def test_scan_vacuum_tie_breaks_to_zero():
    theta_star, v_list = optimal_quadrature_scan(
        ModeParams(1.0, 0.0), RiccatiState(0.0, 0.0), 1.0, [0.9, 0.0, 2.1]
    )
    assert theta_star == 0.0
    assert v_list == [0.0, 0.0, 0.0]


def test_scan_returns_grid_argmin():
    params = ModeParams(1.0, 0.0)
    initial = RiccatiState(1.0, 0.3)
    grid = [k * math.pi / 16 for k in range(16)]
    theta_star, v_list = optimal_quadrature_scan(params, initial, 3.0, grid)
    assert min(v_list) == v_list[grid.index(theta_star)]


def test_scan_matches_fine_grid_bruteforce():
    params = ModeParams(1.0, 0.0)
    initial = RiccatiState(1.0, 0.3)
    coarse = [k * math.pi / 16 for k in range(16)]
    fine = [k * math.pi / 160 for k in range(160)]
    th_coarse, _ = optimal_quadrature_scan(params, initial, 3.0, coarse)
    th_fine, _ = optimal_quadrature_scan(params, initial, 3.0, fine)
    assert abs(th_coarse - th_fine) <= math.pi / 16 + 1e-12


def test_step_grid_messages_and_zero_horizon():
    # one grid check serves every integrator; its messages are the
    # ones each call site raised on its own before
    with pytest.raises(DomainError, match=r"^dt must be positive, got 0\.0$"):
        _step_count(1.0, 0.0)
    with pytest.raises(DomainError,
                       match=r"^dt=0\.0003 does not divide T=1\.0$"):
        _step_count(1.0, 3e-4)
    with pytest.raises(DomainError,
                       match=r"^record_stride=7 does not divide 1000 steps$"):
        _step_count(1.0, 1e-3, 7)
    assert _step_count(1.0, 1e-3, 10) == 1000
    with pytest.raises(DomainError, match="does not divide T=0"):
        _step_count(0.0, 1e-3)
    # the Riccati integrator alone accepts an empty horizon
    series = riccati_integrate(RiccatiState(0.5, 0.0), 0.0, ModeParams(1.0),
                               1e-3, 0.0)
    assert series == [RiccatiState(0.5, 0.0)]


_CONSUMERS = {
    "riccati_integrate": lambda T, dt: riccati_integrate(
        RiccatiState(0.5, 0.0), 0.0, ModeParams(1.0), dt, T),
    "run_trajectory": lambda T, dt: run_trajectory(
        coherent_state(0.1, 6), damped_cavity_slh(ModeParams(1.0), 6), 0.0,
        NoiseStream(0, dt), T, dt),
    "closed_loop_cosim": lambda T, dt: closed_loop_cosim(
        0.1, CovariancePair(0.0, 0.0), PIDGains(1.0), ReferenceSignal("step"),
        ModeParams(1.0), 6, NoiseStream(0, dt), T, dt),
    "EnsembleConfig": lambda T, dt: EnsembleConfig(4, T, dt, 1, "x"),
    "step_response": lambda T, dt: step_response(
        plant_tf(ModeParams(1.0)), ReferenceSignal("step"), T, dt),
    "noise_free_response": lambda T, dt: noise_free_response(
        PIDGains(1.0), ReferenceSignal("step"), ModeParams(1.0), T, dt),
}


@pytest.mark.parametrize("T, dt", [(math.inf, 1e-3), (math.nan, 1e-3),
                                   (1.0, math.nan), (1.0, math.inf)])
@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
def test_non_finite_grid_is_a_domain_error(consumer, T, dt):
    # int(round(T / dt)) would raise OverflowError or ValueError instead
    with pytest.raises(DomainError, match="must be finite$"):
        _CONSUMERS[consumer](T, dt)


def test_non_finite_grid_takes_the_callers_error_type():
    with pytest.raises(ConfigError,
                       match=r"^T=inf and dt=0\.001 must be finite$"):
        _step_count(math.inf, 1e-3, error=ConfigError)


@pytest.mark.parametrize("build", [
    lambda: ModeParams(math.nan),
    lambda: ModeParams(math.inf),
    lambda: ModeParams(1.0, omega=math.inf),
    lambda: ModeParams(1.0, omega=math.nan),
    lambda: RiccatiState(math.nan, 0.0),
    lambda: RiccatiState(math.inf, 0.0),
    lambda: RiccatiState(0.5, complex(0.0, math.nan)),
])
def test_non_finite_parameters_are_rejected_at_construction(build):
    with pytest.raises(DomainError, match="must be finite"):
        build()


_PSI = coherent_state(0.2, 8)
_SLH = damped_cavity_slh(ModeParams(1.0, 0.3), 8)
_GRID = np.linspace(-1.0, 1.0, 41)
_SINGLE_STEPS = {
    "sse_step": lambda dt: sse_step(
        TrajectoryState(0.0, 0.0, 0.0, psi=_PSI), _SLH, 0.0, 0.0, dt),
    "sme_step": lambda dt: sme_step(
        TrajectoryState(0.0, 0.0, 0.0, rho=DensityOperator(
            8, np.outer(_PSI.amplitudes, _PSI.amplitudes.conj()))),
        _SLH, 0.0, 0.0, dt),
    "belavkin_zakai_step": lambda dt: belavkin_zakai_step(
        TrajectoryState(0.0, 0.0, 0.0, chi=_PSI), _SLH, 0.0, dt),
    "measurement_increment": lambda dt: measurement_increment(
        TrajectoryState(0.0, 0.0, 0.0, psi=_PSI), _SLH, 0.0, 0.0, dt),
    "qkf_step": lambda dt: qkf_step(
        QKFState(0.1, RiccatiState(0.5, 0.0)), 0.0, 0.0, 0.0,
        ModeParams(1.0), dt),
    "pid_filter_step": lambda dt: pid_filter_step(
        ClosedLoopState(QKFState(0.1, RiccatiState(0.5, 0.0))), 0.0,
        PIDGains(1.0), ReferenceSignal("step"), ModeParams(1.0), dt),
    "kalman_bucy_step": lambda dt: kalman_bucy_step(
        DiscreteKalmanState(0.1, 0.5), 0.0, 0.0, dt,
        ScalarLGModel(A=-1.0, B=0.0, H=1.0, Q=0.5)),
    "zakai_grid_step": lambda dt: zakai_grid_step(
        GridDensity(_GRID, np.exp(-_GRID ** 2)), 0.0, dt,
        DiffusionModel1D(lambda x: -x, lambda x: 0.1 + 0.0 * x,
                         lambda x: x)),
}


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("step", sorted(_SINGLE_STEPS))
def test_single_steps_share_one_dt_check(step, dt):
    # one check, the same error and message for every public single step;
    # a non-finite dt once returned NaN silently or failed in a later guard
    _SINGLE_STEPS[step](1e-3)
    with pytest.raises(DomainError,
                       match=r"^dt must be positive and finite, got "):
        _SINGLE_STEPS[step](dt)
