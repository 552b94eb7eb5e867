import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfilter.classical import (
    DiffusionModel1D,
    DiscreteKalmanState,
    GridDensity,
    ScalarLGModel,
    kalman_bucy_step,
    kalman_predict,
    kalman_update,
    ks_normalize,
    zakai_grid_step,
)
from cavityfilter.errors import (
    DegenerateDensityError,
    DegenerateVarianceWarning,
    StabilityError,
)


def test_predict_identity_dynamics():
    model = ScalarLGModel(A=1.0, B=0.0, H=1.0, Q=0.0)
    assert kalman_predict(DiscreteKalmanState(3.0, 2.0), 0.0, model) == (3.0, 2.0)


def test_predict_with_control_and_noise():
    model = ScalarLGModel(A=0.5, B=1.0, H=1.0, Q=0.1)
    x_tilde, p_tilde = kalman_predict(DiscreteKalmanState(4.0, 1.0), 2.0, model)
    assert abs(x_tilde - 4.0) < 1e-15
    assert abs(p_tilde - 0.35) < 1e-15


def test_predict_memoryless_variance():
    model = ScalarLGModel(A=0.0, B=0.0, H=1.0, Q=0.7)
    for p0 in (0.1, 5.0, 100.0):
        _, p_tilde = kalman_predict(DiscreteKalmanState(0.0, p0), 0.0, model)
        assert p_tilde == 0.7


def test_update_unnormalized_form():
    model = ScalarLGModel(A=1.0, B=0.0, H=1.0, Q=0.0)
    state = kalman_update((0.0, 0.5), 1.0, model, mode="unnormalized")
    assert abs(state.x_hat - 0.5) < 1e-15
    assert abs(state.P - 0.25) < 1e-15


def test_update_no_information_when_h_zero():
    model = ScalarLGModel(A=1.0, B=0.0, H=0.0, Q=0.0)
    for mode in ("standard", "unnormalized"):
        state = kalman_update((1.5, 0.8), 3.0, model, mode=mode)
        assert state.x_hat == 1.5
        assert state.P == 0.8


def test_update_standard_is_bayes_posterior():
    model = ScalarLGModel(A=1.0, B=0.0, H=1.0, Q=0.0)
    state = kalman_update((0.0, 1.0), 2.0, model, mode="standard")
    assert abs(state.x_hat - 1.0) < 1e-15
    assert abs(state.P - 0.5) < 1e-15


def test_update_unnormalized_degenerate_warns():
    model = ScalarLGModel(A=1.0, B=0.0, H=1.0, Q=0.0)
    with pytest.warns(DegenerateVarianceWarning):
        state = kalman_update((0.0, 2.0), 1.0, model, mode="unnormalized")
    assert state.P < 0.0


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(-1.5, 1.5),
    h=st.floats(-2.0, 2.0),
    q=st.floats(0.0, 2.0),
    p0=st.floats(0.01, 3.0),
    x0=st.floats(-5.0, 5.0),
    y=st.floats(-5.0, 5.0),
)
def test_standard_update_matches_gaussian_product(a, h, q, p0, x0, y):
    # posterior of N(x~, P~) under y ~ N(Hx, 1) by precision addition
    model = ScalarLGModel(A=a, B=0.0, H=h, Q=q)
    pred = kalman_predict(DiscreteKalmanState(x0, p0), 0.0, model)
    state = kalman_update(pred, y, model, mode="standard")
    x_tilde, p_tilde = pred
    if p_tilde == 0.0:
        assert state.x_hat == x_tilde
        return
    prec = 1.0 / p_tilde + h * h
    post_var = 1.0 / prec
    post_mean = post_var * (x_tilde / p_tilde + h * y)
    assert abs(state.x_hat - post_mean) <= 1e-10 * (1.0 + abs(post_mean))
    assert abs(state.P - post_var) <= 1e-10


def test_kalman_bucy_decoupled_decay():
    model = ScalarLGModel(A=-1.0, B=0.0, H=0.0, Q=0.5)
    state = DiscreteKalmanState(2.0, 1.0)
    dt = 1e-3
    for _ in range(1000):
        state = kalman_bucy_step(state, 0.0, 0.0, dt, model)
    # x follows dx = -x dt; P follows dP = (-2P + 0.5) dt
    assert abs(state.x_hat - 2.0 * math.exp(-1.0)) < 2e-3
    p_exact = (1.0 - 0.25) * math.exp(-2.0) + 0.25
    assert abs(state.P - p_exact) < 1e-9


def test_kalman_bucy_steady_state_variance():
    # 2AP + Q - P^2 = 0 with A=-1, Q=2 has positive root sqrt(3) - 1
    model = ScalarLGModel(A=-1.0, B=0.0, H=1.0, Q=2.0)
    state = DiscreteKalmanState(0.0, 0.3)
    dt = 1e-3
    for _ in range(20000):
        state = kalman_bucy_step(state, 0.0, 0.0, dt, model)
    assert abs(state.P - (math.sqrt(3.0) - 1.0)) < 1e-6


@pytest.mark.parametrize("a,h,q,p0", [(-1.0, 1.0, 0.5, 2.0),
                                       (0.7, 2.0, 1.5, 0.05)],
                         ids=["stable-from-above", "unstable-from-below"])
def test_kalman_bucy_variance_matches_closed_form(a, h, q, p0):
    # dP/dt = 2AP + Q - H^2 P^2 = -H^2 (P - P+)(P - P-) with
    # P+- = (A +- s)/H^2, s = sqrt(A^2 + H^2 Q), so the ratio
    # (P - P+)/(P - P-) decays exactly as e^{-2st}; RK4 errs by ~dt^4
    model = ScalarLGModel(A=a, B=0.0, H=h, Q=q)
    dt, n = 1e-3, 2000
    s = math.sqrt(a * a + h * h * q)
    p_plus, p_minus = (a + s) / (h * h), (a - s) / (h * h)
    ratio0 = (p0 - p_plus) / (p0 - p_minus)
    state = DiscreteKalmanState(0.0, p0)
    worst = 0.0
    for k in range(1, n + 1):
        state = kalman_bucy_step(state, 0.0, 0.0, dt, model)
        ratio = ratio0 * math.exp(-2.0 * s * k * dt)
        exact = (p_plus - ratio * p_minus) / (1.0 - ratio)
        worst = max(worst, abs(state.P - exact))
    assert worst <= 1e-9


def test_kalman_bucy_matches_discrete_filter_variance():
    # continuous model dX = A X dt + dW, dY = H X dt + dV discretized with
    # A_d = 1 + A dt, Q_d = Q dt, H_d = H sqrt(dt), unit discrete noise
    a, h, q, dt, t_final = -0.5, 1.0, 1.0, 1e-4, 5.0
    cont = ScalarLGModel(A=a, B=0.0, H=h, Q=q)
    disc = ScalarLGModel(A=1.0 + a * dt, B=0.0, H=h * math.sqrt(dt), Q=q * dt)
    kb = DiscreteKalmanState(0.0, 0.5)
    dk = DiscreteKalmanState(0.0, 0.5)
    n = int(round(t_final / dt))
    rng = np.random.default_rng(7)
    dvs = rng.normal(0.0, math.sqrt(dt), n)
    checks = 0
    for i in range(n):
        dy = dvs[i]  # record content does not affect the variance flow
        kb = kalman_bucy_step(kb, dy, 0.0, dt, cont)
        dk = kalman_update(
            kalman_predict(dk, 0.0, disc), dy / math.sqrt(dt), disc, k=i + 1
        )
        if (i + 1) % 5000 == 0:
            assert abs(kb.P - dk.P) <= 0.02 * dk.P
            checks += 1
    assert checks == 10


def _uniform_grid(lo, hi, n):
    return np.linspace(lo, hi, n)


def test_zakai_pure_diffusion_conserves_mass():
    xs = _uniform_grid(-10.0, 10.0, 801)
    g0 = np.exp(-0.5 * xs**2) / math.sqrt(2.0 * math.pi)
    model = DiffusionModel1D(
        v=lambda x: np.zeros_like(x),
        sigma=lambda x: np.ones_like(x),
        h=lambda x: np.zeros_like(x),
    )
    grid = GridDensity(xs, g0)
    m0 = grid.mass()
    dt = 2.5e-4
    for _ in range(int(1.0 / dt)):
        grid = zakai_grid_step(grid, 0.0, dt, model)
    assert abs(grid.mass() - m0) < 1e-8


def test_zakai_cfl_violation():
    xs = _uniform_grid(-1.0, 1.0, 401)
    model = DiffusionModel1D(
        v=lambda x: np.zeros_like(x),
        sigma=lambda x: np.ones_like(x),
        h=lambda x: np.zeros_like(x),
    )
    grid = GridDensity(xs, np.ones_like(xs))
    with pytest.raises(StabilityError):
        zakai_grid_step(grid, 0.0, 1e-2, model)


def test_zakai_zero_increment_zero_dt_limit():
    xs = _uniform_grid(-5.0, 5.0, 201)
    g0 = np.exp(-(xs**2))
    model = DiffusionModel1D(
        v=lambda x: -x,
        sigma=lambda x: np.ones_like(x),
        h=lambda x: x,
    )
    grid = GridDensity(xs, g0)
    out = zakai_grid_step(grid, 0.0, 1e-12, model)
    assert np.max(np.abs(out.values - g0)) < 1e-9


def test_ks_normalize_uniform():
    xs = _uniform_grid(-1.0, 1.0, 2001)
    _, mean, var = ks_normalize(GridDensity(xs, np.ones_like(xs)))
    assert abs(mean) < 1e-12
    assert abs(var - 1.0 / 3.0) < 1e-6


def test_ks_normalize_gaussian_moments():
    xs = _uniform_grid(-10.0, 10.0, 4001)
    g = np.exp(-0.5 * (xs - 2.0) ** 2)
    _, mean, var = ks_normalize(GridDensity(xs, g))
    assert abs(mean - 2.0) < 1e-8
    assert abs(var - 1.0) < 1e-6


def test_ks_normalize_scale_invariant():
    xs = _uniform_grid(-3.0, 3.0, 301)
    g = np.exp(-(xs**2)) + 0.1
    rho1, m1, v1 = ks_normalize(GridDensity(xs, g))
    rho7, m7, v7 = ks_normalize(GridDensity(xs, 7.0 * g))
    assert np.max(np.abs(rho1.values - rho7.values)) < 1e-15
    assert abs(m1 - m7) < 1e-15 and abs(v1 - v7) < 1e-15
    # power-of-two scaling is exactly invariant
    rho8, m8, v8 = ks_normalize(GridDensity(xs, 8.0 * g))
    assert np.array_equal(rho1.values, rho8.values)
    assert m1 == m8 and v1 == v8


def test_ks_normalize_rejects_zero_mass():
    xs = _uniform_grid(-1.0, 1.0, 101)
    with pytest.raises(DegenerateDensityError):
        ks_normalize(GridDensity(xs, np.zeros_like(xs)))


def test_zakai_tracks_kalman_bucy_on_linear_model():
    # common record from a simulated truth; grid filter vs Kalman-Bucy
    a, h, q = -0.5, 1.0, 1.0
    lg = ScalarLGModel(A=a, B=0.0, H=h, Q=q)
    model = DiffusionModel1D(v=lambda x: a * x, sigma=lambda x: np.sqrt(q) * np.ones_like(x), h=lambda x: h * x)
    xs = _uniform_grid(-10.0, 10.0, 801)
    dx = xs[1] - xs[0]
    p0 = 0.5
    g = np.exp(-0.5 * xs**2 / p0) / math.sqrt(2.0 * math.pi * p0)
    grid = GridDensity(xs, g)
    kb = DiscreteKalmanState(0.0, p0)

    dt = 2.0e-4
    n = int(round(2.0 / dt))
    rng = np.random.default_rng(11)
    truth = rng.normal(0.0, math.sqrt(p0))
    for _ in range(n):
        dw, dv = rng.normal(0.0, math.sqrt(dt), 2)
        dy = h * truth * dt + dv
        truth += a * truth * dt + math.sqrt(q) * dw
        grid = zakai_grid_step(grid, dy, dt, model)
        kb = kalman_bucy_step(kb, dy, 0.0, dt, lg)
    _, mean, var = ks_normalize(grid)
    assert abs(mean - kb.x_hat) < 1e-2
    assert abs(var - kb.P) < 1e-2


def test_zakai_mean_over_noise_recovers_fokker_planck():
    # with mean-zero record increments the ensemble mean follows the
    # deterministic forward evolution
    a, q, h = -1.0, 0.5, 1.0
    model = DiffusionModel1D(
        v=lambda x: a * x,
        sigma=lambda x: math.sqrt(q) * np.ones_like(x),
        h=lambda x: h * x,
    )
    xs = _uniform_grid(-8.0, 8.0, 401)
    g0 = np.exp(-0.5 * (xs - 1.0) ** 2 / 0.3)
    g0 /= np.trapezoid(g0, dx=xs[1] - xs[0])
    dt = 2.0e-4
    n_steps = 500
    n_runs = 64
    rng = np.random.default_rng(3)

    det = GridDensity(xs, g0)
    for _ in range(n_steps):
        det = zakai_grid_step(det, 0.0, dt, model)

    acc = np.zeros_like(g0)
    runs = []
    for _ in range(n_runs):
        grid = GridDensity(xs, g0)
        dys = rng.normal(0.0, math.sqrt(dt), n_steps)
        for k in range(n_steps):
            grid = zakai_grid_step(grid, dys[k], dt, model)
        runs.append(grid.values)
        acc += grid.values
    mean_grid = acc / n_runs
    se = np.std(np.asarray(runs), axis=0, ddof=1) / math.sqrt(n_runs)
    # pointwise agreement within Monte Carlo error (plus a tiny floor)
    assert np.all(np.abs(mean_grid - det.values) <= 4.0 * se + 1e-12)
