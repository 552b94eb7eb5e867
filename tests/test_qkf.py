import cmath
import math

import numpy as np
import pytest

from cavityfilter.errors import DivergenceError, DomainError
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


def test_integrate_divergence_detected():
    with pytest.raises(DivergenceError):
        riccati_integrate(
            RiccatiState(0.0, 1e200 + 0j), 0.0, ModeParams(1.0, 0.0), 1e-3, 1.0
        )


def test_integrate_callable_theta_matches_constant():
    params = ModeParams(1.2, 0.4)
    a = riccati_integrate(RiccatiState(0.8, 0.1j), 0.3, params, 1e-3, 2.0)
    b = riccati_integrate(RiccatiState(0.8, 0.1j), lambda t: 0.3, params, 1e-3, 2.0)
    assert all(
        x.V == y.V and x.W == y.W and x.t == y.t for x, y in zip(a, b)
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
