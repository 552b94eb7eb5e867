"""Transfer-function algebra, pole placement, and realization checks."""

import cmath

import numpy as np
import pytest

from cavityfilter.control import (
    PIDGains,
    ReferenceSignal,
    _reference_at,
    noise_free_response,
)
from cavityfilter.errors import (
    AlgebraError,
    DomainError,
    InfeasibleGainError,
    PoleEvaluationError,
)
from cavityfilter.lti import (
    RationalTF,
    closed_loop,
    freq_response,
    pid_tf,
    plant_tf,
    pole_place_pi,
    realize,
    setpoint_tf,
    step_response,
)
from cavityfilter.qkf import ModeParams, _rk4_linear


def test_rational_tf_eval_matches_polyval():
    rng = np.random.default_rng(11)
    num = tuple(complex(a, b) for a, b in rng.normal(size=(3, 2)))
    den = tuple(complex(a, b) for a, b in rng.normal(size=(4, 2)))
    tf = RationalTF(num, den)
    for _ in range(20):
        s = complex(rng.normal(), rng.normal())
        want = np.polyval(list(reversed(num)), s) / np.polyval(list(reversed(den)), s)
        assert abs(tf(s) - want) < 1e-12 * max(1.0, abs(want))


def test_rational_tf_trims_trailing_coefficients():
    tf = RationalTF((1.0, 2.0, 0.0), (1.0, 1e-15))
    assert tf.num == (1.0 + 0.0j, 2.0 + 0.0j)
    assert tf.den == (1.0 + 0.0j,)
    assert tf.num_degree == 1
    assert tf.den_degree == 0


def test_rational_tf_zero_denominator_rejected():
    with pytest.raises(AlgebraError):
        RationalTF((1.0,), (0.0, 0.0))


def test_poles_linear_and_quadratic():
    assert RationalTF((1.0,), (2.0 + 1.0j, 1.0)).poles() == [-2.0 - 1.0j]
    # (s+1)^2: dyadic coefficients, double root comes out exact
    roots = RationalTF((1.0,), (1.0, 2.0, 1.0)).poles()
    assert sorted(r.real for r in roots) == [-1.0, -1.0]
    assert all(r.imag == 0.0 for r in roots)


def test_poles_quadratic_cancellation_safe():
    # widely split roots: naive formula loses the small one
    tf = RationalTF((1.0,), (1.0, 1e8, 1.0))
    small = min(tf.poles(), key=abs)
    assert abs(small - (-1e-8)) < 1e-20


def test_poles_cubic_against_numpy():
    tf = RationalTF((1.0,), (6.0, 11.0, 6.0, 1.0))
    got = sorted(tf.poles(), key=lambda r: r.real)
    for r, want in zip(got, (-3.0, -2.0, -1.0)):
        assert abs(r - want) < 1e-9


def test_zeros():
    tf = RationalTF((2.0, 2.0), (1.0, 3.0, 1.0))
    assert tf.zeros() == [-1.0 - 0.0j]
    assert RationalTF((0.0,), (1.0, 1.0)).zeros() == []


def test_plant_tf_coefficients():
    g = plant_tf(ModeParams(gamma=1.0, omega=0.5))
    assert g.num == (1.0 + 0.0j,)
    assert abs(g.den[0] - (0.5 + 0.5j)) <= 1e-12
    assert abs(g.den[1] - 1.0) <= 1e-12
    s = 0.3 + 0.7j
    assert abs(g(s) - 1.0 / (s + 0.5 + 0.5j)) < 1e-15


def test_pid_tf_value_and_collapse():
    k = pid_tf(PIDGains(1.0, 2.0, 3.0))
    assert abs(k(1.0) - 6.0) < 1e-15
    assert k.den == (0.0 + 0.0j, 1.0 + 0.0j)
    # k_I = 0 removes the integrator pole entirely
    kp = pid_tf(PIDGains(2.0, 0.0, 0.5))
    assert kp.den == (1.0 + 0.0j,)
    assert kp.num == (2.0 + 0.0j, 0.5 + 0.0j)
    assert pid_tf(PIDGains(2.0)).num == (2.0 + 0.0j,)


def test_closed_loop_pointwise():
    g = plant_tf(ModeParams(gamma=1.0, omega=0.5))
    k = pid_tf(PIDGains(2.0, 1.0, 0.5))
    h = closed_loop(g, k)
    rng = np.random.default_rng(5)
    for _ in range(32):
        s = 3.0 * complex(rng.normal(), rng.normal())
        gk = g(s) * k(s)
        assert abs(h(s) - gk / (1.0 + gk)) < 1e-10


def test_closed_loop_dc_values():
    p = ModeParams(gamma=1.0, omega=0.5)
    g = plant_tf(p)
    hp = closed_loop(g, pid_tf(PIDGains(2.0)))
    assert abs(hp(0.0) - 2.0 / (2.0 + 0.5 + 0.5j)) <= 1e-12
    hpi = closed_loop(g, pid_tf(PIDGains(2.0, 1.0)))
    assert abs(hpi(0.0) - 1.0) <= 1e-12


def test_closed_loop_cancels_shared_integrator_factor():
    g = RationalTF((0.0, 1.0), (1.0, 1.0))  # s/(s+1)
    k = RationalTF((1.0,), (0.0, 1.0))      # 1/s
    h = closed_loop(g, k)
    assert h.num == (1.0 + 0.0j,)
    assert h.den == (2.0 + 0.0j, 1.0 + 0.0j)


def test_closed_loop_singular_rejected():
    g = RationalTF((-1.0,), (1.0,))
    k = RationalTF((1.0,), (1.0,))
    with pytest.raises(AlgebraError, match="singular"):
        closed_loop(g, k)


def test_setpoint_tf_matches_closed_loop_at_unit_weight():
    p = ModeParams(gamma=1.0, omega=0.5)
    gains = PIDGains(2.0, 1.0)
    h = closed_loop(plant_tf(p), pid_tf(gains))
    sp = setpoint_tf(gains, p)
    rng = np.random.default_rng(3)
    for _ in range(16):
        s = 2.0 * complex(rng.normal(), rng.normal())
        assert abs(sp(s) - h(s)) < 1e-12


def test_setpoint_weight_scales_proportional_zero_only():
    p = ModeParams(gamma=1.0, omega=0.0)
    lo = setpoint_tf(PIDGains(2.0, 1.0, mu=0.5), p)
    hi = setpoint_tf(PIDGains(2.0, 1.0, mu=1.0), p)
    assert lo.den == hi.den
    assert abs(lo.num[1] - 0.5 * hi.num[1]) < 1e-15
    assert lo.num[0] == hi.num[0]
    with pytest.raises(DomainError):
        setpoint_tf(PIDGains(1.0, 1.0, 0.5), p)


def test_pole_place_pi_critical_damping():
    gains = pole_place_pi(1.0, 1.0, ModeParams(gamma=2.0, omega=0.0))
    assert gains.k_P == 1.0
    assert gains.k_I == 1.0
    assert gains.k_D == 0.0
    h = closed_loop(plant_tf(ModeParams(gamma=2.0, omega=0.0)), pid_tf(gains))
    for r in h.poles():
        assert abs(r - (-1.0)) <= 1e-9


def test_pole_place_pi_undamped_plant():
    gains = pole_place_pi(0.5, 2.0, ModeParams(gamma=0.0, omega=0.0))
    assert gains.k_P == 2.0
    assert gains.k_I == 4.0


def test_pole_place_pi_denominator_coefficients():
    zeta, om0, gamma = 0.7, 3.0, 1.0
    p = ModeParams(gamma=gamma, omega=0.0)
    gains = pole_place_pi(zeta, om0, p)
    h = closed_loop(plant_tf(p), pid_tf(gains))
    lead = h.den[-1]
    assert abs(h.den[0] / lead - om0 * om0) <= 1e-12
    assert abs(h.den[1] / lead - 2.0 * zeta * om0) <= 1e-12
    assert abs(lead - 1.0) <= 1e-12


def test_pole_place_pi_validation():
    with pytest.raises(InfeasibleGainError):
        pole_place_pi(0.1, 0.1, ModeParams(gamma=10.0, omega=0.0))
    with pytest.raises(DomainError):
        pole_place_pi(1.0, 1.0, ModeParams(gamma=1.0, omega=0.5))
    with pytest.raises(DomainError):
        pole_place_pi(-1.0, 1.0, ModeParams(gamma=1.0, omega=0.0))
    with pytest.raises(DomainError):
        pole_place_pi(1.0, 0.0, ModeParams(gamma=1.0, omega=0.0))


def test_freq_response_values_and_asymmetry():
    g = plant_tf(ModeParams(gamma=1.0, omega=0.5))
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    vals = freq_response(g, grid)
    for om, v in zip(grid, vals):
        assert abs(v - g(1j * om)) < 1e-15
    # complex coefficients break the usual mirror symmetry of |G|
    assert abs(abs(vals[1]) - abs(vals[3])) > 0.1
    g0 = plant_tf(ModeParams(gamma=1.0, omega=0.0))
    v0 = freq_response(g0, grid)
    assert abs(abs(v0[1]) - abs(v0[3])) < 1e-15


def test_freq_response_pole_on_grid():
    k = pid_tf(PIDGains(1.0, 1.0))
    with pytest.raises(PoleEvaluationError, match="0.0"):
        freq_response(k, [1.0, 0.0])


def _tf_grid():
    """The frequency grid of ``cli tf``."""
    return sorted(float(np.copysign(0.05 + 0.1 * j, side))
                  for side in (-1.0, 1.0) for j in range(320))


@pytest.mark.parametrize("k_p, k_i, k_d, omega", [
    (2.0, 1.0, 0.5, 0.5), (50.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.5),
    (1000.0, 0.0, 0.0, 0.0), (2.0, 1.0, 0.0, -0.3), (0.5, 3.0, 2.0, 1.0),
    (10.0, 100.0, 0.0, 0.0), (0.0, 0.0, 100.0, 0.5)])
def test_freq_response_is_the_pointwise_evaluation(k_p, k_i, k_d, omega):
    # plant, controller and loop on the cli tf grid, each value within
    # 2 eps (relative) of RationalTF.__call__ at s = i Omega
    g = plant_tf(ModeParams(1.0, omega))
    k = pid_tf(PIDGains(k_p, k_i, k_d))
    grid = _tf_grid()
    for tf in (g, k, closed_loop(g, k)):
        got = freq_response(tf, grid)
        assert all(type(v) is complex for v in got)
        want = np.array([tf(1j * om) for om in grid])
        assert np.all(np.abs(np.array(got) - want)
                      <= 2.0 * np.finfo(float).eps * np.abs(want))


def test_freq_response_raises_at_the_first_pole_in_grid_order():
    two_poles = RationalTF((1.0,), (4.0, 0.0, 1.0))  # s = +-2i
    for grid, first in (([3.0, 2.0, 1.0, -2.0], 2.0),
                        ([-2.0, 0.5, 2.0], -2.0)):
        with pytest.raises(PoleEvaluationError) as info:
            freq_response(two_poles, grid)
        assert str(info.value) == (
            f"pole on the evaluation grid at Omega={first!r}")


def test_freq_response_of_an_empty_grid_is_empty():
    assert freq_response(plant_tf(ModeParams(1.0, 0.5)), []) == []


def test_realize_reconstructs_transfer_function():
    p = ModeParams(gamma=1.0, omega=0.5)
    cases = [
        plant_tf(p),
        pid_tf(PIDGains(2.0, 1.0, 0.5)),
        closed_loop(plant_tf(p), pid_tf(PIDGains(2.0, 1.0, 0.5))),
        setpoint_tf(PIDGains(2.0, 1.0), p),
        RationalTF((0.5 + 0.5j,), (1.0,)),
        RationalTF((1.0, 2.0), (1.0,)),
        RationalTF((1.0, 2.0 + 1.0j, 3.0), (1.0 + 0.5j, 1.0, 1.0)),
        RationalTF((1.0, 2.0, 3.0, 4.0), (1.0, 1.0, 1.0)),
    ]
    rng = np.random.default_rng(17)
    for tf in cases:
        sys = realize(tf)
        # minimal: the r and dr/dt channels share one block of den's order
        assert sys.order == tf.den_degree
        for _ in range(16):
            s = 2.0 * complex(rng.normal(), rng.normal())
            assert abs(sys.transfer_at(s) - tf(s)) < 1e-10


def test_realize_pid_closed_loop_is_minimal():
    h = closed_loop(plant_tf(ModeParams(1.0, 0.5)),
                    pid_tf(PIDGains(2.0, 1.0, 0.5)))
    assert h.num_degree == h.den_degree == 2
    assert realize(h).order == 2
    _, ys = step_response(h, ReferenceSignal("step"), 0.5, 1e-3)
    assert ys[0] == 0.0


def test_realize_pid_structure():
    sys = realize(pid_tf(PIDGains(2.0, 1.0, 0.5)))
    assert sys.d_r == 2.0
    assert sys.d_dr == 0.5
    assert sys.order == 1
    assert sys.a[0, 0] == 0.0
    assert complex(sys.c[0] * sys.b_r[0]) == 1.0  # the k_I / s channel


def test_realize_biproper_has_no_feedthrough():
    # equal degrees: top coefficient rides the derivative channel, so a
    # step input produces a response that starts at zero
    tf = RationalTF((1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
    sys = realize(tf)
    assert sys.d_r == 0.0
    assert sys.d_dr == 0.0
    ts, ys = step_response(tf, ReferenceSignal("step"), 0.5, 1e-3)
    assert ys[0] == 0.0


def test_realize_rejects_double_improper():
    with pytest.raises(DomainError, match="derivative"):
        realize(RationalTF((1.0, 2.0, 3.0), (1.0,)))
    with pytest.raises(DomainError, match="derivative"):
        realize(RationalTF((1.0, 2.0, 3.0, 4.0), (1.0, 1.0)))


def test_step_response_identity_tf_returns_reference():
    one = RationalTF((1.0,), (1.0,))
    ts, ys = step_response(one, ReferenceSignal("step", amplitude=0.5 + 0.5j), 1.0, 1e-3)
    assert np.all(ys == 0.5 + 0.5j)


def test_step_response_proportional_settles():
    g = plant_tf(ModeParams(gamma=1.0, omega=0.0))
    h = closed_loop(g, pid_tf(PIDGains(50.0)))
    ts, ys = step_response(h, ReferenceSignal("step"), 1.0, 1e-4)
    assert abs(ys[-1] - 100.0 / 101.0) <= 1e-6


def test_step_response_settles_to_dc_gain():
    p = ModeParams(gamma=2.0, omega=0.0)
    gains = pole_place_pi(1.0, 1.0, p)
    h = closed_loop(plant_tf(p), pid_tf(gains))
    amp = 0.8 - 0.3j
    ts, ys = step_response(h, ReferenceSignal("step", amplitude=amp), 30.0, 1e-3)
    assert abs(ys[-1] - h(0.0) * amp) <= 1e-6


def test_step_response_integrator_on_ramp_is_exact():
    # x' = r with r = t: RK4 quadrature is exact for polynomial input
    k = pid_tf(PIDGains(0.0, 2.0))
    ref = ReferenceSignal("ramp", amplitude=0.0, slope=1.0)
    ts, ys = step_response(k, ref, 2.0, 1e-2)
    assert np.max(np.abs(ys - ts * ts)) < 1e-12


def test_step_response_sinusoid_steady_state():
    p = ModeParams(gamma=2.0, omega=0.0)
    h = closed_loop(plant_tf(p), pid_tf(PIDGains(2.0, 1.0, 0.5)))
    ref = ReferenceSignal("sinusoid", amplitude=1.0, frequency=2.0)
    ts, ys = step_response(h, ref, 30.0, 1e-3)
    want = h(2.0j) * cmath.exp(2.0j * 30.0)
    assert abs(ys[-1] - want) <= 1e-5


def test_step_response_matches_filter_ode():
    ref = ReferenceSignal("step", amplitude=1.0)
    for k_p, k_i, k_d in [(2.0, 1.0, 0.5), (50.0, 0.0, 0.0), (0.0, 1.0, 0.0)]:
        for omega in (0.0, 0.5):
            p = ModeParams(gamma=1.0, omega=omega)
            gains = PIDGains(k_p, k_i, k_d)
            h = closed_loop(plant_tf(p), pid_tf(gains))
            ts, ys = step_response(h, ref, 5.0, 1e-3)
            ts2, a_arr, _ = noise_free_response(gains, ref, p, 5.0, 1e-3)
            assert np.max(np.abs(ys - a_arr)) < 1e-9


def test_step_response_keeps_the_digits_of_the_exact_response():
    # the omega = 0.5 PI loop on a unit step against its exact response
    # y = c' int_0^t e^{a s} ds b_r + d_r, read off the matrix exponential
    # of the system augmented by the input: the RK4 map in increment form,
    # taken as one doubling scan, keeps 2e4 steps at rounding level
    # (3.4e-16 at T = 2; the step loop it replaced read 3.6e-15), where
    # stepping M x + u drifted to 1.5e-13
    from scipy.linalg import expm  # on first use: start-up stays scipy-free

    h = closed_loop(plant_tf(ModeParams(1.0, 0.5)), pid_tf(PIDGains(2.0, 1.0)))
    ts, ys = step_response(h, ReferenceSignal("step"), 2.0, 1e-4)
    sys = realize(h)
    aug = np.zeros((sys.order + 1, sys.order + 1), dtype=np.complex128)
    aug[:-1, :-1] = sys.a
    aug[:-1, -1] = sys.b_r
    want = [expm(aug * t)[:-1, -1] @ sys.c + sys.d_r for t in ts[::500]]
    assert np.max(np.abs(ys[::500] - want)) < 2e-14


def test_step_response_grid_validation():
    one = RationalTF((1.0,), (1.0,))
    ref = ReferenceSignal("step")
    with pytest.raises(DomainError):
        step_response(one, ref, 1.0, -1e-3)
    with pytest.raises(DomainError):
        step_response(one, ref, 1.0, 0.3)


_REFERENCES = {
    "constant": ReferenceSignal("constant", amplitude=0.7 - 0.2j),
    # onsets fall inside a step of the dt = 1e-2 and 2e-2 grids below
    "step": ReferenceSignal("step", amplitude=1.0 + 0.5j, onset=0.0237),
    "ramp": ReferenceSignal("ramp", amplitude=0.1, slope=-0.8, onset=0.0411),
    "sinusoid": ReferenceSignal("sinusoid", amplitude=0.5j, frequency=7.0,
                                onset=0.013),
}


def _rk4_stage_loop(a, b_r, b_dr, ref, x0, n, dt):
    """Classical RK4 with four right-hand-side calls per step: the oracle."""
    def rhs(t, x):
        return a @ x + b_r * ref.value(t) + b_dr * ref.derivative(t)

    x = x0
    out = [x]
    for k in range(n):
        t = k * dt
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = rhs(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("kind", sorted(_REFERENCES))
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rk4_propagator_matches_stage_loop(order, kind):
    rng = np.random.default_rng(100 + order)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b_r, b_dr, x0 = cnormal(order, order), cnormal(order), cnormal(order), cnormal(order)
    ref = _REFERENCES[kind]
    dt, n = 2e-2, 100
    ts = np.arange(n + 1) * dt
    got = _rk4_linear(a, np.stack([b_r, b_dr], axis=1), dt, x0,
                      _reference_at(ref, ts),
                      _reference_at(ref, ts[:-1] + 0.5 * dt))
    want = _rk4_stage_loop(a, b_r, b_dr, ref, x0, n, dt)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 100, 1025])
def test_rk4_scan_matches_stage_loop_at_every_length(n, order):
    # one step, the first non-powers of two, and one past a power of two:
    # every round count of the doubling scan against the stage loop
    rng = np.random.default_rng(200 + n)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b_r, b_dr, x0 = cnormal(order, order), cnormal(order), cnormal(order), cnormal(order)
    ref = _REFERENCES["ramp"]
    dt = 2e-2
    ts = np.arange(n + 1) * dt
    got = _rk4_linear(a, np.stack([b_r, b_dr], axis=1), dt, x0,
                      _reference_at(ref, ts),
                      _reference_at(ref, ts[:-1] + 0.5 * dt))
    want = _rk4_stage_loop(a, b_r, b_dr, ref, x0, n, dt)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _scalar_reference(ref, times):
    return np.array([[ref.value(float(t)), ref.derivative(float(t))]
                     for t in times], dtype=np.complex128)


_SINUSOID_COMPLEX = ReferenceSignal("sinusoid", amplitude=0.3 - 0.4j,
                                    frequency=-2.5, onset=0.0)


@pytest.mark.parametrize("kind", sorted(_REFERENCES) + ["sinusoid-complex"])
def test_reference_at_is_value_and_derivative(kind):
    ref = _REFERENCES.get(kind, _SINUSOID_COMPLEX)
    dt, n = 1e-2, 100
    ts = np.arange(n + 1) * dt
    for times in (ts, ts[:-1] + 0.5 * dt):
        got = _reference_at(ref, times)
        want = _scalar_reference(ref, times)
        assert got.shape == (len(times), 2) and got.dtype == np.complex128
        if ref.kind == "sinusoid":
            # numpy's complex exponential against cmath.exp
            eps = np.finfo(float).eps
            assert np.all(np.abs(got - want) <= 4.0 * eps * np.abs(want))
        else:
            # the scalar arithmetic, word for word
            assert np.count_nonzero(got.view(np.uint64)
                                    != want.view(np.uint64)) == 0


@pytest.mark.parametrize("kind", sorted(_REFERENCES))
def test_step_response_is_the_scan_on_the_reference_at_grid_and_midpoints(kind):
    # the response reads the reference at the grid times and the step
    # midpoints only: it equals the scan fed with inputs built there by
    # ReferenceSignal.value and .derivative
    ref = _REFERENCES[kind]
    h = closed_loop(plant_tf(ModeParams(1.0, 0.5)),
                    pid_tf(PIDGains(2.0, 1.0, 0.5)))
    sys = realize(h)
    dt, n = 1e-2, 50
    ts, ys = step_response(h, ref, n * dt, dt)
    rdr = _scalar_reference(ref, ts)
    x = _rk4_linear(sys.a, np.stack([sys.b_r, sys.b_dr], axis=1), dt, 0.0,
                    rdr, _scalar_reference(ref, ts[:-1] + 0.5 * dt))
    want = sys.d_r * rdr[:, 0] + sys.d_dr * rdr[:, 1] + x @ sys.c
    if kind == "sinusoid":
        assert np.max(np.abs(ys - want)) <= 1e-15 * np.max(np.abs(want))
    else:
        assert np.array_equal(ys, want)


def test_noise_free_response_at_criterion_7_size_is_the_exact_response():
    # k_P = 1000 on a unit step, dt = 1e-5, T = 2 (2e5 steps) against the
    # exact (a, ie) from the matrix exponential of the system augmented by
    # its input.  In the transient the RK4 truncation x* (lambda dt)^4 / 120e
    # ~ 3.1e-11 (lambda = -1000.5) dominates; past t = 0.02 it is below
    # 1e-17 and what is left is rounding, which the scan keeps at
    # 4.4e-16 in a and 8.4e-16 in ie (a step loop reached 5.9e-15 and
    # 9.1e-15).  Gates fixed from those measurements: 4e-11 and 4e-15.
    from scipy.linalg import expm  # on first use: start-up stays scipy-free

    k_p, dt = 1000.0, 1e-5
    ts, a, ie = noise_free_response(PIDGains(k_p), ReferenceSignal("step"),
                                    ModeParams(1.0, 0.0), 2.0, dt)
    aug = np.zeros((3, 3), dtype=np.complex128)
    aug[:2, :2] = [[-(0.5 + k_p), 0.0], [-1.0, 0.0]]
    aug[:2, 2] = [k_p, 1.0]
    transient = np.arange(0, 400, 10)
    late = np.arange(2000, len(ts), 1000)
    for idx, gate in ((transient, 4e-11), (late, 4e-15)):
        want = np.array([expm(aug * ts[j])[:2, 2] for j in idx])
        assert np.max(np.abs(a[idx] - want[:, 0])) <= gate
        assert np.max(np.abs(ie[idx] - want[:, 1])) <= gate
