import cmath
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from cavityfilter import control, trajectory
from cavityfilter.errors import (
    DimensionError,
    DomainError,
    StepSizeError,
    TruncationError,
    TruncationWarning,
)
from cavityfilter.fock import (
    _LADDER_KEYS,
    CavityOperator,
    CovariancePair,
    StateVector,
    _gaussian_vector,
    _ladder_basis,
    _ladder_dense,
    _ladder_table,
    annihilation_op,
    coherent_state,
    gaussian_state,
    number_op,
)
from cavityfilter.qkf import (
    ModeParams,
    QKFState,
    RiccatiState,
    _mean_update,
    qkf_step,
)
from cavityfilter.control import (
    ClosedLoopState,
    PIDGains,
    ReferenceSignal,
    _feedback_scalars,
    _xi_terms,
    closed_loop_cosim,
    controlled_slh,
    drift_estimate,
    error_signal,
    noise_free_response,
    pid_filter_step,
    xi_gain,
)
from cavityfilter.trajectory import (
    NoiseStream,
    TrajectoryState,
    _KrausStepper,
    damped_cavity_slh,
    run_trajectory,
    sme_step,
    sse_step,
)

#: every member of the ladder basis, as ``fock._ladder_basis`` columns
ALL = tuple(range(len(_LADDER_KEYS)))

#: a co-simulation's ladder family (omega, c1, c2, z, w) at unit Xi per
#: member set: a zero-gain, a P/I and a PID one's
FAMILIES = {(2, 3): (0.5, 1.0, 0.0j, 0.0j, 0.0j),
            (1, 2, 3): (0.5, 1.0, 0.0j, 1.0, 0.0j),
            ALL: (0.5, 1.0, 1.0, 1.0, 1j)}


def _ladder_stepper(x, cols, dt):
    """A co-simulation's ``_KrausStepper`` on the stack x whose members
    are the ladder columns ``cols`` (its (c, base) come with each step)."""
    stepper = _KrausStepper(x, dt, family=FAMILIES[cols])
    assert stepper.basis is _ladder_basis(x.shape[1], cols)
    return stepper


def _kraus_step(x, cols, c, w, zs, dI, dt):
    """One step at cis = 1 of a fresh ``_ladder_stepper`` on the stack x,
    with L's coefficients c = (c1, c2), the base row its ``block`` forms
    at (c1, c2, w) and each row's z (zs None: every row at z = 0): (new,
    unnormalized stack, dY)."""
    stepper = _ladder_stepper(x, cols, dt)
    base = [complex(e[0]) for e in stepper.block(
        *[np.array([v], dtype=complex) for v in (*c, w)])]
    dy = stepper.step(1.0 + 0.0j, dI, zs, c, base)
    return stepper.x, dy


def _assert_row_is_the_truths_own(row, cols, alone):
    """``row``, a coefficient row that a shard stepped on the ladder
    columns ``cols`` and I, is word for word the row that ``alone``, a
    stepper on the truth's own SLH, stepped last: ``alone`` steps on a
    and the columns where ``row`` is nonzero, with the same entries."""
    own = tuple(j for j, v in zip(cols, row)
                if j == _LADDER_KEYS.index("a") or v)
    assert alone.basis is _ladder_basis(alone.x.shape[1], own)
    assert _words([v for j, v in zip(cols, row) if j in own]
                  + [row[-1]]) == _words(alone._coef)


def make_state(a_hat=0.0j, v=0.0, w=0.0j, ie=0.0j, t=0.0):
    return ClosedLoopState(filter=QKFState(a_hat, RiccatiState(v, w, t)),
                           integral_error=ie, t=t)


def test_error_signal():
    assert error_signal(0.0, 0.0) == 0.0
    assert error_signal(1.0, 1.0) == 0.0
    assert error_signal(1.0 + 0.0j, 0.25 - 0.5j) == 0.75 + 0.5j


def test_pid_gains_validation():
    g = PIDGains(1.0)
    assert g.k_I == 0.0 and g.k_D == 0.0 and g.mu == 1.0 and g.nu == 1.0
    with pytest.raises(DomainError):
        PIDGains(-0.1)
    with pytest.raises(DomainError):
        PIDGains(1.0, -2.0)
    with pytest.raises(DomainError):
        PIDGains(1.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        PIDGains(1.0, mu=math.inf)


def test_xi_gain():
    # k_D = 0 reduces to the uncontrolled theta=0 innovations gain
    cov = RiccatiState(0.3, 0.1 + 0.2j)
    assert xi_gain(cov, PIDGains(5.0), 2.0) == (
        math.sqrt(2.0) * (0.3 + (0.1 + 0.2j)))
    assert xi_gain(RiccatiState(0.5, 0.0), PIDGains(0.0, 0.0, 1.0), 1.0) == 0.25
    for kd in (0.0, 1.0, 7.5):
        assert xi_gain(RiccatiState(0.0, 0.0), PIDGains(0.0, 0.0, kd), 1.0) == 0.0


def test_reference_signals():
    const = ReferenceSignal("constant", 2.0 - 1.0j)
    assert const.value(0.0) == 2.0 - 1.0j
    assert const.value(17.0) == 2.0 - 1.0j
    assert const.derivative(3.0) == 0.0

    step = ReferenceSignal("step", 1.5, onset=1.0)
    assert step.value(0.5) == 0.0
    assert step.value(1.0) == 1.5
    assert step.derivative(2.0) == 0.0

    ramp = ReferenceSignal("ramp", 0.5, onset=1.0, slope=2.0)
    assert ramp.value(0.5) == 0.0
    assert ramp.value(3.0) == 0.5 + 4.0
    assert ramp.derivative(3.0) == 2.0
    assert ramp.derivative(0.5) == 0.0

    sine = ReferenceSignal("sinusoid", 1.0, frequency=2.0)
    assert abs(sine.value(math.pi) - np.exp(2j * math.pi)) < 1e-15
    assert abs(sine.derivative(0.3) - 2j * sine.value(0.3)) < 1e-15
    # numpy's complex exponential, which the reference rule takes, against
    # cmath's, on a complex amplitude, before and after the onset
    eps = np.finfo(float).eps
    for amp, freq, onset in ((0.3 - 0.4j, -2.5, 0.0), (-1.3 + 0.7j, -3.1, 0.0),
                             (0.5j, 7.0, 0.013)):
        sine = ReferenceSignal("sinusoid", amp, onset=onset, frequency=freq)
        for t in np.linspace(-0.5, 1.0, 151).tolist():
            want = (amp * cmath.exp(1j * freq * (t - onset)) if t >= onset
                    else 0.0j)
            assert abs(sine.value(t) - want) <= 4.0 * eps * abs(want)
            assert (abs(sine.derivative(t) - 1j * freq * want)
                    <= 4.0 * eps * abs(freq * want))

    with pytest.raises(DomainError):
        ReferenceSignal("square")
    with pytest.raises(DomainError):
        ReferenceSignal("step", onset=-1.0)


def test_reference_amplitude_must_be_finite():
    # rejected at construction, as onset, slope and frequency are
    for bad in (complex(math.nan), complex(math.inf, 0.0), math.nan):
        with pytest.raises(DomainError, match="amplitude"):
            ReferenceSignal("constant", amplitude=bad)


def test_drift_estimate_open_loop():
    params = ModeParams(1.0, 0.5)
    filt = QKFState(0.4 - 0.2j, RiccatiState(0.3, 0.1j))
    out = drift_estimate(PIDGains(0.0), filt, ReferenceSignal("step", 1.0),
                         0.7j, 2.0, params)
    assert out == -complex(0.5, 0.5) * (0.4 - 0.2j)


def test_drift_estimate_large_kd_limit():
    # dominant balance: the drift approaches nu rdot as k_D grows
    params = ModeParams(1.0, 0.0)
    gains = PIDGains(0.0, 0.0, 1e6, nu=0.7)
    ramp = ReferenceSignal("ramp", 0.0, slope=2.0)
    filt = QKFState(0.3 + 0.1j, RiccatiState(0.2, 0.0))
    out = drift_estimate(gains, filt, ramp, 0.0, 1.0, params)
    assert abs(out - 0.7 * 2.0) / abs(0.7 * 2.0) < 1e-5


def test_drift_matches_trajectory_finite_difference():
    params = ModeParams(1.0, 0.3)
    gains = PIDGains(2.0, 1.0, 0.5)
    ref = ReferenceSignal("step", 1.0)
    dt = 1e-3
    ts, aa, ie = noise_free_response(gains, ref, params, 2.0, dt)
    for k in range(200, 1800, 400):
        fd = (aa[k + 1] - aa[k - 1]) / (2 * dt)
        filt = QKFState(aa[k], RiccatiState(0.0, 0.0))
        drift = drift_estimate(gains, filt, ref, ie[k], ts[k], params)
        assert abs(fd - drift) < 1e-4


def test_controlled_slh_zero_gains_is_open_loop():
    params = ModeParams(1.0, 0.5)
    slh = controlled_slh(PIDGains(0.0), QKFState(0.5j, RiccatiState(0.3, 0.1)),
                         ReferenceSignal("step", 1.0), 1.0j, 3.0, params, 10)
    assert np.array_equal(slh.l.entries, annihilation_op(10).entries)
    assert np.array_equal(slh.h.entries, 0.5 * number_op(10).entries)
    slh2 = controlled_slh(PIDGains(0.0), QKFState(0.0j, RiccatiState(0.0, 0.0)),
                          ReferenceSignal("constant", 0.0), 0.0j, 0.0, params, 10)
    # the filter state does not enter without gains
    assert np.array_equal(slh2.l.entries, slh.l.entries)
    assert np.array_equal(slh2.h.entries, slh.h.entries)


def test_controlled_slh_coupling_untouched_without_kd():
    params = ModeParams(2.0, 0.0)
    slh = controlled_slh(PIDGains(3.0, 1.5, 0.0),
                         QKFState(0.2j, RiccatiState(0.4, 0.1)),
                         ReferenceSignal("step", 1.0), 0.5j, 1.0, params, 8)
    assert np.array_equal(slh.l.entries, math.sqrt(2.0) * annihilation_op(8).entries)


def test_controlled_slh_hermitian_and_quadrature_preserving():
    # H = H' and L + L' = sqrt(gamma)(a + a') for random states and gains;
    # the Hamiltonian feedback must never leak into the measured quadrature
    rng = np.random.default_rng(1)
    params = ModeParams(1.0, 0.5)
    a = annihilation_op(12).entries
    want = math.sqrt(params.gamma) * (a + a.T)
    for _ in range(25):
        gains = PIDGains(*rng.uniform(0.0, 5.0, 3),
                         mu=rng.uniform(0.0, 2.0), nu=rng.uniform(0.0, 2.0))
        filt = QKFState(complex(*rng.normal(0.0, 1.0, 2)),
                        RiccatiState(rng.uniform(0.0, 1.0),
                                     complex(*rng.normal(0.0, 0.2, 2))))
        slh = controlled_slh(gains, filt, ReferenceSignal("step", 1.0),
                             complex(*rng.normal(0.0, 1.0, 2)),
                             rng.uniform(0.0, 5.0), params, 12)
        assert slh.h.is_hermitian(1e-10)
        lpl = slh.l.entries + slh.l.entries.conj().T
        assert np.max(np.abs(lpl - want)) < 1e-12


def test_controlled_slh_dim_validation():
    with pytest.raises(DimensionError):
        controlled_slh(PIDGains(1.0), QKFState(0.0j, RiccatiState(0.0, 0.0)),
                       ReferenceSignal("step", 1.0), 0.0j, 0.0,
                       ModeParams(1.0), 1)


def test_pid_step_zero_gains_reduces_to_plain_filter():
    # bit-for-bit, not approximately
    params = ModeParams(1.0, 0.5)
    ref = ReferenceSignal("constant", 0.0)
    st = make_state(0.3 - 0.7j, 0.42, 0.11 - 0.05j)
    q = QKFState(0.3 - 0.7j, RiccatiState(0.42, 0.11 - 0.05j, 0.0))
    for dI in (0.013, -0.002, 0.4, 0.0):
        st = pid_filter_step(st, dI, PIDGains(0.0), ref, params, 1e-3)
        q = qkf_step(q, dI, 0.0, 0.0, params, 1e-3)
        assert st.filter.a_hat == q.a_hat
        assert st.filter.riccati.V == q.riccati.V
        assert st.filter.riccati.W == q.riccati.W


def test_pid_step_gain_by_gain_reduction():
    # dropping a gain to zero gives bit-identical drift to the lower-order
    # controller
    params = ModeParams(1.0, 0.2)
    ref = ReferenceSignal("step", 1.0)
    filt = QKFState(0.2 + 0.4j, RiccatiState(0.3, 0.05j))
    pid = drift_estimate(PIDGains(2.0, 1.5, 0.0), filt, ref, 0.3j, 1.0, params)
    pi = drift_estimate(PIDGains(2.0, 1.5), filt, ref, 0.3j, 1.0, params)
    assert pid == pi
    p_only = drift_estimate(PIDGains(2.0), filt, ref, 0.3j, 1.0, params)
    pi_zero_ki = drift_estimate(PIDGains(2.0, 0.0), filt, ref, 0.3j, 1.0, params)
    assert p_only == pi_zero_ki


def test_p_controller_steady_state():
    params = ModeParams(1.0, 0.0)
    st = make_state()
    ref = ReferenceSignal("step", 1.0)
    for _ in range(2000):
        st = pid_filter_step(st, 0.0, PIDGains(50.0), ref, params, 1e-3)
    assert abs(st.filter.a_hat - 50.0 / 50.5) < 1e-6


def test_pi_controller_tracks_exactly():
    # integral action removes the offset; the slow loop pole sits near
    # -k_I/k_P, so the horizon must be long
    params = ModeParams(1.0, 0.0)
    st = make_state()
    ref = ReferenceSignal("step", 1.0)
    for _ in range(150000):
        st = pid_filter_step(st, 0.0, PIDGains(50.0, 1.0), ref, params, 1e-2)
    assert abs(st.filter.a_hat - 1.0) < 1e-6


def test_noise_free_response_matches_euler_steps():
    params = ModeParams(1.0, 0.0)
    gains = PIDGains(2.0, 1.0, 0.5)
    ref = ReferenceSignal("step", 1.0)
    dt, T = 1e-3, 2.0
    st = make_state()
    euler = [st.filter.a_hat]
    for _ in range(int(T / dt)):
        st = pid_filter_step(st, 0.0, gains, ref, params, dt)
        euler.append(st.filter.a_hat)
    ts, aa, _ = noise_free_response(gains, ref, params, T, dt)
    assert np.max(np.abs(np.asarray(euler) - aa)) < 1e-3


def test_noise_free_response_matches_rk4_stage_loop():
    # oracle: the written-out RK4 of the drift, four calls per step
    params = ModeParams(1.0, 0.5)
    gains = PIDGains(2.0, 1.0, 0.5, mu=0.8, nu=1.2)
    ref = ReferenceSignal("sinusoid", 1.0, onset=0.0123, frequency=3.0)
    dt, n = 1e-2, 200
    a0, ie0 = 0.3 - 0.2j, 0.1j

    def rhs(t, a, ie):
        filt = QKFState(a, RiccatiState(0.0, 0.0j, t))
        return (drift_estimate(gains, filt, ref, ie, t, params),
                ref.value(t) - a)

    a, ie = a0, ie0
    want = [(a, ie)]
    for k in range(n):
        t = k * dt
        k1a, k1e = rhs(t, a, ie)
        k2a, k2e = rhs(t + 0.5 * dt, a + 0.5 * dt * k1a, ie + 0.5 * dt * k1e)
        k3a, k3e = rhs(t + 0.5 * dt, a + 0.5 * dt * k2a, ie + 0.5 * dt * k2e)
        k4a, k4e = rhs(t + dt, a + dt * k3a, ie + dt * k3e)
        a = a + (dt / 6.0) * (k1a + 2.0 * (k2a + k3a) + k4a)
        ie = ie + (dt / 6.0) * (k1e + 2.0 * (k2e + k3e) + k4e)
        want.append((a, ie))
    want = np.array(want)
    ts, aa, ie_arr = noise_free_response(gains, ref, params, n * dt, dt, a0, ie0)
    assert np.array_equal(ts, np.arange(n + 1) * dt)
    got = np.stack([aa, ie_arr], axis=1)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_noise_free_response_validation():
    with pytest.raises(DomainError):
        noise_free_response(PIDGains(1.0), ReferenceSignal("step", 1.0),
                            ModeParams(1.0), 1.0, 3e-4)


def test_large_gain_tracking_slope():
    params = ModeParams(1.0, 0.0)
    ref = ReferenceSignal("step", 1.0)
    errs = []
    for kp in (10.0, 100.0, 1000.0):
        _, aa, _ = noise_free_response(PIDGains(kp), ref, params, 20.0, 1e-3)
        errs.append(abs(1.0 - aa[-1]))
    slope = np.polyfit(np.log([10.0, 100.0, 1000.0]), np.log(errs), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_derivative_limit_tracks_ramp_velocity():
    params = ModeParams(1.0, 0.0)
    ramp = ReferenceSignal("ramp", 0.0, slope=1.0)
    ts, aa, _ = noise_free_response(PIDGains(0.0, 0.0, 100.0), ramp,
                                    params, 5.0, 1e-3)
    da = np.gradient(aa, ts)
    mask = ts > 1.0
    assert np.max(np.abs(da[mask] - 1.0)) < 0.05


def test_cosim_zero_gains_tracks_truth():
    params = ModeParams(1.0, 0.5)
    rec = closed_loop_cosim(0.5, CovariancePair(0.0, 0.0), PIDGains(0.0),
                            ReferenceSignal("constant", 0.0), params, 40,
                            NoiseStream(5, 1e-4), 1.0, 1e-4, record_stride=10)
    assert np.max(np.abs(rec.a_hat - rec.truth_mean_a)) < 5e-2
    v_truth = rec.truth_mean_n - np.abs(rec.truth_mean_a) ** 2
    assert np.max(np.abs(rec.V - v_truth)) < 5e-2


def test_cosim_filter_consistent_under_feedback():
    params = ModeParams(1.0, 0.0)
    rec = closed_loop_cosim(0.5, CovariancePair(0.0, 0.0),
                            PIDGains(2.0, 1.0, 0.5),
                            ReferenceSignal("step", 1.0), params, 30,
                            NoiseStream(42, 1e-3), 5.0, 1e-3, record_stride=5)
    assert np.max(np.abs(rec.a_hat - rec.truth_mean_a)) < 1e-1


def test_cosim_proportional_control_shrinks_error():
    params = ModeParams(1.0, 0.0)
    ref = ReferenceSignal("step", 0.5)

    def mean_terminal_error(gains):
        tot = 0.0
        for i in range(8):
            rec = closed_loop_cosim(0.0, CovariancePair(0.0, 0.0), gains, ref,
                                    params, 25, NoiseStream(1000 + i, 2e-3),
                                    10.0, 2e-3, record_stride=5000)
            tot += abs(0.5 - rec.a_hat[-1])
        return tot / 8

    e_open = mean_terminal_error(PIDGains(0.0))
    e_ctrl = mean_terminal_error(PIDGains(20.0))
    assert e_open / e_ctrl >= 10.0


def test_cosim_mixed_prior_with_pure_truth_draw():
    # a mixed filter prior can ride on a pure truth preparation; the
    # filter covariance must start at the prior, not at the draw
    params = ModeParams(1.0, 0.0)
    rec = closed_loop_cosim(0.0, CovariancePair(0.5, 0.0), PIDGains(0.0),
                            ReferenceSignal("constant", 0.0), params, 25,
                            NoiseStream(9, 1e-3), 0.5, 1e-3,
                            record_stride=500,
                            truth_alpha=0.7, truth_cov=CovariancePair(0.0, 0.0))
    assert rec.V[0] == 0.5
    assert abs(rec.truth_mean_a[0] - 0.7) < 1e-10
    assert abs(rec.a_hat[0]) == 0.0


def test_cosim_records_and_final_state():
    params = ModeParams(1.0, 0.0)
    rec = closed_loop_cosim(0.3, CovariancePair(0.0, 0.0), PIDGains(1.0),
                            ReferenceSignal("step", 1.0), params, 20,
                            NoiseStream(3, 1e-3), 0.2, 1e-3, record_stride=50)
    assert rec.t.shape == (5,)
    assert rec.final.t == pytest.approx(0.2, abs=1e-12)
    assert rec.final.truth is not None
    assert rec.final.truth.psi is not None
    assert rec.qv == pytest.approx(0.2, rel=0.5)
    assert rec.Y[-1] == pytest.approx(rec.final.truth.Y, abs=0.0)


def test_cosim_validation():
    params = ModeParams(1.0, 0.0)
    good = dict(alpha=0.0, cov=CovariancePair(0.0, 0.0), gains=PIDGains(0.0),
                ref=ReferenceSignal("constant", 0.0), params=params, dim=8,
                noise=NoiseStream(0, 1e-3), T=0.1, dt=1e-3)
    closed_loop_cosim(**good)
    with pytest.raises(DomainError):
        closed_loop_cosim(**{**good, "dt": 3e-4})
    with pytest.raises(DomainError):
        closed_loop_cosim(**{**good, "record_stride": 7})
    with pytest.raises(DomainError):
        closed_loop_cosim(**{**good, "noise": NoiseStream(0, 1e-2)})


# ---------------------------------------------------------------------------
# structured feedback coefficients


def _dense_lh(c1, c2, z, w, omega, dim):
    """Dense (L, H) of the ladder form L = c1 a + c2 a',
    H = omega a'a + z a' + conj(z) a + w (a^2 + a'a) + conj(w) (a'^2 + a'a),
    assembled term by term from the dense ladder matrices: the reference
    the structured forms must match."""
    a = annihilation_op(dim).entries
    ad = a.conj().T
    n = number_op(dim).entries
    m1 = a @ a + n
    return (c1 * a + c2 * ad,
            omega * n + z * ad + np.conj(z) * a + w * m1
            + np.conj(w) * m1.conj().T)


def _reference_lh(gains, params, xi, z, dim):
    """``_dense_lh`` of the feedback actuation at the innovations gain xi
    and the displacement z: D makes L = sqrt(gamma) a - iF_D with
    F_D = i k_D (conj(xi) a - xi a') and adds w = i sqrt(gamma) k_D
    conj(xi) / 2."""
    sg, k_D = math.sqrt(params.gamma), gains.k_D
    return _dense_lh(sg + k_D * np.conj(xi), -k_D * xi, z,
                     0.5j * sg * k_D * np.conj(xi), params.omega, dim)


def _a0(l_mat, h_mat):
    """A0 = -iH - L'L/2 of dense (L, H)."""
    return -1j * h_mat - 0.5 * (l_mat.conj().T @ l_mat)


@pytest.mark.parametrize("dim", [2, 3, 30])
@pytest.mark.parametrize("kp,ki,kd", [(2.0, 0.0, 0.0), (0.0, 1.5, 0.0),
                                      (0.0, 0.0, 0.7), (2.0, 1.5, 0.7)])
def test_structured_coefficients_match_dense_slh(dim, kp, ki, kd):
    # the public controlled_slh's L and H, and one Kraus step of its ladder
    # form, equal the term-by-term assembly
    rng = np.random.default_rng(dim)
    params = ModeParams(1.3, 0.4)
    ref = ReferenceSignal("ramp", 0.3, slope=0.7)
    dt, di = 1e-5, 3e-3
    sg = math.sqrt(params.gamma)
    for _ in range(10):
        gains = PIDGains(kp, ki, kd, mu=rng.uniform(0.0, 2.0),
                         nu=rng.uniform(0.0, 2.0))
        a_hat = complex(*rng.normal(0.0, 1.0, 2))
        ie = complex(*rng.normal(0.0, 1.0, 2))
        v, w = rng.uniform(0.0, 1.0), complex(*rng.normal(0.0, 0.3, 2))
        t = rng.uniform(0.0, 5.0)
        filt = QKFState(a_hat, RiccatiState(v, w, t))
        xi = sg * (v + w) / (1.0 + kd)
        varpi = drift_estimate(gains, filt, ref, ie, t, params)
        z = (1j * kp * (gains.mu * ref.value(t) - a_hat) + 1j * ki * ie
             + 1j * kd * (gains.nu * ref.derivative(t) - varpi
                          + sg * 2.0 * a_hat.real * xi))
        l_ref, h_ref = _reference_lh(gains, params, xi, z, dim)

        slh = controlled_slh(gains, filt, ref, ie, t, params, dim)
        assert np.max(np.abs(slh.l.entries - l_ref)) < 1e-12
        assert np.max(np.abs(slh.h.entries - h_ref)) < 1e-12

        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        new = sse_step(TrajectoryState(0.0, 0.0, 0.0,
                                       psi=StateVector(dim, psi)),
                       slh, 0.0, di, dt)
        lam = 2.0 * np.vdot(psi, l_ref @ psi).real
        kraus = ((1.0 - lam * lam * dt / 8.0 - lam * di / 2.0) * np.eye(dim)
                 + dt * _a0(l_ref, h_ref) + (lam * dt / 2.0 + di) * l_ref)
        want = kraus @ psi / np.linalg.norm(kraus @ psi)
        assert np.max(np.abs(new.psi.amplitudes - want)) < 1e-12
        assert abs(new.Y - (lam * dt + di)) < 1e-14


@pytest.mark.parametrize("rank", [None, 3], ids=["vectors", "factors"])
def test_kraus_update_is_batch_invariant(rank):
    # the ladder-basis products of a (B, dim) or (B, dim, r) stack equal
    # the dense matrix products exactly (a zero may differ in sign), and
    # every row of the Kraus
    # update gets the bits of a lone state, with the rows shared by the
    # stack (zero gain) or one set per row (feedback), on all seven members
    # or on those the rows use, and stays within roundoff of the dense
    # Kraus step
    rng = np.random.default_rng(3)
    scalars = [[complex(*rng.normal(size=2)) for _ in range(4)]
               for _ in range(8)]
    dt = 1e-5
    for dim, batch in itertools.product((7, 12, 30), (1, 3, 8)):
        shape = (batch, dim) if rank is None else (batch, dim, rank)
        psis = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psis /= np.linalg.norm(psis.reshape(batch, -1), axis=1).reshape(
            (batch,) + (1,) * (len(shape) - 1))
        basis = _ladder_basis(dim, ALL)
        prods = np.matmul(basis[0],
                          psis.view(np.float64).reshape(batch, dim, -1))
        dense = _ladder_table(dim).astype(np.complex128)
        for b in range(batch):
            want = np.matmul(dense, psis[b].reshape(dim, -1))
            assert np.array_equal(prods[b].view(np.complex128),
                                  want.reshape(7 * dim, -1))
        # a trimmed basis (the members a zero-gain or P/I row uses, and I)
        # gives the same products of its members
        for cols in ((2, 3), (1, 2, 3)):
            got = np.matmul(_ladder_basis(dim, cols)[0],
                            psis.view(np.float64).reshape(batch, dim, -1))
            want = prods.reshape(batch, 7, dim, -1)[:, list(cols) + [6]]
            assert np.array_equal(got, want.reshape(got.shape))
        dI = tuple(rng.normal(0.0, math.sqrt(dt), batch).tolist())
        c1, c2, _, w = scalars[0]
        zs = [sc[2] for sc in scalars[:batch]]
        # (c1, c2, w) shared by the stack, and each row's z (None: the
        # rows are shared, z = 0)
        cases = [((1.0, 0.0j, 0.0j), None, ALL), ((c1, c2, w), zs, ALL),
                 ((1.0, 0.0j, 0.0j), None, (2, 3)),
                 ((1.0, 0.0j, 0.0j), zs, (1, 2, 3))]
        for (l1, l2, wc), z_rows, cols in cases:
            new, dy = _kraus_step(psis, cols, (l1, l2), wc, z_rows, dI, dt)
            for b in range(batch):
                alone, dy_alone = _kraus_step(
                    psis[b:b + 1], cols, (l1, l2), wc,
                    None if z_rows is None else z_rows[b:b + 1],
                    dI[b:b + 1], dt)
                assert new[b].tobytes() == alone[0].tobytes()
                assert dy[b] == dy_alone[0]
                l_mat, h_mat = _dense_lh(
                    l1, l2, 0.0j if z_rows is None else z_rows[b], wc, 0.5,
                    dim)
                x = psis[b].reshape(dim, -1)
                lam = 2.0 * np.vdot(x, l_mat @ x).real
                want = ((1.0 - lam * lam * dt / 8.0 - lam * dI[b] / 2.0) * x
                        + dt * (_a0(l_mat, h_mat) @ x)
                        + (lam * dt / 2.0 + dI[b]) * (l_mat @ x))
                assert np.max(np.abs(new[b].reshape(dim, -1) - want)) < 1e-12


def _words(values) -> bytes:
    """The float64 words of complex values, signed zeros included."""
    return np.asarray(values, dtype=np.complex128).tobytes()


def _a0_rows(monkeypatch) -> list:
    """The arguments of each ``_KrausStepper._a0_row`` call of the test
    from here on: every ladder row, a family's, a block's or an SLH's, is
    formed by one."""
    a0_row, calls = _KrausStepper._a0_row, []

    def counted(*args):
        calls.append(args)
        return a0_row(*args)

    monkeypatch.setattr(_KrausStepper, "_a0_row", staticmethod(counted))
    return calls


def _built_steppers(monkeypatch) -> list:
    """The ``_KrausStepper`` of each co-simulation of the test from here
    on, in order."""
    stepper_cls, steppers = _KrausStepper, []

    def built(*args, **kwargs):
        steppers.append(stepper_cls(*args, **kwargs))
        return steppers[-1]

    monkeypatch.setattr(control, "_KrausStepper", built)
    return steppers


def _shard_run(gains, cov, dim, params, batch=1, T=0.01, own=True):
    """A co-simulation of ``batch`` truths from (0.3 + 0.1j b, cov) on
    ``NoiseStream(4 + b)`` under ``gains``, their filters from (0.3, cov),
    on a step reference (dt = 1e-3, every step recorded): its records, its
    ``_KrausStepper`` and its number of A0 rows (``_a0_rows``); with
    ``own``, after asserting that each truth is the run of its own SLH
    (``_assert_truths_are_their_own_slh_runs``)."""
    ref, seeds = ReferenceSignal("step", 1.0), range(4, 4 + batch)
    alphas = [0.3 + 0.1j * b for b in range(batch)]
    with pytest.MonkeyPatch.context() as patch:
        steppers, formed = _built_steppers(patch), _a0_rows(patch)
        recs = control._cosim(0.3, cov, gains, ref, params, dim,
                              [NoiseStream(seed, 1e-3) for seed in seeds],
                              T, 1e-3, 1, alphas, cov)
    if own:
        _assert_truths_are_their_own_slh_runs(recs, gains, ref, params, dim,
                                              alphas, cov, seeds)
    (stepper,) = steppers
    return recs, stepper, len(formed)


def _assert_truths_are_their_own_slh_runs(recs, gains, ref, params, dim,
                                          alphas, cov, seeds, dt=1e-3):
    """Each of ``recs``, the every-step records of truths from (alphas[b],
    cov) on ``NoiseStream(seeds[b])``, is word for word in <a>, <a'a> and
    Y the ``run_trajectory`` of that truth on the same noise whose source
    is, at step k, the ``controlled_slh`` of the record's filter state:
    a_hat and (V, W) of step k, and the integral error rebuilt from them
    as ie + (r - a_hat) dt.  So each truth steps the coefficients of its
    own feedback, and nothing of the batch or of the other truths."""
    pure = abs(cov.physicality_excess()) <= 1e-8
    for rec, alpha, seed in zip(recs, alphas, seeds, strict=True):
        k, ie = 0, 0.0j

        def source(t):
            nonlocal k, ie
            a_hat = complex(rec.a_hat[k])
            filt = QKFState(a_hat, RiccatiState(rec.V[k], rec.W[k], t))
            slh = controlled_slh(gains, filt, ref, ie, t, params, dim)
            ie = ie + (ref.value(t) - a_hat) * dt
            k += 1
            return slh

        initial = (_gaussian_vector(alpha, cov, dim) if pure
                   else gaussian_state(alpha, cov, dim))
        own = run_trajectory(initial, source, 0.0, NoiseStream(seed, dt),
                             (len(rec.t) - 1) * dt, dt,
                             mode="sse" if pure else "sme")
        assert k == len(rec.t) - 1
        for got, want in ((rec.truth_mean_a, own.mean_a),
                          (rec.truth_mean_n, own.mean_n), (rec.Y, own.Y)):
            assert got.tobytes() == want.tobytes()


#: the gain sets of the row identities, with set-point weights off 1
GAIN_SETS = {"zero": PIDGains(0.0), "P": PIDGains(2.0, mu=0.7),
             "PI": PIDGains(2.0, 1.0, mu=1.3),
             "PID": PIDGains(2.0, 1.0, 0.5, mu=0.8, nu=1.2)}


@pytest.mark.parametrize("name,cov", [
    (name, cov) for name in ("zero", "P", "PI", "PID")
    for cov in (CovariancePair(0.0, 0.0), CovariancePair(0.5, 0.0))
    # a pure prior's PID SLH drops the members of zero coefficients
    # (a'^2, a^2 and a a', Xi = 0), so its sums differ at rounding level
    # from the family's; test_stepped_rows_are_the_slh_rows checks its
    # rows word for word
    if not (name == "PID" and cov.V == 0.0)],
    ids=["zero-pure", "zero-mixed", "P-pure", "P-mixed", "PI-pure",
         "PI-mixed", "PID-mixed"])
@pytest.mark.bitwise
def test_a_truth_is_its_own_controlled_slh_run(name, cov):
    # the co-simulation's truth, whose coefficients the schedule forms in
    # blocks, is the run_trajectory whose source rebuilds, every step,
    # the controlled_slh of the run's own filter state, under every kind
    # of reference.  On the sinusoid's complex amplitude and negative
    # frequency numpy's and Python's complex products differ, so its r
    # and dr/dt are the schedule's word for word only under one rule
    gains, params, dim, dt = GAIN_SETS[name], ModeParams(1.0, 0.5), 24, 1e-3
    for ref in (ReferenceSignal("step", 1.0, onset=0.02),
                ReferenceSignal("ramp", 0.3, slope=0.7),
                ReferenceSignal("sinusoid", -1.3 + 0.7j, frequency=-3.1)):
        rec = closed_loop_cosim(0.3, cov, gains, ref, params, dim,
                                NoiseStream(4, dt), 0.1, dt)
        _assert_truths_are_their_own_slh_runs([rec], gains, ref, params,
                                              dim, [0.3], cov, [4])


@pytest.mark.parametrize("cov", [CovariancePair(0.0, 0.0),
                                 CovariancePair(0.5, 0.0)],
                         ids=["pure", "mixed"])
@pytest.mark.bitwise
def test_truths_step_on_the_members_their_coefficients_use(cov):
    # zero gain keeps a'a, a and I (the damped cavity's form), P and I add
    # a' (their z), and D keeps all six members and I; without damping or
    # detuning a'a drops out unless D is on.  Every truth is the run of its
    # own SLH (a pure prior's PID one aside: its SLH keeps fewer members)
    dim = 24
    table = _ladder_table(dim)

    def stack(members):
        return np.concatenate([table[_LADDER_KEYS.index(k)] for k in members]
                              + [np.eye(dim)])

    want = {(1.0, 0.5): {"zero": ("n", "a"), "P": ("ad", "n", "a"),
                         "PI": ("ad", "n", "a"), "PID": _LADDER_KEYS},
            (0.0, 0.0): {"zero": ("a",), "P": ("ad", "a"),
                         "PI": ("ad", "a"), "PID": _LADDER_KEYS}}
    gains = {"zero": PIDGains(0.0), "P": PIDGains(2.0),
             "PI": PIDGains(2.0, 1.0), "PID": PIDGains(2.0, 1.0, 0.5)}
    for (gamma, omega), sets in want.items():
        params = ModeParams(gamma, omega)
        damped = _KrausStepper(np.ones((1, dim), dtype=np.complex128), 1e-3,
                               damped_cavity_slh(params, dim))
        assert np.array_equal(damped.basis[0], stack(sets["zero"]))
        for name, members in sets.items():
            _, stepper, _ = _shard_run(
                gains[name], cov, dim, params,
                own=not (name == "PID" and cov.V == 0.0))
            assert np.array_equal(stepper.basis[0], stack(members))


def test_a_shard_forms_one_coefficient_row_per_step():
    # a shard of 8 forms its Xi-only base rows once per schedule block, not
    # once per step or per truth: the 11 rows of a 10-step run are one
    # block, and one more A0 row is the unit-Xi one from which the stepper
    # picks its members, under PID and at zero gain alike; and each truth
    # of the shard is the run of its own SLH
    params = ModeParams(1.0, 0.5)
    for gains in (PIDGains(2.0, 1.0, 0.5), PIDGains(0.0)):
        _, _, formed = _shard_run(gains, CovariancePair(0.5, 0.0), 24,
                                  params, 8)
        assert formed == 2


@pytest.mark.parametrize("name", list(GAIN_SETS))
@pytest.mark.bitwise
def test_stepped_rows_are_the_slh_rows(name):
    # c1, c2 and the base row of dt A0 at z = 0 come from Xi alone
    # (_xi_terms, the stepper's block), and the stepper fills each truth's
    # z into the base row: at random states, signed zeros and z = 0 among
    # them, every truth steps the coefficient row of its own
    # controlled_slh word for word, on the members of a P/I and of a PID
    # family, that stepper keeps only a and the members its row uses, and
    # the shard's drifts and its one filter update call are those
    # drift_estimate and pid_filter_step form for the truth alone
    gains, params, dim = GAIN_SETS[name], ModeParams(1.0, 0.5), 12
    rng = np.random.default_rng(19)

    def normal():
        return complex(*rng.normal(0.0, 1.0, 2))

    for draw in range(40):
        dt = (1e-3, 2.5e-4)[draw % 2]
        t = rng.uniform(0.0, 3.0)
        quiet = draw % 4 == 3
        if quiet:
            # r = dr/dt = Xi = 0: the reference has not started and the
            # covariances are zero
            ref = ReferenceSignal("step", normal(), onset=t + 1.0)
            v, w_cov = 0.0, 0.0j
        else:
            ref = ReferenceSignal(("ramp", "sinusoid")[draw % 2], normal(),
                                  slope=rng.normal(), frequency=rng.normal())
            v, w_cov = rng.uniform(0.0, 1.0), 0.3 * normal()
        r_t, dr_t = ref.value(t), ref.derivative(t)
        xi = xi_gain(RiccatiState(v, w_cov), gains, params.gamma)
        a_hats = [normal() for _ in range(5)] + [
            gains.mu * r_t, complex(-0.0, 0.0), complex(0.0, -0.0), -0.0j]
        ies = [normal() for _ in range(5)] + [
            0.0j, complex(-0.0, -0.0), 0.0j, complex(-0.0, 0.0)]
        dis = rng.normal(0.0, math.sqrt(dt), len(a_hats)).tolist()
        zs, drifts = _feedback_scalars(gains, params)(
            a_hats, ies, r_t, dr_t, xi)
        # a = mu r with ie = 0 has no P or I displacement, and with
        # r = dr/dt = Xi = 0 a zero state has no D displacement either
        if gains.all_zero:
            assert _words(zs) == _words([0.0j] * len(zs))
        if gains.k_D == 0.0 or quiet:
            assert zs[5] == 0
        if quiet:
            assert all(z == 0 for z in zs[5:])
        # states of their own stream, so the draws above stay as they were,
        # with Fock weights halving per level, so the step's norm guard
        # passes at these increments
        x = np.random.default_rng(draw).normal(size=(len(zs), dim, 2)).view(
            np.complex128)[..., 0] * 0.5 ** np.arange(dim)
        x /= np.linalg.norm(x, axis=1)[:, None]
        c1, c2, w = _xi_terms(gains.k_D, math.sqrt(params.gamma),
                              np.array([xi]))
        c = (complex(c1[0]), complex(c2[0]))
        shard = []
        for cols in ((1, 2, 3), ALL) if gains.k_D == 0.0 else (ALL,):
            stepper = _ladder_stepper(x, cols, dt)
            base = [complex(e[0]) for e in stepper.block(c1, c2, w)]
            dy = stepper.step(1.0 + 0.0j, dis,
                              None if gains.all_zero else zs, c, base)
            shard.append((cols, stepper._coef.reshape(len(zs), -1), dy))
        zeros = [0.0] * len(a_hats)
        filters, steps = (a_hats, ies, zeros, zeros), [(dis, r_t, xi)]
        updated = control._filter_update(filters, steps, dt, drifts=drifts)
        if gains.all_zero:
            # without the feedback's drifts the update takes the zero-gain
            # feedback's free drift, with the same bits
            free = _feedback_scalars(gains, params).free_drift
            assert _words(control._filter_update(
                filters, steps, dt, free_drift=free)) == _words(updated)
        updated = list(zip(*updated[:2]))
        for b, (a_hat, ie) in enumerate(zip(a_hats, ies)):
            filt = QKFState(a_hat, RiccatiState(v, w_cov, t))
            slh = controlled_slh(gains, filt, ref, ie, t, params, dim)
            alone = _KrausStepper(x[b:b + 1], dt, slh)
            assert _words(alone.c) == _words(c)
            dy = alone.step(1.0 + 0.0j, dis[b:b + 1])
            for cols, rows, dys in shard:
                _assert_row_is_the_truths_own(rows[b], cols, alone)
                assert dys[b] == dy[0]
            drift = drift_estimate(gains, filt, ref, ie, t, params)
            assert _words([drift]) == _words([drifts[b]])
            new = pid_filter_step(ClosedLoopState(filt, ie, t=t), dis[b],
                                  gains, ref, params, dt)
            assert _words([new.filter.a_hat, new.integral_error]) == _words(
                updated[b])

    # and each truth of a co-simulation of three is the run of its own SLH
    _shard_run(gains, CovariancePair(0.4, 0.1j), 24, params, 3)


#: the relative tolerance of a ladder row against the dense assembly
#: (``_reference_lh``), as a share of the largest entry; measured before
#: it was fixed: at most 5.9e-16 over the Xi and gain sets of the test
#: below, at dim 6 and 12
ROW_TOL = 1e-15


@pytest.mark.parametrize("name", ["zero", "P", "PI", "PID", "D"])
def test_xi_only_rows_have_the_bits_of_the_complex_expressions(name):
    # (c1, c2) and the row of dt A0 at z = 0, formed once for a block of Xi
    # as a schedule block forms them, have the bits of the same expressions
    # on each Xi alone (length-1 arrays, as controlled_slh forms them),
    # over Xi with signed zero parts, tiny and large parts and random ones;
    # and both are the dense assembly of L and dt A0 within ROW_TOL
    gains = dict(GAIN_SETS, D=PIDGains(0.0, 0.0, 0.7))[name]
    rng = np.random.default_rng(22)
    edges = [0.0, -0.0, 0.3, -1.7, 5e-324, -3e100]
    xis = np.array([complex(re, im) for re in edges for im in edges] + [
        complex(*rng.normal(0.0, 2.0, 2)) for _ in range(200)])
    dim = 6
    for params, dt in ((ModeParams(1.0, 0.5), 1e-3),
                       (ModeParams(2.0, 0.0), 2.5e-4)):
        stepper = _KrausStepper(np.ones((1, dim), dtype=complex), dt,
                                family=(params.omega, 1.0, 1.0, 1.0, 1j))

        def rows(xi):
            c1, c2, w = _xi_terms(gains.k_D, math.sqrt(params.gamma), xi)
            return np.column_stack([c1, c2] + stepper.block(c1, c2, w))

        block = rows(xis)
        for i, xi in enumerate(xis):
            assert rows(xis[i:i + 1]).tobytes() == block[i].tobytes()
            l_ref, h_ref = _reference_lh(gains, params, xi, 0.0, dim)
            c1, c2, *a0 = block[i]
            got = _ladder_dense([[0.0, c2, 0.0, c1, 0.0, 0.0], a0], dim)
            for part, want in zip(got, (l_ref, dt * _a0(l_ref, h_ref))):
                assert (np.max(np.abs(part - want))
                        <= ROW_TOL * np.max(np.abs(want)))


def test_schedule_blocks_meet_without_a_seam():
    # the schedule forms (c1, c2) and the base row of dt A0 at z = 0 as
    # arrays, once per block of 512 steps: over a 1,100-step PID run, across
    # its block seams (steps 511 | 512 and 1023 | 1024), the truth is the
    # run of its own SLH, and the run forms three blocks (and the family's
    # unit-Xi row)
    recs, _, formed = _shard_run(PIDGains(2.0, 1.0, 0.5),
                                 CovariancePair(0.5, 0.0), 24,
                                 ModeParams(1.0, 0.5), T=1.1)
    assert formed == 4
    # Xi moves across the seams, so each step has rows of its own
    (rec,) = recs
    assert len({_words([rec.V[k], rec.W[k]]) for k in (511, 512, 1023,
                                                       1024)}) == 4


@pytest.mark.parametrize("rank", [None, 4], ids=["vectors", "factors"])
def test_trimmed_kraus_step_is_the_full_step(rank):
    # a step on the members the rows use equals the step on all seven with
    # the zero columns put back, to a few eps: the two row contractions
    # differ in length, so their rounding depends on how the BLAS kernel
    # groups the sum (OpenBLAS's zgemv sums blocks of four columns, so
    # the four-column P/I row moves at rounding level); under PID every
    # member is kept, the two steps are one call and agree bit for bit.
    # The record increments come from the exact products alone
    rng = np.random.default_rng(16)
    dt = 1e-5
    for dim, batch in itertools.product((7, 12, 30), (1, 3, 8)):
        shape = (batch, dim) if rank is None else (batch, dim, rank)
        psis = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psis /= np.linalg.norm(psis.reshape(batch, -1), axis=1).reshape(
            (batch,) + (1,) * (len(shape) - 1))
        dI = tuple(rng.normal(0.0, math.sqrt(dt), batch).tolist())
        zs = [complex(*rng.normal(size=2)) for _ in range(batch)]
        c1, c2, w = complex(*rng.normal(size=2)), 0.3 - 0.2j, 0.1j
        # (members, (c1, c2), w, each row's z or None: shared rows at z = 0)
        cases = [((2, 3), (1.0, 0.0j), 0.0j, None),
                 ((1, 2, 3), (1.0, 0.0j), 0.0j, zs),
                 (ALL, (c1, c2), w, zs)]
        for cols, c, wc, z_rows in cases:
            full, dy_full = _kraus_step(psis, ALL, c, wc, z_rows, dI, dt)
            new, dy = _kraus_step(psis, cols, c, wc, z_rows, dI, dt)
            assert dy == dy_full
            assert np.max(np.abs(new - full)) <= 4 * np.finfo(float).eps
            if cols == ALL:
                assert np.array_equal(new, full)


@pytest.mark.parametrize("dt", [1e-3, 5e-4])
@pytest.mark.parametrize("alpha0", [0.5, -0.3 + 0.6j, 1j])
def test_coherent_truths_stay_coherent(monkeypatch, alpha0, dt):
    # with L = sqrt(gamma) a and H = omega a'a a coherent state stays
    # coherent on every record (a|alpha> = alpha|alpha>), its amplitude
    # alpha0 e^{-kappa t} with kappa = gamma/2 + i omega; the Euler row
    # errs by O(dt |alpha|^2) (measured: at most 1.09 dt |alpha0|^2), and
    # the variance <a'a> - |<a>|^2 stays at rounding level (measured: at
    # most 2.3e-8); both gates were fixed before the first run
    params, dim, T, batch = ModeParams(1.0, 0.5), 30, 0.5, 8
    steppers = _built_steppers(monkeypatch)
    noises = [NoiseStream((7 << 40) ^ i, dt) for i in range(batch)]
    recs = control._cosim(alpha0, CovariancePair(0.0, 0.0), PIDGains(0.0),
                          ReferenceSignal("constant", 0.0), params, dim,
                          noises, T, dt, 1, [alpha0] * batch,
                          CovariancePair(0.0, 0.0))
    # the zero-gain path: a'a, a and I
    (stepper,) = steppers
    assert stepper.basis[0].shape == (3 * dim, dim)
    kappa = complex(0.5 * params.gamma, params.omega)
    for rec in recs:
        want = alpha0 * np.exp(-kappa * rec.t)
        assert (np.max(np.abs(rec.truth_mean_a - want))
                <= 4 * dt * abs(alpha0) ** 2)
        assert np.max(np.abs(rec.truth_mean_n
                             - np.abs(rec.truth_mean_a) ** 2)) <= 1e-7


@pytest.mark.parametrize("alpha0", [0.5, -0.3 + 0.6j, 1j])
@pytest.mark.parametrize("name", ["P", "PI"])
def test_coherent_truth_follows_the_displacement_oracle(name, alpha0):
    # under P and I alone L = sqrt(gamma) a and H = omega a'a + z a'
    # + conj(z) a, so a coherent truth stays coherent and, with z frozen
    # over each step, its amplitude obeys
    # alpha_{k+1} = e^{-kappa dt} alpha_k + (1 - e^{-kappa dt}) (-i z_k) / kappa
    # with z_k = i k_P (mu r_k - a_hat_k) + i k_I ie_k and the integral
    # error rebuilt from the recorded a_hat, ie_{k+1} = ie_k + (r_k - a_hat_k) dt.
    # Measured at dt = 1e-4, T = 0.5 over six noise seeds: the Euler row
    # errs by at most 0.59 dt max_k(|alpha_k|, |z_k|)^2, and the variance
    # <a'a> - |<a>|^2 (which grows as (|z| dt)^2) stays below 5.6e-8; both
    # gates were fixed before the first run
    gains = {"P": PIDGains(2.0, mu=0.7), "PI": PIDGains(2.0, 1.0, mu=1.3)}[name]
    params, dim, dt, T = ModeParams(1.0, 0.5), 30, 1e-4, 0.5
    kappa = complex(0.5 * params.gamma, params.omega)
    decay = cmath.exp(-kappa * dt)
    for seed in range(2):
        rec = closed_loop_cosim(alpha0, CovariancePair(0.0, 0.0), gains,
                                ReferenceSignal("step", 1.0), params, dim,
                                NoiseStream((7 << 40) ^ seed, dt), T, dt)
        alpha, zs, ie = [complex(alpha0)], [], 0.0j
        for a_hat in rec.a_hat[:-1]:
            zs.append(1j * gains.k_P * (gains.mu * 1.0 - a_hat)
                      + 1j * gains.k_I * ie)
            alpha.append(decay * alpha[-1]
                         + (1.0 - decay) * (-1j * zs[-1]) / kappa)
            ie += (1.0 - a_hat) * dt
        size = max(np.max(np.abs(alpha)), np.max(np.abs(zs)))
        assert (np.max(np.abs(rec.truth_mean_a - np.array(alpha)))
                <= 2.0 * dt * size ** 2)
        assert np.max(np.abs(rec.truth_mean_n
                             - np.abs(rec.truth_mean_a) ** 2)) <= 1e-7


def _arrays(obj) -> list:
    """Every array held by a record or state, through nested dataclasses
    and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    return []


def test_steppers_share_no_buffer_with_inputs_or_other_runs():
    # the Kraus stepper reuses its buffers within a run: the caller's
    # initial arrays keep their bits and their read-only flag, nothing a
    # run returns shares memory with them, and a second run leaves the
    # first run's records and final states as they were
    params, dim, dt, T = ModeParams(1.0, 0.5), 30, 1e-3, 0.02
    slh = damped_cavity_slh(params, dim)
    psi0 = coherent_state(0.4 + 0.1j, dim)
    rho0 = gaussian_state(0.3, CovariancePair(0.4, 0.1j), dim)
    inputs = [psi0.amplitudes, rho0.entries]
    words = [a.tobytes() for a in inputs]
    mixed = CovariancePair(0.5, 0.0)
    runs = {
        "closed_loop_cosim": lambda seed: closed_loop_cosim(
            0.3, CovariancePair(0.0, 0.0), PIDGains(2.0, 1.0, 0.5),
            ReferenceSignal("step", 1.0), params, dim, NoiseStream(seed, dt),
            T, dt),
        "shard of 3": lambda seed: control._cosim(
            0.3, mixed, PIDGains(2.0, 1.0), ReferenceSignal("step", 1.0),
            params, dim, [NoiseStream(seed + b, dt) for b in range(3)], T,
            dt, 1, [0.3, 0.2j, -0.1], mixed),
        "run_trajectory sse": lambda seed: run_trajectory(
            psi0, slh, 0.0, NoiseStream(seed, dt), T, dt),
        "run_trajectory sme": lambda seed: run_trajectory(
            rho0, slh, 0.0, NoiseStream(seed, dt), T, dt, mode="sme"),
        "sse_step": lambda seed: sse_step(
            TrajectoryState(0.0, 0.0, 0.0, psi=psi0), slh, 0.0, 0.01 * seed,
            dt),
        "sme_step": lambda seed: sme_step(
            TrajectoryState(0.0, 0.0, 0.0, rho=rho0), slh, 0.0, 0.01 * seed,
            dt),
    }
    for name, run in runs.items():
        first = _arrays(run(1))
        first_words = [a.tobytes() for a in first]
        second = _arrays(run(2))
        assert first and len(second) == len(first), name
        for out in first + second:
            assert not any(np.shares_memory(out, a) for a in inputs), name
        assert [a.tobytes() for a in first] == first_words, name
        assert [a.tobytes() for a in inputs] == words, name
        assert not any(a.flags.writeable for a in inputs), name


def test_estimation_error_does_not_depend_on_the_gains():
    # separation under feedback: the gains act through the record, so
    # along one noise path the conditional squared error of the filter
    # stays that of the zero-gain run while a_hat itself moves; the
    # filter starts from a thermal prior, so Xi != 0 and the loop feeds
    # back through all of c1, c2, z and w
    params, dim, dt = ModeParams(1.0, 0.5), 30, 5e-4

    def run(gains):
        rec = closed_loop_cosim(0.0, CovariancePair(0.5, 0.0j), gains,
                                ReferenceSignal("step", 1.0), params, dim,
                                NoiseStream(3, dt), 1.0, dt, record_stride=10,
                                truth_alpha=0.4 + 0.2j,
                                truth_cov=CovariancePair(0.0, 0.0j))
        sq = (rec.truth_mean_n
              - 2.0 * (np.conj(rec.a_hat) * rec.truth_mean_a).real
              + np.abs(rec.a_hat) ** 2)
        return rec.a_hat, sq

    a_free, sq_free = run(PIDGains(0.0))
    for gains in (PIDGains(2.0, 1.0), PIDGains(2.0, 1.0, 0.5)):
        a_hat, sq = run(gains)
        assert np.max(np.abs(sq - sq_free)) < 1e-3
        assert np.max(np.abs(a_hat - a_free)) >= 0.1


@pytest.mark.parametrize("cov", [CovariancePair(0.0, 0.0),
                                 CovariancePair(0.5, 0.0)],
                         ids=["pure", "mixed"])
def test_cosim_step_builds_no_dense_coefficients(monkeypatch, cov):
    # the per-step body works on scalars: no SLH materialization, no
    # derived stepper arrays, and the filter state is wrapped once, at
    # the end
    def forbidden(*_args, **_kwargs):
        raise AssertionError("called inside the co-simulation step")

    monkeypatch.setattr(control, "controlled_slh", forbidden)
    monkeypatch.setattr(trajectory.SLHCoefficients, "_kraus",
                        property(forbidden))
    monkeypatch.setattr(trajectory.SLHCoefficients, "__post_init__", forbidden)
    monkeypatch.setattr(CavityOperator, "__post_init__", forbidden)
    made = {"QKFState": 0, "ClosedLoopState": 0}
    for name in made:
        cls = getattr(control, name)

        def counted(*args, _cls=cls, _name=name, **kwargs):
            made[_name] += 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(control, name, counted)
    rec = closed_loop_cosim(0.3, cov, PIDGains(2.0, 1.0, 0.5),
                            ReferenceSignal("step", 1.0), ModeParams(1.0, 0.5),
                            24, NoiseStream(4, 1e-3), 0.05, 1e-3)
    assert made == {"QKFState": 1, "ClosedLoopState": 1}
    assert rec.t.shape == (51,)


@pytest.mark.parametrize("cov", [CovariancePair(0.0, 0.0),
                                 CovariancePair(0.5, 0.0)],
                         ids=["pure-norm-guard", "mixed-positivity-guard"])
@pytest.mark.filterwarnings("ignore::cavityfilter.errors.TruncationWarning")
def test_cosim_coarse_step_raises_step_tagged_error(cov):
    with pytest.raises(StepSizeError, match=r"step \d+"):
        closed_loop_cosim(1.5, cov, PIDGains(2.0, 1.0, 0.5),
                          ReferenceSignal("step", 1.0), ModeParams(1.0, 0.0),
                          20, NoiseStream(3, 0.5), 1.0, 0.5)


def test_cosim_names_the_truth_whose_filter_leaves_its_domain(monkeypatch):
    # a non-finite integral error stops the run at its step and names the
    # truth as the error's column, whichever truths share its shard: under
    # gains the shard's filters update in one call per step, which checks
    # them in truth order, so of truths 1 and 2 leaving at step 0 truth 1
    # is named
    update = control._filter_update
    calls = []

    def leave(filters, *args):
        a_hats, ies, i_sums, qvs = filters
        calls.append(len(a_hats))
        return update((a_hats, ies[:1] + [complex(math.inf, 0.0)] * 2,
                       i_sums, qvs), *args)

    monkeypatch.setattr(control, "_filter_update", leave)
    with pytest.raises(DomainError, match="step 0 .*left its domain") as info:
        control._cosim(0.3, CovariancePair(0.0, 0.0), PIDGains(1.0),
                       ReferenceSignal("step", 1.0), ModeParams(1.0, 0.5), 12,
                       [NoiseStream(b, 1e-3) for b in range(3)], 0.01, 1e-3,
                       1, [0.3] * 3, CovariancePair(0.0, 0.0))
    assert calls == [3]
    assert info.value.column == 1


def _per_step_update(a_hats, ies, i_sums, qvs, d_ys, drifts, r_t, xi, dt,
                     sg2):
    """One filter step of a shard, as a step-by-step run takes it: the
    reference of ``control._filter_update``."""
    out = [], [], [], []
    for a_hat, ie, i_sum, qv, d, drift in zip(a_hats, ies, i_sums, qvs,
                                              d_ys, drifts):
        d = d - (sg2 * a_hat.real) * dt
        ie = ie + error_signal(r_t, a_hat) * dt
        assert cmath.isfinite(ie)
        for col, value in zip(out, (_mean_update(a_hat, drift, xi, d, dt),
                                    ie, i_sum + d, qv + d * d)):
            col.append(value)
    return out


def _per_step_cosim(gains, ref, params, dim, noises, T, dt, stride,
                    truth_alphas, truth_cov, alpha=0.2,
                    cov=CovariancePair(0.5, 0.0)):
    """``control._cosim`` as a step-by-step run: every step forms the
    shard's z and drifts (``_feedback_scalars``), takes the Kraus step and
    updates the filters one step (``_per_step_update``).  Returns one
    list of outputs per truth: the record's columns, qv and the final
    state's."""
    pure = abs(truth_cov.physicality_excess()) <= 1e-8
    states = [_gaussian_vector(a, truth_cov, dim).amplitudes if pure else
              trajectory._density_factor(gaussian_state(a, truth_cov,
                                                        dim).entries)
              for a in truth_alphas]
    batch = len(noises)
    filters = ([complex(alpha)] * batch, [0.0j] * batch, [0.0] * batch,
               [0.0] * batch)
    sg2 = math.sqrt(params.gamma) * 2.0
    feedback = _feedback_scalars(gains, params)
    c1, c2, w = (complex(p[0]) for p in _xi_terms(
        gains.k_D, math.sqrt(params.gamma), np.ones(1, dtype=complex)))
    stepper = _KrausStepper(np.stack(states), dt, family=(
        params.omega, c1, c2, 0.0j if gains.all_zero else 1.0, w))
    n = trajectory._step_total(noises, T, dt, stride)
    rec_ah, rec_vw, rec_i = [], [], []
    rows = control._schedule(gains, ref, params, cov, dt, n, stepper)
    row = next(rows)

    def step(t, arr, dw):
        nonlocal row, filters
        r_t, dr_t, xi, _, _, c, base = row
        zs, drifts = feedback(filters[0], filters[1], r_t, dr_t, xi)
        dy = stepper.step(1.0 + 0.0j, dw, None if gains.all_zero else zs, c,
                          base)
        filters = _per_step_update(*filters, dy, drifts, r_t, xi, dt, sg2)
        row = next(rows)
        return stepper.x, dy

    def sample(idx):
        rec_ah.append(list(filters[0]))
        rec_vw.append(row[3:5])
        rec_i.append(list(filters[2]))

    truths = trajectory._integrate(stepper.x, "psi" if pure else "rho",
                                   noises, n, dt, stride, step, "closed loop",
                                   sample)
    out = []
    for b, truth in enumerate(truths):
        final = truth.final
        out.append([truth.t, truth.mean_a, truth.mean_n, truth.Y,
                    np.array([r[b] for r in rec_ah]),
                    np.array([v for v, _ in rec_vw]),
                    np.array([w for _, w in rec_vw], dtype=np.complex128),
                    np.array([r[b] for r in rec_i]),
                    _words([filters[0][b], filters[1][b], filters[3][b],
                            row[3], row[4], final.t, final.Y, final.I]),
                    final.rho.entries if final.rho is not None
                    else final.psi.amplitudes])
    return out


def _cosim_outputs(rec) -> list:
    """The outputs of a ``ClosedLoopRecord`` in ``_per_step_cosim``'s
    order."""
    final, truth = rec.final, rec.final.truth
    ric = final.filter.riccati
    assert final.t == ric.t == truth.t
    return [rec.t, rec.truth_mean_a, rec.truth_mean_n, rec.Y, rec.a_hat,
            rec.V, rec.W, rec.I,
            _words([final.filter.a_hat, final.integral_error, rec.qv, ric.V,
                    ric.W, truth.t, truth.Y, truth.I]),
            truth.rho.entries if truth.rho is not None
            else truth.psi.amplitudes]


def _assert_outputs_are(recs, want):
    """Each record's outputs (``_cosim_outputs``) are byte for byte the
    reference's (``_per_step_cosim``)."""
    for rec, outputs in zip(recs, want, strict=True):
        for got, ref_out in zip(_cosim_outputs(rec), outputs, strict=True):
            assert np.asarray(got).tobytes() == np.asarray(ref_out).tobytes()


def _counted_updates(monkeypatch) -> list:
    """The (first step, steps) of each ``control._filter_update`` call of
    the test from here on, in order."""
    update, calls = control._filter_update, []

    def counted(filters, steps, dt, first=None, *args):
        calls.append((first, len(steps)))
        return update(filters, steps, dt, first, *args)

    monkeypatch.setattr(control, "_filter_update", counted)
    return calls


def _windows(n: int, stride: int) -> list:
    """(first step, steps) of each window of a zero-gain run: up to the
    next record point, and no more than a noise block."""
    out, start = [], 0
    while start < n:
        end = min((start // stride + 1) * stride,
                  start + trajectory._NOISE_BLOCK)
        out.append((start, end - start))
        start = end
    return out


@pytest.mark.parametrize("stride,n", [(1, 5000), (7, 5005), (5000, 5000)],
                         ids=["stride-1", "stride-7", "stride-n"])
@pytest.mark.parametrize("truths", ["pure-1", "pure-3", "pure-8", "mixed-1"])
def test_zero_gain_filters_catch_up_on_the_step_by_step_bits(
        monkeypatch, truths, stride, n):
    # at zero gain the truths step alone and the filters take the pending
    # steps once per record window, at most a noise block of them (5,000
    # steps do not fill whole blocks): every record column and the final
    # state are byte for byte those of a step-by-step run that forms the
    # feedback's drifts and updates the filters after every step
    kind, batch = truths.split("-")
    batch = int(batch)
    params, dim, dt = ModeParams(1.0, 0.5), 20, 1e-3
    gains = PIDGains(0.0)
    ref = ReferenceSignal("sinusoid", 0.5 + 0.2j, onset=0.5, frequency=2.0)
    truth_cov = (CovariancePair(0.0, 0.0) if kind == "pure"
                 else CovariancePair(0.3, 0.0))
    alphas = [0.3 - 0.1j * b for b in range(batch)]

    def noises():
        return [NoiseStream(40 + b, dt) for b in range(batch)]

    calls = _counted_updates(monkeypatch)
    recs = control._cosim(0.2, CovariancePair(0.5, 0.0), gains, ref, params,
                          dim, noises(), n * dt, dt, stride, alphas, truth_cov)
    assert calls == _windows(n, stride)
    assert max(size for _, size in calls) <= trajectory._NOISE_BLOCK
    _assert_outputs_are(recs, _per_step_cosim(
        gains, ref, params, dim, noises(), n * dt, dt, stride, alphas,
        truth_cov))


def test_pending_steps_never_exceed_a_noise_block(monkeypatch):
    # a record stride of more than two noise blocks still makes the filters
    # catch up every noise block, so the pending list stays bounded
    n, block = 9000, trajectory._NOISE_BLOCK
    calls = _counted_updates(monkeypatch)
    control._cosim(0.2, CovariancePair(0.5, 0.0), PIDGains(0.0),
                   ReferenceSignal("step", 1.0), ModeParams(1.0, 0.5), 10,
                   [NoiseStream(3, 1e-3)], n * 1e-3, 1e-3, n, [0.3],
                   CovariancePair(0.0, 0.0))
    assert calls == [(0, block), (block, block), (2 * block, n - 2 * block)]


def test_filters_under_gains_take_every_step_as_it_comes(monkeypatch):
    # under gains the next step reads each filter's z, so the filters
    # update after every step, one step per call, and the run is the
    # step-by-step one byte for byte
    params, dim, dt, n, stride = ModeParams(1.0, 0.5), 14, 1e-3, 700, 7
    gains, ref = PIDGains(2.0, 1.0, 0.5), ReferenceSignal("step", 1.0)
    pure = CovariancePair(0.0, 0.0)

    def noises():
        return [NoiseStream(40 + b, dt) for b in range(2)]

    calls = _counted_updates(monkeypatch)
    recs = control._cosim(0.2, CovariancePair(0.5, 0.0), gains, ref, params,
                          dim, noises(), n * dt, dt, stride, [0.3, -0.2j],
                          pure)
    assert calls == [(k, 1) for k in range(n)]
    _assert_outputs_are(recs, _per_step_cosim(
        gains, ref, params, dim, noises(), n * dt, dt, stride, [0.3, -0.2j],
        pure))


def test_a_window_names_its_first_failing_step_then_its_lowest_filter():
    # each filter takes the window's steps in turn, yet the failure named
    # is a step-by-step run's: the earliest step, and of the filters that
    # fail at it the lowest.  NaN innovations at step 4 (filter 0) and at
    # step 1 (filters 1, 2 and 3) make the integral errors non-finite one
    # step later
    dt = 1e-3
    free = _feedback_scalars(PIDGains(0.0), ModeParams(1.0, 0.5)).free_drift
    d_ys = [[0.01, 0.02, -0.01, 0.03] for _ in range(8)]
    for k, b in ((4, 0), (1, 1), (1, 2), (1, 3)):
        d_ys[k][b] = math.nan
    steps = [(row, 1.0 + 0.0j, 0.3 + 0.1j) for row in d_ys]
    filters = ([0.1j] * 4, [0.0j] * 4, [0.0] * 4, [0.0] * 4)
    with pytest.raises(DomainError, match="left its domain") as info:
        control._filter_update(filters, steps, dt, 40, 2.0, free_drift=free)
    assert (info.value.step, info.value.column) == (42, 1)
    # and the steps before the first failure are those of the step-by-step
    # update
    got = control._filter_update(filters, steps[:2], dt, 40, 2.0,
                                 free_drift=free)
    kappa = -complex(0.5, 0.5)
    for row, r_t, xi in steps[:2]:
        drifts = [kappa * a for a in filters[0]]
        filters = _per_step_update(*filters, row, drifts, r_t, xi, dt, 2.0)
    assert _words(got) == _words(filters)


@pytest.mark.parametrize("later", [None, "truth", "truncation"])
def test_a_filter_failure_inside_a_window_keeps_its_step(monkeypatch, later):
    # at zero gain truth 1's record increment of step 19 is made NaN, so
    # its filter's integral error leaves the finite numbers at step 20,
    # inside the record window of steps 0-49: the run raises that
    # failure with its own step and the truth's column, as a step-by-step
    # run does, before a truth failure injected at step 30 of the same
    # window (truth 0's norm guard) and before a truncation failure at the
    # window's record (t = 0.05); without the filter fault those are what
    # the run raises
    taken, kraus_step = [], _KrausStepper.step

    def faulty(self, cis, dI, zs=None, c=None, base=None):
        k = len(taken)
        taken.append(k)
        if later == "truth" and k == 30:
            raise trajectory._at_column(StepSizeError("injected"), 0)
        dy = kraus_step(self, cis, dI, zs, c, base)
        if fault and k == 19:
            dy[1] = math.nan
        return dy

    def leak(pop, what):
        if not what.endswith("(t=0)"):
            raise TruncationError(f"injected leak at {what}")

    monkeypatch.setattr(_KrausStepper, "step", faulty)
    if later == "truncation":
        monkeypatch.setattr(trajectory, "LEAK_WARN", -1.0)
        monkeypatch.setattr(trajectory, "_check_truncation", leak)

    def run():
        taken.clear()
        control._cosim(0.3, CovariancePair(0.5, 0.0), PIDGains(0.0),
                       ReferenceSignal("step", 1.0), ModeParams(1.0, 0.5), 12,
                       [NoiseStream(b, 1e-3) for b in range(3)], 0.1, 1e-3,
                       50, [0.3, 0.1j, -0.2], CovariancePair(0.0, 0.0))

    fault = True
    with pytest.raises(DomainError) as info:
        run()
    assert re.match(r"step 20 \(t=0\.02\): filter left its domain",
                    str(info.value))
    assert info.value.column == 1
    fault = False
    if later is None:
        run()
        assert len(taken) == 100
    elif later == "truth":
        with pytest.raises(StepSizeError,
                           match=r"^step 30 \(t=0\.03\): injected") as info:
            run()
        assert info.value.column == 0
    else:
        with pytest.raises(TruncationError,
                           match=r"^injected leak at closed loop \(t=0\.05\)"):
            run()


def test_a_filter_step_failing_inside_a_source_names_the_run_step():
    # a callable source that advances its own filter with pid_filter_step
    # and whose filter leaves its domain at step 30 is reported at step 30:
    # a single filter step names no step of its own, so the run names the
    # step it was taking
    params, dim, dt, k = ModeParams(1.0, 0.5), 12, 1e-3, 30
    slh, ref = damped_cavity_slh(params, dim), ReferenceSignal("step", 1.0)
    state, calls = make_state(0.3, 0.5), []

    def source(t):
        nonlocal state
        if len(calls) == k:
            state = make_state(complex(math.nan, 0.0), 0.5, t=t)
        calls.append(t)
        state = pid_filter_step(state, 0.0, PIDGains(0.0), ref, params, dt)
        return slh

    with pytest.raises(DomainError,
                       match=r"^step 30 \(t=0\.03\): filter left its domain"):
        run_trajectory(coherent_state(0.3, dim), source, 0.0,
                       NoiseStream(2, dt), 0.1, dt)
    assert len(calls) == k + 1


def test_cosim_undersized_dim_raises_truncation_error():
    # the loop drives the mode toward |a| ~ 2.4, beyond what dim 10 holds
    with pytest.warns(TruncationWarning), \
            pytest.raises(TruncationError, match=r"closed loop \(t="):
        closed_loop_cosim(0.0, CovariancePair(0.0, 0.0), PIDGains(20.0),
                          ReferenceSignal("step", 2.5), ModeParams(1.0, 0.0),
                          10, NoiseStream(3, 1e-3), 1.0, 1e-3,
                          record_stride=10)


def test_cosim_mixed_truth_under_pid_tracks_filter():
    # thermal prior, no purification: the truth is a density matrix
    # stepped by the SME under PID feedback (criterion 9's tolerance)
    rec = closed_loop_cosim(0.0, CovariancePair(0.5, 0.0j),
                            PIDGains(2.0, 1.0, 0.5),
                            ReferenceSignal("step", 1.0), ModeParams(1.0, 0.0),
                            20, NoiseStream(5, 1e-3), 2.0, 1e-3,
                            record_stride=10)
    assert rec.final.truth.rho is not None
    assert np.max(np.abs(rec.a_hat - rec.truth_mean_a)) <= 1e-1
    v_truth = rec.truth_mean_n - np.abs(rec.truth_mean_a) ** 2
    assert np.max(np.abs(rec.V - v_truth)) <= 1e-1
    assert abs(rec.a_hat[-1] - 1.0) < 0.5


@pytest.mark.parametrize("cov", [CovariancePair(0.0, 0.0),
                                 CovariancePair(0.5, 0.0)],
                         ids=["pure", "mixed"])
def test_cosim_runs_the_one_trajectory_loop(monkeypatch, cov):
    calls = []
    loop = trajectory._integrate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return loop(*args, **kwargs)

    monkeypatch.setattr(trajectory, "_integrate", counted)
    monkeypatch.setattr(control, "_integrate", counted)
    closed_loop_cosim(0.3, cov, PIDGains(2.0, 1.0, 0.5),
                      ReferenceSignal("step", 1.0), ModeParams(1.0, 0.5), 24,
                      NoiseStream(4, 1e-3), 0.01, 1e-3)
    assert calls == ["psi" if cov.V == 0.0 else "rho"]


@pytest.mark.parametrize("cov", [CovariancePair(0.0, 0.0),
                                 CovariancePair(0.5, 0.0)],
                         ids=["pure", "mixed"])
@pytest.mark.bitwise
def test_cosim_zero_gain_truth_matches_open_loop_trajectory(cov):
    # without gains the co-simulation's truth is the open-loop trajectory
    # of the damped mode on the same noise, bit for bit: both take the
    # Kraus update on the ladder basis with the damped mode's rows
    params, dim, dt, T = ModeParams(1.0, 0.5), 24, 1e-3, 0.2
    alpha = 0.4
    rec = closed_loop_cosim(alpha, cov, PIDGains(0.0),
                            ReferenceSignal("constant", 0.0), params, dim,
                            NoiseStream(8, dt), T, dt, record_stride=5)
    if cov.V == 0.0:
        initial, mode = _gaussian_vector(alpha, cov, dim), "sse"
    else:
        initial, mode = gaussian_state(alpha, cov, dim), "sme"
    ref = run_trajectory(initial, damped_cavity_slh(params, dim), 0.0,
                         NoiseStream(8, dt), T, dt, mode=mode,
                         record_stride=5)
    assert np.array_equal(rec.t, ref.t)
    for got, want in ((rec.truth_mean_a, ref.mean_a),
                      (rec.truth_mean_n, ref.mean_n), (rec.Y, ref.Y)):
        assert np.array_equal(got, want)
