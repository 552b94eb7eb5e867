import itertools
import math

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
    CavityOperator,
    CovariancePair,
    _band_apply,
    _band_buffers,
    _gaussian_vector,
    _ladder_apply,
    _ladder_banded,
    _ladder_dense,
    annihilation_op,
    gaussian_state,
    number_op,
)
from cavityfilter.qkf import ModeParams, QKFState, RiccatiState, qkf_step
from cavityfilter.control import (
    ClosedLoopState,
    PIDGains,
    ReferenceSignal,
    _feedback_scalars,
    _shared_scalars,
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
    _ladder_rows,
    _slh_coefficients,
    damped_cavity_slh,
    run_trajectory,
)


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
        return (control._drift_at(gains, a, ie, ref.value(t),
                                  ref.derivative(t), params),
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


def _reference_slh(gains, a_hat, ie, v, w, t, params, ref, dim):
    """Dense (L, H) of the feedback actuation, assembled term by term from
    the ladder matrices: the reference the structured forms must match."""
    a = annihilation_op(dim).entries
    ad = a.conj().T
    n = number_op(dim).entries
    a2 = a @ a
    m1 = a2 + n
    sg = math.sqrt(params.gamma)
    xi = sg * (v + w) / (1.0 + gains.k_D)
    z = (1j * gains.k_P * (gains.mu * ref.value(t) - a_hat)
         + 1j * gains.k_I * ie)
    filt = QKFState(a_hat, RiccatiState(v, w, t))
    varpi = drift_estimate(gains, filt, ref, ie, t, params)
    z += 1j * gains.k_D * (gains.nu * ref.derivative(t) - varpi
                           + sg * 2.0 * a_hat.real * xi)
    w_c = 0.5j * sg * gains.k_D * np.conj(xi)
    l_mat = sg * a + gains.k_D * (np.conj(xi) * a - xi * ad)
    h_mat = (params.omega * n + w_c * m1 + np.conj(w_c) * m1.conj().T
             + z * ad + np.conj(z) * a)
    return l_mat, h_mat


@pytest.mark.parametrize("dim", [2, 3, 30])
@pytest.mark.parametrize("kp,ki,kd", [(2.0, 0.0, 0.0), (0.0, 1.5, 0.0),
                                      (0.0, 0.0, 0.7), (2.0, 1.5, 0.7)])
def test_structured_coefficients_match_dense_slh(dim, kp, ki, kd):
    # the banded and the contracted (L psi, A0 psi) of the SSE path and
    # the dense (L, A0, H) rows all equal the term-by-term assembly, as
    # does the public controlled_slh built from the same scalars
    rng = np.random.default_rng(dim)
    params = ModeParams(1.3, 0.4)
    ref = ReferenceSignal("ramp", 0.3, slope=0.7)
    buffers = _band_buffers(dim)
    for _ in range(10):
        gains = PIDGains(kp, ki, kd, mu=rng.uniform(0.0, 2.0),
                         nu=rng.uniform(0.0, 2.0))
        a_hat = complex(*rng.normal(0.0, 1.0, 2))
        ie = complex(*rng.normal(0.0, 1.0, 2))
        v, w = rng.uniform(0.0, 1.0), complex(*rng.normal(0.0, 0.3, 2))
        t = rng.uniform(0.0, 5.0)
        l_ref, h_ref = _reference_slh(gains, a_hat, ie, v, w, t, params, ref,
                                      dim)
        ll_ref = l_ref.conj().T @ l_ref
        a0_ref = -1j * h_ref - 0.5 * ll_ref

        slh = controlled_slh(gains, QKFState(a_hat, RiccatiState(v, w, t)),
                             ref, ie, t, params, dim)
        assert np.max(np.abs(slh.l.entries - l_ref)) < 1e-12
        assert np.max(np.abs(slh.h.entries - h_ref)) < 1e-12

        c1, c2, z, wz, _ = _feedback_scalars(
            gains, a_hat, ie, *_shared_scalars(gains, ref, t, v, w, params),
            params)
        rows = _slh_coefficients(c1, c2, z, wz, params.omega)
        dense = _ladder_dense(rows, dim)
        for got, want in zip(dense, (l_ref, a0_ref, h_ref)):
            assert np.max(np.abs(got - want)) < 1e-12

        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        bands = _ladder_banded(rows[:2], dim)
        l_psi, a0_psi = _band_apply(bands[:, None], psi[None], buffers)[:, 0]
        assert np.max(np.abs(l_psi - l_ref @ psi)) < 1e-12
        assert np.max(np.abs(a0_psi - a0_ref @ psi)) < 1e-12

        # the batch rows carry the bits of the scalar rows, also for the
        # zero displacement of a zero-gain step
        coef = _ladder_rows(c1, c2, [z, 0.0j], wz, params.omega)
        zero = _slh_coefficients(c1, c2, 0.0j, wz, params.omega)
        assert coef.tobytes() == np.array([rows[:2], zero[:2]]).tobytes()
        coef = coef[:1]
        l_psi, a0_psi = _ladder_apply(coef, psi[None], buffers)[:, 0]
        assert np.max(np.abs(l_psi - l_ref @ psi)) < 1e-12
        assert np.max(np.abs(a0_psi - a0_ref @ psi)) < 1e-12


def test_band_apply_is_batch_invariant():
    # every row of a (B, dim) stack gets the bits of a lone state, with
    # bands shared by the stack or one set per row, in the (rows, B, 5,
    # dim) layout the lockstep co-simulation applies, and so does the
    # contraction of per-row ladder rows that a step under feedback takes
    rng = np.random.default_rng(3)
    rows = [_slh_coefficients(*(complex(*rng.normal(size=2))
                                for _ in range(4)), 0.5)[:2]
            for _ in range(9)]
    for dim, batch in itertools.product((7, 12, 30), (1, 2, 5, 9)):
        psis = (rng.normal(size=(batch, dim))
                + 1j * rng.normal(size=(batch, dim)))
        shared = _band_apply(_ladder_banded(rows[0], dim)[:, None], psis,
                             _band_buffers(dim, batch))
        own = _band_apply(_ladder_banded([[r[i] for r in rows[:batch]]
                                          for i in (0, 1)], dim), psis,
                          _band_buffers(dim, batch))
        for b in range(batch):
            for got, row in ((shared, rows[0]), (own, rows[b])):
                alone = _band_apply(_ladder_banded(row, dim)[:, None],
                                    psis[b:b + 1], _band_buffers(dim))
                assert np.array_equal(got[:, b], alone[:, 0])
            for got, mat in zip(own[:, b], _ladder_dense(rows[b], dim)):
                assert np.max(np.abs(got - mat @ psis[b])) < 1e-12
        coef = np.array(rows[:batch])
        contracted = _ladder_apply(coef, psis, _band_buffers(dim, batch))
        for b in range(batch):
            alone = _ladder_apply(coef[b:b + 1], psis[b:b + 1],
                                  _band_buffers(dim))
            assert contracted[:, b].tobytes() == alone[:, 0].tobytes()
            for got, mat in zip(contracted[:, b], _ladder_dense(rows[b], dim)):
                assert np.max(np.abs(got - mat @ psis[b])) < 1e-12


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
    monkeypatch.setattr(trajectory.SLHCoefficients, "_kernel",
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
                         ids=["pure-bands-vs-dense", "mixed"])
def test_cosim_zero_gain_truth_matches_open_loop_trajectory(cov):
    # without gains the co-simulation's truth is the open-loop trajectory
    # of the damped mode on the same noise; a mixed truth steps from the
    # same closed-form L'L as the damped mode's SLH, so bit for bit
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
        if cov.V == 0.0:
            assert np.max(np.abs(got - want)) < 1e-12
        else:
            assert np.array_equal(got, want)
