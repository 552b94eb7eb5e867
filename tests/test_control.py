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
    _LADDER_KEYS,
    CavityOperator,
    CovariancePair,
    _gaussian_vector,
    _ladder_basis,
    _ladder_dense,
    _ladder_table,
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
    _kraus_update,
    _slh_coefficients,
    damped_cavity_slh,
    run_trajectory,
)

#: every member of the ladder basis, as ``fock._ladder_basis`` columns
ALL = tuple(range(len(_LADDER_KEYS)))


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
    # the dense (L, A0, H) rows and one Kraus step on the ladder basis all
    # equal the term-by-term assembly, as does the public controlled_slh
    # built from the same scalars
    rng = np.random.default_rng(dim)
    params = ModeParams(1.3, 0.4)
    ref = ReferenceSignal("ramp", 0.3, slope=0.7)
    dt, di = 1e-5, 3e-3
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
        assert rows[0] == [0.0, c2, 0.0, c1, 0.0, 0.0]
        dense = _ladder_dense(rows, dim)
        for got, want in zip(dense, (l_ref, a0_ref, h_ref)):
            assert np.max(np.abs(got - want)) < 1e-12

        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        new, dy = _kraus_update(psi[None], _ladder_basis(dim, ALL),
                                (c1, c2), [[dt * a for a in rows[1]]],
                                1.0 + 0.0j, (di,), dt)
        lam = 2.0 * np.vdot(psi, l_ref @ psi).real
        kraus = ((1.0 - lam * lam * dt / 8.0 - lam * di / 2.0) * np.eye(dim)
                 + dt * a0_ref + (lam * dt / 2.0 + di) * l_ref)
        want = kraus @ psi
        assert np.max(np.abs(new[0] - want / np.linalg.norm(want))) < 1e-12
        assert abs(dy[0] - (lam * dt + di)) < 1e-14


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
        own = [_slh_coefficients(c1, c2, sc[2], w, 0.5) for sc in scalars]
        p_i = [_slh_coefficients(1.0, 0.0j, sc[2], 0.0j, 0.5)
               for sc in scalars]
        zero = _slh_coefficients(1.0, 0.0j, 0.0j, 0.0j, 0.5)
        cases = [(zero, [None] * 8, ALL), (own[0], own, ALL),
                 (zero, [None] * 8, (2, 3)), (p_i[0], p_i, (1, 2, 3))]
        for shared, per_row, cols in cases:
            rows = [(shared if r is None else r) for r in per_row[:batch]]
            da = [[dt * r[1][j] for j in cols] for r in rows]
            c = (shared[0][3], shared[0][1])
            basis = _ladder_basis(dim, cols)
            new, dy = _kraus_update(psis, basis, c, da, 1.0 + 0.0j, dI, dt)
            for b in range(batch):
                alone, dy_alone = _kraus_update(
                    psis[b:b + 1], basis, c, da[b:b + 1],
                    1.0 + 0.0j, dI[b:b + 1], dt)
                assert new[b].tobytes() == alone[0].tobytes()
                assert dy[b] == dy_alone[0]
                l_mat, a0 = _ladder_dense(rows[b][:2], dim)
                x = psis[b].reshape(dim, -1)
                lam = 2.0 * np.vdot(x, l_mat @ x).real
                want = ((1.0 - lam * lam * dt / 8.0 - lam * dI[b] / 2.0) * x
                        + dt * (a0 @ x) + (lam * dt / 2.0 + dI[b]) * (l_mat @ x))
                want /= np.linalg.norm(want)
                assert np.max(np.abs(new[b].reshape(dim, -1) - want)) < 1e-12


def _cosim_steps(monkeypatch, gains, cov, dim, params):
    """The basis stacks of the ``_kraus_update`` calls of a short
    co-simulation under ``gains``, and every (L, A0) ladder row formed
    for it."""
    seen, rows = [], []

    def spy(x, basis, *args):
        seen.append(basis[0])
        return _kraus_update(x, basis, *args)

    def coefficients(*args):
        out = _slh_coefficients(*args)
        rows.append(out[:2])
        return out

    monkeypatch.setattr(control, "_kraus_update", spy)
    monkeypatch.setattr(control, "_slh_coefficients", coefficients)
    closed_loop_cosim(0.3, cov, gains, ReferenceSignal("step", 1.0), params,
                      dim, NoiseStream(4, 1e-3), 0.01, 1e-3)
    return seen, rows


@pytest.mark.parametrize("cov", [CovariancePair(0.0, 0.0),
                                 CovariancePair(0.5, 0.0)],
                         ids=["pure", "mixed"])
def test_truths_step_on_the_members_their_coefficients_use(monkeypatch, cov):
    # zero gain keeps a'a, a and I (the damped cavity's form), P and I add
    # a' (their z), and D keeps all six members and I; without damping or
    # detuning a'a drops out unless D is on.  Every row a run forms is
    # zero off its members
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
        assert np.array_equal(damped_cavity_slh(params, dim)._kraus[0][0],
                              stack(sets["zero"]))
        for name, members in sets.items():
            seen, rows = _cosim_steps(monkeypatch, gains[name], cov, dim,
                                      params)
            assert len(seen) == 10 and rows
            for basis in seen:
                assert basis.shape == ((len(members) + 1) * dim, dim)
                assert np.array_equal(basis, stack(members))
            off = [j for j, key in enumerate(_LADDER_KEYS)
                   if key not in members]
            assert all(row[j] == 0 for pair in rows for row in pair
                       for j in off)


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
        cases = [((2, 3), (1.0, 0.0j), [_slh_coefficients(
                     1.0, 0.0j, 0.0j, 0.0j, 0.5)] * batch),
                 ((1, 2, 3), (1.0, 0.0j), [_slh_coefficients(
                     1.0, 0.0j, z, 0.0j, 0.5) for z in zs]),
                 (ALL, (c1, c2), [_slh_coefficients(
                     c1, c2, z, w, 0.5) for z in zs])]
        for cols, c, rows in cases:
            assert all(r[1][j] == 0 for r in rows for j in ALL
                       if j not in cols)
            full, dy_full = _kraus_update(
                psis, _ladder_basis(dim, ALL), c,
                [[dt * a for a in r[1]] for r in rows], 1.0 + 0.0j, dI, dt)
            new, dy = _kraus_update(
                psis, _ladder_basis(dim, cols), c,
                [[dt * r[1][j] for j in cols] for r in rows], 1.0 + 0.0j,
                dI, dt)
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
    seen = []

    def spy(x, basis, *args):
        seen.append(basis[0].shape)
        return _kraus_update(x, basis, *args)

    monkeypatch.setattr(control, "_kraus_update", spy)
    noises = [NoiseStream((7 << 40) ^ i, dt) for i in range(batch)]
    recs = control._cosim(alpha0, CovariancePair(0.0, 0.0), PIDGains(0.0),
                          ReferenceSignal("constant", 0.0), params, dim,
                          noises, T, dt, 1, [alpha0] * batch,
                          CovariancePair(0.0, 0.0))
    # the zero-gain path: a'a, a and I
    assert set(seen) == {(3 * dim, dim)}
    kappa = complex(0.5 * params.gamma, params.omega)
    for rec in recs:
        want = alpha0 * np.exp(-kappa * rec.t)
        assert (np.max(np.abs(rec.truth_mean_a - want))
                <= 4 * dt * abs(alpha0) ** 2)
        assert np.max(np.abs(rec.truth_mean_n
                             - np.abs(rec.truth_mean_a) ** 2)) <= 1e-7


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
