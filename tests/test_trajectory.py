import gc
import itertools
import math
import re
import warnings
import weakref

import numpy as np
import pytest

from cavityfilter.control import PIDGains, ReferenceSignal, closed_loop_cosim
from cavityfilter.errors import (
    DimensionError,
    DomainError,
    NormBoundsError,
    StepSizeError,
    TruncationWarning,
)
from cavityfilter.fock import (
    CavityOperator,
    CovariancePair,
    DensityOperator,
    StateVector,
    annihilation_op,
    coherent_state,
    gaussian_state,
    identity_op,
    number_op,
)
from cavityfilter import control, fock, trajectory
from cavityfilter.qkf import ModeParams, RiccatiState, riccati_integrate
from cavityfilter.trajectory import (
    NoiseStream,
    QuadraturePhase,
    SLHCoefficients,
    TrajectoryState,
    belavkin_zakai_step,
    damped_cavity_slh,
    lindblad_apply,
    measurement_increment,
    run_trajectory,
    sme_step,
    sse_step,
)


#: every ladder column, and a co-simulation's ladder family
#: (omega, c1, c2, z, w) at unit Xi whose members are the given columns: a
#: zero-gain, a P/I and a PID one's
ALL = tuple(range(6))
LADDER_FAMILIES = {(2, 3): (0.5, 1.0, 0.0j, 0.0j, 0.0j),
                   (1, 2, 3): (0.5, 1.0, 0.0j, 1.0, 0.0j),
                   ALL: (0.5, 1.0, 1.0, 1.0, 1j)}


def pure_density(psi: StateVector) -> DensityOperator:
    v = psi.normalized().amplitudes
    return DensityOperator(psi.dim, np.outer(v, v.conj()))


def test_slh_validation():
    dim = 5
    a = annihilation_op(dim)
    h = number_op(dim)
    SLHCoefficients(1.0, a, h)
    SLHCoefficients(np.exp(0.3j), a, h)
    with pytest.raises(DomainError):
        SLHCoefficients(0.5, a, h)
    with pytest.raises(DomainError):
        SLHCoefficients(1.0, a, a)  # a is not Hermitian


def test_quadrature_phase():
    assert QuadraturePhase(0.3).at(10.0) == 0.3
    assert QuadraturePhase(0.3).constant == 0.3
    ramp = QuadraturePhase(lambda t: 0.1 * t)
    assert ramp.at(2.0) == 0.2
    assert ramp.constant is None


def test_noise_stream_reproducible():
    a = NoiseStream(123, 1e-3).increments(1000)
    b = NoiseStream(123, 1e-3).increments(1000)
    assert np.array_equal(a, b)
    c = NoiseStream(124, 1e-3).increments(1000)
    assert not np.array_equal(a, c)
    assert abs(np.std(a) - math.sqrt(1e-3)) < 0.1 * math.sqrt(1e-3)


def test_noise_stream_chunked_draws_equal_one_draw():
    # the trajectory loop draws each stream in blocks of 4096 steps; the
    # blocks continue the stream bit for bit, whatever their sizes
    n = 3 * 4096 + 123
    whole = NoiseStream(2 << 40, 1e-4).increments(n)
    for sizes in ([4096] * 3 + [123], [1, 4095, 5000, 3315], [n]):
        stream = NoiseStream(2 << 40, 1e-4)
        chunked = np.concatenate([stream.increments(m) for m in sizes])
        assert chunked.tobytes() == whole.tobytes()


def test_run_longer_than_a_noise_block_matches_the_step_chain():
    # a run across two noise blocks steps the increments of one draw: the
    # chain of Kraus steps of one stepper on the unnormalized vector, whose
    # final state is divided by its norm once; and sse_step is one such
    # step followed by that division
    dim, dt, n = 8, 1e-4, 4096 + 10
    slh = damped_cavity_slh(ModeParams(1.0, 0.3), dim)
    psi0 = coherent_state(0.3, dim)
    rec = run_trajectory(psi0, slh, 0.0, NoiseStream(9, dt), n * dt, dt,
                         record_stride=n)
    stepper = trajectory._KrausStepper(psi0.amplitudes[None], dt, slh)
    y = i = 0.0
    for dI in NoiseStream(9, dt).increments(n).tolist():
        y += stepper.step(1.0 + 0.0j, (dI,))[0]
        i += dI
    x = stepper.x[0]
    assert np.array_equal(rec.final.psi.amplitudes,
                          x / math.sqrt(np.vdot(x, x).real))
    assert rec.final.I == i
    assert rec.final.Y == y

    one = sse_step(TrajectoryState(0.0, 0.0, 0.0, psi=psi0), slh, 0.0, 0.01,
                   dt)
    stepper = trajectory._KrausStepper(psi0.amplitudes[None], dt, slh)
    dy = stepper.step(1.0 + 0.0j, (0.01,))
    x = stepper.x[0]
    assert np.array_equal(one.psi.amplitudes,
                          x / math.sqrt(np.vdot(x, x).real))
    assert (one.Y, one.I) == (dy[0], 0.01)


def test_noise_stream_spawn():
    base = NoiseStream(7, 1e-2)
    assert base.spawn(0).seed == 7
    assert base.spawn(3).seed == 7 ^ 3
    assert np.array_equal(base.spawn(0).increments(10),
                          NoiseStream(7, 1e-2).increments(10))


def test_noise_stream_validation():
    with pytest.raises(DomainError):
        NoiseStream(-1, 1e-3)
    with pytest.raises(DomainError):
        NoiseStream(0, 0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_noise_stream_rejects_non_finite_dt(dt):
    with pytest.raises(DomainError, match=r"^dt=-?(nan|inf) must be finite$"):
        NoiseStream(0, dt)


def test_trajectory_state_exactly_one_kind():
    psi = coherent_state(0.0, 4)
    TrajectoryState(0.0, 0.0, 0.0, psi=psi)
    with pytest.raises(DomainError):
        TrajectoryState(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        TrajectoryState(0.0, 0.0, 0.0, psi=psi, chi=psi)


def test_adjoint_generator_annihilates_identity():
    slh = damped_cavity_slh(ModeParams(1.3, 0.4), 12)
    out = lindblad_apply(slh, identity_op(12))
    assert np.max(np.abs(out.entries)) == 0.0


def test_adjoint_generator_mode_decay():
    # L(a) = -(gamma/2 + i omega) a holds exactly in the truncation
    gamma, omega, dim = 1.7, 0.6, 15
    slh = damped_cavity_slh(ModeParams(gamma, omega), dim)
    out = lindblad_apply(slh, annihilation_op(dim))
    want = -(gamma / 2 + 1j * omega) * annihilation_op(dim).entries
    assert np.max(np.abs(out.entries - want)) < 1e-12


def test_adjoint_generator_number_decay():
    gamma, dim = 0.8, 10
    slh = damped_cavity_slh(ModeParams(gamma, 0.0), dim)
    out = lindblad_apply(slh, number_op(dim))
    want = -gamma * number_op(dim).entries
    assert np.max(np.abs(out.entries - want)) < 1e-12


def test_adjoint_generator_preserves_hermiticity():
    slh = damped_cavity_slh(ModeParams(1.0, 0.9), 9)
    x = number_op(9)
    assert lindblad_apply(slh, x).is_hermitian(1e-12)


def test_measurement_increment_coherent():
    gamma, alpha, theta = 1.0, 0.4 + 0.3j, 0.7
    slh = damped_cavity_slh(ModeParams(gamma, 0.0), 30)
    state = TrajectoryState(0.0, 0.0, 0.0, psi=coherent_state(alpha, 30))
    dt, dw = 1e-3, 0.02
    lam = 2.0 * (np.exp(1j * theta) * math.sqrt(gamma) * alpha).real
    dy = measurement_increment(state, slh, theta, dw, dt)
    assert abs(dy - (lam * dt + dw)) < 1e-10


def test_vacuum_is_exact_fixed_point():
    # L|0> = 0 and H|0> = 0, so the stepper must not move the vacuum at all
    slh = damped_cavity_slh(ModeParams(1.0, 0.5), 8)
    state = TrajectoryState(0.0, 0.0, 0.0, psi=coherent_state(0.0, 8))
    for dI in (0.05, -0.3):
        state = sse_step(state, slh, 0.0, dI, 1e-2)
    assert np.array_equal(state.psi.amplitudes,
                          coherent_state(0.0, 8).amplitudes)
    # lambda = 0 along the way, so Y and I coincide with the summed noise
    assert state.Y == state.I == pytest.approx(0.05 - 0.3, abs=0.0)


def test_sse_coherent_stays_coherent():
    # zero conditional covariances are preserved along every noise path,
    # and the conditional mean decays deterministically despite the noise
    gamma, omega, theta = 1.0, 0.7, 0.4
    dim, dt, T = 25, 2.5e-4, 1.0
    slh = damped_cavity_slh(ModeParams(gamma, omega), dim)
    psi0 = coherent_state(0.5, dim)
    for seed in (3, 17, 101):
        rec = run_trajectory(psi0, slh, theta, NoiseStream(seed, dt), T, dt,
                             mode="sse", record_stride=40)
        v = rec.mean_n - np.abs(rec.mean_a) ** 2
        w = rec.mean_a2 - rec.mean_a ** 2
        assert np.max(np.abs(v)) < 1e-8
        assert np.max(np.abs(w)) < 1e-4
        ana = 0.5 * np.exp(-(gamma / 2 + 1j * omega) * rec.t)
        assert np.max(np.abs(rec.mean_a - ana)) < 5e-4


def test_sse_record_and_innovations_consistent():
    # Y - I must equal the integral of lambda dt
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), 20)
    rec = run_trajectory(coherent_state(0.8, 20), slh, 0.0,
                         NoiseStream(5, 1e-3), 0.5, 1e-3, mode="sse")
    lam = 2.0 * rec.mean_a.real  # sqrt(gamma) = 1
    integral = np.concatenate(([0.0], np.cumsum(lam[:-1]) * 1e-3))
    assert np.max(np.abs((rec.Y - rec.I) - integral)) < 5e-3


def test_sme_matches_sse_for_pure_states():
    # a pure state's density factor is its vector, so the density-matrix
    # step is the state-vector step to roundoff
    dim, dt, T = 25, 2.5e-4, 1.0
    slh = damped_cavity_slh(ModeParams(1.0, 0.3), dim)
    psi0 = coherent_state(0.5, dim)
    for seed in (3, 17):
        r_sse = run_trajectory(psi0, slh, 0.2, NoiseStream(seed, dt), T, dt,
                               mode="sse")
        r_sme = run_trajectory(pure_density(psi0), slh, 0.2,
                               NoiseStream(seed, dt), T, dt, mode="sme")
        assert np.max(np.abs(r_sse.mean_a - r_sme.mean_a)) < 1e-12
        assert np.max(np.abs(r_sse.Y - r_sme.Y)) < 1e-12


def test_sme_unconditioned_is_lindblad():
    # averaging the step over dI = +-sqrt(dt) keeps the L rho L' term a
    # dI = 0 path drops, and reduces the stepper to the master equation,
    # whose photon number decays as nbar e^{-gamma t}
    gamma, nbar, dim, dt = 1.0, 0.5, 20, 1e-3
    slh = damped_cavity_slh(ModeParams(gamma, 0.3), dim)
    rho = gaussian_state(0.0, CovariancePair(nbar, 0.0), dim)
    for k in range(1000):
        state = TrajectoryState(0.0, 0.0, 0.0, rho=rho)
        plus, minus = (sme_step(state, slh, 0.0, s * math.sqrt(dt), dt)
                       for s in (1.0, -1.0))
        rho = DensityOperator(dim, 0.5 * (plus.rho.entries
                                          + minus.rho.entries))
    n_mean = float(np.trace(number_op(dim).entries @ rho.entries).real)
    assert abs(n_mean - nbar * math.exp(-gamma)) < 5e-4


def test_sme_covariances_track_riccati():
    # the conditional covariances of the noisy density-matrix trajectory
    # must follow the deterministic Riccati flow for Gaussian data
    gamma, omega, theta = 1.0, 0.3, 0.2
    dim, dt, T, stride = 25, 1e-3, 2.0, 100
    params = ModeParams(gamma, omega)
    slh = damped_cavity_slh(params, dim)
    v0, w0 = 0.4, 0.1 + 0.05j
    rho0 = gaussian_state(0.2, CovariancePair(v0, w0), dim)
    rec = run_trajectory(rho0, slh, theta, NoiseStream(7, dt), T, dt,
                         mode="sme", record_stride=stride)
    ric = riccati_integrate(RiccatiState(v0, w0), theta, params, dt, T,
                            record_stride=stride)
    v_ric = np.array([s.V for s in ric])
    w_ric = np.array([s.W for s in ric])
    v_sme = rec.mean_n - np.abs(rec.mean_a) ** 2
    w_sme = rec.mean_a2 - rec.mean_a ** 2
    assert np.max(np.abs(v_sme - v_ric)) < 1e-2
    assert np.max(np.abs(w_sme - w_ric)) < 1e-2


def _tilted_operator_case():
    # operator-built coefficients, a tilted quadrature and a full-rank state
    dim, theta = 6, 0.7
    rng = np.random.default_rng(11)
    l_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h_mat = h_mat + h_mat.conj().T
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T + np.eye(dim)
    rho /= np.trace(rho).real
    slh = SLHCoefficients(1.0, CavityOperator(dim, l_mat),
                          CavityOperator(dim, h_mat))
    return slh, theta, rho


def _sme_step_entries(slh, theta, rho, dI, dt):
    state = TrajectoryState(0.0, 0.0, 0.0,
                            rho=DensityOperator(rho.shape[0], rho))
    return sme_step(state, slh, theta, dI, dt).rho.entries


def _textbook_euler_step(slh, theta, rho, dI, dt):
    # the SME written term by term, Hermitized and renormalized
    l_mat, h_mat = slh.l.entries, slh.h.entries
    ld = l_mat.conj().T
    ll = ld @ l_mat
    l_th = np.exp(1j * theta) * l_mat
    lam = np.trace(l_th @ rho + rho @ l_th.conj().T).real
    out = rho + (l_mat @ rho @ ld - 0.5 * (ll @ rho + rho @ ll)
                 - 1j * (h_mat @ rho - rho @ h_mat)) * dt
    out = out + (l_th @ rho + rho @ l_th.conj().T - lam * rho) * dI
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


def test_sme_step_is_the_kraus_map():
    # the step is K rho K' / tr(K rho K') with the Kraus operator of the
    # normalized state-vector step, formed densely here
    slh, theta, rho = _tilted_operator_case()
    dI, dt = 0.03, 1e-3
    got = _sme_step_entries(slh, theta, rho, dI, dt)

    dim = rho.shape[0]
    l_mat, h_mat = slh.l.entries, slh.h.entries
    l_th = np.exp(1j * theta) * l_mat
    lam = 2.0 * np.trace(l_th @ rho).real
    a0 = -1j * h_mat - 0.5 * (l_mat.conj().T @ l_mat)
    kraus = ((1.0 - lam * lam * dt / 8.0 - lam * dI / 2.0) * np.eye(dim)
             + dt * a0 + (lam * dt / 2.0 + dI) * l_th)
    want = kraus @ rho @ kraus.conj().T
    want /= np.trace(want).real
    assert np.max(np.abs(got - want)) < 1e-13


def test_sme_step_converges_to_the_textbook_step():
    # at dI = +-sqrt(dt) the Kraus step differs from the Euler step by
    # O(dt^{3/2}), and their averages over the sign by O(dt^2)
    slh, theta, rho = _tilted_operator_case()
    dts = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    one, mean = [], []
    for dt in dts:
        diffs = [_sme_step_entries(slh, theta, rho, s * math.sqrt(dt), dt)
                 - _textbook_euler_step(slh, theta, rho, s * math.sqrt(dt), dt)
                 for s in (1.0, -1.0)]
        one.append(max(np.max(np.abs(d)) for d in diffs))
        mean.append(np.max(np.abs(0.5 * (diffs[0] + diffs[1]))))
    slope_one = np.polyfit(np.log(dts), np.log(one), 1)[0]
    slope_mean = np.polyfit(np.log(dts), np.log(mean), 1)[0]
    assert slope_one >= 1.4
    assert slope_mean >= 1.9


def _assert_physical(rho: np.ndarray):
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_sme_stays_physical_at_coarse_steps():
    # the dt that tripped the Euler step's eigenvalue guard: every state of
    # the Kraus step is a density matrix, with and without measurement noise
    dim, dt = 15, 1e-2
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    for dis in (np.zeros(2000), NoiseStream(9, dt).increments(2000)):
        state = TrajectoryState(0.0, 0.0, 0.0,
                                rho=pure_density(coherent_state(0.5, dim)))
        for dI in dis:
            state = sme_step(state, slh, 0.0, dI, dt)
            _assert_physical(state.rho.entries)


def test_sme_run_from_a_pure_projector_stays_positive():
    # the Euler step's guard stopped this run at step 6 with an eigenvalue
    # of -1.0e-6: the zero eigenvalues of a rank-1 rho went negative
    dim, dt = 16, 1e-3
    slh = damped_cavity_slh(ModeParams(1.0, 0.4), dim)
    rec = run_trajectory(pure_density(coherent_state(0.6, dim)), slh, 0.0,
                         NoiseStream(4, dt), 0.1, dt, mode="sme")
    assert len(rec.t) == 101
    _assert_physical(rec.final.rho.entries)


def test_sme_state_dependent_source_sees_the_density_matrix():
    # the loop steps a factor X; a source of (t, state) still gets rho
    dim, dt = 20, 1e-3
    slh = damped_cavity_slh(ModeParams(1.0, 0.4), dim)
    rho0 = gaussian_state(0.3, CovariancePair(0.4, 0.1), dim)
    seen = []

    def source(t, state):
        seen.append(state)
        return slh

    run_trajectory(rho0, source, 0.0, NoiseStream(6, dt), 0.01, dt,
                   mode="sme")
    assert len(seen) == 10
    assert np.max(np.abs(seen[0] - rho0.entries)) < 1e-14
    for rho in seen:
        _assert_physical(rho)
    assert np.max(np.abs(seen[-1] - seen[0])) > 1e-6


def test_sse_state_dependent_source_sees_a_unit_vector():
    # the loop carries unnormalized rows; a source of (t, state) still gets
    # the state vector divided by its norm, a copy of the state recorded
    # at t
    dim, dt = 20, 1e-3
    slh = damped_cavity_slh(ModeParams(1.0, 0.4), dim)
    seen = []

    def source(t, state):
        seen.append(state)
        return slh

    rec = run_trajectory(coherent_state(0.5 + 0.8j, dim), source, 0.0,
                         NoiseStream(6, dt), 0.05, dt)
    assert len(seen) == 50
    a = annihilation_op(dim).entries
    for psi, mean_a in zip(seen, rec.mean_a):
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert abs(np.vdot(psi, a @ psi) - mean_a) <= 1e-12


def _scaled_stepper(monkeypatch, scale: float) -> list:
    """Make every ``_KrausStepper`` start from its stack times ``scale``
    (exact for a power of two); returns the steppers made."""
    made = []

    class Scaled(trajectory._KrausStepper):
        def __init__(self, x0, *args, **kwargs):
            x0 = np.ascontiguousarray(x0, dtype=np.complex128)
            super().__init__((x0.view(np.float64) * scale).view(
                np.complex128), *args, **kwargs)
            made.append(self)

    monkeypatch.setattr(trajectory, "_KrausStepper", Scaled)
    monkeypatch.setattr(control, "_KrausStepper", Scaled)
    return made


def _record_words(rec) -> list:
    """The bytes of every array of a record and of its final state."""
    final = getattr(rec.final, "truth", rec.final)
    state = (final.psi.amplitudes if final.psi is not None
             else final.rho.entries)
    return ([v.tobytes() for v in vars(rec).values()
             if isinstance(v, np.ndarray)]
            + [state.tobytes(), repr((final.Y, final.I))])


@pytest.mark.parametrize("scale", [2.0 ** 200, 2.0 ** -200],
                         ids=["2^200", "2^-200"])
def test_power_of_two_scale_is_invisible(monkeypatch, scale):
    # the truths are carried unnormalized: stacks 2^+-200 times the unit
    # ones step outside the band of squared norms [1e-100, 1e100], are
    # brought back by powers of two after their first step, and every
    # recorded moment, Y, I and final normalized state keeps its bits, in
    # SSE and SME runs and in co-simulation shards of pure and mixed
    # truths
    dim, dt, T = 24, 1e-3, 0.03
    params = ModeParams(1.0, 0.4)
    slh = damped_cavity_slh(params, dim)
    psi0 = coherent_state(0.4 - 0.3j, dim)
    runs = [
        lambda: [run_trajectory(psi0, slh, 0.3, NoiseStream(8, dt), T, dt)],
        lambda: [run_trajectory(gaussian_state(0.2, CovariancePair(0.4, 0.1),
                                               dim), slh, 0.3,
                                NoiseStream(8, dt), T, dt, mode="sme")]]
    for cov in (CovariancePair(0.0, 0.0), CovariancePair(0.4, 0.1)):
        runs.append(lambda cov=cov: control._cosim(
            0.3, cov, PIDGains(2.0, 1.0, 0.5), ReferenceSignal("step", 1.0),
            params, dim, [NoiseStream(5 ^ b, dt) for b in range(3)], T, dt,
            1, [0.3, -0.2j, 0.5 + 0.1j], cov))
    unit = [run() for run in runs]
    made = _scaled_stepper(monkeypatch, scale)
    scaled = [run() for run in runs]
    assert len(made) == len(runs)
    for stepper in made:
        assert all(1e-100 < s.real < 1e100 for _, s in stepper.ms)
    for want, got in zip(unit, scaled):
        for rec_want, rec_got in zip(want, got, strict=True):
            assert _record_words(rec_got) == _record_words(rec_want)


def test_no_sme_step_takes_an_eigendecomposition(monkeypatch):
    # the factor is taken once per run; no step sweeps eigenvalues
    dim, dt = 30, 1e-3
    params = ModeParams(1.0, 0.4)
    cov = CovariancePair(0.5, 0.0)
    rho0 = gaussian_state(0.3, cov, dim)
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    run_trajectory(rho0, damped_cavity_slh(params, dim), 0.0,
                   NoiseStream(1, dt), 0.1, dt, mode="sme")
    assert calls == ["eigh"]
    calls.clear()
    closed_loop_cosim(0.3, cov, PIDGains(2.0, 1.0, 0.5),
                      ReferenceSignal("step", 1.0), params, dim,
                      NoiseStream(1, dt), 0.1, dt)
    # gaussian_state's construction check, then the factor
    assert calls == ["eigvalsh", "eigh"]


def test_zakai_matches_sse_pathwise():
    dim, dt, T = 25, 2.5e-4, 1.0
    slh = damped_cavity_slh(ModeParams(1.0, 0.7), dim)
    psi0 = coherent_state(0.5, dim)
    for seed in (3, 17, 999):
        r_sse = run_trajectory(psi0, slh, 0.4, NoiseStream(seed, dt), T, dt,
                               mode="sse", record_stride=40)
        r_zak = run_trajectory(psi0, slh, 0.4, NoiseStream(seed, dt), T, dt,
                               mode="zakai", record_stride=40)
        assert np.max(np.abs(r_sse.mean_a - r_zak.mean_a)) < 5e-4


def test_zakai_rescaling_is_invisible_to_moments():
    # scaling chi by a power of two must not change any normalized quantity
    dim, dt, T = 20, 1e-3, 0.5
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    psi0 = coherent_state(0.5, dim)
    tiny = StateVector(dim, psi0.amplitudes * 2.0 ** -200)
    r_a = run_trajectory(psi0, slh, 0.0, NoiseStream(11, dt), T, dt, mode="zakai")
    r_b = run_trajectory(tiny, slh, 0.0, NoiseStream(11, dt), T, dt, mode="zakai")
    assert np.array_equal(r_a.mean_a, r_b.mean_a)
    assert np.array_equal(r_a.Y, r_b.Y)


def test_zakai_norm_bounds_error():
    dim = 8
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    chi = StateVector(dim, coherent_state(0.3, dim).amplitudes * 1e-101)
    state = TrajectoryState(0.0, 0.0, 0.0, chi=chi)
    with pytest.raises(NormBoundsError):
        belavkin_zakai_step(state, slh, 0.01, 1e-3)


def test_sse_norm_guard_fires():
    dim = 20
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    state = TrajectoryState(0.0, 0.0, 0.0, psi=coherent_state(1.5, dim))
    with pytest.raises(StepSizeError):
        for _ in range(100):
            state = sse_step(state, slh, 0.0, 0.9, 0.5)


@pytest.mark.parametrize("rank", [None, 3], ids=["vectors", "factors"])
def test_kraus_update_rows_have_lone_row_bits(rank):
    # each row's (m, s) = (<x, X_k x>, <x, x>) comes from one np.vecdot of
    # the stepper's rows against their products X_k x and I x: each equals
    # np.vdot on its row alone, bit for bit, before and after a step, and
    # every row of the step, and its record increment
    # dY = lambda dt + dI with lambda = 2 Re(c m) / s, is that of the row
    # stepped alone, with shared or per-row (displaced) A0 rows, on the
    # ladder basis (all seven members or those a row uses) and on a dense
    # one
    rng = np.random.default_rng(7)
    for dim, batch in itertools.product((7, 12, 30), (1, 3, 8)):
        shape = (batch, dim) if rank is None else (batch, dim, rank)
        col = (batch,) + (1,) * (len(shape) - 1)
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psi /= np.sqrt(np.vecdot(psi.reshape(batch, -1),
                                 psi.reshape(batch, -1)).real).reshape(col)
        dI = tuple(rng.normal(0.0, 1e-3, batch).tolist())
        a_psi = np.stack([annihilation_op(dim).entries @ p for p in psi])
        lone = [complex(np.vdot(psi[b], a_psi[b])) for b in range(batch)]
        stepper = trajectory._KrausStepper(
            psi, 1e-4, damped_cavity_slh(ModeParams(1.0, 0.5), dim))
        assert stepper.basis is trajectory._ladder_basis(dim, (2, 3))
        assert np.array_equal(stepper.prods[:, 1], a_psi.reshape(batch, -1))
        sq = [complex(np.vdot(psi[b], psi[b])) for b in range(batch)]
        assert (np.array(stepper.ms).tobytes()
                == np.array(list(zip(lone, sq))).tobytes())
        c1, c2 = complex(*rng.normal(0.0, 0.3, 2)), 0.0j
        base = (1e-4 * (rng.normal(0.0, 0.1, 6)
                        + 1j * rng.normal(0.0, 0.1, 6))).tolist()
        zs = (rng.normal(0.0, 0.1, batch)
              + 1j * rng.normal(0.0, 0.1, batch)).tolist()
        # the same L and H as dense operators, so on the dense basis
        ladder = trajectory._ladder_slh(c1, c2, 0.3j, 0.1j, 0.5, dim)
        dense = SLHCoefficients(1.0, ladder.l, ladder.h)
        # steppers on all six ladder members, on the dense basis, and on
        # the trimmed members of a zero-gain and a P/I row
        cases = [(ALL, (c1, c2), base, zs), (ALL, (c1, c2), base, None),
                 (None, (1.0, 0.0), [0.0, 1e-4], None),
                 ((2, 3), (c1, c2), base[2:4], None),
                 ((1, 2, 3), (c1, c2), base[1:4], zs)]
        for cols, c, row, z_rows in cases:
            def make(x):
                if cols is None:
                    return trajectory._KrausStepper(x, 1e-4, dense)
                return trajectory._KrausStepper(
                    x, 1e-4, family=LADDER_FAMILIES[cols])

            stepper = make(psi)
            basis = stepper.basis
            assert cols is None or basis is trajectory._ladder_basis(dim,
                                                                     cols)
            dy = stepper.step(1.0 + 0.0j, dI, z_rows, c, row)
            k = basis[1]
            for b, (m, s) in enumerate(stepper.ms):
                x = stepper.x[b].reshape(-1)
                assert m == complex(np.vdot(x, stepper.prods[b, k]))
                assert s == complex(np.vdot(x, x))
            for b in range(batch):
                alone = make(psi[b:b + 1])
                dy_alone = alone.step(
                    1.0 + 0.0j, dI[b:b + 1],
                    None if z_rows is None else z_rows[b:b + 1], c, row)
                assert stepper.x[b].tobytes() == alone.x[0].tobytes()
                assert dy[b] == dy_alone[0]
            if basis[0].dtype == np.float64:
                assert dy == [2.0 * (c1 * m).real / s.real * 1e-4 + di
                              for m, s, di in zip(lone, sq, dI)]


def test_step_validation():
    dim = 6
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    psi_state = TrajectoryState(0.0, 0.0, 0.0, psi=coherent_state(0.1, dim))
    rho_state = TrajectoryState(0.0, 0.0, 0.0, rho=pure_density(coherent_state(0.1, dim)))
    with pytest.raises(DomainError):
        sse_step(psi_state, slh, 0.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        sse_step(rho_state, slh, 0.0, 0.0, 1e-3)
    with pytest.raises(DomainError):
        sme_step(psi_state, slh, 0.0, 0.0, 1e-3)
    with pytest.raises(DomainError):
        belavkin_zakai_step(psi_state, slh, 0.0, 1e-3)
    unnorm = TrajectoryState(0.0, 0.0, 0.0,
                             psi=StateVector(dim, 2.0 * coherent_state(0.1, dim).amplitudes))
    with pytest.raises(DomainError):
        sse_step(unnorm, slh, 0.0, 0.0, 1e-3)


def test_run_trajectory_validation():
    dim = 6
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    psi0 = coherent_state(0.1, dim)
    ns = NoiseStream(0, 1e-3)
    with pytest.raises(DomainError):
        run_trajectory(psi0, slh, 0.0, ns, 1.0, 3e-4)  # dt does not divide T
    with pytest.raises(DomainError):
        run_trajectory(psi0, slh, 0.0, ns, 1.0, 1e-3, record_stride=7)
    with pytest.raises(DomainError):
        run_trajectory(psi0, slh, 0.0, NoiseStream(0, 1e-2), 1.0, 1e-3)
    with pytest.raises(DomainError):
        run_trajectory(psi0, slh, 0.0, ns, 1.0, 1e-3, mode="heterodyne")
    with pytest.raises(DomainError):
        run_trajectory(psi0, slh, lambda t: t, ns, 1.0, 1e-3, mode="zakai")
    with pytest.raises(DomainError):
        run_trajectory(pure_density(psi0), slh, 0.0, ns, 1.0, 1e-3, mode="sse")


def test_run_trajectory_time_dependent_sources():
    # a time-dependent SLH source and phase must be honored; constant
    # callables must agree exactly with the constant fast path
    dim, dt, T = 15, 1e-3, 0.2
    slh = damped_cavity_slh(ModeParams(1.0, 0.2), dim)
    psi0 = coherent_state(0.4, dim)
    r_const = run_trajectory(psi0, slh, 0.3, NoiseStream(2, dt), T, dt)
    r_callable = run_trajectory(psi0, lambda t: slh, lambda t: 0.3,
                                NoiseStream(2, dt), T, dt)
    assert np.array_equal(r_const.mean_a, r_callable.mean_a)
    r_state_dep = run_trajectory(psi0, lambda t, s: slh, 0.3,
                                 NoiseStream(2, dt), T, dt)
    assert np.array_equal(r_const.mean_a, r_state_dep.mean_a)


def test_source_form_counts_only_parameters_without_default():
    # f(t, scale=1.0) is a function of t alone, and f(t, a=1, b=2) too
    dim, dt, T = 12, 1e-3, 0.01
    slh = damped_cavity_slh(ModeParams(1.0, 0.2), dim)
    psi0 = coherent_state(0.4, dim)
    seen = []

    def scaled(t, scale=1.0):
        seen.append(scale)
        return slh

    def two_defaults(t, a=1, b=2):
        return slh

    r_const = run_trajectory(psi0, slh, 0.3, NoiseStream(2, dt), T, dt)
    for source in (scaled, two_defaults):
        rec = run_trajectory(psi0, source, 0.3, NoiseStream(2, dt), T, dt)
        assert np.array_equal(r_const.mean_a, rec.mean_a)
    assert seen == [1.0] * 10


def test_run_trajectory_grid_and_stride():
    dim = 10
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    rec = run_trajectory(coherent_state(0.2, dim), slh, 0.0,
                         NoiseStream(1, 1e-3), 1.0, 1e-3, record_stride=250)
    assert rec.t.shape == (5,)
    assert np.allclose(rec.t, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert rec.final.t == pytest.approx(1.0, abs=1e-12)


def test_stepper_errors_carry_step_index():
    dim = 20
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    with pytest.raises(StepSizeError, match=r"step \d+"):
        run_trajectory(coherent_state(1.5, dim), slh, 0.0,
                       NoiseStream(3, 0.5), 50.0, 0.5, mode="sse")


@pytest.mark.filterwarnings("ignore::cavityfilter.errors.TruncationWarning")
def test_record_truncation_warning_keeps_its_label_and_frame():
    # a record formats its truncation label only when the check acts; the
    # warning keeps its text, its category and the frame it names (the
    # trajectory loop), for vectors and density factors alike
    dim = 12
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    psi = coherent_state(1.0, dim)  # top two levels hold ~1e-7
    for initial, mode in ((psi, "sse"), (DensityOperator(
            dim, np.outer(psi.amplitudes, psi.amplitudes.conj())), "sme")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_trajectory(initial, slh, 0.0, NoiseStream(5, 1e-3), 4e-3,
                           1e-3, mode=mode, record_stride=2)
        assert len(caught) == 3
        for w, t in zip(caught, ("0", "0.002", "0.004")):
            assert w.category is TruncationWarning
            assert w.filename == trajectory.__file__
            assert re.fullmatch(
                rf"trajectory \(t={t}\): top two Fock levels hold "
                r"\d\.\d{3}e-0[5-8] of the population; results may carry "
                r"truncation bias", str(w.message))


@pytest.mark.parametrize("mode,theta,error", [
    ("sse", lambda t: math.nan, StepSizeError),
    ("sme", lambda t: math.nan, StepSizeError),
    ("zakai", math.nan, NormBoundsError),
])
def test_nan_phase_raises_step_tagged_error(mode, theta, error):
    # a NaN passes no guard silently: each mode stops at the first step
    # with a typed error instead of recording NaN moments
    dim = 10
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    psi0 = coherent_state(0.5, dim)
    initial = pure_density(psi0) if mode == "sme" else psi0
    with pytest.raises(error, match=r"^step 0 "):
        run_trajectory(initial, slh, theta, NoiseStream(1, 1e-3), 0.1, 1e-3,
                       mode=mode)


def test_zakai_run_matches_step_chain_bitwise():
    # the loop forms L chi once per step; the public measurement and step
    # calls form it twice, and both give the same bits
    dim, dt, T = 12, 1e-3, 0.1
    slh = damped_cavity_slh(ModeParams(1.0, 0.4), dim)
    psi0 = coherent_state(0.5, dim)
    rec = run_trajectory(psi0, slh, 0.0, NoiseStream(5, dt), T, dt,
                         mode="zakai")
    state = TrajectoryState(0.0, 0.0, 0.0, chi=psi0)
    for dw in NoiseStream(5, dt).increments(len(rec.t) - 1):
        dy = measurement_increment(state, slh, 0.0, dw, dt)
        state = belavkin_zakai_step(state, slh, dy, dt)
    assert np.array_equal(rec.final.chi.amplitudes, state.chi.amplitudes)
    assert rec.final.Y == state.Y


def test_each_mode_runs_one_trajectory_loop(monkeypatch):
    calls = []
    loop = trajectory._integrate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return loop(*args, **kwargs)

    monkeypatch.setattr(trajectory, "_integrate", counted)
    dim = 8
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    psi0 = coherent_state(0.3, dim)
    for mode, initial in (("sse", psi0), ("sme", pure_density(psi0)),
                          ("zakai", psi0)):
        run_trajectory(initial, slh, 0.0, NoiseStream(2, 1e-3), 0.01, 1e-3,
                       mode=mode)
    assert calls == ["psi", "rho", "chi"]


def test_every_dense_step_goes_through_one_step(monkeypatch):
    # every step of a run and every single step is one call of the
    # stepper's Kraus step (on a vector for SSE, a factor for SME) or of
    # its linear Zakai step
    calls = []
    kraus_step, zakai_step = (trajectory._KrausStepper.step,
                              trajectory._KrausStepper.zakai)

    def counted(self, *args):
        calls.append("sse" if self.x.ndim == 2 else "sme")
        return kraus_step(self, *args)

    def counted_zakai(self, *args):
        calls.append("zakai")
        return zakai_step(self, *args)

    monkeypatch.setattr(trajectory._KrausStepper, "step", counted)
    monkeypatch.setattr(trajectory._KrausStepper, "zakai", counted_zakai)
    dim, dt = 8, 1e-3
    slh = damped_cavity_slh(ModeParams(1.0, 0.0), dim)
    psi0 = coherent_state(0.3, dim)
    for mode, initial in (("sse", psi0), ("sme", pure_density(psi0)),
                          ("zakai", psi0)):
        run_trajectory(initial, slh, 0.0, NoiseStream(2, dt), 2 * dt, dt,
                       mode=mode)
    assert calls == ["sse"] * 2 + ["sme"] * 2 + ["zakai"] * 2
    calls.clear()
    sse_step(TrajectoryState(0.0, 0.0, 0.0, psi=psi0), slh, 0.0, 0.01, dt)
    sme_step(TrajectoryState(0.0, 0.0, 0.0, rho=pure_density(psi0)), slh, 0.0,
             0.01, dt)
    assert calls == ["sse", "sme"]


@pytest.mark.parametrize("stride", [0, -1])
@pytest.mark.parametrize("entry", ["run_trajectory", "closed_loop_cosim",
                                   "riccati_integrate"])
def test_record_stride_below_one_raises_domain_error(entry, stride):
    dim, dt, T = 6, 1e-3, 0.01
    calls = {
        "run_trajectory": lambda: run_trajectory(
            coherent_state(0.1, dim), damped_cavity_slh(ModeParams(1.0), dim),
            0.0, NoiseStream(0, dt), T, dt, record_stride=stride),
        "closed_loop_cosim": lambda: closed_loop_cosim(
            0.1, CovariancePair(0.0, 0.0), PIDGains(1.0),
            ReferenceSignal("step", 1.0), ModeParams(1.0), dim,
            NoiseStream(0, dt), T, dt, record_stride=stride),
        "riccati_integrate": lambda: riccati_integrate(
            RiccatiState(0.5, 0.0), 0.0, ModeParams(1.0), dt, T,
            record_stride=stride),
    }
    with pytest.raises(DomainError, match=rf"record_stride={stride} must be >= 1"):
        calls[entry]()


def test_sse_run_rejects_unnormalized_initial_state():
    # the fault is the initial state, not dt: rejected before any
    # increment is drawn; the Zakai state stays unnormalized by design
    dim, dt = 10, 1e-3
    slh = damped_cavity_slh(ModeParams(1.0), dim)
    unnorm = StateVector(dim, 1.4 * coherent_state(0.5, dim).amplitudes)
    ns = NoiseStream(3, dt)
    with pytest.raises(DomainError, match="normalized state vector"):
        run_trajectory(unnorm, slh, 0.0, ns, 0.1, dt, mode="sse")
    assert np.array_equal(ns.increments(4), NoiseStream(3, dt).increments(4))
    run_trajectory(unnorm, slh, 0.0, NoiseStream(3, dt), 0.1, dt, mode="zakai")


def test_state_and_slh_dims_must_agree():
    slh = damped_cavity_slh(ModeParams(1.0, 0.3), 10)
    psi = coherent_state(0.2, 12)
    vec = TrajectoryState(0.0, 0.0, 0.0, psi=psi)
    rho = TrajectoryState(0.0, 0.0, 0.0, rho=pure_density(psi))
    chi = TrajectoryState(0.0, 0.0, 0.0, chi=psi)
    calls = [
        lambda: sse_step(vec, slh, 0.0, 0.0, 1e-3),
        lambda: sme_step(rho, slh, 0.0, 0.0, 1e-3),
        lambda: belavkin_zakai_step(chi, slh, 0.0, 1e-3),
        lambda: measurement_increment(vec, slh, 0.0, 0.0, 1e-3),
        lambda: measurement_increment(rho, slh, 0.0, 0.0, 1e-3),
        lambda: lindblad_apply(slh, number_op(12)),
    ]
    for call in calls:
        with pytest.raises(DimensionError, match="dim 12 != SLH dim 10"):
            call()
    # a source that changes dim mid-run fails at that step
    other = damped_cavity_slh(ModeParams(1.0, 0.3), 12)
    with pytest.raises(DimensionError, match=r"^step 3 "):
        run_trajectory(psi, lambda t: slh if t > 2.5e-3 else other, 0.0,
                       NoiseStream(1, 1e-3), 0.01, 1e-3)


def _counted_steppers(monkeypatch) -> list:
    """Keep every ``_KrausStepper`` made in the list returned."""
    made = []

    class Counted(trajectory._KrausStepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(trajectory, "_KrausStepper", Counted)
    return made


def test_a_run_forms_each_row_once(monkeypatch):
    # a 100-step run on a constant ladder SLH forms its row once, in SSE,
    # SME and Zakai mode, and a second run on it none (the SLH keeps its
    # form); a source that returns a fresh SLH every step forms one row per
    # step, on the one stepper of the run, since the members stay
    dim, dt, n = 12, 1e-3, 100
    params = ModeParams(1.0, 0.4)
    psi0 = coherent_state(0.3, dim)
    made, rows = _counted_steppers(monkeypatch), []
    row_builder = trajectory._KrausStepper._a0_row

    def counted_rows(*args):
        rows.append(args)
        return row_builder(*args)

    # the stepper's one row builder
    monkeypatch.setattr(trajectory._KrausStepper, "_a0_row",
                        staticmethod(counted_rows))
    for mode, initial in (("sse", psi0), ("sme", pure_density(psi0)),
                          ("zakai", psi0)):
        slh = damped_cavity_slh(params, dim)
        for source, want in ((slh, 1), (slh, 0),
                             (lambda t: damped_cavity_slh(params, dim), n)):
            made.clear()
            rows.clear()
            run_trajectory(initial, source, 0.0, NoiseStream(2, dt), n * dt,
                           dt, mode=mode)
            assert len(made) == 1
            assert len(rows) == want


@pytest.mark.parametrize("mode", ["sse", "sme"])
def test_a_source_may_change_its_members_mid_run(monkeypatch, mode):
    # a source that switches from the damped cavity (members a'a, a) to a
    # driven one (z != 0 adds a') after 100 steps gets a second stepper on
    # its stack: the records up to the switch are the damped run's, and
    # those after it match a run started from the switch's state on the
    # rest of the same stream (measured before this gate was fixed: at
    # most 1.7e-15 over 20 seeds, both modes)
    dim, dt, k = 20, 1e-3, 100
    params = ModeParams(1.0, 0.4)
    damped = damped_cavity_slh(params, dim)
    driven = trajectory._ladder_slh(math.sqrt(params.gamma), 0.0j,
                                    0.8 - 0.3j, 0.0j, params.omega, dim)
    initial = (coherent_state(0.4 - 0.2j, dim) if mode == "sse" else
               gaussian_state(0.3, CovariancePair(0.4, 0.1), dim))
    made = _counted_steppers(monkeypatch)
    for seed in range(4):
        made.clear()
        rec = run_trajectory(
            initial, lambda t: damped if t < (k - 0.5) * dt else driven, 0.3,
            NoiseStream(seed, dt), 2 * k * dt, dt, mode=mode)
        assert [m.basis[0].shape[0] // dim for m in made] == [3, 4]
        first = run_trajectory(initial, damped, 0.3, NoiseStream(seed, dt),
                               k * dt, dt, mode=mode)
        rest_noise = NoiseStream(seed, dt)
        rest_noise.increments(k)
        rest = run_trajectory(getattr(first.final, "psi" if mode == "sse"
                                      else "rho"), driven, 0.3, rest_noise,
                              k * dt, dt, mode=mode)
        for name in ("mean_a", "mean_n", "mean_a2", "Y", "I"):
            got = getattr(rec, name)
            assert got[:k + 1].tobytes() == getattr(first, name).tobytes()
            after = got[k:] - (got[k] if name in ("Y", "I") else 0.0)
            assert np.max(np.abs(after - getattr(rest, name))) <= 1e-13


def test_callable_source_leaves_no_slh_alive():
    # the stepper arrays live on each instance: nothing outlives the run
    dim, dt = 30, 1e-3
    params = ModeParams(1.0, 0.4)
    refs = []

    def source(t):
        slh = damped_cavity_slh(params, dim)
        refs.append(weakref.ref(slh))
        return slh

    run_trajectory(coherent_state(0.5, dim), source, 0.0, NoiseStream(2, dt),
                   0.1, dt)
    gc.collect()
    assert len(refs) == 100
    assert sum(ref() is not None for ref in refs) == 0


def test_ladder_and_operator_slh_step_alike():
    # the same damped mode given as operators (L'L a product) and on the
    # ladder basis (L'L a closed form) agrees to rounding
    dim, dt, T = 24, 1e-3, 0.1
    params = ModeParams(1.0, 0.4)
    ladder = damped_cavity_slh(params, dim)
    ops = SLHCoefficients(1.0, CavityOperator(dim, ladder.l.entries),
                          CavityOperator(dim, ladder.h.entries))
    psi0 = coherent_state(0.6, dim)
    rho0 = gaussian_state(0.6, CovariancePair(0.3, 0.0), dim)
    for mode, initial in (("sse", psi0), ("sme", rho0), ("zakai", psi0)):
        a = run_trajectory(initial, ladder, 0.0, NoiseStream(4, dt), T, dt,
                           mode=mode, record_stride=10)
        b = run_trajectory(initial, ops, 0.0, NoiseStream(4, dt), T, dt,
                           mode=mode, record_stride=10)
        assert np.max(np.abs(a.mean_a - b.mean_a)) < 1e-13
        assert np.max(np.abs(a.mean_n - b.mean_n)) < 1e-13


def test_ladder_slh_readers_build_no_dense_coefficients(monkeypatch):
    # once built, a ladder SLH is read through its one Kraus form (the
    # ladder rows and the basis products) or its public L and H: the Zakai
    # run and step, the record increment and the adjoint generator build
    # no dense combination of the ladder basis
    dim, dt = 12, 1e-3
    slh = trajectory._ladder_slh(0.9 + 0.2j, -0.1j, 0.3 - 0.1j, 0.05j, 0.4,
                                 dim)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a dense ladder combination was built")

    monkeypatch.setattr(fock, "_ladder_dense", forbidden)
    monkeypatch.setattr(trajectory, "_ladder_dense", forbidden)
    psi0 = coherent_state(0.5, dim)
    rec = run_trajectory(psi0, slh, 0.3, NoiseStream(1, dt), 0.01, dt,
                         mode="zakai")
    assert np.all(np.isfinite(rec.mean_a))
    chi = TrajectoryState(0.0, 0.0, 0.0, chi=psi0)
    assert belavkin_zakai_step(chi, slh, 0.01, dt).chi.dim == dim
    for state in (chi, TrajectoryState(0.0, 0.0, 0.0, rho=pure_density(psi0))):
        assert math.isfinite(measurement_increment(state, slh, 0.3, 0.01, dt))
    assert lindblad_apply(slh, number_op(dim)).is_hermitian(1e-12)
