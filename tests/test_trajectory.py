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
from cavityfilter import trajectory
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
    # a run across two noise blocks steps the increments of one draw
    dim, dt, n = 8, 1e-4, 4096 + 10
    slh = damped_cavity_slh(ModeParams(1.0, 0.3), dim)
    psi0 = coherent_state(0.3, dim)
    rec = run_trajectory(psi0, slh, 0.0, NoiseStream(9, dt), n * dt, dt,
                         record_stride=n)
    state = TrajectoryState(0.0, 0.0, 0.0, psi=psi0)
    for dI in NoiseStream(9, dt).increments(n):
        state = sse_step(state, slh, 0.0, dI, dt)
    assert np.array_equal(rec.final.psi.amplitudes, state.psi.amplitudes)
    assert rec.final.I == state.I


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
def test_sse_update_row_scalars_have_lone_row_bits(rank):
    # lambda and the norms of a stack come from one np.vecdot over the
    # flattened rows: each equals np.vdot on its row alone, bit for bit,
    # and every row of the update is that of the row stepped alone
    rng = np.random.default_rng(7)
    for dim, batch in itertools.product((7, 12, 30), (1, 2, 5, 9)):
        shape = (batch, dim) if rank is None else (batch, dim, rank)
        col = (batch,) + (1,) * (len(shape) - 1)
        psi, u, w = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                     for _ in range(3))
        psi /= np.sqrt(np.vecdot(psi.reshape(batch, -1),
                                 psi.reshape(batch, -1)).real).reshape(col)
        u *= 0.1
        dI = tuple(rng.normal(0.0, 1e-3, batch).tolist())
        lone = [complex(np.vdot(psi[b], u[b])) for b in range(batch)]
        assert (np.array(trajectory._row_dots(psi, u)).tobytes()
                == np.array(lone).tobytes())
        new, lam = trajectory._sse_update(psi, u, w, 1.0 + 0.0j, dI, 1e-4)
        norms = trajectory._row_dots(new, new)
        for b in range(batch):
            alone, lam_b = trajectory._sse_update(
                psi[b:b + 1], u[b:b + 1], w[b:b + 1], 1.0 + 0.0j,
                dI[b:b + 1], 1e-4)
            assert new[b].tobytes() == alone[0].tobytes()
            assert lam[b] == lam_b[0] == 2.0 * lone[b].real
            assert norms[b] == complex(np.vdot(new[b], new[b]))


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
