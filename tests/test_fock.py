import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfilter.errors import (
    DimensionError,
    DomainError,
    TruncationError,
    TruncationWarning,
)
from cavityfilter.fock import (
    CavityOperator,
    _gaussian_vector,
    _ladder_table,
    CovariancePair,
    DensityOperator,
    StateVector,
    annihilation_op,
    coherent_state,
    conditional_covariances,
    creation_op,
    expectation,
    gaussian_state,
    identity_op,
    number_op,
)


def test_annihilation_dim2_matrix():
    a = annihilation_op(2)
    assert np.array_equal(a.entries, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_action_on_number_states():
    dim = 7
    a = annihilation_op(dim).entries
    for n in range(1, dim):
        e_n = np.zeros(dim, dtype=complex)
        e_n[n] = 1.0
        out = a @ e_n
        expected = np.zeros(dim, dtype=complex)
        expected[n - 1] = math.sqrt(n)
        assert np.max(np.abs(out - expected)) < 1e-12


def test_commutator_truncation_identity():
    # [a, a'] = I except the corner entry, which absorbs the cutoff
    dim = 9
    a = annihilation_op(dim).entries
    ad = creation_op(dim).entries
    comm = a @ ad - ad @ a
    expected = np.eye(dim, dtype=complex)
    expected[-1, -1] = -(dim - 1)
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_number_op_diagonal():
    n = number_op(5).entries
    assert np.max(np.abs(n - np.diag(np.arange(5, dtype=complex)))) == 0.0


def test_dim_below_two_rejected():
    with pytest.raises(DimensionError):
        annihilation_op(1)


# every entry point that checks the minimum truncation itself; the
# Gaussian constructors get an unphysical (V, W), so that one without its
# own dim check raises DomainError, not the dim error of a callee
UNPHYSICAL = CovariancePair(0.0, 1.0)
DIM_CHECKS = {
    "CavityOperator": lambda d: CavityOperator(d, np.zeros((d, d))),
    "StateVector": lambda d: StateVector(d, np.ones(d)),
    "DensityOperator": lambda d: DensityOperator(d, np.eye(d)),
    "_ladder_table": _ladder_table,
    "coherent_state": lambda d: coherent_state(0.0, d),
    "gaussian_state": lambda d: gaussian_state(0.0, UNPHYSICAL, d),
    "_gaussian_vector": lambda d: _gaussian_vector(0.0, UNPHYSICAL, d),
}


@pytest.mark.parametrize("dim", [1, 0])
@pytest.mark.parametrize("entry", sorted(DIM_CHECKS))
def test_every_entry_point_rejects_dim_below_two(entry, dim):
    with pytest.raises(DimensionError, match=rf"^dim must be >= 2, got {dim}$"):
        DIM_CHECKS[entry](dim)


def test_operator_entries_read_only():
    a = annihilation_op(4)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 1.0


def test_coherent_vacuum_is_basis_vector():
    psi = coherent_state(0.0, 6)
    e0 = np.zeros(6, dtype=complex)
    e0[0] = 1.0
    assert np.array_equal(psi.amplitudes, e0)


def test_coherent_state_unit_norm():
    psi = coherent_state(0.8 - 0.3j, 40)
    assert abs(psi.norm - 1.0) < 1e-12


def test_coherent_mean_amplitude():
    psi = coherent_state(0.5, 40)
    val = expectation(annihilation_op(40), psi)
    assert abs(val - 0.5) < 1e-10


def test_coherent_number_expectation():
    psi = coherent_state(0.7, 40)
    val = expectation(number_op(40), psi)
    assert abs(val - 0.49) < 1e-9


def test_coherent_covariances_vanish():
    psi = coherent_state(0.9 + 0.4j, 40)
    cov = conditional_covariances(psi)
    assert abs(cov.V) < 1e-9
    assert abs(cov.W) < 1e-9


def test_coherent_truncation_error():
    # |alpha|^2 = 25 cannot fit in 8 levels
    with pytest.raises(TruncationError):
        coherent_state(5.0, 8)


def test_coherent_truncation_warning():
    with pytest.warns(TruncationWarning):
        coherent_state(2.0, 18)


def test_expectation_identity_is_one():
    psi = coherent_state(0.3, 20)
    assert abs(expectation(identity_op(20), psi) - 1.0) < 1e-12


def test_expectation_vacuum_annihilation_zero():
    psi = coherent_state(0.0, 8)
    assert expectation(annihilation_op(8), psi) == 0.0


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionError):
        expectation(annihilation_op(8), coherent_state(0.0, 9))
    rho = gaussian_state(0.0, CovariancePair(0.0, 0.0), 9)
    with pytest.raises(DimensionError, match=r"^operator dim 8 != state dim 9$"):
        expectation(annihilation_op(8), rho)
    with pytest.raises(DomainError, match=r"^unsupported state type ndarray$"):
        expectation(annihilation_op(8), rho.entries)


def test_expectation_on_density_operator():
    rho = gaussian_state(0.4, CovariancePair(0.0, 0.0), 30)
    val = expectation(number_op(30), rho)
    assert abs(val - 0.16) < 1e-9


def test_vacuum_projector():
    rho = gaussian_state(0.0, CovariancePair(0.0, 0.0), 10)
    expected = np.zeros((10, 10), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho.entries - expected)) < 1e-14


def test_thermal_state_moments():
    rho = gaussian_state(0.0, CovariancePair(0.5, 0.0), 60)
    # diagonal thermal state
    off = rho.entries - np.diag(np.diag(rho.entries))
    assert np.max(np.abs(off)) < 1e-12
    cov = conditional_covariances(rho)
    assert abs(cov.V - 0.5) < 1e-6
    assert abs(cov.W) < 1e-6
    assert abs(expectation(annihilation_op(60), rho)) < 1e-9


def test_gaussian_state_roundtrip_moments():
    alpha = 0.3 - 0.2j
    v, w = 0.6, 0.25 + 0.1j
    rho = gaussian_state(alpha, CovariancePair(v, w), 60)
    a_mean = expectation(annihilation_op(60), rho)
    cov = conditional_covariances(rho)
    assert abs(a_mean - alpha) < 1e-6
    assert abs(cov.V - v) < 1e-6
    assert abs(cov.W - w) < 1e-6


def test_gaussian_state_purity_iff_saturation():
    # pure squeezed state: V(V+1) = |W|^2
    v = 0.3
    w = math.sqrt(v * (v + 1.0))
    rho_pure = gaussian_state(0.0, CovariancePair(v, w), 50)
    purity = np.sum(rho_pure.entries.T * rho_pure.entries).real
    assert abs(purity - 1.0) < 1e-6
    rho_mixed = gaussian_state(0.0, CovariancePair(v, 0.5 * w), 50)
    purity_mixed = np.sum(rho_mixed.entries.T * rho_mixed.entries).real
    assert purity_mixed < 1.0 - 1e-3


@pytest.mark.parametrize("alpha, v", [(0.0, 0.3), (0.4 - 0.7j, 0.3),
                                      (0.5j, 0.05), (0.4 - 0.7j, 0.0)])
def test_gaussian_vector_is_the_pure_gaussian_state(alpha, v):
    # squeezed, squeezed and displaced, coherent: the vector and the
    # density matrix come from the same unitaries
    cov = CovariancePair(v, -1j * math.sqrt(v * (v + 1.0)))
    psi = _gaussian_vector(alpha, cov, 40).amplitudes
    rho = gaussian_state(alpha, cov, 40).entries
    assert np.max(np.abs(np.outer(psi, psi.conj()) - rho)) < 1e-12


def test_gaussian_state_unphysical_rejected():
    with pytest.raises(DomainError):
        gaussian_state(0.0, CovariancePair(0.1, 0.9), 40)


def test_gaussian_state_insufficient_dim():
    with pytest.raises(TruncationError):
        gaussian_state(0.0, CovariancePair(4.0, 0.0), 5)


def test_covariance_pair_negative_v_rejected():
    with pytest.raises(DomainError):
        CovariancePair(-0.01, 0.0)


def test_conditional_covariances_thermal_via_vector_mix():
    rho = gaussian_state(0.0, CovariancePair(0.5, 0.0), 60)
    cov = conditional_covariances(rho)
    assert cov.is_physical()


def test_state_vector_validation():
    with pytest.raises(DimensionError):
        StateVector(4, np.zeros(3, dtype=complex))
    with pytest.raises(DomainError):
        StateVector(3, np.array([np.nan, 0, 0], dtype=complex))


def test_density_operator_validation():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(DomainError):
        from cavityfilter.fock import DensityOperator

        DensityOperator(4, bad / 4.0)
    with pytest.raises(DomainError, match="finite"):
        DensityOperator(4, np.full((4, 4), np.nan, dtype=complex))


@settings(max_examples=50, deadline=None)
@given(
    x=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    y=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_expectation_linear_and_conjugate_symmetric(x, y):
    dim = 12
    psi = coherent_state(0.4 + 0.2j, dim)
    a = annihilation_op(dim)
    n = number_op(dim)
    combo = CavityOperator(dim, x * a.entries + y * n.entries)
    lhs = expectation(combo, psi)
    rhs = x * expectation(a, psi) + y * expectation(n, psi)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
    # <X'> = conj <X>
    assert abs(expectation(combo.dagger(), psi) - np.conj(lhs)) <= 1e-12 * (
        1.0 + abs(lhs)
    )
