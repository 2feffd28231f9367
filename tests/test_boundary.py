import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from spectral_intervals.boundary import (
    cis,
    classify_structure,
    eig_unitary,
    exp_diag,
    forelli_weight_check,
    is_unitary,
    matrix_from_spectrum,
    permutation_matrix,
    phase_law,
    rational_order_check,
    reflected_boundary_matrix,
    require_unitary,
)
from spectral_intervals.errors import DeficientSpan, Inconsistent, NotUnitary
from spectral_intervals.intervals import new_interval_union

SQRT_SWAP = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_cis_exponent_law(a, b):
    assert cis(a) * cis(b) == pytest.approx(cis(a + b), abs=1e-9)


def test_exp_diag():
    d = exp_diag([0.25, 0.5])
    assert d == pytest.approx(np.diag([1j, -1]))


def test_unitarity_checks():
    assert is_unitary(np.eye(3))
    assert is_unitary(SQRT_SWAP)
    assert not is_unitary(np.ones((2, 2)))
    assert not is_unitary(np.ones((2, 3)))
    with pytest.raises(NotUnitary):
        require_unitary(2 * np.eye(2))


def test_classify_structure():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    s = classify_structure(swap)
    assert s.kind == "permutation"
    assert s.sigma == (1, 0)
    assert s.is_cycle
    assert s.multiplicative_everywhere and s.forelli_everywhere

    weighted = np.array([[0, 1j], [-1, 0]], dtype=complex)
    s = classify_structure(weighted)
    assert s.kind == "weighted_permutation"
    assert s.weights == (1j, -1)
    assert not s.multiplicative_everywhere and s.forelli_everywhere

    s = classify_structure(SQRT_SWAP)
    assert s.kind == "general"
    assert s.sigma is None and s.is_cycle is None

    # identity is a permutation but not a single cycle
    s = classify_structure(np.eye(2))
    assert s.kind == "permutation" and not s.is_cycle


def test_permutation_matrix_roundtrip():
    p = permutation_matrix((2, 0, 1))
    s = classify_structure(p)
    assert s.sigma == (2, 0, 1) and s.is_cycle


@settings(deadline=None)
@given(st.integers(2, 5), st.integers(0, 10))
def test_eig_unitary_random(n, seed):
    b = unitary_group.rvs(n, random_state=seed)
    eig = eig_unitary(b)
    mu = cis(np.array(eig.phases))
    assert np.max(np.abs(b @ eig.vectors - eig.vectors * mu[None, :])) < 1e-8
    # orthonormal basis
    assert np.max(np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(n))) < 1e-10
    assert all(0 <= p < 1 for p in eig.phases)
    assert list(eig.phases) == sorted(eig.phases)


def test_phase_groups_degenerate():
    eig = eig_unitary(np.eye(3))
    groups = eig.phase_groups()
    assert len(groups) == 1 and len(groups[0]) == 3


def test_phase_groups_wraparound():
    b = np.diag([cis(1e-12), cis(-1e-12)])
    assert len(eig_unitary(b).phase_groups()) == 1


def test_matrix_from_spectrum_recovers():
    om = new_interval_union([(0, 1), (2, 3)])
    b = matrix_from_spectrum(om, [0.0, 0.25, 1.0, 1.25])
    assert np.max(np.abs(b - SQRT_SWAP)) < 1e-9


def test_matrix_from_spectrum_errors():
    om = new_interval_union([(0, 1), (2, 3)])
    with pytest.raises(DeficientSpan):
        matrix_from_spectrum(om, [0.0])
    with pytest.raises(DeficientSpan):
        # e_0 and e_1 coincide on integer endpoints: rank one
        matrix_from_spectrum(om, [0.0, 1.0])
    with pytest.raises((Inconsistent, NotUnitary)):
        matrix_from_spectrum(om, [0.0, 0.25, 0.1])


def test_forelli_weight_check():
    om = new_interval_union([(0, 1), (3, 4)])
    b = np.array([[0, 1j], [-1, 0]], dtype=complex)
    assert forelli_weight_check(b, om, 0.25)
    assert not forelli_weight_check(b, om, 0.3)


def test_phase_law_tolerances_apply_to_their_own_part():
    # L = 2; the jump a_1 - b_0 = 2 + 1e-9 misses the lattice 2Z by 1e-9,
    # and the weights follow the law for theta0 = 0.25 up to 1e-9
    om = new_interval_union([(0, 1), (3 + 1e-9, 4)])
    theta0 = 0.25
    jumps = (om.lefts[1] - om.rights[0], om.lefts[0] - om.rights[1])
    w = [complex(cis(theta0 / om.measure * j)) for j in jumps]
    b = np.array([[0, w[0] * cis(1e-9 / (2 * np.pi))], [w[1], 0]], dtype=complex)
    structure = classify_structure(b)
    assert phase_law(structure, om, theta0, 1e-8, 1e-8) == (True, True)
    assert phase_law(structure, om, theta0, 1e-10, 1e-8) == (False, True)
    assert phase_law(structure, om, theta0, 1e-8, 1e-10) == (True, False)
    assert not forelli_weight_check(b, om, theta0, tol=1e-10)
    assert forelli_weight_check(b, om, theta0, tol=1e-8)


def test_rational_order():
    # spectrum {0, 1/4} + Z on a measure-2 set: denominator 4, B^(4*2) = I
    assert rational_order_check(SQRT_SWAP, 4, 2)
    assert not rational_order_check(SQRT_SWAP, 1, 1)


@settings(deadline=None)
@given(st.integers(2, 4), st.integers(0, 5))
def test_reflected_matrix_unitary_involution(n, seed):
    b = unitary_group.rvs(n, random_state=seed)
    br = reflected_boundary_matrix(b)
    assert is_unitary(br)
    assert np.max(np.abs(reflected_boundary_matrix(br) - b)) < 1e-12
