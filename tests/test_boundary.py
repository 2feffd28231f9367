import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from spectral_intervals.boundary import (
    UnitaryEigenData,
    cis,
    classify_structure,
    eig_unitary,
    exp_diag,
    forelli_weight_check,
    is_unitary,
    matrix_from_spectrum,
    permutation_matrix,
    phase_law,
    reflected_boundary_matrix,
    require_unitary,
)
from spectral_intervals.errors import (
    DeficientSpan,
    Inconsistent,
    NotUnitary,
    SpectralIntervalsError,
)
from spectral_intervals.intervals import move_interval, new_interval_union
from spectral_intervals.spectrum import compute_spectrum, equal_length_spectrum

from oracles import classify_structure_per_entry, rational_order_check

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


def _weighted_permutation(n: int, rng, weighted: bool) -> np.ndarray:
    b = np.zeros((n, n), dtype=complex)
    b[np.arange(n), rng.permutation(n)] = cis(rng.uniform(0, 1, n)) if weighted else 1.0
    return b


def _structured_unitary(kind: str, n: int, rng) -> np.ndarray:
    """A unitary of order n: Haar, a (weighted) permutation, a block-diagonal
    mix of a Haar block and a weighted permutation with its rows and columns
    shuffled, or a (weighted) permutation with entries of modulus 1e-15 to
    1e-11 off its support."""
    if kind == "haar":
        return unitary_group.rvs(n, random_state=rng) if n > 1 else cis(rng.uniform(0, 1, (1, 1)))
    if kind in ("permutation", "weighted"):
        return _weighted_permutation(n, rng, kind == "weighted")
    if kind == "block":
        k = int(rng.integers(1, n + 1))
        haar = unitary_group.rvs(k, random_state=rng) if k > 1 else cis(rng.uniform(0, 1, (1, 1)))
        b = scipy.linalg.block_diag(haar, _weighted_permutation(n - k, rng, True))
        return b[rng.permutation(n)][:, rng.permutation(n)]
    b = _weighted_permutation(n, rng, bool(rng.integers(2)))
    dust = 10.0 ** rng.uniform(-15, -11, (n, n)) * cis(rng.uniform(0, 1, (n, n)))
    return np.where(b == 0, dust * (rng.uniform(size=(n, n)) < 0.5), b)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(["haar", "permutation", "weighted", "block", "dust"]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_classify_structure_matches_the_per_entry_reading(kind, n, seed):
    b = _structured_unitary(kind, n, np.random.default_rng(seed))
    s = classify_structure(b)
    want_kind, sigma, weights, is_cycle = classify_structure_per_entry(b)
    assert (s.kind, s.sigma, s.is_cycle) == (want_kind, sigma, is_cycle)
    if sigma is None:
        assert s.weights is None and s.support_residual is None
    else:
        # the weights are the support entries scaled to modulus 1, and the
        # support residual is the largest entry off the support
        assert np.allclose(s.weights, weights, rtol=0, atol=1e-10)
        assert np.abs(np.abs(s.weights) - 1).max() < 1e-15
        off = np.abs(b)
        off[np.arange(n), list(sigma)] = 0
        assert s.support_residual == off.max()


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


def _schur_oracle(b):
    """Phases and Schur vectors, sorted by phase as eig_unitary sorts them."""
    t, q = scipy.linalg.schur(b, output="complex")
    phases = (np.angle(np.diag(t)) / (2 * np.pi)) % 1.0
    phases = np.where(phases >= 1.0 - 1e-15, 0.0, phases)
    order = np.argsort(phases, kind="stable")
    return UnitaryEigenData(tuple(phases[order]), q[:, order])


def _projectors(eig):
    return [eig.vectors[:, g] @ eig.vectors[:, g].conj().T for g in eig.phase_groups()]


def _weighted(sigma, phases):
    return cis(phases)[:, None] * permutation_matrix(sigma)


def _conjugated(phases, seed):
    q = unitary_group.rvs(len(phases), random_state=seed)
    return q @ np.diag(cis(phases)) @ q.conj().T


DEGENERATE = {
    **{f"identity-{n}": np.eye(n) for n in range(1, 9)},
    "two-4-cycles": permutation_matrix((1, 2, 3, 0, 5, 6, 7, 4)),
    "three-swaps": permutation_matrix((1, 0, 3, 2, 5, 4)),
    "3-cycle+identity": permutation_matrix((1, 2, 0, 3, 4)),
    "weighted": _weighted((1, 2, 0, 4, 3), [0.1, 0.2, 0.3, 0.25, 0.25]),
    "conjugated-repeated": _conjugated([0.3, 0.3, 0.3, 0.7, 0.7], 7),
    **{f"haar-{s}": unitary_group.rvs(2 + s % 7, random_state=100 + s) for s in range(14)},
}

# three phases 1e-8 apart (three groups at the 1e-9 group tolerance) and a
# repeated pair, in a Haar basis
CLUSTER = [0.3, 0.3 + 1e-8, 0.3 + 2e-8, 0.7, 0.7]


def _check_eigenbasis(b, eig):
    n = b.shape[0]
    mu = cis(np.array(eig.phases))
    assert np.max(np.abs(b @ eig.vectors - eig.vectors * mu[None, :])) < 1e-8
    assert np.max(np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(n))) < 1e-10
    assert all(0 <= p < 1 for p in eig.phases)
    assert list(eig.phases) == sorted(eig.phases)


def _check_equal_length_dims(b, oracle):
    # unit intervals at spacing 2: the spectrum is (theta_j + Z) with the
    # multiplicity of each phase group
    n = b.shape[0]
    om = new_interval_union([(2 * k, 2 * k + 1) for k in range(n)])
    rep = equal_length_spectrum(om, b, window=(-2.5, 2.5))
    want = sorted(
        (oracle.phases[g[0]] + k, len(g))
        for g in oracle.phase_groups()
        for k in range(-3, 3)
        if -2.5 <= oracle.phases[g[0]] + k <= 2.5
    )
    assert rep.dims == [d for _, d in want]
    assert np.max(np.abs(np.array(rep.eigenvalues) - [lam for lam, _ in want])) < 1e-12


@pytest.mark.parametrize("name", DEGENERATE)
def test_eig_unitary_degenerate_phases_match_schur(name):
    b = np.asarray(DEGENERATE[name], dtype=complex)
    eig, oracle = eig_unitary(b), _schur_oracle(b)
    _check_eigenbasis(b, eig)
    assert [len(g) for g in eig.phase_groups()] == [len(g) for g in oracle.phase_groups()]
    assert np.max(np.abs(np.array(eig.phases) - oracle.phases)) < 1e-12
    for mine, theirs in zip(_projectors(eig), _projectors(oracle)):
        assert np.max(np.abs(mine - theirs)) < 1e-10
    _check_equal_length_dims(b, oracle)


@pytest.mark.parametrize("seed", range(5))
def test_eig_unitary_close_cluster(seed):
    b = _conjugated(CLUSTER, seed)
    q = unitary_group.rvs(len(CLUSTER), random_state=seed)
    eig, oracle = eig_unitary(b), _schur_oracle(b)
    _check_eigenbasis(b, eig)
    groups = eig.phase_groups()
    assert [len(g) for g in groups] == [len(g) for g in oracle.phase_groups()] == [1, 1, 1, 2]
    mine, theirs = _projectors(eig), _projectors(oracle)
    # the cluster's invariant subspace is 0.4 away from the rest: 1e-10
    assert np.max(np.abs(sum(mine[:3]) - sum(theirs[:3]))) < 1e-10
    assert np.max(np.abs(mine[3] - theirs[3])) < 1e-10
    # inside the cluster the eigenvalue gap is 2*pi*1e-8, so any backward
    # stable method places each vector only to about n*eps/gap (Davis-Kahan);
    # Schur and eig then differ by up to 1.6e-8 on Haar draws
    for k in range(3):
        exact = np.outer(q[:, k], q[:, k].conj())
        assert np.max(np.abs(mine[k] - exact)) < 2e-7
        assert np.max(np.abs(mine[k] - theirs[k])) < 2e-7
    _check_equal_length_dims(b, oracle)


def test_matrix_from_spectrum_recovers():
    om = new_interval_union([(0, 1), (2, 3)])
    b = matrix_from_spectrum(om, [0.0, 0.25, 1.0, 1.25])
    assert np.max(np.abs(b - SQRT_SWAP)) < 1e-9
    # criterion 2: two samples for two intervals
    b = matrix_from_spectrum(om, [0.0, 0.25])
    assert np.max(np.abs(b - SQRT_SWAP)) < 1e-10
    # the first two samples alone do not span C^2
    b = matrix_from_spectrum(om, [0.0, 1.0, 0.25])
    assert np.max(np.abs(b - SQRT_SWAP)) < 1e-10


# [0, 3) cut into three pieces, moved by 0, 6 and 12: every jump of the
# cycle piece k -> k+1 lies in 3Z, so the pair tiles and is spectral; the
# weights follow the phase law with theta0 = 0.3
TILING = new_interval_union([(0.0, 0.9), (6.9, 8.0), (14.0, 15.0)])
TILING_B = _weighted((1, 2, 0), [0.3 / 3 * 6, 0.3 / 3 * 6, 0.3 / 3 * -15])


@pytest.mark.parametrize(
    "om, b",
    [(new_interval_union([(0, 1), (2, 3)]), SQRT_SWAP), (TILING, TILING_B)],
    ids=["readme-pair", "tiling-pair"],
)
def test_matrix_from_spectrum_overdetermined(om, b):
    lambdas = compute_spectrum(om, b, window=(-12, 12)).eigenvalues
    assert len(lambdas) >= 24 * om.measure  # far more samples than intervals
    assert np.max(np.abs(matrix_from_spectrum(om, lambdas) - b)) < 1e-10


def _greedy_fit(omega, lambdas, tol=1e-8):
    """Reference: solve on n samples chosen by pivoted QR, check the rest."""
    n = omega.n
    amat = np.column_stack([cis(lam * np.array(omega.lefts)) for lam in lambdas])
    cmat = np.column_stack([cis(lam * np.array(omega.rights)) for lam in lambdas])
    sel = scipy.linalg.qr(amat, pivoting=True)[2][:n]
    if len(lambdas) < n or np.linalg.matrix_rank(amat[:, sel], tol=1e-8) < n:
        raise DeficientSpan("reference")
    b = cmat[:, sel] @ np.linalg.inv(amat[:, sel])
    if np.max(np.abs(b @ amat - cmat)) > tol:
        raise Inconsistent("reference")
    return require_unitary(b, tol)


def _fit_outcome(fit, omega, lambdas):
    try:
        return fit(omega, lambdas)
    except SpectralIntervalsError:
        return None


@pytest.mark.parametrize(
    "om, b",
    [
        (new_interval_union([(0, 1), (2, 3)]), SQRT_SWAP),
        (TILING, TILING_B),
        (TILING, permutation_matrix((1, 2, 0))),
        (new_interval_union([(0, 1), (1.5, 2.5), (4, 4.5)]), permutation_matrix((1, 2, 0))),
    ],
    ids=["readme-pair", "weighted-tiling", "tiling", "not-spectral"],
)
def test_matrix_from_spectrum_agrees_with_greedy_fit_on_moved_sets(om, b):
    # the interval_move suite fits each moved set to the spectrum of omega
    lambdas = compute_spectrum(om, b, window=(-4, 4)).eigenvalues
    cases = [(om, lambdas), (om, lambdas[:-1] + [lambdas[-1] + 1e-3])]
    for i in range(om.n):
        for j in range(om.n):
            if i != j:
                cases.append((move_interval(om, j, i), lambdas))
    fits = 0
    for omega, lams in cases:
        mine, ref = _fit_outcome(matrix_from_spectrum, omega, lams), _fit_outcome(_greedy_fit, omega, lams)
        assert (mine is None) == (ref is None)
        if mine is not None:
            fits += 1
            assert np.max(np.abs(mine - ref)) < 1e-10
    assert 0 < fits < len(cases)


def test_matrix_from_spectrum_names_the_bad_sample():
    om = new_interval_union([(0, 1), (2, 3)])
    lambdas = [k + r for k in range(-3, 3) for r in (0.0, 0.25)]
    with pytest.raises(Inconsistent, match="lambda=0.1$"):
        matrix_from_spectrum(om, lambdas + [0.1])


def test_matrix_from_spectrum_errors():
    om = new_interval_union([(0, 1), (2, 3)])
    with pytest.raises(DeficientSpan):
        matrix_from_spectrum(om, [0.0])
    with pytest.raises(DeficientSpan):
        # e_0 and e_1 coincide on integer endpoints: rank one
        matrix_from_spectrum(om, [0.0, 1.0])
    with pytest.raises(DeficientSpan):
        matrix_from_spectrum(om, [0.0, 1.0, -2.0])
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
