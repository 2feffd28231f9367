import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import unitary_group

from spectral_intervals.analysis import (
    equal_length_power_suite,
    exp_gram,
    forelli_spectral_suite,
    multiplicative_spectral_suite,
    spectral_pair_evidence,
    structure_suite,
)
from spectral_intervals.errors import NotSpectral, WrongStructure
from spectral_intervals.evolution import (
    PiecewiseExpPoly,
    apply_U_paths,
    inner_product,
    random_domain_function,
)
from spectral_intervals.intervals import new_interval_union

SQRT_SWAP = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
OM = new_interval_union([(0, 1), (2, 3)])


def test_exp_gram_against_quadrature():
    lams = [0.0, 0.3, 1.7]
    g = exp_gram(OM, lams)
    for k, lk in enumerate(lams):
        for l, ll in enumerate(lams):
            def integrand(x, s=lk - ll):
                return np.exp(2j * np.pi * s * x)

            want = sum(
                quad(lambda x: integrand(x).real, a, b)[0]
                + 1j * quad(lambda x: integrand(x).imag, a, b)[0]
                for a, b in OM.endpoints
            )
            assert g[k, l] == pytest.approx(want, abs=1e-10)


def test_exp_gram_orthogonal_spectrum():
    lams = [k + r for k in range(-3, 4) for r in (0.0, 0.25)]
    g = exp_gram(OM, lams)
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) < 1e-12
    assert np.diag(g) == pytest.approx([OM.measure] * len(lams))


@pytest.mark.parametrize("d", [1e-12, 1e-10, 1e-8])
def test_exp_gram_nearly_equal_frequencies(d):
    lams = [1.0, 1.0 + d]
    g = exp_gram(OM, lams)
    c = 2j * np.pi * (lams[0] - lams[1])
    # int_a^b e^{cx} dx = sum_k c^k (b^{k+1} - a^{k+1}) / (k+1)!, |c| < 1e-7
    want = sum(
        c ** k * (b ** (k + 1) - a ** (k + 1)) / math.factorial(k + 1)
        for a, b in OM.endpoints
        for k in range(6)
    )
    assert g[0, 1] == pytest.approx(want, abs=1e-13)
    assert g[1, 0] == pytest.approx(np.conj(want), abs=1e-13)


def _quadrature_gram(omega, lambdas, nodes=200):
    """Gram matrix of e_lambda by Gauss-Legendre quadrature on each interval."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    xs = np.concatenate([(a + b) / 2 + (b - a) / 2 * x for a, b in omega.endpoints])
    ws = np.concatenate([(b - a) / 2 * w for a, b in omega.endpoints])
    e = np.exp(2j * np.pi * np.outer(lambdas, xs))
    return (e * ws) @ e.conj().T


def _per_lambda_residual(omega, lambdas, probe):
    """||probe||^2 - sum |<probe, e_lambda>|^2 / L, one inner product per lambda."""
    coeff2 = sum(
        abs(inner_product(omega, probe, PiecewiseExpPoly.exponential(omega, lam))) ** 2
        / omega.measure
        for lam in lambdas
    )
    return inner_product(omega, probe, probe).real - coeff2


TILING3 = new_interval_union([(0, 0.9), (3.9, 5.1), (8.1, 9)])  # pieces of [0, 3) moved by 0, 3, 6
CYCLE3 = np.roll(np.eye(3), 1, axis=1).astype(complex)


@pytest.mark.parametrize(
    "omega,b,lambdas",
    [
        (OM, SQRT_SWAP, [k + r for k in range(-12, 12) for r in (0.0, 0.25)] + [12.0]),
        (TILING3, CYCLE3, [k / 3 for k in range(-36, 37)]),
    ],
)
def test_spectral_pair_evidence_matches_per_lambda_reference(omega, b, lambdas):
    rng = np.random.default_rng(omega.n)
    # refined pieces (an evolved function) plus degree-2 atoms, one at a nonzero frequency
    evolved = apply_U_paths(omega, b, 0.4, random_domain_function(omega, b, rng)).function
    extra = PiecewiseExpPoly.from_atoms(
        omega,
        [[(0.0, (-a * c, a + c, -1.0)), (3.7, (0.5, -1.0, 0.25j))] for a, c in omega.endpoints],
    )
    probe = evolved + extra
    assert len(probe.pieces) > omega.n
    assert any(atom.freq != 0 for piece in probe.pieces for atom in piece.atoms)
    ev = spectral_pair_evidence(omega, lambdas, probe=probe)
    assert ev.parseval_residual == pytest.approx(
        _per_lambda_residual(omega, lambdas, probe), abs=1e-12
    )
    gram = _quadrature_gram(omega, lambdas)
    np.testing.assert_allclose(exp_gram(omega, lambdas), gram, rtol=0, atol=1e-12)
    off = np.abs(gram - np.diag(np.diag(gram))).max()
    assert ev.max_offdiagonal == pytest.approx(off, abs=1e-12)
    assert ev.orthogonal_on_window


def test_spectral_pair_evidence():
    lams = sorted(k + r for k in range(-8, 9) for r in (0.0, 0.25))
    ev = spectral_pair_evidence(OM, lams)
    assert ev.orthogonal_on_window
    assert ev.max_offdiagonal < 1e-12
    assert ev.density_ratio == pytest.approx(1.0, abs=0.1)
    assert ev.parseval_residual >= -1e-12
    # a non-spectrum has visibly larger residual on the same window width
    ev_bad = spectral_pair_evidence(OM, [l * 1.11 for l in lams])
    assert not ev_bad.orthogonal_on_window
    assert ev_bad.parseval_residual > ev.parseval_residual


def test_structure_suite_spectral_pair():
    checks = {c.name: c for c in structure_suite(OM, SQRT_SWAP, window=(-3.2, 3.2))}
    assert checks["gap_lengths"].passed
    assert checks["minimal_gap"].passed
    assert checks["diagonal"].passed
    # no unimodular entries, no shared endpoints: vacuous passes
    assert checks["adjacency"].passed
    assert checks["unimodular_entry"].passed


def test_structure_suite_skips_when_not_spectral():
    checks = structure_suite(OM, SWAP, window=(-2, 2))
    by_name = {c.name: c for c in checks}
    # gap geometry does not depend on B and is still reported
    assert by_name["gap_lengths"].status == "pass"
    for name in ("adjacency", "minimal_gap", "diagonal"):
        assert by_name[name].status == "skipped"
        assert "not_spectral" in by_name[name].detail


def test_structure_suite_gap_failure():
    om = new_interval_union([(0, 1), (1.5, 2.5)])
    checks = {c.name: c for c in structure_suite(om, SWAP, window=(-2, 2))}
    assert checks["gap_lengths"].status == "fail"


def test_structure_suite_unimodular_and_move():
    om = new_interval_union([(0, 1), (3, 4)])
    b = np.array([[0, 1j], [-1, 0]], dtype=complex)
    checks = {c.name: c for c in structure_suite(om, b, window=(-3.2, 3.2))}
    assert checks["unimodular_entry"].passed
    assert checks["interval_move"].passed
    assert checks["diagonal"].passed


def test_multiplicative_suite():
    om = new_interval_union([(0, 1), (1, 2)])
    rep = multiplicative_spectral_suite(om, SWAP, window=(-3.1, 3.1))
    assert rep.passed
    assert rep.cycle and rep.spectrum_is_lattice and rep.tiles
    assert rep.chain.closes and rep.chain.shifts_in_lattice
    assert rep.chain.final_interval == pytest.approx((0.0, 2.0))
    assert rep.adjacency_forced


def test_multiplicative_suite_rejections():
    with pytest.raises(WrongStructure):
        multiplicative_spectral_suite(OM, SQRT_SWAP, window=(-2, 2))
    om = new_interval_union([(0, 1), (1.25, 2.25)])
    with pytest.raises(NotSpectral):
        multiplicative_spectral_suite(om, SWAP, window=(-3, 3))


def test_forelli_suite():
    om = new_interval_union([(0, 1), (3, 4)])
    b = np.array([[0, 1j], [-1, 0]], dtype=complex)
    rep = forelli_spectral_suite(om, b, window=(-3.2, 3.2))
    assert rep.passed
    assert rep.theta0 == pytest.approx(0.25, abs=1e-8)
    assert rep.weights_match and rep.jumps_in_lattice and rep.tiles
    assert rep.chain.closes


def test_forelli_suite_rejects_general_matrix():
    with pytest.raises(WrongStructure):
        forelli_spectral_suite(OM, SQRT_SWAP, window=(-2, 2))


def test_power_suite_multiplicative():
    rep = equal_length_power_suite(OM, SQRT_SWAP, 1.5, "multiplicative")
    assert rep.p == 2
    assert rep.kind == "permutation"
    assert rep.necessary_condition_met
    assert rep.aggregation_error < 1e-12


def test_power_suite_forelli_negative():
    b = unitary_group.rvs(2, random_state=1)
    rep = equal_length_power_suite(OM, b, 1.5, "forelli")
    assert rep.p == 2
    assert not rep.necessary_condition_met


def test_power_suite_validation():
    with pytest.raises(ValueError):
        equal_length_power_suite(OM, SQRT_SWAP, 1.5, "nope")
    with pytest.raises(ValueError):
        equal_length_power_suite(OM, SQRT_SWAP, -1.0, "forelli")
