import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import unitary_group

from spectral_intervals.errors import NotEigenCombination, XNotInOmega
from spectral_intervals.evolution import (
    Atom,
    Piece,
    PiecewiseExpPoly,
    _merge_atoms,
    apply_U_paths,
    apply_U_spectral,
    boundary_condition_check,
    eigenfunction,
    evolve_point,
    inner_product,
    local_translation_test,
    norm,
    probe_points,
    random_domain_function,
    reflection_consistency,
    shift_poly,
)
from spectral_intervals.intervals import new_interval_union
from spectral_intervals.paths import cumulative_sums, enumerate_paths
from spectral_intervals.spectrum import compute_spectrum

SQRT_SWAP = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
OM = new_interval_union([(0, 1), (2, 3)])


# -- representation ----------------------------------------------------------


@settings(deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
def test_shift_poly(coeffs, delta, x):
    shifted = shift_poly(coeffs, delta)
    direct = sum(c * (x + delta) ** k for k, c in enumerate(coeffs))
    via = sum(c * x ** k for k, c in enumerate(shifted))
    assert via == pytest.approx(direct, abs=1e-7 * max(1, abs(direct)))


def test_atom_evaluate_and_shift():
    a = Atom(0.5, (1.0, 2.0))  # (1 + 2x) e^{pi i x}
    x = 0.7
    expected = (1 + 2 * x) * np.exp(1j * np.pi * x)
    assert a(x) == pytest.approx(expected)
    b = a.shifted(0.3, scale=2.0)
    assert b(x) == pytest.approx(2 * a(x + 0.3))


def test_atom_reflected():
    a = Atom(0.5, (1.0, 2.0, -1.0))
    assert a.reflected()(-0.7) == pytest.approx(a(0.7))


def test_from_atoms_and_evaluate():
    f = PiecewiseExpPoly.from_atoms(OM, [[(0.0, (1.0,))], [(1.0, (0.0, 1.0))]])
    assert f(0.4) == pytest.approx(1.0)
    assert f(2.5) == pytest.approx(2.5 * np.exp(2j * np.pi * 2.5))
    vals = f(np.array([0.1, 0.9, 2.1]))
    assert vals.shape == (3,)


def test_degree_cap():
    with pytest.raises(ValueError):
        PiecewiseExpPoly.from_atoms(OM, [[(0.0, tuple(range(10)))], []])


def test_boundary_values():
    f = PiecewiseExpPoly.from_atoms(OM, [[(0.0, (0.0, 1.0))], [(0.0, (5.0,))]])
    fa, fb = f.boundary_values()
    assert fa == pytest.approx([0.0, 5.0])
    assert fb == pytest.approx([1.0, 5.0])


def test_addition_merges():
    f = PiecewiseExpPoly.exponential(OM, 0.25)
    g = PiecewiseExpPoly.exponential(OM, 0.25).scaled(2.0)
    h = f + g
    xs = probe_points(h, 8)
    assert h(xs) == pytest.approx(3 * f(xs))


# -- inner products against numerical quadrature -----------------------------


def quad_inner(om, f, g):
    total = 0.0 + 0.0j
    for a, b in om.endpoints:
        re, _ = quad(lambda x: (f(x) * np.conj(g(x))).real, a, b, limit=200)
        im, _ = quad(lambda x: (f(x) * np.conj(g(x))).imag, a, b, limit=200)
        total += re + 1j * im
    return total


def test_inner_product_exponentials():
    f = PiecewiseExpPoly.exponential(OM, 0.25)
    g = PiecewiseExpPoly.exponential(OM, 1.4)
    assert inner_product(OM, f, f) == pytest.approx(OM.measure)
    assert inner_product(OM, f, g) == pytest.approx(quad_inner(OM, f, g), abs=1e-10)


def test_inner_product_orthogonal_pair():
    # {0, 1/4} + Z are orthogonal frequencies for this set
    f = PiecewiseExpPoly.exponential(OM, 0.0)
    g = PiecewiseExpPoly.exponential(OM, 0.25)
    assert abs(inner_product(OM, f, g)) < 1e-12


def test_inner_product_polynomials():
    f = PiecewiseExpPoly.from_atoms(
        OM, [[(0.7, (1.0, -2.0, 0.5))], [(0.0, (0.0, 1.0))]]
    )
    g = PiecewiseExpPoly.from_atoms(
        OM, [[(-1.3, (2.0, 1.0))], [(0.7, (1.0, 0.0, 0.0, 1.0))]]
    )
    assert inner_product(OM, f, g) == pytest.approx(quad_inner(OM, f, g), abs=1e-9)


def test_inner_product_small_frequency_difference():
    # nearly equal frequencies exercise the small-phase series path
    f = PiecewiseExpPoly.exponential(OM, 1.0)
    g = PiecewiseExpPoly.exponential(OM, 1.0 + 1e-7)
    assert inner_product(OM, f, g) == pytest.approx(quad_inner(OM, f, g), abs=1e-9)


def test_norm():
    f = PiecewiseExpPoly.exponential(OM, 0.3)
    assert norm(OM, f) == pytest.approx(np.sqrt(OM.measure))


# -- evolution ---------------------------------------------------------------


def test_domain_function_and_check():
    rng = np.random.default_rng(11)
    f = random_domain_function(OM, SQRT_SWAP, rng)
    assert boundary_condition_check(SQRT_SWAP, f)
    assert not boundary_condition_check(np.eye(2), f)


def test_u_zero_is_identity():
    rng = np.random.default_rng(4)
    f = random_domain_function(OM, SQRT_SWAP, rng)
    res = apply_U_paths(OM, SQRT_SWAP, 0.0, f)
    xs = probe_points(f)
    assert res.function(xs) == pytest.approx(f(xs))


@pytest.mark.parametrize("t", [0.4, 1.3, -0.6, 2.2, -2.2])
def test_unitarity_and_domain_invariance(t):
    rng = np.random.default_rng(8)
    f = random_domain_function(OM, SQRT_SWAP, rng)
    res = apply_U_paths(OM, SQRT_SWAP, t, f)
    assert norm(OM, res.function) == pytest.approx(norm(OM, f), abs=1e-10)
    # U(t) preserves the domain of the extension
    assert boundary_condition_check(SQRT_SWAP, res.function, tol=1e-7)


@pytest.mark.parametrize("s,t", [(0.3, 0.4), (1.1, -0.7), (-0.5, -0.9)])
def test_group_law(s, t):
    rng = np.random.default_rng(15)
    f = random_domain_function(OM, SQRT_SWAP, rng)
    once = apply_U_paths(OM, SQRT_SWAP, s + t, f).function
    twice = apply_U_paths(OM, SQRT_SWAP, s, apply_U_paths(OM, SQRT_SWAP, t, f).function).function
    xs = probe_points(once, 16)
    assert np.max(np.abs(once(xs) - twice(xs))) < 1e-10


def test_evolve_point_matches_function_evolution():
    rng = np.random.default_rng(21)
    f = random_domain_function(OM, SQRT_SWAP, rng)
    res = apply_U_paths(OM, SQRT_SWAP, 1.7, f)
    for x in (0.15, 0.85, 2.3, 2.9):
        assert evolve_point(OM, SQRT_SWAP, x, 1.7, f) == pytest.approx(
            complex(res.function(x))
        )


def test_spectral_oracle_agrees_with_paths():
    rep = compute_spectrum(OM, SQRT_SWAP, window=(-2.3, 2.3))
    comb = [(2, 1.0), (4, 0.3 - 0.6j), (7, -1.5)]
    f = apply_U_spectral(OM, rep, 0.0, comb)
    for t in (0.5, 1.9, -1.2):
        via_paths = apply_U_paths(OM, SQRT_SWAP, t, f).function
        via_calculus = apply_U_spectral(OM, rep, t, comb)
        xs = probe_points(via_paths, 8)
        assert np.max(np.abs(via_paths(xs) - via_calculus(xs))) < 1e-9


def test_eigenfunction_is_invariant_up_to_phase():
    rep = compute_spectrum(OM, SQRT_SWAP, window=(-1.3, 1.3))
    k = min(range(len(rep.eigenvalues)), key=lambda i: abs(rep.eigenvalues[i] - 0.25))
    assert abs(rep.eigenvalues[k] - 0.25) < 1e-9
    phi = eigenfunction(OM, rep, k)
    t = 0.77
    evolved = apply_U_paths(OM, SQRT_SWAP, t, phi).function
    xs = probe_points(phi, 8)
    phase = np.exp(2j * np.pi * 0.25 * t)
    assert np.max(np.abs(evolved(xs) - phase * phi(xs))) < 1e-10


def test_bad_eigen_combination():
    rep = compute_spectrum(OM, SQRT_SWAP, window=(-1.3, 1.3))
    with pytest.raises(NotEigenCombination):
        apply_U_spectral(OM, rep, 0.1, [(999, 1.0)])
    with pytest.raises(NotEigenCombination):
        eigenfunction(OM, rep, 999)


def test_local_translation_pass_and_fail():
    ok = local_translation_test(OM, SQRT_SWAP, trials=60, seed=2)
    assert ok.passed and ok.max_error < 1e-9
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    bad = local_translation_test(OM, swap, trials=60, seed=2)
    assert not bad.passed
    assert bad.witnesses


@pytest.mark.parametrize("t", [0.6, -1.4])
def test_reflection_consistency(t):
    rng = np.random.default_rng(31)
    f = random_domain_function(OM, SQRT_SWAP, rng)
    assert reflection_consistency(OM, SQRT_SWAP, t, f)


def test_piece_containing_outside():
    f = PiecewiseExpPoly.exponential(OM, 0.0)
    with pytest.raises(XNotInOmega):
        f.piece_containing(1.5)


# -- path table against per-sub-piece enumeration ------------------------------


def _reference_apply_U(omega, b, t, f):
    """U(t)f with the paths enumerated afresh at the midpoint of every sub-piece."""
    n = omega.n
    csums = cumulative_sums(omega, abs(t))
    bps = sorted({p.lo for p in f.pieces} | {p.hi for p in f.pieces})
    tol = omega.tol()
    sign = 1 if t >= 0 else -1
    ends_from = omega.rights if t >= 0 else omega.lefts
    ends_to = omega.lefts if t >= 0 else omega.rights
    shifts = {t} | {
        ends_to[j] - ends_from[i] + t - sign * c
        for i in range(n)
        for j in range(n)
        for c in csums
    }
    pieces, refinement, count = [], {}, 0
    for i, (alo, ahi) in enumerate(omega.endpoints):
        cands = {ends_from[i] - t + sign * c for c in csums}
        cands |= {bp - s for bp in bps for s in shifts}
        cuts = []
        for x in sorted(x for x in cands if alo + tol < x < ahi - tol):
            if not cuts or x - cuts[-1] > 1e-12:
                cuts.append(x)
        refinement[i] = cuts
        edges = [alo] + cuts + [ahi]
        for lo, hi in zip(edges, edges[1:]):
            if hi - lo <= 1e-13:
                continue
            xm = (lo + hi) / 2
            paths = enumerate_paths(omega, b, xm, t)
            count += len(paths)
            atoms = [
                atom.shifted(path.end - xm, path.weight)
                for path in paths
                for atom in f.piece_containing(path.end).atoms
            ]
            pieces.append(Piece(lo, hi, _merge_atoms(atoms)))
    return PiecewiseExpPoly(omega, tuple(pieces)), refinement, count


@pytest.mark.parametrize(
    "endpoints,t",
    [
        (((0, 1), (2, 3.3)), 2.7),
        (((0, 1), (2, 3.3)), -3.1),
        (((0, 0.9), (1.4, 2.5), (3.1, 4.0)), 2.3),
        (((0, 0.9), (1.4, 2.5), (3.1, 4.0)), -2.6),
        (((0, 1.05), (1.5, 2.4), (3.2, 4.3), (5.0, 5.95)), 1.9),
        (((0, 1.05), (1.5, 2.4), (3.2, 4.3), (5.0, 5.95)), -2.2),
        # a spectral tiling pair: pieces of [0, 3) moved by multiples of 3
        (((0, 1), (4, 5), (8, 9)), 4.4),
        (((0, 1), (4, 5), (8, 9)), -5.2),
    ],
)
def test_apply_U_paths_matches_per_subpiece_enumeration(endpoints, t):
    om = new_interval_union(endpoints)
    n = om.n
    if endpoints == ((0, 1), (4, 5), (8, 9)):
        b = np.roll(np.eye(n), 1, axis=1).astype(complex)
    else:
        b = unitary_group.rvs(n, random_state=n)
    # an evolved function: several pieces per interval, so that one end state
    # hits different pieces of f on different sub-pieces
    f = apply_U_paths(om, b, 0.4, random_domain_function(om, b, np.random.default_rng(n))).function
    assert len(f.pieces) > n
    res = apply_U_paths(om, b, t, f)
    ref, refinement, count = _reference_apply_U(om, b, t, f)
    assert res.refinement == refinement
    assert res.path_count == count
    assert [(p.lo, p.hi) for p in res.function.pieces] == [(p.lo, p.hi) for p in ref.pieces]
    xs = probe_points(ref, 8)
    assert np.max(np.abs(res.function(xs) - ref(xs))) < 1e-12
