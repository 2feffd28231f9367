import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import unitary_group

from spectral_intervals import evolution, paths
from spectral_intervals.errors import (
    GuardExceeded,
    NotEigenCombination,
    SpectralIntervalsError,
    XNotInOmega,
)
from spectral_intervals.evolution import (
    MAX_DEGREE,
    Atom,
    Piece,
    PiecewiseExpPoly,
    _poly_exp_integral,
    apply_U_paths,
    apply_U_spectral,
    eigenfunction,
    evolve_point,
    inner_product,
    local_translation_test,
    norm,
    probe_points,
    random_domain_function,
    reflection_consistency,
    sample_local_pair,
    shift_polys,
)
from spectral_intervals.intervals import new_interval_union
from spectral_intervals.paths import MAX_PATHS_ENV, enumerate_paths
from spectral_intervals.spectrum import compute_spectrum

from oracles import (
    add_per_piece,
    apply_U_per_subpiece,
    atom_value,
    boundary_condition_check,
    boundary_values_per_piece,
    piece_containing,
    piece_value,
    reflect_per_piece,
    reflected,
    scaled_per_piece,
    shift_poly,
    shifted,
    values_per_piece,
)

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


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, MAX_DEGREE + 1).flatmap(
        lambda size: st.lists(
            st.tuples(
                st.lists(
                    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
                    min_size=size,
                    max_size=size,
                ),
                st.floats(-5, 5),
            ),
            min_size=1,
            max_size=6,
        )
    )
)
def test_batched_shift_equals_shift_poly_row_by_row(rows):
    got = shift_polys(np.array([c for c, _ in rows], dtype=complex), np.array([d for _, d in rows]))
    for row, (coeffs, delta) in zip(got, rows):
        want = np.array(shift_poly(coeffs, delta))
        # the rounding of either: a few ulps of sum_m |c_m| (1 + |delta|)^m
        scale = sum(abs(c) * (1 + abs(delta)) ** m for m, c in enumerate(coeffs))
        assert np.max(np.abs(row - want)) <= 1e-14 * max(scale, 1e-300)


def test_evaluate_matches_piece_evaluate():
    # pieces with 0, 1 and 3 atoms of mixed degrees, and a gap between them
    pieces = (
        Piece(0.0, 0.4, ()),
        Piece(0.4, 1.0, (Atom(0.3, (1.0, 2.0 - 1j)),)),
        Piece(
            2.0,
            2.5,
            (
                Atom(-1.2, (0.5j,)),
                Atom(0.0, (1.0, 0.0, -2.0)),
                Atom(2.7, (0.3, -1.0, 0.2, 0.1j, 0.05)),
            ),
        ),
        Piece(2.5, 3.0, (Atom(0.7, (1.0, 1.0)),)),
    )
    f = PiecewiseExpPoly.from_pieces(OM, pieces)
    edges = [0.0, 0.4, 1.0, 2.0, 2.5, 3.0]
    xs = np.concatenate([edges, probe_points(f, 5), [-0.3, 1.5, 3.4]])
    want = values_per_piece(pieces, xs)
    got = f.evaluate(xs)
    assert got.shape == xs.shape
    assert np.max(np.abs(got - want)) < 1e-13
    for x, w in zip(xs.tolist(), want.tolist()):
        value = f.evaluate(x)
        assert np.ndim(value) == 0 and abs(value - w) < 1e-13
    assert f.evaluate(0.2) == 0  # the piece without atoms
    assert np.array_equal(f(xs[:28].reshape(4, 7)), got[:28].reshape(4, 7))


def test_atom_evaluate_and_shift():
    a = Atom(0.5, (1.0, 2.0))  # (1 + 2x) e^{pi i x}
    x = 0.7
    expected = (1 + 2 * x) * np.exp(1j * np.pi * x)
    assert atom_value(a, x) == pytest.approx(expected)
    b = shifted(a, 0.3, scale=2.0)
    assert atom_value(b, x) == pytest.approx(2 * atom_value(a, x + 0.3))


def test_atom_reflected():
    a = Atom(0.5, (1.0, 2.0, -1.0))
    assert atom_value(reflected(a), -0.7) == pytest.approx(atom_value(a, 0.7))


def test_from_atoms_and_evaluate():
    f = PiecewiseExpPoly.from_atoms(OM, [[(0.0, (1.0,))], [(1.0, (0.0, 1.0))]])
    assert f(0.4) == pytest.approx(1.0)
    assert f(2.5) == pytest.approx(2.5 * np.exp(2j * np.pi * 2.5))
    vals = f(np.array([0.1, 0.9, 2.1]))
    assert vals.shape == (3,)


def test_degree_cap():
    with pytest.raises(ValueError):
        PiecewiseExpPoly.from_atoms(OM, [[(0.0, tuple(range(10)))], []])


def test_malformed_functions_raise_package_errors():
    with pytest.raises(SpectralIntervalsError, match="degree above"):
        PiecewiseExpPoly.from_atoms(OM, [[(0.0, tuple(range(10)))], []])
    with pytest.raises(SpectralIntervalsError, match="one atom list per interval"):
        PiecewiseExpPoly.from_atoms(OM, [[(0.0, (1.0,))]])
    other = PiecewiseExpPoly.bump(new_interval_union([(0, 1), (2, 3.5)]))
    with pytest.raises(SpectralIntervalsError, match="different sets"):
        PiecewiseExpPoly.bump(OM) + other
    # pieces out of order, overlapping, reversed or none would be read wrongly
    for bounds in [((2.0, 3.0), (0.0, 1.0)), ((0.0, 1.5), (1.0, 3.0)), ((1.0, 0.0),), ()]:
        with pytest.raises(SpectralIntervalsError, match="ascending and disjoint"):
            PiecewiseExpPoly.from_pieces(OM, [Piece(lo, hi, ()) for lo, hi in bounds])


def test_boundary_values():
    f = PiecewiseExpPoly.from_atoms(OM, [[(0.0, (0.0, 1.0))], [(0.0, (5.0,))]])
    fa, fb = f.boundary_values()
    assert fa == pytest.approx([0.0, 5.0])
    assert fb == pytest.approx([1.0, 5.0])


def test_boundary_values_end_outside_every_piece():
    # no piece reaches the right end 1 of the first interval
    f = PiecewiseExpPoly.from_pieces(OM, (Piece(0.0, 0.5, (Atom(0.0, (1.0,)),)), Piece(2.0, 3.0, ())))
    with pytest.raises(XNotInOmega, match="point 1.0 is outside every piece"):
        f.boundary_values()


def test_constructors_take_intervals_that_touch_within_tolerance():
    # 0.1 + 0.2 = 0.30000000000000004 overlaps 0.3 by 5.5e-17, which
    # new_interval_union allows; every constructor must take the set too
    om = new_interval_union([(0, 0.1 + 0.2), (0.3, 1)])
    bump = PiecewiseExpPoly.bump(om)
    fa, fb = bump.boundary_values()
    assert np.abs(fa).max() < 1e-15 and np.abs(fb).max() < 1e-15
    e = PiecewiseExpPoly.exponential(om, 0.5, [1.0, 2.0])
    assert e.evaluate(np.array([0.1, 0.6])) == pytest.approx(
        [np.exp(1j * np.pi * 0.1), 2 * np.exp(1j * np.pi * 0.6)], rel=1e-14
    )
    f = PiecewiseExpPoly.from_atoms(om, [[(0.0, (1.0,))], [(1.0, (0.0, 1.0))]])
    assert PiecewiseExpPoly.from_pieces(om, f.pieces).lo.tolist() == [0.0, 0.3]
    g = random_domain_function(om, np.eye(2), np.random.default_rng(3))
    assert len(g.pieces) == 2
    with pytest.raises(SpectralIntervalsError, match="ascending and disjoint"):
        PiecewiseExpPoly.from_pieces(om, [Piece(0.0, 0.3 + 2e-9, ()), Piece(0.3, 1.0, ())])


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
    cases = [
        (
            [[(0.7, (1.0, -2.0, 0.5))], [(0.0, (0.0, 1.0))]],
            [[(-1.3, (2.0, 1.0))], [(0.7, (1.0, 0.0, 0.0, 1.0))]],
        ),
        # frequency differences past the antiderivative threshold, degree 5
        (
            [[(9.4, (1.0, -2.0, 0.5)), (-3.0, (0.3j,))], [(4.1, (0.0, 1.0, 0.0, -0.2))]],
            [[(-1.3, (2.0, 1.0, 0.0, 1.0))], [(-7.9, (1.0, 0.5j, -1.0))]],
        ),
    ]
    for f_atoms, g_atoms in cases:
        f = PiecewiseExpPoly.from_atoms(OM, f_atoms)
        g = PiecewiseExpPoly.from_atoms(OM, g_atoms)
        assert inner_product(OM, f, g) == pytest.approx(quad_inner(OM, f, g), abs=1e-9)


def test_inner_product_small_frequency_difference():
    # nearly equal frequencies exercise the small-phase series path
    f = PiecewiseExpPoly.exponential(OM, 1.0)
    g = PiecewiseExpPoly.exponential(OM, 1.0 + 1e-7)
    assert inner_product(OM, f, g) == pytest.approx(quad_inner(OM, f, g), abs=1e-9)


def _random_poly(rng, deg):
    return tuple(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))


def _abs_integral(coeffs, lo, hi):
    p = np.polynomial.Polynomial(coeffs)
    return quad(lambda x: abs(p(x)), lo, hi, limit=200)[0]


@pytest.mark.parametrize("deg", [0, 1, 2, 5, 8])
@pytest.mark.parametrize("lo,hi", [(0.2, 0.9), (-50.3, -49.1), (48.9, 49.3)])
def test_poly_exp_integral_array_equals_scalar_calls(deg, lo, hi):
    rng = np.random.default_rng(deg)
    coeffs = _random_poly(rng, deg)
    s = np.concatenate([[0.0], np.geomspace(1e-12, 50, 47)]) * np.resize([1, -1], 48)
    got = _poly_exp_integral(coeffs, s, lo, hi)
    want = np.array([_poly_exp_integral(coeffs, float(x), lo, hi) for x in s])
    assert got.shape == s.shape and got.dtype == complex
    assert all(isinstance(w, complex) for w in want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * _abs_integral(coeffs, lo, hi))
    # any shape, element by element
    grid = _poly_exp_integral(coeffs, s.reshape(6, 8), lo, hi)
    assert grid.shape == (6, 8)
    np.testing.assert_array_equal(grid.ravel(), got)


@pytest.mark.parametrize("deg", range(9))
@pytest.mark.parametrize("lo,hi", [(-0.3, 0.8), (48.7, 50.0), (-50.0, -49.2)])
def test_poly_exp_integral_against_quad(deg, lo, hi):
    rng = np.random.default_rng(10 + deg)
    coeffs = _random_poly(rng, deg)
    p = np.polynomial.Polynomial(coeffs)
    scale = _abs_integral(coeffs, lo, hi)
    s = np.array([0.0, 1e-9, -0.37, 1.9, -4.2, 23.0, -41.5])
    got = _poly_exp_integral(coeffs, s, lo, hi)
    for k, sk in enumerate(s):
        def part(x, take):
            return take(p(x) * np.exp(2j * np.pi * sk * x))

        want = sum(
            sign * quad(part, lo, hi, args=(take,), limit=400, epsabs=1e-13 * scale, epsrel=1e-13)[0]
            for sign, take in ((1, np.real), (1j, np.imag))
        )
        assert abs(got[k] - want) <= 1e-9 * scale


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


def _reference_local_translation(omega, b, trials, seed, tol=1e-9):
    """The same batched draws, each trial evaluated alone with evolve_point."""
    freq, coeffs, xs, ts = evolution._draw_trials(omega, np.random.default_rng(seed), trials)
    evolution._fix_boundary(omega, b, freq, coeffs)
    errors, witnesses = [], []
    for k, (x, t) in enumerate(zip(xs.tolist(), ts.tolist())):
        f = evolution._as_function(omega, freq[k], coeffs[k])
        err = abs(evolve_point(omega, b, x, t, f) - f.evaluate(x + t))
        errors.append(err)
        if err > tol:
            witnesses.append((x, t, err))
    return max(errors), witnesses, ts.tolist()


SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
# pieces [0, 1.2), [1.2, 2.1), [2.1, 3) of [0, 3) moved by 0, 3 and 6; B cycles them
TILING = new_interval_union([(0, 1.2), (4.2, 5.1), (8.1, 9.0)])
CYCLE = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
EQUAL = new_interval_union([(0, 1), (2, 3), (4, 5)])
UNEQUAL4 = new_interval_union([(0, 0.7), (1.5, 2.8), (3.1, 3.9), (4.6, 5.5)])


TRIAL_CASES = pytest.mark.parametrize(
    "omega,b,seed",
    [
        (OM, SQRT_SWAP, 3),
        (OM, SWAP, 4),
        (TILING, CYCLE, 5),
        (EQUAL, unitary_group.rvs(3, random_state=6), 6),
        (UNEQUAL4, unitary_group.rvs(4, random_state=7), 7),
    ],
    ids=["readme-sqrt-swap", "readme-swap", "tiling3", "equal3-haar", "haar4"],
)


@TRIAL_CASES
def test_local_translation_batch_matches_per_trial_reference(omega, b, seed):
    trials = 40
    rep = local_translation_test(omega, b, trials, seed=seed)
    max_error, witnesses, ts = _reference_local_translation(omega, b, trials, seed)
    assert min(ts) < 0 < max(ts)
    assert rep.passed == (not witnesses)
    assert rep.trials == trials
    assert rep.max_error == pytest.approx(max_error, abs=1e-13)
    assert [(x, t) for x, t, _ in rep.witnesses] == [(x, t) for x, t, _ in witnesses]
    for (_, _, got), (_, _, want) in zip(rep.witnesses, witnesses):
        assert got == pytest.approx(want, abs=1e-13)
    assert 1 <= rep.tables <= 2 * omega.n
    assert rep.states >= trials


@TRIAL_CASES
def test_end_states_batch_matches_single_pairs(omega, b, seed):
    # the trials' pairs read in one batch, and one pair at a time
    _, _, xs, ts = evolution._draw_trials(omega, np.random.default_rng(seed), 40)
    batch = paths.end_states(omega, b, xs, ts)
    single = [paths.end_states(omega, b, x, t) for x, t in zip(xs, ts)]
    assert batch.pair.tolist() == [k for k, one in enumerate(single) for _ in one.pair]
    assert np.array_equal(batch.final, np.concatenate([one.final for one in single]))
    assert np.array_equal(batch.count, np.concatenate([one.count for one in single]))
    assert np.max(np.abs(batch.end - np.concatenate([one.end for one in single]))) < 1e-13
    assert np.max(np.abs(batch.weight - np.concatenate([one.weight for one in single]))) < 1e-13
    assert batch.tables == len({(omega.index_of(x), t >= 0) for x, t in zip(xs, ts)})
    assert batch.state_bound == max(one.state_bound for one in single)


def test_trial_draws_are_batched_and_deterministic():
    omega = UNEQUAL4
    lefts, rights = np.array(omega.lefts), np.array(omega.rights)
    lengths = rights - lefts
    freq, coeffs, xs, ts = evolution._draw_trials(omega, np.random.default_rng(11), 300)
    again = evolution._draw_trials(omega, np.random.default_rng(11), 300)
    for got, want in zip((freq, coeffs, xs, ts), again):
        assert np.array_equal(got, want)
    assert freq.shape == (300, 4, 3) and coeffs.shape == (300, 4, 3, 2)
    # the last atom slot is left for the boundary fix
    assert not freq[..., -1].any() and not coeffs[..., -1, :].any()
    other = evolution._draw_trials(omega, np.random.default_rng(12), 300)
    assert not np.array_equal(xs, other[2])
    # x and x + t lie at least 1e-6 of their interval's length inside it
    for points in (xs, xs + ts):
        i = np.searchsorted(lefts, points, side="right") - 1
        margin = 1e-6 * lengths[i] * (1 - 1e-9)
        assert np.all(points - lefts[i] >= margin) and np.all(rights[i] - points >= margin)
    assert min(ts) < 0 < max(ts)
    # given base frequencies, every atom is one of them plus a 0.25 jitter
    freqs = [-2.0, 5.0, 40.0]
    freq, _, _, _ = evolution._draw_trials(omega, np.random.default_rng(11), 300, freqs)
    jitter = np.min(np.abs(freq[..., :-1, None] - np.array(freqs)), axis=-1)
    assert np.max(jitter) < 2.0  # eight sigma
    nearest = np.argmin(np.abs(freq[..., :-1, None] - np.array(freqs)), axis=-1)
    assert set(nearest.ravel().tolist()) == {0, 1, 2}


def test_local_translation_zero_trials():
    rep = local_translation_test(OM, SWAP, trials=0)
    assert rep.passed and rep.max_error == 0 and rep.witnesses == []
    assert rep.tables == 0 and rep.states == 0


def test_local_translation_guard_stops_at_the_first_large_table(monkeypatch):
    # under a Haar B, which drops no state, the trials' tables hold at most
    # 78 states; with a cap of 10 the first table (3 states) is built, the
    # second (72 states, t near 8) trips
    built, build_table = [], paths._build_table
    haar = unitary_group.rvs(3, random_state=3)

    def build(*args):
        built.append(args[2:])
        return build_table(*args)

    monkeypatch.setattr(paths, "_build_table", build)
    report = local_translation_test(TILING, haar, trials=40, seed=5)
    assert (report.state_bound, report.zero_states) == (78, 0)
    built.clear()
    monkeypatch.setenv(MAX_PATHS_ENV, "10")
    with pytest.raises(GuardExceeded, match="cap 10 states for t=7.96"):
        local_translation_test(TILING, haar, trials=40, seed=5)
    assert len(built) == 2
    # the cycle keeps one state of weight 1 per node: at most 27 states
    monkeypatch.delenv(MAX_PATHS_ENV)
    report = local_translation_test(TILING, CYCLE, trials=40, seed=5)
    assert report.passed and report.state_bound == 27
    assert 0 < report.zero_states < report.table_states


@pytest.mark.parametrize("t", [0.6, -1.4])
def test_reflection_consistency(t):
    rng = np.random.default_rng(31)
    f = random_domain_function(OM, SQRT_SWAP, rng)
    assert reflection_consistency(OM, SQRT_SWAP, t, f)


def test_piece_containing_outside():
    f = PiecewiseExpPoly.exponential(OM, 0.0)
    with pytest.raises(XNotInOmega):
        piece_containing(f.pieces, 1.5)


# -- path table against per-point enumeration -----------------------------------


def _paths_with_sources(omega, b, x, t, f):
    """The admissible paths from x, each with the piece of f at its end."""
    paths = enumerate_paths(omega, b, x, t)
    return paths, sorted((p.word, piece_containing(f.pieces, p.end)) for p in paths)


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
    count = 0
    for piece in res.function.pieces:
        mid = (piece.lo + piece.hi) / 2
        paths, sources = _paths_with_sources(om, b, mid, t, f)
        count += len(paths)
        # one path set and one source piece of f per end across the whole piece
        for x in (piece.lo + 1e-9, mid, piece.hi - 1e-9):
            paths, here = _paths_with_sources(om, b, x, t, f)
            assert here == sources
            expected = sum(p.weight * f(p.end) for p in paths)
            assert abs(piece_value(piece, x) - expected) < 1e-12
    assert res.path_count == count


@pytest.mark.parametrize("t,cuts", [(0.6, {0: [0.4], 1: [2.7]}), (-0.6, {0: [0.6], 1: [2.6]})])
def test_apply_U_paths_cuts_by_hand(t, cuts):
    # t = 0.6: below 0.4 (2.7) the flow stays in its interval, above it the
    # point leaves through the right end into either interval; t = -0.6
    # mirrors it through the left ends.  The bump's breakpoints are the
    # interval ends, so they add no cut.
    om = new_interval_union([(0, 1), (2, 3.3)])
    f = PiecewiseExpPoly.bump(om)
    res = apply_U_paths(om, SQRT_SWAP, t, f)
    assert res.refinement == {i: pytest.approx(c, abs=1e-12) for i, c in cuts.items()}
    xs = probe_points(res.function, 4)
    expected = [sum(p.weight * f(p.end) for p in enumerate_paths(om, SQRT_SWAP, x, t)) for x in xs]
    assert np.max(np.abs(res.function(xs) - np.array(expected))) < 1e-12


def test_apply_U_paths_checks_the_guard_once(monkeypatch):
    # one table per interval, each guarded once as it is built; the stats
    # report the most states one table held, and the cap
    built = []

    def build(*args):
        built.append(paths._build_table(*args))
        return built[-1]

    monkeypatch.setattr(evolution, "_build_table", build)
    om = new_interval_union([(0, 0.7), (1.5, 2.8), (3.1, 3.9)])
    res = apply_U_paths(om, unitary_group.rvs(3, random_state=3), 2.1, PiecewiseExpPoly.bump(om))
    assert res.stats["tables"] == len(built) == 3
    assert res.stats["states"] == sum(table.states for table in built)
    assert res.stats["state_bound"] == max(table.states for table in built)
    assert res.stats["cap"] == paths.path_cap()


def test_apply_U_paths_guard(monkeypatch):
    monkeypatch.setenv(MAX_PATHS_ENV, "10")
    om = new_interval_union([(0, 1), (2, 3.3)])
    # at t = 4 each table holds 2 * 10 states: covered lengths 0, 1, 1.3,
    # 2, 2.3, 2.6, 3, 3.3, 3.6 and 3.9
    with pytest.raises(GuardExceeded, match="cap 10 states for t=4.0"):
        apply_U_paths(om, SQRT_SWAP, 4.0, PiecewiseExpPoly.bump(om))
    monkeypatch.setenv(MAX_PATHS_ENV, "20")
    assert apply_U_paths(om, SQRT_SWAP, 4.0, PiecewiseExpPoly.bump(om)).stats["state_bound"] == 20


# -- batched assembly against the per-sub-piece oracle -----------------------

#: (intervals, matrix): the README pair, three unequal lengths, a tiling pair
ASSEMBLY_SETS = {
    "pair": ([(0, 1), (2, 3)], SQRT_SWAP),
    "unequal": ([(0, 0.7), (1.5, 2.8), (3.1, 3.9)], unitary_group.rvs(3, random_state=5)),
    "tiling": ([(0, 1), (4, 5), (8, 9)], np.roll(np.eye(3), 1, axis=1).astype(complex)),
}


def _assembly_function(kind, om, b):
    if kind == "bump":
        return PiecewiseExpPoly.bump(om)
    if kind == "eigenfunction":
        return eigenfunction(om, compute_spectrum(om, b, window=(-1.1, 1.1)), 1)
    if kind == "mixed":
        # one frequency with 1, 2 or 3 coefficients on different intervals,
        # a trailing zero coefficient that still counts, and an interval
        # without atoms
        a = [(0.5, (1.0,)), (0.0, (1.0, 2.0, 0.0))]
        b2 = [(0.5, (1.0, 2.0j)), (-0.25, (0.5,))]
        c = [(0.5, (0.5, -1.0, 3.0))]
        return PiecewiseExpPoly.from_atoms(om, {2: [a, c], 3: [a, b2, []]}[om.n])
    f = random_domain_function(om, b, np.random.default_rng(om.n))
    if kind == "evolved":
        # several pieces per interval, of several atoms each
        f = apply_U_paths(om, b, 0.45, f).function
        assert len(f.pieces) > om.n
    return f


@pytest.mark.parametrize("t", [2.3, -1.9])
@pytest.mark.parametrize("kind", ["bump", "eigenfunction", "random", "evolved", "mixed"])
@pytest.mark.parametrize("name", sorted(ASSEMBLY_SETS))
def test_apply_U_paths_matches_the_per_subpiece_oracle(name, kind, t):
    intervals, b = ASSEMBLY_SETS[name]
    om = new_interval_union(intervals)
    f = _assembly_function(kind, om, b)
    got = apply_U_paths(om, b, t, f)
    want = apply_U_per_subpiece(om, b, t, f)
    assert got.refinement == want.refinement
    assert got.path_count == want.path_count
    assert got.stats["ends"] == want.stats["ends"]
    assert got.stats["pieces"] == len(got.function.pieces) == len(want.function.pieces)
    assert got.stats["atoms"] == sum(len(p.atoms) for p in want.function.pieces)
    for p, q in zip(got.function.pieces, want.function.pieces):
        assert (p.lo, p.hi) == (q.lo, q.hi)
        # one atom per frequency, with the coefficient count of the oracle's
        assert sorted((a.freq, len(a.coeffs)) for a in p.atoms) == sorted(
            (a.freq, len(a.coeffs)) for a in q.atoms
        )
        xs = np.linspace(p.lo, p.hi, 7)
        expected = piece_value(q, xs)
        scale = np.maximum(1.0, np.abs(expected))
        assert np.max(np.abs(piece_value(p, xs) - expected) / scale) < 1e-12
        assert np.max(np.abs(got.function.evaluate(xs[1:-1]) - expected[1:-1]) / scale[1:-1]) < 1e-12


def test_apply_U_paths_end_outside_every_piece():
    # f covers only part of the set: an end in the uncovered part has no piece
    f = PiecewiseExpPoly.from_pieces(OM, (Piece(0.0, 0.5, (Atom(0.0, (1.0,)),)), Piece(2.0, 3.0, ())))
    with pytest.raises(XNotInOmega, match="outside every piece"):
        apply_U_per_subpiece(OM, SQRT_SWAP, 0.3, f)
    with pytest.raises(XNotInOmega, match="outside every piece"):
        apply_U_paths(OM, SQRT_SWAP, 0.3, f)


def _property_function(kind, om, b, seed):
    if kind == "mixed":
        return _assembly_function("mixed", om, b)
    f = random_domain_function(om, b, np.random.default_rng(seed))
    return apply_U_paths(om, b, 0.45, f).function if kind == "evolved" else f


def _close(got, want):
    """Agreement to 1e-13 of the largest modulus of ``want``."""
    return np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


_KINDS = st.sampled_from(["random", "evolved", "mixed"])


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(sorted(ASSEMBLY_SETS)),
    _KINDS,
    _KINDS,
    st.integers(0, 2**16),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False),
)
def test_arrays_and_records_agree_with_the_per_atom_oracle(name, kind_f, kind_g, seed, factor):
    intervals, b = ASSEMBLY_SETS[name]
    om = new_interval_union(intervals)
    f = _property_function(kind_f, om, b, seed)
    g = _property_function(kind_g, om, b, seed + 1)
    pieces = f.pieces
    again = PiecewiseExpPoly.from_pieces(f.omega, pieces)
    for column in ("lo", "hi", "atoms", "freq", "coeffs", "size"):
        got, want = getattr(again, column), getattr(f, column)
        assert got.dtype == want.dtype and np.array_equal(got, want), column
    xs = np.concatenate([probe_points(f, 5), probe_points(g, 5), om.lefts, om.rights])
    assert _close(f.evaluate(xs), values_per_piece(pieces, xs))
    assert _close(f.reflect().evaluate(-xs), values_per_piece(reflect_per_piece(pieces), -xs))
    assert _close(f.scaled(factor).evaluate(xs), values_per_piece(scaled_per_piece(pieces, factor), xs))
    assert _close((f + g).evaluate(xs), values_per_piece(add_per_piece(pieces, g.pieces), xs))
    for got, want in zip(f.boundary_values(), boundary_values_per_piece(om, pieces)):
        assert _close(got, want)
