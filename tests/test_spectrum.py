import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from spectral_intervals import spectrum
from spectral_intervals.boundary import cis, eig_unitary
from spectral_intervals.errors import NotEqualLength
from spectral_intervals.intervals import new_interval_union
from spectral_intervals.spectrum import (
    compute_spectrum,
    default_window,
    equal_length_spectrum,
    spectral_matrix_check,
    transfer_matrix,
)

from oracles import (
    eigenvalue_distance,
    grid_cells_all_points,
    nullspace_at,
    phase_data_eigvals,
    solve_brackets_illinois,
)

SQRT_SWAP = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
#: a weighted 3-cycle on lengths 1, sqrt 2 and 3 - sqrt 2: det(I - W) is
#: 1 - (0.6 + 0.8i) e^{-8 pi i lambda}, so g is one sinusoid and the roots
#: are 1/4 apart
CYCLE = (
    [(0, 1), (2, 3.414213562373095), (4, 5.585786437626905)],
    np.array([[0, 0.6 + 0.8j, 0], [0, 0, 1], [1, 0, 0]]),
)
#: problems on which an earlier grid-dip solver missed roots or reported an
#: eigenvalue with an empty eigenspace, without a warning
MISSED_ROOTS = json.loads((Path(__file__).parent / "fixtures" / "missed_roots.json").read_text())


def phase_count(intervals, b, lo, hi) -> int:
    """Roots of det(I - M(lambda)) in [lo, hi], with multiplicity, by numpy alone.

    det M = det B e^{-2 pi i lambda L}: the eigenphases fall by L(hi - lo)
    turns in total, and every root adds one turn to their sum in [0, 2pi).
    """
    ivs = np.asarray(intervals, dtype=float)

    def phase_sum(lam):
        m = np.exp(-2j * np.pi * lam * ivs[:, 1])[:, None] * b * np.exp(2j * np.pi * lam * ivs[:, 0])
        return np.mod(np.angle(np.linalg.eigvals(m)), 2 * np.pi).sum()

    n = np.sum(ivs[:, 1] - ivs[:, 0]) * (hi - lo) + (phase_sum(hi) - phase_sum(lo)) / (2 * np.pi)
    assert abs(n - round(n)) < 1e-6
    return round(n)


@pytest.fixture
def pair():
    return new_interval_union([(0, 1), (2, 3)]), SQRT_SWAP


def test_transfer_matrix_unitary(pair):
    om, b = pair
    for lam in (0.0, 0.3, -1.7, 12.5):
        m = transfer_matrix(om, b, lam)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


def test_eigenvalue_distance_vanishes_on_spectrum(pair):
    om, b = pair
    assert eigenvalue_distance(om, b, 0.25) < 1e-12
    assert eigenvalue_distance(om, b, -3.0) < 1e-12
    assert eigenvalue_distance(om, b, 0.1) > 1e-2


def test_nullspace(pair):
    om, b = pair
    basis = nullspace_at(om, b, 0.25)
    assert len(basis) == 1
    # constant eigenvector for a spectral pair
    v = basis[0]
    assert abs(abs(v[0]) - abs(v[1])) < 1e-10
    assert nullspace_at(om, b, 0.1) == []


def test_single_interval_lattice():
    om = new_interval_union([(0, 1)])
    rep = compute_spectrum(om, np.eye(1), window=(-5.5, 5.5))
    assert rep.eigenvalues == pytest.approx(list(range(-5, 6)), abs=1e-9)
    assert rep.dims == [1] * 11


def test_scan_matches_equal_length_shortcut(pair):
    om, b = pair
    window = (-4.2, 4.2)
    scan = compute_spectrum(om, b, window=window)
    short = equal_length_spectrum(om, b, window=window)
    assert short.method == "equal_length"
    assert len(scan.eigenvalues) == len(short.eigenvalues)
    for a, c in zip(scan.eigenvalues, short.eigenvalues):
        assert abs(a - c) < 1e-8


def test_scan_general_lengths():
    # (0,1) u (1,3) with identity is unitarily a circle of circumference 3
    om = new_interval_union([(0, 1), (1, 3)])
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = compute_spectrum(om, b, window=(-2.1, 2.1))
    expected = [k / 3 for k in range(-6, 7)]
    assert rep.eigenvalues == pytest.approx(expected, abs=1e-9)


def test_equal_length_window_without_roots(pair):
    om, b = pair
    rep = equal_length_spectrum(om, b, window=(0.1, 0.2))
    assert rep.eigenvalues == rep.eigenspaces == rep.residuals == []
    assert rep.root_count == 0


def test_equal_length_requires_equal_lengths():
    om = new_interval_union([(0, 1), (2, 4)])
    with pytest.raises(NotEqualLength):
        equal_length_spectrum(om, np.eye(2))


def test_residuals_and_window(pair):
    om, b = pair
    rep = compute_spectrum(om, b, window=(-1.1, 1.1))
    assert all(r < 1e-10 for r in rep.residuals)
    assert all(-1.1 <= lam <= 1.1 for lam in rep.eigenvalues)
    assert rep.window == (-1.1, 1.1)


def test_default_window_positive(pair):
    om, _ = pair
    lo, hi = default_window(om)
    assert lo < 0 < hi


def test_spectral_check_exact(pair):
    om, b = pair
    check = spectral_matrix_check(om, b)
    assert check.verdict == "spectral_exact"
    assert check.is_spectral
    assert all(check.report.constant_flags())


def test_spectral_check_witness(pair):
    om, _ = pair
    check = spectral_matrix_check(om, SWAP)
    assert check.verdict == "not_spectral"
    assert not check.is_spectral
    # the known witness: lambda = 1/2 with eigenvector proportional to (1, -1)
    assert check.witness_lambda == pytest.approx(0.5, abs=1e-9)
    v = check.witness_vectors[0]
    assert abs(v[0] + v[1]) < 1e-8


def _lattice4():
    """2*{0..3} + [0, 1) with the B that fits the spectrum {k/8} + Z."""
    alphas = 2.0 * np.arange(4)
    lams = np.arange(4) / 8
    a_mat, c_mat = (np.exp(2j * np.pi * np.outer(a, lams)) for a in (alphas, alphas + 1))
    return new_interval_union([(a, a + 1) for a in alphas]), c_mat @ np.linalg.inv(a_mat)


@pytest.mark.parametrize(
    "case,verdict",
    [("sqrt-swap", "spectral_exact"), ("swap", "not_spectral"), ("lattice4", "spectral_exact")],
)
def test_spectral_check_decomposes_b_once(monkeypatch, case, verdict):
    om, b = {
        "sqrt-swap": (new_interval_union([(0, 1), (2, 3)]), SQRT_SWAP),
        "swap": (new_interval_union([(0, 1), (2, 3)]), SWAP),
        "lattice4": _lattice4(),
    }[case]
    calls = []

    def counting(u):
        calls.append(u)
        return eig_unitary(u)

    monkeypatch.setattr(spectrum, "eig_unitary", counting)
    check = spectral_matrix_check(om, b, window=(-2.2, 2.2))
    assert len(calls) == 1
    assert check.verdict == verdict
    if verdict == "not_spectral":
        # the witness is a phase class of a fresh decomposition, phase-fixed,
        # bit for bit
        eig = eig_unitary(b)
        group = next(g for g in eig.phase_groups() if eig.phases[g[0]] == check.witness_lambda)
        lam = check.witness_lambda
        expected = spectrum._fixed_phase(
            np.array([np.conj(cis(lam * np.array(om.lefts))) * eig.vectors[:, k] for k in group])
        )
        assert len(check.witness_vectors) == len(expected)
        assert all(np.array_equal(v, w) for v, w in zip(check.witness_vectors, expected))


def test_spectral_check_window_only():
    # equal lengths but offsets not congruent mod the common length
    om = new_interval_union([(0, 1), (2.5, 3.5)])
    b = np.array([[0, 1j], [1j, 0]], dtype=complex)
    check = spectral_matrix_check(om, b, window=(-3, 3))
    assert check.verdict in ("spectral_on_window", "not_spectral")


def test_spectral_check_undecided():
    om = new_interval_union([(0, 1), (2, 3.5)])
    b = unitary_group.rvs(2, random_state=7)
    full = compute_spectrum(om, b, window=(-2, 2))
    gaps = list(zip(full.eigenvalues, full.eigenvalues[1:]))
    lo, hi = max(gaps, key=lambda g: g[1] - g[0])
    eps = (hi - lo) / 10
    check = spectral_matrix_check(om, b, window=(lo + eps, hi - eps))
    assert check.verdict == "undecided"


def test_bad_window_and_grid(pair):
    om, b = pair
    with pytest.raises(ValueError):
        compute_spectrum(om, b, window=(1, 1))
    with pytest.raises(ValueError):
        compute_spectrum(om, b, grid_step=0)


@pytest.mark.parametrize("name", sorted(MISSED_ROOTS))
def test_root_count_certificate_regressions(name):
    prob = MISSED_ROOTS[name]
    om = new_interval_union(prob["intervals"])
    b = np.array([[complex(*z) for z in row] for row in prob["matrix"]])
    window = tuple(prob["window"])
    rep = compute_spectrum(om, b, window=window)
    assert min(rep.dims) >= 1
    assert sum(rep.dims) == phase_count(prob["intervals"], b, *window)
    assert rep.root_count == sum(rep.dims)
    assert max(eigenvalue_distance(om, b, lam) for lam in rep.eigenvalues) < 1e-9


@pytest.mark.parametrize(
    "intervals, window",
    [
        # lengths 1, 1 and 1.5: dims 3, 1, 2, 1, 3, 1, 2, 1, 3
        ([(0, 1), (1.5, 2.5), (4, 5.5)], (-2.2, 2.2)),
        # lengths 2.25, 2 and 0.25: every edge of these windows is a root,
        # 8, 4, 0 and -4 are triple roots
        ([(0, 2.25), (3, 5), (6, 6.25)], (2, 8)),
        ([(0, 2.25), (3, 5), (6, 6.25)], (-4, 0)),
        # double roots far out, where the bisection floor is 1e-8 wide
        ([(0, 1), (2, 4)], (1000.3, 1003.7)),
    ],
)
def test_multiple_roots_of_the_identity(intervals, window):
    # B = I decouples the intervals: lambda is a root once for every length
    # l_j with lambda * l_j an integer
    lo, hi = window
    want: dict[Fraction, int] = {}
    for a, c in intervals:
        ell = Fraction(c) - Fraction(a)
        for k in range(math.ceil(lo * ell), math.floor(hi * ell) + 1):
            want[k / ell] = want.get(k / ell, 0) + 1
    rep = compute_spectrum(new_interval_union(intervals), np.eye(len(intervals)), window=window)
    assert rep.eigenvalues == pytest.approx([float(x) for x in sorted(want)], abs=1e-9)
    assert rep.dims == [want[x] for x in sorted(want)]
    assert rep.root_count == sum(want.values())
    assert all(r < 1e-8 for r in rep.residuals)


@pytest.mark.parametrize(
    "intervals, b, window",
    [
        # a root (0) on a grid point, where its angle is exactly 0, at the
        # end of a cell that holds another root
        ([(0, 1.3415)], np.eye(1), (-6, 10)),
        # double roots (-4, 0, 4) whose eigenvalues rounding puts on both
        # sides of 1 at a grid point
        (
            [(0.0, 1.25), (1.75, 2.5), (3.0, 4.25), (4.75, 5.75), (6.25, 7.0)],
            np.eye(5)[[1, 0, 2, 3, 4]] * np.exp(2j * np.pi * np.array([2, 2, 0, 1, 1]) / 4)[:, None],
            (-4, 4),
        ),
    ],
)
def test_roots_on_grid_points(intervals, b, window):
    lo, hi = window
    rep = compute_spectrum(new_interval_union(intervals), b, window=window, grid_step=1.0)
    assert min(rep.dims) >= 1
    # the window is closed: count over a slightly wider one
    assert sum(rep.dims) == rep.root_count == phase_count(intervals, b, lo - 1e-6, hi + 1e-6)
    # every located root holds at least one counted root, and roots closer
    # than the floor are merged after they are located
    refined = rep.stats["g_roots"] + rep.stats["angle_roots"] + rep.stats["floor_roots"]
    assert len(rep.eigenvalues) <= refined <= rep.root_count
    assert rep.stats["angle_roots"] >= 1


def test_stats_say_how_each_root_was_refined():
    # the double roots of this weighted permutation are refined on the
    # nearest angle, or read off a floor cell where rounding puts their
    # eigenvalues on both sides of 1; the simple roots on g
    intervals = [(0.0, 1.25), (1.75, 2.5), (3.0, 4.25), (4.75, 5.75), (6.25, 7.0)]
    b = np.eye(5)[[1, 0, 2, 3, 4]] * np.exp(2j * np.pi * np.array([2, 2, 0, 1, 1]) / 4)[:, None]
    rep = compute_spectrum(new_interval_union(intervals), b, window=(-4, 4), grid_step=1.0)
    stats = rep.stats
    assert stats["g_roots"] == rep.dims.count(1)
    assert stats["angle_roots"] >= 1 and stats["floor_roots"] >= 1
    assert stats["g_roots"] + stats["angle_roots"] + stats["floor_roots"] >= len(rep.eigenvalues)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.sampled_from([None, 0.1, 0.5]))
def test_count_certificate_haar(n, seed, grid_step):
    # coarse grids put several roots, and jumps of the nearest angle, into
    # one cell
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(0.2, 1.5, n)
    gaps = rng.uniform(0.05, 1.5, n - 1)
    lefts = rng.uniform(-3, 3) + np.concatenate([[0.0], np.cumsum(lengths[:-1] + gaps)])
    intervals = [(float(a), float(a + ell)) for a, ell in zip(lefts, lengths)]
    b = unitary_group.rvs(n, random_state=rng)
    lo = float(rng.uniform(-9, 3))
    hi = lo + float(rng.uniform(0.5, 9))
    rep = compute_spectrum(new_interval_union(intervals), b, window=(lo, hi), grid_step=grid_step)
    assert all(d >= 1 for d in rep.dims)
    assert sum(rep.dims) == rep.root_count == phase_count(intervals, b, lo, hi)
    assert all(lo - 1e-9 <= lam <= hi + 1e-9 for lam in rep.eigenvalues)
    assert all(r < 1e-8 for r in rep.residuals)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_translating_intervals_keeps_the_spectrum(n, seed):
    # W(lambda) = diag(e^{-2 pi i lambda l}) B depends on the lengths alone:
    # moving the intervals apart or together moves no root
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(0.2, 1.5, n)
    b = unitary_group.rvs(n, random_state=rng)
    lo = float(rng.uniform(-9, 3))
    window = (lo, lo + float(rng.uniform(0.5, 9)))
    reps = []
    for _ in range(2):
        gaps = rng.uniform(0.05, 3, n - 1)
        lefts = rng.uniform(-50, 50) + np.concatenate([[0.0], np.cumsum(lengths[:-1] + gaps)])
        om = new_interval_union([(float(a), float(a + ell)) for a, ell in zip(lefts, lengths)])
        reps.append(compute_spectrum(om, b, window=window))
    first, moved = reps
    assert moved.root_count == first.root_count
    assert moved.dims == first.dims
    assert np.max(np.abs(np.subtract(moved.eigenvalues, first.eigenvalues)), initial=0.0) < 1e-9


def _haar_problem(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    lengths = rng.uniform(0.2, 1.5, n)
    gaps = rng.uniform(0.05, 1.5, n - 1)
    lefts = rng.uniform(-3, 3) + np.concatenate([[0.0], np.cumsum(lengths[:-1] + gaps)])
    om = new_interval_union([(float(a), float(a + ell)) for a, ell in zip(lefts, lengths)])
    lo = float(rng.uniform(-12, 6))
    return om, unitary_group.rvs(n, random_state=rng), (lo, lo + float(rng.uniform(1, 8)))


def _nearest_angle(om, b, lam):
    ang = np.angle(np.linalg.eigvals(transfer_matrix(om, b, lam)))
    return float(ang[np.argmin(np.abs(ang))])


@pytest.mark.parametrize("seed", range(30))
def test_roots_match_brentq_on_the_nearest_angle(seed):
    om, b, window = _haar_problem(seed)
    rep = compute_spectrum(om, b, window=window)
    assert rep.eigenvalues
    for lam in rep.eigenvalues:
        # the nearest angle falls through zero at a simple root
        lo, hi = lam - 1e-7, lam + 1e-7
        assert _nearest_angle(om, b, lo) > 0 > _nearest_angle(om, b, hi)
        ref = scipy.optimize.brentq(
            lambda x: _nearest_angle(om, b, x), lo, hi, xtol=1e-15, rtol=1e-15
        )
        assert abs(lam - ref) < 1e-12


def test_a_zero_of_g_on_a_grid_point_is_not_taken_for_the_next_root(pair):
    # at grid step 1/4 the roots k and k + 1/4 of the README pair fall on
    # grid points (to the floor); g vanishes at the one on 0, whose count
    # belongs to the cell left of it, while the cell right of it holds 1/4
    om, b = pair
    rep = compute_spectrum(om, b, window=(-12, 12), grid_step=0.25)
    assert len(rep.eigenvalues) == rep.root_count == 49
    frac = np.mod(np.array(rep.eigenvalues), 1.0)
    assert np.all(np.min(np.abs(frac[:, None] - np.array([0.0, 0.25, 1.0])), axis=1) < 1e-12)


@pytest.mark.parametrize("case", [*range(50, 60), "clustered"])
def test_anderson_bjorck_matches_illinois(monkeypatch, case):
    if case == "clustered":
        # B = I on lengths 1 and 1 + 1e-8: pairs of roots at most 1e-7 apart
        om, b, window = new_interval_union([(0, 1), (2, 3 + 1e-8)]), np.eye(2), None
    else:
        om, b, window = _haar_problem(case)
    rep = compute_spectrum(om, b, window=window)
    monkeypatch.setattr(spectrum, "_solve_brackets", solve_brackets_illinois)
    ref = compute_spectrum(om, b, window=window)
    assert rep.root_count == ref.root_count and rep.dims == ref.dims
    assert rep.stats["g_roots"] == ref.stats["g_roots"] >= 1
    assert np.max(np.abs(np.subtract(rep.eigenvalues, ref.eigenvalues))) <= 2 * spectrum.TOL_ROOT


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-6, 1e-7, 1e-8])
def test_clustered_roots_of_the_identity(delta):
    # B = I on lengths 1 and 1 + delta: the roots k and k/(1 + delta) are
    # at most 10*delta apart in the default window, and 0 is a double root
    om = new_interval_union([(0, 1), (2, 3 + delta)])
    rep = compute_spectrum(om, np.eye(2))
    want = sorted({float(k) for k in range(-10, 11)} | {k / (1 + delta) for k in range(-10, 11)})
    assert rep.dims == [2 if x == 0 else 1 for x in want]
    assert np.max(np.abs(np.array(rep.eigenvalues) - want)) < 1e-12


@pytest.mark.parametrize("seed", range(40, 50))
def test_real_determinant_changes_sign_at_simple_roots(seed):
    om, b, window = _haar_problem(seed)
    n, big = om.n, 2.0**om.n
    lams = np.linspace(*window, 101)
    mats = transfer_matrix(om, b, lams)
    # i^n det(I - M) e^{-i(arg det B - 2 pi lambda L)/2} is real ...
    arg_det = np.angle(np.linalg.det(b))
    twist = np.exp(-0.5j * (arg_det - 2 * np.pi * lams * om.measure))
    z = 1j**n * np.linalg.det(np.eye(n) - mats) * twist
    assert np.max(np.abs(z.imag)) < 1e-12 * big
    g = spectrum._real_det(om, b, lams, arg_det)
    assert np.max(np.abs(g - z.real)) < 1e-12 * big
    # ... and 2^n times the product of sin(theta/2) over the eigenphases, up
    # to a sign (the principal angles flip it where an eigenvalue passes -1)
    sines = big * np.prod(np.sin(np.angle(np.linalg.eigvals(mats)) / 2), axis=1)
    assert np.max(np.abs(np.abs(g) - np.abs(sines))) < 1e-12 * big
    rep = compute_spectrum(om, b, window=window)
    simple = [lam for lam, d in zip(rep.eigenvalues, rep.dims) if d == 1]
    assert simple
    for lam in simple:
        lo, hi = spectrum._real_det(om, b, np.array([lam - 1e-7, lam + 1e-7]), arg_det)
        assert lo * hi < 0


def _random_set(n):
    rng = np.random.default_rng(n)
    lengths = rng.uniform(0.2, 1.5, n)
    lefts = np.concatenate([[0.0], np.cumsum(lengths[:-1] + rng.uniform(0.05, 1.5, n - 1))])
    om = new_interval_union([(float(a), float(a + ell)) for a, ell in zip(lefts, lengths)])
    return om, unitary_group.rvs(n, random_state=rng)


@pytest.mark.parametrize("n", range(1, 9))
def test_cayley_phase_data_matches_eigvals(n):
    om, b = _random_set(n)
    # more lambdas than one CHUNK
    lams = np.linspace(-10, 10, 601)
    stats = {"pole_rows": 0}
    got = spectrum._phase_data(om, b, lams, np.angle(np.linalg.det(b)), stats)
    for x, y in zip(got, phase_data_eigvals(om, b, lams)):
        assert np.max(np.abs(x - y)) < 1e-12
    assert 0 <= stats["pole_rows"] < len(lams)


@pytest.mark.parametrize("n", range(1, 9))
def test_gauge_form_has_the_phase_data_of_m(n):
    # W(lambda) = E(lambda a) M(lambda) E(lambda a)*: the same eigenvalues,
    # so the same phase sums, nearest angles and g (|g| <= 2^n)
    om, b = _random_set(n)
    lams = np.linspace(-10, 10, 601)
    w_sums, w_nearest, w_g = phase_data_eigvals(om, b, lams)
    m_sums, m_nearest, m_g = phase_data_eigvals(om, b, lams, matrices=transfer_matrix)
    assert np.max(np.abs(w_sums - m_sums)) < 1e-12
    assert np.max(np.abs(w_nearest - m_nearest)) < 1e-12
    assert np.max(np.abs(w_g - m_g)) < 1e-12 * 2.0**n


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "intervals, b, lam",
    [
        # M(0) = SWAP: I + M is exactly singular, and solve would raise for
        # the whole stack
        ([(0, 1), (2, 3)], SWAP, 0.0),
        # B = I on lengths 1 and 2 at lambda = 1/2: M = diag(-1, 1) up to
        # rounding
        ([(0, 1), (2, 4)], np.eye(2, dtype=complex), 0.5),
    ],
)
def test_eigenvalues_at_minus_one_take_eigvals(intervals, b, lam):
    om = new_interval_union(intervals)
    lams = np.array([lam - 0.1, lam, lam + 0.1])
    theta, poles = spectrum._eigenphases(transfer_matrix(om, b, lams))
    assert poles == 1
    assert np.all(np.abs(theta) <= np.pi)
    stats = {"pole_rows": 0}
    got = spectrum._phase_data(om, b, lams, np.angle(np.linalg.det(b)), stats)
    assert stats["pole_rows"] == 1
    for x, y in zip(got, phase_data_eigvals(om, b, lams)):
        assert np.max(np.abs(x - y)) < 1e-12


def test_an_eigenvalue_near_minus_one_keeps_every_eigenphase():
    # |1 + mu| = 0.02 passes the det bound; eigvalsh reading only the lower
    # triangle of the computed H would err by about 1e-9 here
    rng = np.random.default_rng(5)
    theta = np.concatenate([[np.pi - 0.02, 1e-7], rng.uniform(-2, 2, 6)])
    u = unitary_group.rvs(8, size=20, random_state=rng)
    mats = (u * np.exp(1j * theta)) @ np.conj(np.swapaxes(u, 1, 2))
    got, poles = spectrum._eigenphases(mats)
    assert poles == 0
    assert np.max(np.abs(np.sort(got, axis=1) - np.sort(theta))) < 1e-12


def test_swap_scan_through_its_poles_keeps_the_eigvals_roots(monkeypatch, pair):
    # SWAP on the README set: at every root k/2 the other eigenvalue of M is
    # -1, and M(0) = SWAP makes I + M exactly singular
    om, _ = pair
    rep = compute_spectrum(om, SWAP, window=(-2, 2))
    assert rep.stats["pole_rows"] >= 1
    monkeypatch.setattr(
        spectrum, "_phase_data", lambda om, b, lams, arg_det, stats: phase_data_eigvals(om, b, lams)
    )
    ref = compute_spectrum(om, SWAP, window=(-2, 2))
    assert rep.dims == ref.dims == [1] * 9
    assert np.max(np.abs(np.subtract(rep.eigenvalues, ref.eigenvalues))) <= 2 * spectrum.TOL_ROOT
    assert np.max(np.abs(np.subtract(rep.eigenvalues, np.arange(-4, 5) / 2))) <= spectrum.TOL_ROOT


def _projector(basis):
    v = np.array(basis)
    return v.T @ v.conj()


@pytest.mark.parametrize("seed", range(30, 40))
def test_stacked_eigenspaces_match_nullspace_at(seed):
    om, b, window = _haar_problem(seed)
    rep = compute_spectrum(om, b, window=window)
    for lam, basis in zip(rep.eigenvalues, rep.eigenspaces):
        single = nullspace_at(om, b, lam)
        assert len(single) == len(basis) >= 1
        assert np.max(np.abs(_projector(single) - _projector(basis))) < 1e-12
        for c in basis:
            assert np.linalg.norm(transfer_matrix(om, b, lam) @ c - c) < 1e-8
    # multiple roots: B = I on lengths 1, 1 and 1.5
    om = new_interval_union([(0, 1), (1.5, 2.5), (4, 5.5)])
    rep = compute_spectrum(om, np.eye(3), window=(-2.2, 2.2))
    for lam, basis in zip(rep.eigenvalues, rep.eigenspaces):
        single = nullspace_at(om, np.eye(3), lam)
        assert len(single) == len(basis)
        assert np.max(np.abs(_projector(single) - _projector(basis))) < 1e-12


def _phase_is_fixed(c):
    # the first entry of modulus within PHASE_TIE of the largest is real and
    # positive
    mod = np.abs(c)
    k = np.flatnonzero(mod >= (1 - spectrum.PHASE_TIE) * mod.max())[0]
    return c[k].imag == 0 and c[k].real > 0


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_solved_eigenspaces_match_the_svd(n, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(0.2, 1.5, n)
    lefts = rng.uniform(-3, 3) + np.concatenate(
        [[0.0], np.cumsum(lengths[:-1] + rng.uniform(0.05, 1.5, n - 1))]
    )
    om = new_interval_union([(float(a), float(a + ell)) for a, ell in zip(lefts, lengths)])
    b = unitary_group.rvs(n, random_state=rng)
    lo = float(rng.uniform(-9, 3))
    rep = compute_spectrum(om, b, window=(lo, lo + float(rng.uniform(0.5, 6))))
    assert rep.stats["svd_rows"] + rep.stats["solve_rows"] == len(rep.eigenvalues)
    for lam, basis in zip(rep.eigenvalues, rep.eigenspaces):
        single = nullspace_at(om, b, lam)
        assert len(single) == len(basis) >= 1
        assert np.max(np.abs(_projector(single) - _projector(basis))) < 1e-12
        assert all(_phase_is_fixed(c) for c in basis)
    assert max(rep.residuals, default=0.0) <= 1e-10


def test_an_exactly_singular_root_takes_the_solve(monkeypatch):
    # SWAP on lengths 1 and 1.5: W(0) = SWAP, so I - W(0) is exactly singular
    # and an unshifted solve raises; 0 is a root solved on g inside its cell
    om = new_interval_union([(0, 1), (2, 3.5)])
    eye = np.eye(2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(eye - spectrum._gauge(om, SWAP, 0.0), np.ones(2))
    # a closed bracket reports its false-position point: 0 to rounding, where
    # the midpoint of the last bracket was 5e-14 off
    first = compute_spectrum(om, SWAP, window=(-0.5, 0.7))
    assert min(np.abs(first.eigenvalues)) < 1e-20
    # the roots are k/2.5: handed on rounded to 12 places, 0 is exact and the
    # scan takes its eigenspace where I - W is exactly singular
    locate = spectrum._locate

    def exact(*args):
        lams, cells = locate(*args)
        return np.round(lams, 12), cells

    monkeypatch.setattr(spectrum, "_locate", exact)
    rep = compute_spectrum(om, SWAP, window=(-0.5, 0.7))
    assert 0.0 in rep.eigenvalues
    assert rep.stats["g_roots"] == rep.stats["solve_rows"] == len(rep.eigenvalues)
    assert rep.stats["svd_rows"] == 0
    assert rep.dims == [1] * len(rep.eigenvalues)
    (c,) = rep.eigenspaces[rep.eigenvalues.index(0.0)]
    assert np.max(np.abs(c - np.sqrt(0.5))) < 1e-12
    # off the spectrum the solved vector fails the residual certificate
    _, ok = spectrum._solve_null(eye - spectrum._gauge(om, SWAP, np.array([0.0, 0.1])))
    assert ok.tolist() == [True, False]


def test_a_root_near_a_grid_edge_takes_the_svd(monkeypatch):
    om, b, _ = _haar_problem(31)
    first = compute_spectrum(om, b, window=(-1, 1))
    r = min(first.eigenvalues, key=abs)
    assert abs(r) < 0.5
    # |r +- 0.5| <= 1, so the window widens by 1e-11 on both sides and the
    # middle of the 11 grid points is r, to rounding
    cells = []
    eigenspaces = spectrum._eigenspaces

    def recording(omega, b, lams, cells_, stats):
        cells.append((np.array(lams), cells_))
        return eigenspaces(omega, b, lams, cells_, stats)

    monkeypatch.setattr(spectrum, "_eigenspaces", recording)
    rep = compute_spectrum(om, b, window=(r - 0.5, r + 0.5), grid_step=0.1000000001)
    assert rep.stats["grid_points"] == 11
    ((lams, ends),) = cells
    k = int(np.argmin(np.abs(lams - r)))
    assert min(lams[k] - ends[0, k], ends[1, k] - lams[k]) < 1e-12
    assert rep.stats["svd_rows"] >= 1
    assert rep.stats["svd_rows"] + rep.stats["solve_rows"] == len(rep.eigenvalues)
    for lam, basis in zip(rep.eigenvalues, rep.eigenspaces):
        assert len(basis) == len(nullspace_at(om, b, lam)) == 1


def _scan_with(grid_cells, om, b, window, grid_step=None):
    """The report of a scan with ``grid_cells`` in place of
    ``spectrum._grid_cells``, and the left ends and counts of the cells it
    gave ``_locate``, sorted."""
    seen = []

    def recording(*args):
        cells, root_count = grid_cells(*args)
        seen.append(cells)
        return cells, root_count

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_grid_cells", recording)
        rep = compute_spectrum(om, b, window=window, grid_step=grid_step)
    (cells,) = seen
    order = np.argsort(cells[0], kind="stable")
    return rep, cells[0][order], cells[-1][order]


def _assert_same_spectrum(om, b, window, grid_step=None):
    """The knot scan against the all-point oracle: the same cells with the
    same counts, root count and dims, roots within 2e-13 and projectors
    within 1e-11.  Returns the knot scan's report."""
    rep, lefts, counts = _scan_with(spectrum._grid_cells, om, b, window, grid_step)
    ref, ref_lefts, ref_counts = _scan_with(grid_cells_all_points, om, b, window, grid_step)
    assert lefts.tolist() == ref_lefts.tolist() and counts.tolist() == ref_counts.tolist()
    assert rep.root_count == ref.root_count and rep.dims == ref.dims
    assert np.max(np.abs(np.subtract(rep.eigenvalues, ref.eigenvalues)), initial=0.0) <= 2e-13
    for basis, ref_basis in zip(rep.eigenspaces, ref.eigenspaces):
        assert np.max(np.abs(_projector(basis) - _projector(ref_basis))) <= 1e-11
    assert rep.stats["knots"] >= 2
    assert rep.stats["eig_rows"] <= ref.stats["eig_rows"]
    return rep


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=40)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from([None, 0.1, 0.5]))
def test_knot_scan_matches_the_all_point_count(n, seed, grid_step):
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(0.2, 1.5, n)
    lefts = rng.uniform(-3, 3) + np.concatenate(
        [[0.0], np.cumsum(lengths[:-1] + rng.uniform(0.05, 1.5, n - 1))]
    )
    om = new_interval_union([(float(a), float(a + ell)) for a, ell in zip(lefts, lengths)])
    b = unitary_group.rvs(n, random_state=rng)
    lo = float(rng.uniform(-9, 3))
    _assert_same_spectrum(om, b, (lo, lo + float(rng.uniform(0.5, 9))), grid_step)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_two_roots_in_one_cell_are_recounted():
    # B = I on lengths 1 and 1.001: the roots k and k/1.001 share a grid
    # cell, across which g keeps its sign
    om = new_interval_union([(0, 1), (2, 3.001)])
    rep = _assert_same_spectrum(om, np.eye(2), None)
    assert rep.stats["recounted"] >= 1
    assert rep.stats["eig_rows"] >= rep.stats["knots"] + rep.stats["bisected_cells"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_grid_value_within_the_sign_floor_has_no_sign():
    # SWAP on lengths 1 and 1.5 has the roots 0.4k; g falls at 5 pi at 0, so
    # 1e-14 from it |g| is below the floor, and the super-cell of that grid
    # point is counted cell by cell
    om = new_interval_union([(0, 1), (2, 3.5)])
    grid = np.linspace(-0.5, 1.5, 17) + 1e-14
    arg_det = float(np.angle(np.linalg.det(SWAP)))
    g = spectrum._real_det(om, SWAP, grid, arg_det)
    assert 0 < abs(g[4]) <= spectrum.SIGN_FLOOR * 2**om.n
    stats = spectrum._stats(len(grid), eig_rows=0)
    cells, root_count = spectrum._grid_cells(om, SWAP, grid, arg_det, stats)
    assert (stats["knots"], stats["recounted"], root_count) == (3, 1, 5)
    # the root 0 keeps the cell left of the grid point, counted from phase sums
    assert grid[3] in cells[0] and not np.isnan(cells[2][cells[0] == grid[3]]).any()
    assert cells[-1].tolist() == [1] * 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_sinusoid_starts_its_brackets_at_the_root():
    # g is one sinusoid: the first trial point of every bracket is its root
    # to rounding, and the next step closes the bracket
    intervals, b = CYCLE
    rep = _assert_same_spectrum(new_interval_union(intervals), b, (-5, 5))
    assert rep.stats["recounted"] == 0
    assert rep.stats["g_roots"] == len(rep.eigenvalues) == 40
    assert rep.stats["bracket_iterations"] <= 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_brackets_close_in_a_few_steps_far_out():
    # over (-2000, 2000) one ulp exceeds TOL_ROOT: a step TOL_ROOT inside a
    # bracket would round back to its end
    intervals, b = CYCLE
    rep = compute_spectrum(new_interval_union(intervals), b, window=(-2000, 2000))
    assert len(rep.eigenvalues) == rep.root_count == 16_000
    assert np.max(np.abs(np.diff(rep.eigenvalues) - 0.25)) <= 1e-12
    assert rep.stats["bracket_iterations"] <= 8


def test_cli_import_loads_no_scipy_optimize():
    code = "import sys, spectral_intervals.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_runtime_imports_no_scipy():
    code = (
        "import sys, spectral_intervals, spectral_intervals.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
