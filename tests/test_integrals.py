"""The batched integral kernel, the closed-form Gram matrix and the batched
inner product against the per-row and per-pair references in ``oracles``."""
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from oracles import exp_gram_per_interval, inner_product_per_pair, poly_exp_integral
from spectral_intervals.analysis import exp_gram, spectral_pair_evidence
from spectral_intervals.cli import main
from spectral_intervals.evolution import (
    PiecewiseExpPoly,
    _poly_exp_integral,
    apply_U_paths,
    inner_product,
    random_domain_function,
)
from spectral_intervals.intervals import new_interval_union


def _abs_integral(coeffs, lo, hi, nodes=64):
    """Integral of |p| over (lo, hi), by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    xs = (lo + hi) / 2 + (hi - lo) / 2 * x
    return (hi - lo) / 2 * float(w @ np.abs(np.polynomial.polynomial.polyval(xs, coeffs)))


def _frequency(kind, deg, width, magnitude, sign, nudge):
    """s = 0, s of magnitude ``magnitude``, or s with |2*pi*s| times the
    half-width at max(1, deg) * (1 + nudge): just either side of the point
    where the kernel leaves the Taylor chunks for the antiderivative."""
    if kind == "zero":
        return 0.0
    if kind == "threshold":
        return sign * max(1, deg) * (1 + nudge) / (np.pi * width)
    return sign * magnitude


_ROW = st.tuples(
    st.integers(0, 16),  # degree
    st.floats(-6, 1),  # log10 of the width
    st.floats(-10, 10),  # lower end
    st.sampled_from(["zero", "threshold", "any"]),
    st.floats(0, 1e3),  # |s| for "any"
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([-1e-9, -1e-13, 1e-13, 1e-9, 0.3, -0.3]),
    st.integers(0, 2**32 - 1),  # seed of the coefficients
)


@settings(deadline=None, max_examples=60)
@given(st.lists(_ROW, min_size=1, max_size=12))
def test_batched_kernel_matches_the_per_row_oracle(rows):
    size = max(deg for deg, *_ in rows) + 1
    coeffs = np.zeros((len(rows), size), dtype=complex)
    s, lo, hi, polys = [], [], [], []
    for r, (deg, log_width, left, kind, magnitude, sign, nudge, seed) in enumerate(rows):
        rng = np.random.default_rng(seed)
        poly = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[r, : deg + 1] = poly  # zero-padded: the kernel reads the degree per row
        width = 10.0**log_width
        polys.append(poly)
        s.append(_frequency(kind, deg, width, magnitude, sign, nudge))
        lo.append(left)
        hi.append(left + width)
    got = _poly_exp_integral(coeffs, np.array(s), np.array(lo), np.array(hi))
    assert got.shape == (len(rows),) and got.dtype == complex
    for r, poly in enumerate(polys):
        want = poly_exp_integral(tuple(poly), s[r], lo[r], hi[r])
        assert abs(got[r] - want) <= 1e-13 * _abs_integral(poly, lo[r], hi[r])


def test_kernel_broadcasts_rows_and_keeps_scalars():
    coeffs = np.array([[1.0, 2.0, 0.0], [0.5j, 0.0, 0.0]])
    s = np.array([0.0, 0.3, -7.0])
    grid = _poly_exp_integral(coeffs[:, None, :], s, np.array([[0.0], [1.0]]), 2.5)
    assert grid.shape == (2, 3)
    for r in range(2):
        for k in range(3):
            want = poly_exp_integral(tuple(np.trim_zeros(coeffs[r], "b")), s[k], [0.0, 1.0][r], 2.5)
            assert abs(grid[r, k] - want) < 1e-14
    scalar = _poly_exp_integral((1.0, 2.0), 0.3, 0.0, 1.0)
    assert isinstance(scalar, complex)
    assert _poly_exp_integral((1.0,), 4.0, 2.0, 2.0) == 0  # an empty interval


GRAM_SETS = [
    [(0, 1), (2, 3)],
    [(0, 0.7), (1.5, 2.8), (3.1, 3.9)],
    [(-4.2, -3.0), (0.0, 1.01), (4.03, 5.04), (8.07, 9.09)],
]
GRAM_LAMBDAS = [
    np.linspace(-12, 12, 37),
    np.sort(np.random.default_rng(3).uniform(-20, 20, 40)),
    # nearly equal frequencies, where the integral of e^{2 pi i s x} is a
    # Taylor series in s
    np.array([1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, -2.5, -2.5 + 3e-8]),
    np.array([0.0]),
]


@pytest.mark.parametrize("endpoints", GRAM_SETS)
@pytest.mark.parametrize("lambdas", GRAM_LAMBDAS, ids=["grid", "random", "nearly_equal", "one"])
def test_exp_gram_matches_the_per_interval_sum(endpoints, lambdas):
    omega = new_interval_union(endpoints)
    got = exp_gram(omega, lambdas)
    want = exp_gram_per_interval(omega, lambdas)
    assert got.shape == want.shape == (len(lambdas), len(lambdas))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * omega.measure)
    np.testing.assert_allclose(np.diag(got), omega.measure, rtol=0, atol=1e-15 * omega.measure)


FOUND = new_interval_union([(0, 0.7), (1.5, 2.8), (3.1, 3.9)])


@pytest.fixture(scope="module")
def evolved():
    """U(4.2)f on the three intervals, Haar B: 28 pieces and 196 atoms."""
    b = unitary_group.rvs(3, random_state=1)
    f = random_domain_function(FOUND, b, np.random.default_rng(0))
    return f, apply_U_paths(FOUND, b, 4.2, f).function


def test_inner_product_of_an_evolved_function_matches_the_per_pair_loop(evolved):
    f, g = evolved
    assert len(g.pieces) == 28 and sum(len(p.atoms) for p in g.pieces) == 196
    t0 = time.perf_counter()
    got = inner_product(FOUND, g, g)
    t1 = time.perf_counter()
    want = inner_product_per_pair(FOUND, g, g)
    t2 = time.perf_counter()
    print(f"inner_product(g, g): batched {1e3 * (t1 - t0):.2f} ms, per pair {1e3 * (t2 - t1):.2f} ms")
    assert abs(got - want) <= 1e-12 * abs(want)
    # across different refinements and in both orders
    for u, v in ((f, g), (g, f)):
        assert abs(inner_product(FOUND, u, v) - inner_product_per_pair(FOUND, u, v)) <= 1e-12 * abs(want)


def test_inner_product_of_functions_without_atoms():
    zero = PiecewiseExpPoly.zero(FOUND)
    one = PiecewiseExpPoly.exponential(FOUND, 0.4)
    assert inner_product(FOUND, zero, one) == 0
    assert inner_product(FOUND, one, one) == pytest.approx(FOUND.measure, abs=1e-14)


def test_evidence_counts_rows_and_times_stages():
    lambdas = [k + r for k in range(-4, 5) for r in (0.0, 0.25)]
    omega = new_interval_union([(0, 1), (2, 3)])
    ev = spectral_pair_evidence(omega, lambdas)
    # the bump: one atom per interval, so n * len(lambdas) Parseval rows and n norm rows
    assert ev.rows == omega.n * len(lambdas) + omega.n
    assert set(ev.seconds) == {"gram", "norm", "parseval"}
    assert all(v >= 0 for v in ev.seconds.values())
    # no frequencies: an empty Gram matrix and no Parseval rows
    empty = spectral_pair_evidence(omega, [])
    assert empty.rows == omega.n and empty.max_offdiagonal == 0.0


def test_verify_reports_evidence_rows_and_seconds(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "intervals": [[0, 1], [2, 3]],
        "matrix": [[[0.5, 0.5], [0.5, -0.5]], [[0.5, -0.5], [0.5, 0.5]]],
        "window": [-2.2, 2.2],
    }))
    assert main(["verify", str(path), "--trials", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    evidence = rep["evidence"]
    assert len(rep["eigenvalues"]) == 9  # {0, 1/4} + Z in (-2.2, 2.2)
    assert evidence["rows"] == 2 * 9 + 2  # one bump atom on each of the 2 intervals
    assert set(evidence["seconds"]) == {"gram", "norm", "parseval"}
