import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectral_intervals.errors import (
    EmptyInterval,
    MoveCollision,
    NonFinite,
    OverlappingIntervals,
    ValidationError,
)
from spectral_intervals.intervals import (
    commensurability,
    gap_decomposition,
    move_interval,
    new_interval_union,
    reflect,
    tiles_by_lattice,
    translates_disjoint,
    translation_congruence_to_interval,
)


def test_basic_properties():
    om = new_interval_union([(2, 3), (0, 1)])  # unsorted input
    assert om.endpoints == ((0, 1), (2, 3))
    assert om.n == 2
    assert om.lengths == (1, 1)
    assert om.gaps == (1,)
    assert om.measure == 2
    assert om.lmin == 1
    assert om.diameter == 3
    assert om.equal_lengths()
    assert 0.5 in om and 2.5 in om
    assert 1.5 not in om
    assert 1.0 not in om  # endpoints are excluded
    assert om.index_of(2.2) == 1


def test_adjacent_intervals_allowed():
    om = new_interval_union([(0, 1), (1, 2)])
    assert om.gaps == (0,)


def test_validation_errors():
    with pytest.raises(EmptyInterval):
        new_interval_union([])
    with pytest.raises(EmptyInterval):
        new_interval_union([(1, 1)])
    with pytest.raises(EmptyInterval):
        new_interval_union([(2, 1)])
    with pytest.raises(OverlappingIntervals):
        new_interval_union([(0, 1), (0.5, 2)])
    with pytest.raises(NonFinite):
        new_interval_union([(0, math.inf)])


def test_gap_decomposition_simple():
    om = new_interval_union([(0, 1), (2, 3)])
    assert gap_decomposition(om, 1.0) == [(1.0,)]
    assert gap_decomposition(om, 2.0) == [(1.0, 1.0)]
    # 0.5 is smaller than the minimal length: no decomposition
    assert gap_decomposition(om, 0.5) == []


def test_gap_decomposition_two_lengths():
    om = new_interval_union([(0, 1), (2, 4)])
    got = gap_decomposition(om, 4.0)
    assert (2.0, 2.0) in got
    assert (1.0, 1.0, 2.0) in got
    assert (1.0, 1.0, 1.0, 1.0) in got
    assert len(got) == 3


def test_tiles_by_lattice():
    om = new_interval_union([(0, 1), (3, 4)])
    ok, cert = tiles_by_lattice(om, 2.0)
    assert ok and not cert["holes"] and not cert["overlaps"]
    # mod-2 reductions of (0,1) and (2,3) both cover (0,1): hole at (1,2)
    om2 = new_interval_union([(0, 1), (2, 3)])
    ok, cert = tiles_by_lattice(om2, 2.0)
    assert not ok
    assert cert["holes"]


def test_translates_disjoint():
    om = new_interval_union([(0, 1), (3, 4)])
    assert translates_disjoint(om, 2.0)
    # shifting (0,1) by 2 lands on (2,3): hits the second interval of (0,1)u(2,3)
    om2 = new_interval_union([(0, 1), (2, 3)])
    assert not translates_disjoint(om2, 2.0)
    assert not translates_disjoint(om2, 1.0)


def test_translation_congruence():
    om = new_interval_union([(0, 1), (2, 3)])
    cmap = translation_congruence_to_interval(om, 1.0)
    assert cmap is not None
    # second interval shifts back by -1 onto (1, 2)
    assert dict(cmap.pieces) == {0: 0.0, 1: -1.0}
    assert translation_congruence_to_interval(om, 2.0) is None


def test_congruence_three_intervals():
    om = new_interval_union([(0, 1), (3, 4.5), (5, 5.5)])
    cmap = translation_congruence_to_interval(om, 0.5)
    assert cmap is not None
    assert cmap.modulus == 0.5
    # every shift is a multiple of the modulus and the images tile (0, 3)
    images = []
    for idx, shift in cmap.pieces:
        assert abs(shift / 0.5 - round(shift / 0.5)) < 1e-12
        a, b = om.endpoints[idx]
        images.append((a + shift, b + shift))
    images.sort()
    assert images[0][0] == pytest.approx(0.0)
    assert images[-1][1] == pytest.approx(3.0)
    for (_, b1), (a2, _) in zip(images, images[1:]):
        assert a2 == pytest.approx(b1)


@pytest.mark.parametrize("modulus", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_congruence_rejects_a_bad_modulus(modulus):
    # round(shift / inf) * inf is NaN, which no tolerance test rejects: an
    # infinite modulus accepted every shift
    om = new_interval_union([(0, 1), (2, 3)])
    with pytest.raises(ValidationError, match="modulus must be positive"):
        translation_congruence_to_interval(om, modulus)


def test_move_interval():
    om = new_interval_union([(0, 1), (2, 3), (5, 6)])
    moved = move_interval(om, 2, 0)
    assert moved.endpoints == ((0, 2), (2, 3))
    # touching is fine, true overlap is not
    om2 = new_interval_union([(0, 1), (1.5, 2.5), (4, 6)])
    with pytest.raises(MoveCollision):
        move_interval(om2, 2, 0)


finite_interval = st.tuples(
    st.floats(-50, 50), st.floats(0.01, 10)
).map(lambda p: (p[0], p[0] + p[1]))


def disjoint_unions():
    def build(starts_lengths):
        eps = []
        pos = starts_lengths[0][0]
        for gap, length in starts_lengths:
            pos += gap
            eps.append((pos, pos + length))
            pos += length
        return new_interval_union(eps)

    return st.lists(
        st.tuples(st.floats(0.1, 3), st.floats(0.1, 3)), min_size=1, max_size=5
    ).map(build)


@given(disjoint_unions())
def test_reflect_involution(om):
    assert np.allclose(reflect(reflect(om)).endpoints, om.endpoints)


@given(disjoint_unions())
def test_reflect_preserves_measure_and_gaps(om):
    r = reflect(om)
    assert r.measure == pytest.approx(om.measure)
    assert tuple(reversed(r.gaps)) == pytest.approx(om.gaps)
    assert sorted(r.lengths) == pytest.approx(sorted(om.lengths))


@pytest.mark.parametrize(
    "values,classes,multiples,units",
    [
        ((1.3, 1.3, 1.3), (0, 0, 0), (1, 1, 1), (1.3,)),
        ((0.7, 1.4, 0.7), (0, 0, 0), (1, 2, 1), (0.7,)),
        ((0.2, 0.3, 0.5), (0, 0, 0), (2, 3, 5), (0.1,)),
        ((1.0, 2 ** 0.5, 2.0), (0, 1, 0), (1, 1, 2), (1.0, 2 ** 0.5)),
        ((1.0, 1 + 5e-8), (0, 1), (1, 1), (1.0, 1 + 5e-8)),
        ((1.0, 1.02), (0, 0), (50, 51), (0.02,)),
        # 66/65 needs a denominator above 64
        ((1.0, 66 / 65), (0, 1), (1, 1), (1.0, 66 / 65)),
        # 1.01 / 1 = 101/100, but 1.01 is 101/2 units 0.02 of (1, 1.02)
        ((1.0, 1.01, 1.02), (0, 0, 0), (100, 101, 102), (0.01,)),
        # 1 / 65 needs q = 65, but 65 = 65/1 * 1: order does not matter
        ((65.0, 1.0, 64.0), (0, 0, 0), (65, 1, 64), (1.0,)),
    ],
)
def test_commensurability(values, classes, multiples, units):
    got = commensurability(values, 1e-12)
    assert got.classes == classes
    assert got.multiples == multiples
    assert got.units == pytest.approx(units, rel=1e-14)
    for v, c, m in zip(values, got.classes, got.multiples):
        assert m * got.units[c] == pytest.approx(v, rel=1e-12)


def test_length_classes_scale_with_the_endpoints():
    # 1e-12 times the largest endpoint: 5e-8 apart stays apart near -1000
    om = new_interval_union([(-1000, -999), (-3, -2), (-1, 5e-8)])
    assert om.length_classes.classes == (0, 0, 1)
    # rounding of the endpoints does not split a class
    om = new_interval_union([(0.1, 1.1), (2.3, 3.3), (4.7, 6.7)])
    assert om.length_classes.classes == (0, 0, 0)
    assert om.length_classes.multiples == (1, 1, 2)


def _partition(got, order):
    """The classes of ``got`` on the values permuted by ``order``, as sets
    of original indices mapped to (multiple per index, unit)."""
    classes = {}
    for k, j in enumerate(order):
        classes.setdefault(got.classes[k], {})[j] = got.multiples[k]
    return {
        frozenset(members): (members, got.units[c]) for c, members in classes.items()
    }


@given(
    st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 130)), min_size=1, max_size=8
    ),
    st.lists(st.floats(0.05, 3.0), max_size=3),
    st.randoms(use_true_random=False),
)
def test_commensurability_does_not_depend_on_order(bases, picks, loose, rnd):
    # integer multiples of a few bases, whose ratios need denominators up to
    # 130, so that classes link through third values, and a few free values
    values = [m * bases[b % len(bases)] for b, m in picks] + loose
    order = list(range(len(values)))
    rnd.shuffle(order)
    want = _partition(commensurability(values, 1e-12), range(len(values)))
    got = _partition(commensurability([values[j] for j in order], 1e-12), order)
    assert got.keys() == want.keys()
    for key, (multiples, unit) in got.items():
        assert multiples == want[key][0]
        assert unit == pytest.approx(want[key][1], rel=1e-14)


def test_commensurability_unit_stays_above_the_fit_resolution():
    # each value is 1 + 1/(61*59*...): it fits the unit of the ones before
    # it with q <= 61, so the unit shrinks by up to 61 per merge; near
    # unit / 64^2 = tol every value fits some p/q, so the last merge, to a
    # unit of about 2.6e-9, is refused
    tol, den, values = 1e-12, 1, [1.0]
    for q in (61, 59, 53, 47, 43):
        den *= q
        values.append(1 + 1 / den)
    got = commensurability(values, tol)
    assert got.classes == (0, 0, 0, 0, 0, 1)
    assert got.units[0] == pytest.approx(1 / (61 * 59 * 53 * 47), rel=1e-9)
    assert min(got.units) >= 64 ** 2 * tol
    # without the last value, the same first class
    assert commensurability(values[:5], tol).units == got.units[:1]
