"""Path enumeration and the weight-sum identities."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

import spectral_intervals.paths as paths_module
from spectral_intervals.errors import (
    GuardExceeded,
    PreconditionViolated,
    ValidationError,
    XNotInOmega,
    XPlusTNotInOmega,
)
from spectral_intervals.intervals import MAX_DENOMINATOR, Commensurability, new_interval_union
from spectral_intervals.paths import (
    MAX_PATHS_ENV,
    PathTable,
    _cluster,
    aggregate_equal_length,
    check_path_guard,
    check_state_guard,
    cluster_ends,
    end_states,
    end_sums,
    enumerate_paths,
    local_translation_identities,
    path_sum_by_end,
    path_cap,
    predicted_path_count,
    predicted_state_count,
)

from oracles import build_table_per_state, path_table, select

SQRT_SWAP = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
OM = new_interval_union([(0, 1), (2, 3)])


def test_short_time_single_path():
    paths = enumerate_paths(OM, SQRT_SWAP, 0.3, 0.5)
    assert len(paths) == 1
    (p,) = paths
    assert p.word == (0,)
    assert p.weight == 1.0
    assert p.end == pytest.approx(0.8)
    assert p.remainder == pytest.approx(0.8)
    assert p.direction == "forward"


def test_short_time_backward():
    paths = enumerate_paths(OM, SQRT_SWAP, 2.5, -0.3)
    assert len(paths) == 1
    (p,) = paths
    assert p.word == (1,)
    assert p.end == pytest.approx(2.2)
    assert p.remainder == pytest.approx(0.8)  # measured from the right end
    assert p.direction == "backward"


def test_forward_split():
    paths = enumerate_paths(OM, SQRT_SWAP, 0.5, 1.0)
    # exits interval 0 after 0.5, then 0.5 into either interval
    assert sorted(p.word for p in paths) == [(0, 0), (0, 1)]
    by_word = {p.word: p for p in paths}
    assert by_word[(0, 0)].end == pytest.approx(0.5)
    assert by_word[(0, 1)].end == pytest.approx(2.5)
    assert by_word[(0, 0)].weight == pytest.approx(SQRT_SWAP[0, 0])
    assert by_word[(0, 1)].weight == pytest.approx(SQRT_SWAP[0, 1])


def test_backward_adjoint_weights():
    paths = enumerate_paths(OM, SQRT_SWAP, 0.5, -1.0)
    by_word = {p.word: p for p in paths}
    assert by_word[(0, 1)].weight == pytest.approx(np.conj(SQRT_SWAP[1, 0]))
    assert by_word[(0, 1)].end == pytest.approx(2.5)


def test_boundary_crossing_left_closed():
    # exactly at the exit time the path has already crossed: remainder 0
    paths = enumerate_paths(OM, SQRT_SWAP, 0.5, 0.5)
    assert sorted(p.word for p in paths) == [(0, 0), (0, 1)]
    for p in paths:
        assert p.remainder == pytest.approx(0.0)


def test_x_not_in_set():
    with pytest.raises(XNotInOmega):
        enumerate_paths(OM, SQRT_SWAP, 1.5, 0.2)


def test_predicted_count_and_guard(monkeypatch):
    assert predicted_path_count(OM, 2.5) == 2 ** 4
    # two unit lengths, one class: states (j, m) with m < 2.5
    assert predicted_state_count(OM, 2.5) == 2 * 3
    monkeypatch.setenv(MAX_PATHS_ENV, "10")
    # enumerate_paths keeps the path guard: 2^4 paths at t = 3
    with pytest.raises(GuardExceeded):
        enumerate_paths(OM, SQRT_SWAP, 0.5, 3.0)
    # the table at t = 3 has at most 2 * 4 states, under the cap
    assert predicted_state_count(OM, 3.0) == 8
    assert path_table(OM, SQRT_SWAP, 0, 3.0).states <= 8


#: draws of the state-guard properties: 2-6 lengths, free, small integer
#: multiples of the first or linked to it, a time, and the denominators of
#: linked lengths
GUARD_DRAWS = (
    st.lists(st.floats(0.05, 3.0), min_size=2, max_size=6),
    st.lists(st.sampled_from([1, 2, 3, 5, 7]), min_size=6, max_size=6),
    st.sampled_from(["free", "multiples", "linked"]),
    st.floats(-40.0, 40.0),
    st.lists(st.integers(2, 64), min_size=3, max_size=3),
)


def _linked_lengths(lengths, ratios, qs):
    """Lengths that one merge round joins to the first length b, as
    (q + 1)/q * b or integer multiples of b, and lengths (dQ + 1)/(dQ) * b
    that fit only the unit b/d of that merged class, d = lcm(q1, q2); in
    the order of the drawn lengths, so that any of them may come first."""
    q1, q2, big_q = qs
    b, d = lengths[0], math.lcm(q1, q2)
    pool = [
        b,
        b * (d * big_q + 1) / (d * big_q),
        b * (q1 + 1) / q1,
        b * (q2 + 1) / q2,
        b * (d * big_q - 1) / (d * big_q),
        *(b * r for r in ratios),
    ][: len(lengths)]
    return [pool[k] for k in sorted(range(len(lengths)), key=lengths.__getitem__)]


def _guard_set(lengths, ratios, kind, qs):
    if kind == "multiples":
        lengths = [lengths[0] * r for r in ratios[: len(lengths)]]
    elif kind == "linked":
        lengths = _linked_lengths(lengths, ratios, qs)
    eps, pos = [], 0.0
    for length in lengths:
        eps.append((pos, pos + length))
        pos += length + 0.5
    return new_interval_union(eps)


@settings(deadline=None, max_examples=200)
@given(*GUARD_DRAWS)
def test_predicted_states_never_exceed_predicted_paths(lengths, ratios, kind, t, qs):
    # so no table that passes the path guard trips the state guard
    om = _guard_set(lengths, ratios, kind, qs)
    assert predicted_state_count(om, t) <= predicted_path_count(om, t)
    if predicted_path_count(om, t) <= path_cap():
        check_state_guard(om, t)


def _first_value_classes(values, tol):
    """The earlier commensurability rule, kept as an oracle: a value joins
    the first class whose first value v0 it equals as (p/q) * v0 within tol,
    with the smallest q <= 64, else it opens a class; the unit is v0 over
    the lcm of the denominators, times the gcd of the multiples."""
    qs = np.arange(1, MAX_DENOMINATOR + 1)
    firsts, members = [], []
    for j, v in enumerate(values):
        for c, v0 in enumerate(firsts):
            p = np.rint(v * qs / v0)
            fits = np.flatnonzero((p >= 1) & (np.abs(v * qs - p * v0) <= tol * qs))
            if fits.size:
                members[c].append((j, int(p[fits[0]]), int(fits[0]) + 1))
                break
        else:
            firsts.append(v)
            members.append([(j, 1, 1)])
    classes, multiples, units = [0] * len(values), [0] * len(values), []
    for c, (v0, group) in enumerate(zip(firsts, members)):
        den = math.lcm(*(q for _, _, q in group))
        mults = [p * (den // q) for _, p, q in group]
        common = math.gcd(*mults)
        units.append(v0 * common / den)
        for (j, _, _), m in zip(group, mults):
            classes[j], multiples[j] = c, m // common
    return Commensurability(
        tuple(classes), tuple(multiples), tuple(units), tuple(() for _ in units)
    )


@settings(deadline=None, max_examples=200)
@given(*GUARD_DRAWS)
def test_unit_keyed_classes_trip_no_guard_the_first_value_rule_passed(
    lengths, ratios, kind, t, qs
):
    om = _guard_set(lengths, ratios, kind, qs)
    oracle = _guard_set(lengths, ratios, kind, qs)
    oracle.__dict__["length_classes"] = _first_value_classes(oracle.lengths, oracle.tol() / 1000)
    try:
        check_state_guard(oracle, t)
    except GuardExceeded:
        return
    check_state_guard(om, t)


def test_first_value_oracle_splits_the_tiling_lengths():
    # the oracle is the earlier rule: 1.01 / 1 = 101/100 opens a second class
    assert _first_value_classes((1.0, 1.01, 1.02), 1e-12).classes == (0, 1, 0)
    assert _first_value_classes((65.0, 1.0, 64.0), 1e-12).classes == (0, 1, 1)
    om = new_interval_union([(0, 1), (4.03, 5.04), (8.07, 9.09)])
    assert len(om.length_classes.units) == 1


#: lengths 1, 65/64, 4/3, 1 + 1/12096, 2, 2: one merge round joins all but
#: 1 + 1/12096 (unit 1/192), and a second joins that one, which fits only
#: the unit 1/192 (at 12097/63)
LINKED = new_interval_union(
    [(0, 1), (2, 3.015625), (4, 5.333333333333333), (6, 7.000082671957672), (8, 10), (11, 13)]
)


def test_linked_classes_are_bounded_by_the_classes_they_joined(monkeypatch):
    classes = LINKED.length_classes
    assert classes.classes == (0,) * 6
    # each join pairs the classes of the coarsest common unit first: 1 and
    # 2 (unit 1), then 4/3 (unit 1/3), then 65/64 (unit 1/192), and then
    # the second round joins 1 + 1/12096
    ((unit, (((third, ((whole, _), four_thirds)), _))), linked) = classes.joined[0]
    assert (unit, third, whole) == pytest.approx((1 / 192, 1 / 3, 1.0))
    assert four_thirds == (pytest.approx(4 / 3), ())
    assert linked == (pytest.approx(1 + 1 / 12096), ())
    # at |t| = 20: 21 * 16 -> 61 for unit 1/3, times 20 (65/64) and 20
    # (1 + 1/12096), over n = 6 intervals; the first-value rule predicted
    # 6 * 3841 * 20, and the one merged class alone 6 * C(25, 6) = 1,062,600
    monkeypatch.delenv(MAX_PATHS_ENV, raising=False)
    assert check_state_guard(LINKED, 20.0) == (6 * 61 * 20 * 20, 10**6)
    assert check_state_guard(LINKED, -20.0) == (6 * 61 * 20 * 20, 10**6)
    oracle = new_interval_union(LINKED.endpoints)
    oracle.__dict__["length_classes"] = _first_value_classes(oracle.lengths, oracle.tol() / 1000)
    assert predicted_state_count(oracle, 20.0) == 460_920
    assert path_table(LINKED, np.eye(6), 0, 20.0).states == 24_066


def test_lattice8_table_has_120_states():
    # eight unit intervals 2*{0..7} + [0, 1): one length class, so at
    # |t| = 15 a table has 8 * 15 states against 8 * 16 predicted
    lattice8 = new_interval_union([(2 * k, 2 * k + 1) for k in range(8)])
    b = unitary_group.rvs(8, random_state=3)
    assert path_table(lattice8, b, 0, 15.0).states == 120
    assert predicted_state_count(lattice8, 15.0) == 128


#: fixed sets of the node-table property: one merged class (1 : 1.01 :
#: 1.02), equal lengths on a lattice, and linked classes
NODE_SETS = {
    "merged": new_interval_union([(0, 1), (4.03, 5.04), (8.07, 9.09)]),
    "equal": new_interval_union([(2 * k, 2 * k + 1) for k in range(8)]),
    "linked": LINKED,
}


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(["independent", *NODE_SETS]),
    st.lists(st.floats(0.5, 2.0), min_size=2, max_size=4),
    st.integers(0, 7),
    st.floats(-8.0, 8.0),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
)
def test_node_table_equals_the_per_state_loop(name, lengths, start, t, t_min, seed):
    # bit for bit, row order and dtypes included: "independent" lays out
    # the drawn lengths, which are rationally independent but by chance
    om = _guard_set(lengths, None, "free", None) if name == "independent" else NODE_SETS[name]
    b = unitary_group.rvs(om.n, random_state=seed)
    i = start % om.n
    t_min = None if t_min is None else t_min * t
    got = paths_module._build_table(om, b, i, t, t_min)
    want = build_table_per_state(om, b, i, t, t_min)
    for field in dataclasses.fields(PathTable):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), field.name
            assert g.tobytes() == w.tobytes(), field.name
        else:
            assert g == w, field.name


def test_state_guard_keeps_path_counts_in_int64(monkeypatch):
    # two unit intervals: at |t| = 70 a table has at most 2 * 71 states, but
    # a state holds up to 2^70 paths
    monkeypatch.setenv(MAX_PATHS_ENV, str(10**30))
    with pytest.raises(GuardExceeded, match="int64"):
        check_state_guard(OM, 70.0)
    with pytest.raises(GuardExceeded, match="int64"):
        path_table(OM, SQRT_SWAP, 0, -70.0)
    # 2^62 paths still fit
    assert check_state_guard(OM, 61.0) == (2 * 62, path_cap())
    table = path_table(OM, SQRT_SWAP, 0, 61.0)
    assert int(table.count.max()) <= 2 ** 62
    # eight unit intervals at |t| = 15: 8^16 = 2^48 paths
    lattice8 = new_interval_union([(2 * k, 2 * k + 1) for k in range(8)])
    assert check_state_guard(lattice8, 15.0)[0] == 8 * 16


def test_single_interval_states_are_counted(monkeypatch):
    # one path per start point, but one state per number of crossings
    om = new_interval_union([(0, 1)])
    assert predicted_path_count(om, 7.5) == 1
    assert predicted_state_count(om, 7.5) == 8
    assert path_table(om, np.eye(1), 0, 7.5).states == 8
    monkeypatch.setenv(MAX_PATHS_ENV, "7")
    with pytest.raises(GuardExceeded):
        path_table(om, np.eye(1), 0, 7.5)


@pytest.mark.parametrize("cap", ["abc", "0", "-3"])
def test_bad_path_cap_is_a_validation_error(monkeypatch, cap):
    monkeypatch.setenv(MAX_PATHS_ENV, cap)
    with pytest.raises(ValidationError, match=MAX_PATHS_ENV):
        check_path_guard(OM, 0.5)


def test_path_sum_identities_spectral():
    rep = local_translation_identities(OM, SQRT_SWAP, 0.5, 2.0)
    assert rep.passed
    assert rep.target == pytest.approx(2.5)
    assert abs(rep.target_sum - 1.0) < 1e-12
    for _, s in rep.other_sums:
        assert abs(s) < 1e-12


def test_path_sum_identities_fail_for_swap():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = local_translation_identities(OM, swap, 0.5, 2.0)
    assert not rep.passed
    assert rep.offending


def test_target_outside_set():
    with pytest.raises(XPlusTNotInOmega):
        local_translation_identities(OM, SQRT_SWAP, 0.5, 1.0)


def test_path_sum_by_end_merging():
    paths = enumerate_paths(OM, SQRT_SWAP, 0.5, 2.0)
    sums = path_sum_by_end(paths)
    assert len(sums.sums) == 2
    assert sums.sum_at(2.5) == pytest.approx(1.0)
    assert sums.sum_at(0.5) == pytest.approx(0.0)
    assert sums.sum_at(99.0) == 0.0
    assert not sums.flagged


def test_probability_conservation_random():
    rng = np.random.default_rng(3)
    for n, eps in [(2, ((0, 1), (2, 3))), (3, ((0, 1), (1.5, 2.5), (3, 4.2)))]:
        om = new_interval_union(eps)
        b = unitary_group.rvs(n, random_state=5)
        for _ in range(10):
            i = rng.integers(n)
            a, c = om.endpoints[i]
            x = rng.uniform(a + 1e-3, c - 1e-3)
            t = rng.uniform(-2.5, 2.5)
            paths = enumerate_paths(om, b, float(x), float(t))
            total = sum(abs(p.weight) ** 2 for p in paths)
            assert abs(total - 1.0) < 1e-10


def test_aggregate_equal_length():
    coeffs, row, err = aggregate_equal_length(OM, SQRT_SWAP, 0.5, 2.0 + 0.25, 2)
    assert err < 1e-12
    assert coeffs == pytest.approx(row)


def test_aggregate_preconditions():
    with pytest.raises(PreconditionViolated):
        aggregate_equal_length(OM, SQRT_SWAP, 0.5, 0.7, 2)
    om = new_interval_union([(0, 1), (2, 4)])
    with pytest.raises(PreconditionViolated):
        aggregate_equal_length(om, np.eye(2), 0.5, 1.7, 1)


# -- end-state table ---------------------------------------------------------


def _random_set(n, rng):
    lengths = rng.uniform(0.7, 1.3, size=n)
    gaps = rng.uniform(0.2, 1.5, size=n - 1)
    eps, pos = [], float(rng.uniform(-2, 2))
    for k in range(n):
        if k:
            pos += gaps[k - 1]
        eps.append((pos, pos + lengths[k]))
        pos += lengths[k]
    return new_interval_union(eps)


def _assert_same_end_sums(om, b, x, t):
    want = path_sum_by_end(enumerate_paths(om, b, x, t))
    got = end_sums(om, b, x, t)
    assert got.path_count == want.path_count
    assert len(got.sums) == len(want.sums)
    for (e1, w1), (e2, w2) in zip(got.sums, want.sums):
        assert abs(e1 - e2) < 1e-12
        assert abs(w1 - w2) < 1e-12
    assert len(got.flagged) == len(want.flagged)


def test_end_sums_match_enumeration_random():
    rng = np.random.default_rng(7)
    draws = 0
    for n in (2, 3, 4):
        for trial in range(80):
            om = _random_set(n, rng)
            b = unitary_group.rvs(n, random_state=rng.integers(2**31))
            i = int(rng.integers(n))
            a, c = om.endpoints[i]
            x = float(rng.uniform(a, c))
            t = float(rng.uniform(0, 3.2 if n < 4 else 2.4)) * (-1) ** trial
            _assert_same_end_sums(om, b, x, t)
            draws += 1
    assert draws >= 200


def _count_vector_sums(om, b, x, t):
    """Reference: the end states keyed by (final interval, count vector k),
    propagated level by level; their end sums at x, and the state count."""
    n, i = om.n, om.index_of(x)
    forward, big_t = t >= 0, abs(t)
    a, c = om.endpoints[i]
    lengths = om.lengths
    weights = np.asarray(b) if forward else np.asarray(b).conj().T
    rows = [(i, -lengths[i], 1.0 + 0j, 1)]
    level = {(j, (0,) * n): [0.0, weights[i, j], 1] for j in range(n)}
    states = 0
    while level:
        nxt = {}
        for (j, k), (cum, w, m) in level.items():
            states += 1
            rows.append((j, cum, w, m))
            if cum + lengths[j] >= big_t:
                continue
            k_next = k[:j] + (k[j] + 1,) + k[j + 1:]
            for jj in range(n):
                state = nxt.setdefault((jj, k_next), [cum + lengths[j], 0j, 0])
                state[1] += w * weights[j, jj]
                state[2] += m
        level = nxt
    exit_time = c - x if forward else x - a
    ends, ws, counts = [], [], []
    for j, cum, w, m in rows:
        r = big_t - exit_time - cum
        if 0 <= r < lengths[j]:
            ends.append(om.lefts[j] + r if forward else om.rights[j] - r)
            ws.append(w)
            counts.append(m)
    sums = _cluster(
        np.array(ends), np.array(ws), np.array(counts, dtype=float), None, sum(counts)
    )
    return sums, states


#: interval lengths, as multiples of one random length, or "independent"
LENGTH_PATTERNS = {
    "equal": (1, 1, 1, 1),
    "1:2": (1, 2, 1, 2),
    "2:3:5": (2 / 3, 1, 5 / 3, 2 / 3),
    "independent": None,
    "1:1+5e-8": (1, 1 + 5e-8, 1, 1 + 5e-8),
}


def test_length_keyed_table_matches_count_vectors():
    # the draws of test_end_sums_match_enumeration_random, on sets whose
    # lengths follow each pattern in turn
    rng = np.random.default_rng(7)
    states = dict.fromkeys(LENGTH_PATTERNS, (0, 0))
    for n in (2, 3, 4):
        for trial in range(80):
            name = list(LENGTH_PATTERNS)[trial % len(LENGTH_PATTERNS)]
            om = _random_set(n, rng)
            if LENGTH_PATTERNS[name] is not None:
                base = float(rng.uniform(0.7, 1.3))
                gaps = [l - r for (l, _), (_, r) in zip(om.endpoints[1:], om.endpoints)]
                eps, pos = [], om.endpoints[0][0]
                for k in range(n):
                    eps.append((pos, pos + base * LENGTH_PATTERNS[name][k]))
                    pos = eps[-1][1] + (gaps[k] if k < n - 1 else 0)
                om = new_interval_union(eps)
            b = unitary_group.rvs(n, random_state=rng.integers(2**31))
            i = int(rng.integers(n))
            a, c = om.endpoints[i]
            x = float(rng.uniform(a, c))
            t = float(rng.uniform(0, 3.2 if n < 4 else 2.4)) * (-1) ** trial
            want, want_states = _count_vector_sums(om, b, x, t)
            read = end_states(om, b, x, t)
            got = read.sums()
            assert got.path_count == want.path_count
            assert len(got.sums) == len(want.sums)
            for (e1, w1), (e2, w2) in zip(got.sums, want.sums):
                assert abs(e1 - e2) < 1e-12
                assert abs(w1 - w2) < 1e-12
            assert len(got.flagged) == len(want.flagged)
            assert read.states <= min(want_states, read.state_bound)
            states[name] = tuple(map(sum, zip(states[name], (read.states, want_states))))
    # the key merges states only where lengths are commensurable
    for name, (got, want) in states.items():
        assert (got == want) == (name == "independent"), (name, got, want)


def test_end_sums_exact_exit():
    # x = 0.5, t = 0.5 leaves interval 0 exactly at t: remainder 0 in both
    # successors, no path stays in interval 0
    for x, t in ((0.5, 0.5), (2.5, -0.5)):
        _assert_same_end_sums(OM, SQRT_SWAP, x, t)
    sums = end_sums(OM, SQRT_SWAP, 0.5, 0.5)
    assert sums.path_count == 2
    assert sums.ends == pytest.approx([0.0, 2.0])
    assert sums.sum_at(0.0) == pytest.approx(SQRT_SWAP[0, 0])
    assert sums.sum_at(2.0) == pytest.approx(SQRT_SWAP[0, 1])


def test_end_sums_barely_crossing():
    # the paths cross a whole interval with 1e-6 to spare
    for x, t in ((1 - 1e-6, 1 + 2e-6), (2 + 1e-6, -(1 + 2e-6))):
        _assert_same_end_sums(OM, SQRT_SWAP, x, t)
        assert end_sums(OM, SQRT_SWAP, x, t).path_count == 4


def test_path_table_states():
    table = path_table(OM, SQRT_SWAP, 0, 2.0)
    # the state counts add up to the number of paths at every start point
    for x in (0.1, 0.5, 0.9):
        states = end_states(OM, SQRT_SWAP, x, 2.0)
        assert int(states.count.sum()) == len(enumerate_paths(OM, SQRT_SWAP, x, 2.0))
        idx, ends = select(table, x, 2.0)
        assert ends == pytest.approx(x + table.shift[idx])
    # every row is admissible from some start point of interval 0
    seen = set()
    for x in np.linspace(0.0, 1.0, 201)[1:-1]:
        seen.update(select(table, x, 2.0)[0].tolist())
    assert seen == set(range(len(table.final)))
    # no path stays in interval 0 for t = 2 > l_0
    assert not np.any((table.final == 0) & (table.shift == 2.0))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_path_table_serves_a_range_of_times(sign):
    # a table built for |t| = 3.1 with t_min = 0.2 reads, at every time in
    # between, the same states as a table built for that time alone
    rng = np.random.default_rng(9)
    om = new_interval_union([(0, 0.7), (1.5, 2.8), (3.1, 3.9)])
    b = unitary_group.rvs(3, random_state=9)
    for i in range(om.n):
        shared = path_table(om, b, i, sign * 3.1, t_min=0.2)
        a, c = om.endpoints[i]
        for big_t in np.append(rng.uniform(0.2, 3.1, size=20), [0.2, 3.1]):
            own = path_table(om, b, i, sign * big_t)
            for x in rng.uniform(a, c, size=5):
                idx, ends = select(shared, x, sign * big_t)
                want_idx, want_ends = select(own, x, sign * big_t)
                got = sorted(zip(shared.final[idx], ends, shared.weight[idx]), key=lambda r: r[1])
                want = sorted(
                    zip(own.final[want_idx], want_ends, own.weight[want_idx]), key=lambda r: r[1]
                )
                assert len(got) == len(want)
                for (j, e, w), (jj, ee, ww) in zip(got, want):
                    assert j == jj and e == pytest.approx(ee, abs=1e-12)
                    assert w == pytest.approx(ww, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 1.0, 2.0, 3.0, 1.5, -0.5, 3.5, float("nan")])
def test_end_states_start_outside_the_set(x):
    # endpoints, gaps, the outside and nan are in no open interval
    with pytest.raises(XNotInOmega):
        end_states(OM, SQRT_SWAP, x, 0.5)
    with pytest.raises(XNotInOmega):
        end_states(OM, SQRT_SWAP, [0.5, x], [0.5, -0.5])


def test_end_states_start_on_a_shared_endpoint():
    # 1.0 ends one interval and starts the next: in neither open interval
    om = new_interval_union([(0, 1), (1, 2)])
    with pytest.raises(XNotInOmega, match="x=1.0 "):
        end_states(om, SQRT_SWAP, [0.5, 1.0, 1.5], [0.2, 0.2, 0.2])
    assert end_states(om, SQRT_SWAP, [0.5, 1.5], [0.2, -0.2]).pair.tolist() == [0, 1]


def test_end_states_checks_the_guard_once(monkeypatch):
    # four tables (two start intervals, both signs), one guard check at the
    # largest |t| of the batch, whose bound and cap the states report
    calls = []

    def check(omega, t):
        calls.append(t)
        return check_state_guard(omega, t)

    monkeypatch.setattr(paths_module, "check_state_guard", check)
    xs, ts = [0.5, 2.5, 0.2, 2.8, 0.9], [1.5, -0.4, -2.7, 0.3, 2.0]
    states = end_states(OM, SQRT_SWAP, xs, ts)
    assert calls == [-2.7]
    assert states.tables == 4
    assert (states.state_bound, states.cap) == check_state_guard(OM, -2.7)
    monkeypatch.setenv(MAX_PATHS_ENV, str(predicted_state_count(OM, 2.7) - 1))
    with pytest.raises(GuardExceeded, match="t=-2.7"):
        end_states(OM, SQRT_SWAP, xs, ts)


def test_path_table_guard_before_states(monkeypatch):
    # the state guard: 2 * (5 + 1) = 12 predicted states at t = 5
    monkeypatch.setenv(MAX_PATHS_ENV, "10")
    with pytest.raises(GuardExceeded, match="state count 12"):
        path_table(OM, SQRT_SWAP, 0, 5.0)
    with pytest.raises(GuardExceeded):
        end_sums(OM, SQRT_SWAP, 0.5, 5.0)


def test_cluster_ends_flags_near_ends():
    sums = cluster_ends([(2.0, 3.0), (1.0 + 1e-11, 2.0), (1.0, 1.0)], path_count=3)
    assert sums.path_count == 3
    assert len(sums.sums) == 2
    assert sums.sums[0][0] == pytest.approx(1.0 + 0.5e-11, abs=1e-15)
    assert sums.sums[0][1] == 3.0
    assert sums.flagged == [(1.0, 1.0 + 1e-11)]
    assert cluster_ends([]).sums == []
