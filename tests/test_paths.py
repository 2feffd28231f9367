"""Path enumeration and the weight-sum identities."""
import dataclasses
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    _build_table,
    _cluster,
    aggregate_equal_length,
    cluster_ends,
    end_states,
    end_sums,
    enumerate_paths,
    local_translation_identities,
    path_sum_by_end,
    path_cap,
)

from oracles import build_table_per_state, per_state_walk, select

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
    # two unit lengths, one class: states (j, m) with m < 2.5
    assert _build_table(OM, SQRT_SWAP, 0, 2.5).states == 2 * 3
    monkeypatch.setenv(MAX_PATHS_ENV, "10")
    # at t = 3 the walk of enumerate_paths visits 2 words per word it
    # extends, 14 in all, for 8 paths: past the cap
    with pytest.raises(GuardExceeded, match="cap 10 words"):
        enumerate_paths(OM, SQRT_SWAP, 0.5, 3.0)
    monkeypatch.setenv(MAX_PATHS_ENV, "14")
    assert len(enumerate_paths(OM, SQRT_SWAP, 0.5, 3.0)) == 8
    # the table at t = 3 has 2 * 3 states, under the cap
    monkeypatch.setenv(MAX_PATHS_ENV, "6")
    assert _build_table(OM, SQRT_SWAP, 0, 3.0).states == 6


def test_one_interval_walk_counts_its_words(monkeypatch):
    # one interval, one path, but one word per crossing: from x = 0.5 the
    # walk extends floor(t - 0.5) words of (0, 1), and visits one more
    one = new_interval_union([(0, 1)])
    with pytest.raises(GuardExceeded, match="words"):
        enumerate_paths(one, np.eye(1), 0.5, 1e7)
    monkeypatch.setenv(MAX_PATHS_ENV, "1000")
    (path,) = enumerate_paths(one, np.eye(1), 0.5, 1000.4)
    assert path.length == 1001 and path.end == pytest.approx(0.9)
    with pytest.raises(GuardExceeded, match="cap 1000 words"):
        enumerate_paths(one, np.eye(1), 0.5, -1000.6)


def test_walk_drops_words_of_weight_zero():
    # a 3-cycle: the walk lists the one word of weight 1, as many paths as
    # the table counts, and extends no word that a zero entry ends
    om = new_interval_union([(0, 1), (4.03, 5.04), (8.07, 9.09)])
    cycle = np.roll(np.eye(3), 1, axis=1)
    for t in (7.3, -7.3):
        (path,) = enumerate_paths(om, cycle, 0.5, t)
        assert path.weight == 1 and len(path.word) == 8
        assert sum(end_states(om, cycle, 0.5, t).count) == 1


#: draws of the guard property: 2-6 lengths, free, equal to the first
#: (whose path counts grow fastest), small integer multiples of it or
#: linked to it, a time, and the denominators of linked lengths
GUARD_DRAWS = (
    st.lists(st.floats(0.05, 3.0), min_size=2, max_size=6),
    st.lists(st.sampled_from([1, 2, 3, 5, 7]), min_size=6, max_size=6),
    st.sampled_from(["free", "equal", "multiples", "linked"]),
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
    if kind == "equal":
        lengths = [lengths[0]] * len(lengths)
    elif kind == "multiples":
        lengths = [lengths[0] * r for r in ratios[: len(lengths)]]
    elif kind == "linked":
        lengths = _linked_lengths(lengths, ratios, qs)
    eps, pos = [], 0.0
    for length in lengths:
        eps.append((pos, pos + length))
        pos += length + 0.5
    return new_interval_union(eps)


#: states the unguarded per-state walk may propagate in one example
WALK_LIMIT = 5_000


@settings(deadline=None, max_examples=200)
@given(*GUARD_DRAWS, st.integers(0, 5), st.floats(0.0, 2.0))
# two lengths 0.5 at |t| = 40: 2 * 80 states, the last of 2^79 paths each
@example([0.5, 0.5], [1] * 6, "equal", -40.0, [2, 3, 5], 0, 1.5)
# two lengths 0.5 at |t| = 70: 280 states, whose counts past 2^64 take 88
# more words, so the cap 331 passes the states and trips on the words
@example([0.5, 0.5], [1] * 6, "equal", 70.0, [2, 3, 5], 0, 0.9)
def test_the_guard_trips_iff_the_real_work_passes_it(lengths, ratios, kind, t, qs, start, share):
    # the cap is drawn around the real work of the table, as far as the
    # per-state walk counts it: its states and the 64-bit words its path
    # counts take beyond one a node.  A table trips iff that work passes
    # the cap.  A Haar B has no state of weight 0, so every state is
    # propagated
    om = _guard_set(lengths, ratios, kind, qs)
    i = start % om.n
    b = unitary_group.rvs(om.n, random_state=start)
    _, states, zeros, largest, words = per_state_walk(om, b, i, t, limit=WALK_LIMIT)
    assert zeros == 0
    work = states + words
    cap = max(1, round(share * min(work, WALK_LIMIT / 2)))
    with mock.patch.dict(os.environ, {MAX_PATHS_ENV: str(cap)}):
        try:
            table = _build_table(om, b, i, t)
        except GuardExceeded:
            assert work > cap
        else:
            assert table.states == states <= work <= cap
            assert table.count.max() == largest


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
    return Commensurability(tuple(classes), tuple(multiples), tuple(units))


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
    # at |t| = 20 the one merged class keeps 24,066 states a table under a
    # Haar B, which drops none, and the default cap passes them in both
    # directions
    monkeypatch.delenv(MAX_PATHS_ENV, raising=False)
    b = unitary_group.rvs(6, random_state=6)
    states = end_states(LINKED, b, [0.5, 0.5], [20.0, -20.0])
    assert (states.tables, states.state_bound, states.cap) == (2, 24_066, 10**6)
    assert states.zero_states == 0
    assert _build_table(LINKED, b, 0, 20.0).states == 24_066


def test_linked_cycle_propagates_one_chain():
    # the 6-cycle on the linked lengths: one state of each node has weight
    # 1, the other five weigh 0, so the 15 crossings that start before
    # |t| = 20 take 15 nodes of 6 states (all words: 24,066 states)
    cycle = np.roll(np.eye(6), 1, axis=1)
    table = _build_table(LINKED, cycle, 0, 20.0)
    assert (table.states, table.zero_states) == (90, 75)
    assert table.count.tolist() == [1] * len(table.count)


def test_lattice8_table_has_120_states():
    # eight unit intervals 2*{0..7} + [0, 1): one length class, so at
    # |t| = 15 a table has 8 * 15 states, covered lengths 0 to 14
    lattice8 = new_interval_union([(2 * k, 2 * k + 1) for k in range(8)])
    b = unitary_group.rvs(8, random_state=3)
    assert _build_table(lattice8, b, 0, 15.0).states == 120


#: fixed sets of the node-table property: one merged class (1 : 1.01 :
#: 1.02), equal lengths on a lattice, and linked classes
NODE_SETS = {
    "merged": new_interval_union([(0, 1), (4.03, 5.04), (8.07, 9.09)]),
    "equal": new_interval_union([(2 * k, 2 * k + 1) for k in range(8)]),
    "linked": LINKED,
}


#: kinds of B for the tables' properties: Haar B has no state of weight 0;
#: a permutation and a weighted permutation keep one state of each node;
#: a block-diagonal B of Haar blocks has zero entries; the Sylvester
#: Hadamard matrix over 2 (order 4, or order 2 over sqrt 2, next to phases)
#: has states that cancel exactly
B_KINDS = ["haar", "permutation", "weighted", "block", "hadamard"]


def _haar(n, rng):
    if n == 1:
        return np.array([[np.exp(2j * np.pi * rng.uniform())]])
    return unitary_group.rvs(n, random_state=int(rng.integers(2**31)))


def _block_diagonal(*blocks):
    n = sum(len(block) for block in blocks)
    b, at = np.zeros((n, n), dtype=complex), 0
    for block in blocks:
        b[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    return b


def _draw_b(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "haar":
        return _haar(n, rng)
    if kind in ("permutation", "weighted"):
        b = np.eye(n, dtype=complex)[rng.permutation(n)]
        if kind == "weighted":
            b *= np.exp(2j * np.pi * rng.uniform(size=n))[:, None]
        return b
    if kind == "block":
        k = int(rng.integers(1, n))
        return _block_diagonal(_haar(k, rng), _haar(n - k, rng))
    h2 = np.array([[1, 1], [1, -1]])
    h = np.kron(h2, h2) / 2 if n >= 4 else h2 / np.sqrt(2)
    return _block_diagonal(h, *([[[1.0]]] * (n - len(h))))


def _assert_same_table(got: PathTable, want: PathTable):
    # bit for bit, row order and dtypes included; path counts are Python
    # ints in object arrays, compared by value
    for field in dataclasses.fields(PathTable):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), field.name
            if w.dtype == object:
                assert g.tolist() == w.tolist(), field.name
            else:
                assert g.tobytes() == w.tobytes(), field.name
        else:
            assert g == w, field.name


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(["independent", *NODE_SETS]),
    st.lists(st.floats(0.5, 2.0), min_size=2, max_size=4),
    st.integers(0, 7),
    st.floats(-8.0, 8.0),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    st.sampled_from(B_KINDS),
    st.integers(0, 2**32 - 1),
)
def test_node_table_equals_the_per_state_loop(name, lengths, start, t, t_min, kind, seed):
    # "independent" lays out the drawn lengths, which are rationally
    # independent but by chance; both loops drop the states of weight 0
    om = _guard_set(lengths, None, "free", None) if name == "independent" else NODE_SETS[name]
    b = _draw_b(kind, om.n, seed)
    i = start % om.n
    t_min = None if t_min is None else t_min * t
    _assert_same_table(
        paths_module._build_table(om, b, i, t, t_min), build_table_per_state(om, b, i, t, t_min)
    )


def _table_sums(table: PathTable, x: float, t: float):
    idx, ends = select(table, x, t)
    return _cluster(ends, table.weight[idx], table.count[idx], None, 0)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.floats(0.5, 2.0), min_size=2, max_size=4),
    st.lists(st.sampled_from([1, 2, 3]), min_size=6, max_size=6),
    st.sampled_from(["free", "multiples", "linked"]),
    st.lists(st.integers(2, 64), min_size=3, max_size=3),
    st.sampled_from(B_KINDS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.floats(0.01, 0.99),
    st.floats(0.0, 5.0),
    st.sampled_from([1.0, -1.0]),
)
def test_dropping_zero_states_keeps_every_nonzero_end_sum(
    lengths, ratios, length_kind, qs, kind, seed, start, where, big_t, sign
):
    # against the all-words loop, which keeps the states of weight 0: the
    # same sum at every end (an end missing on one side weighs 0 there), and
    # the same table, bit for bit, when no state weighs 0
    om = _guard_set(lengths, ratios, length_kind, qs)
    b = _draw_b(kind, om.n, seed)
    i = start % om.n
    a, c = om.endpoints[i]
    x, t = a + where * (c - a), sign * big_t
    got = _build_table(om, b, i, t)
    words = build_table_per_state(om, b, i, t, drop_zero=False)
    assert (got.states, got.zero_states) <= (words.states, words.zero_states)
    if words.zero_states == 0:
        _assert_same_table(got, words)
    assert np.all(got.weight != 0)
    pruned, full = _table_sums(got, x, t), _table_sums(words, x, t)
    tol = 1e-9 * max(1.0, abs(om.endpoints[-1][1]))
    for end, w in full.sums:
        assert abs(pruned.sum_at(end, tol) - w) <= 1e-12
    for end, w in pruned.sums:
        assert abs(full.sum_at(end, tol) - w) <= 1e-12
        assert any(abs(end - e) <= tol for e in full.ends)
    if kind in ("permutation", "weighted"):
        # one path, of weight 1 in modulus
        assert len(pruned.sums) == 1 and abs(abs(pruned.sums[0][1]) - 1) < 1e-12


def test_the_guard_charges_the_words_of_long_path_counts(monkeypatch):
    # the README pair: one chain of 2 states per crossing, whose path count
    # doubles every second crossing.  At |t| = 1e5 the states alone (about
    # 2e5) would pass a cap of 3e5, but the counts would keep about 1e10
    # bits; the words they take beyond one a node trip the guard long
    # before, after some 7,000 crossings
    monkeypatch.setenv(MAX_PATHS_ENV, str(300_000))
    for t in (100_000.25, -100_000.25):
        with pytest.raises(GuardExceeded, match="cap 300000 states .* words of path counts"):
            _build_table(OM, SQRT_SWAP, 0, t)
    table = _build_table(OM, SQRT_SWAP, 0, 1000.25)
    assert table.states == 2002 and set(table.count) == {2**500}
    # counts below 2^64 are charged nothing: the message names no words
    monkeypatch.setenv(MAX_PATHS_ENV, "100")
    with pytest.raises(GuardExceeded, match=r"cap 100 states for t=200.25$"):
        _build_table(OM, SQRT_SWAP, 0, 200.25)


def test_path_counts_stay_exact_past_int64():
    # two unit intervals under a Haar B: the states of covered length m hold
    # 2^m paths, m < |t|, so at |t| = 70 a state holds 2^69 paths, past
    # int64, with 2 * 70 states a table, far below the cap
    b = unitary_group.rvs(2, random_state=2)
    for t in (63.0, 63.5, -70.0):
        table = _build_table(OM, b, 0, t)
        largest = 2 ** math.ceil(abs(t) - 1)
        assert table.states == 2 * math.ceil(abs(t))
        assert table.count.dtype == object
        assert table.count.max() == largest == per_state_walk(OM, b, 0, t)[3]
    # eight unit intervals at |t| = 15: 8^14 = 2^42 paths end in one state
    lattice8 = new_interval_union([(2 * k, 2 * k + 1) for k in range(8)])
    b8 = unitary_group.rvs(8, random_state=8)
    assert _build_table(lattice8, b8, 0, 15.0).count.max() == 8 ** 14


@pytest.mark.parametrize("name", ["readme", "tiling"])
def test_spectral_pairs_give_one_end_at_a_large_time(name):
    # U(t)f(x) = f(x + t) on a spectral pair: after pruning one end carries
    # weight 1, whatever the number of words, and the tables stay small
    om, b = {
        "readme": (OM, SQRT_SWAP),
        "tiling": (NODE_SETS["merged"], np.roll(np.eye(3), 1, axis=1)),
    }[name]
    states = end_states(om, b, 0.5, 1000.25)
    (end, weight), = states.sums().sums
    assert weight == pytest.approx(1.0, abs=1e-9)
    assert states.state_bound < 10**4


def test_single_interval_states_are_counted(monkeypatch):
    # one path per start point, but one state per number of crossings
    om = new_interval_union([(0, 1)])
    monkeypatch.setenv(MAX_PATHS_ENV, "8")
    assert _build_table(om, np.eye(1), 0, 7.5).states == 8
    monkeypatch.setenv(MAX_PATHS_ENV, "7")
    with pytest.raises(GuardExceeded, match="cap 7 states"):
        _build_table(om, np.eye(1), 0, 7.5)


@pytest.mark.parametrize("cap", ["abc", "0", "-3"])
def test_bad_path_cap_is_a_validation_error(monkeypatch, cap):
    monkeypatch.setenv(MAX_PATHS_ENV, cap)
    with pytest.raises(ValidationError, match=MAX_PATHS_ENV):
        end_states(OM, SQRT_SWAP, 0.5, 0.5)


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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cancelling_end_sums_match_enumeration(sign):
    # SQRT_SWAP cancels: the walk lists every word of nonzero weight, the
    # table drops the states where words cancel.  The ends the walk sums to
    # a nonzero weight are the table's ends, with the same weights, and the
    # table counts no word the walk does not list
    rng = np.random.default_rng(11)
    draws = [(0.5, 2.0), (0.5, 0.5), (2.5, 1.75)]
    draws += [(float(rng.choice([0.0, 2.0]) + rng.uniform()), rng.uniform(0, 7)) for _ in range(40)]
    cancelled = 0
    for x, t in draws:
        listed = enumerate_paths(OM, SQRT_SWAP, x, sign * t)
        want = path_sum_by_end(listed)
        nonzero = [(e, w) for e, w in want.sums if abs(w) > 1e-12]
        cancelled += len(want.sums) - len(nonzero)
        got = end_sums(OM, SQRT_SWAP, x, sign * t)
        assert got.path_count <= len(listed)
        assert len(got.sums) == len(nonzero)
        for (e1, w1), (e2, w2) in zip(got.sums, nonzero):
            assert abs(e1 - e2) < 1e-12
            assert abs(w1 - w2) < 1e-12
    # the draws meet ends where words cancel (18 of them forward)
    assert cancelled >= 10


#: a Haar B of order 2, with no state of weight 0: every word is counted
HAAR2 = unitary_group.rvs(2, random_state=4)


def test_end_sums_barely_crossing():
    # the paths cross a whole interval with 1e-6 to spare
    for x, t in ((1 - 1e-6, 1 + 2e-6), (2 + 1e-6, -(1 + 2e-6))):
        _assert_same_end_sums(OM, HAAR2, x, t)
        assert end_sums(OM, HAAR2, x, t).path_count == 4
    # under SQRT_SWAP the two paths that cross interval 0 again cancel
    # exactly: their state is dropped, with its two paths
    assert end_sums(OM, SQRT_SWAP, 1 - 1e-6, 1 + 2e-6).path_count == 2


def test_path_table_states():
    table = _build_table(OM, HAAR2, 0, 2.0)
    # the state counts add up to the number of paths at every start point
    for x in (0.1, 0.5, 0.9):
        states = end_states(OM, HAAR2, x, 2.0)
        assert sum(states.count) == len(enumerate_paths(OM, HAAR2, x, 2.0))
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
        shared = _build_table(om, b, i, sign * 3.1, t_min=0.2)
        a, c = om.endpoints[i]
        for big_t in np.append(rng.uniform(0.2, 3.1, size=20), [0.2, 3.1]):
            own = _build_table(om, b, i, sign * big_t)
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
    # four tables (two start intervals, both signs), each built once, for
    # the largest |t| of its pairs; the states report the most states one
    # table held, and the cap
    built = []

    def build(*args):
        built.append(_build_table(*args))
        return built[-1]

    monkeypatch.setattr(paths_module, "_build_table", build)
    xs, ts = [0.5, 2.5, 0.2, 2.8, 0.9], [1.5, -0.4, -2.7, 0.3, 2.0]
    states = end_states(OM, SQRT_SWAP, xs, ts)
    assert sorted(table.big_t for table in built) == [0.3, 0.4, 2.0, 2.7]
    assert states.tables == 4
    assert states.states == sum(table.states for table in built)
    assert (states.state_bound, states.cap) == (6, path_cap())
    monkeypatch.setenv(MAX_PATHS_ENV, "5")
    with pytest.raises(GuardExceeded, match="t=-2.7"):
        end_states(OM, SQRT_SWAP, xs, ts)
    monkeypatch.setenv(MAX_PATHS_ENV, "6")
    assert end_states(OM, SQRT_SWAP, xs, ts).state_bound == 6


def test_path_table_guard_before_states(monkeypatch):
    # at t = 5 a table holds 2 * 5 states (covered lengths 0 to 4); the
    # guard stops it before it takes the node that passes the cap
    monkeypatch.setenv(MAX_PATHS_ENV, "9")
    with pytest.raises(GuardExceeded, match="cap 9 states"):
        _build_table(OM, SQRT_SWAP, 0, 5.0)
    with pytest.raises(GuardExceeded):
        end_sums(OM, SQRT_SWAP, 0.5, 5.0)
    monkeypatch.setenv(MAX_PATHS_ENV, "10")
    assert _build_table(OM, SQRT_SWAP, 0, 5.0).states == 10


def test_cluster_means_and_counts_do_not_wrap():
    # two states of 2^62 paths each: their int64 sum would wrap to -2^63;
    # counts past the range of a float weigh in, relative to their cluster
    ends, ones = np.array([1.0, 1.0 + 1e-11, 3.0]), np.ones(3, dtype=complex)
    for counts in ([2**62, 2**62, 1], [2**1100, 2**1100, 1], [1, 1, 2**1100]):
        sums = _cluster(ends, ones, np.array(counts, dtype=object), None, 0)
        assert sums.sums[0][0] == pytest.approx(1.0 + 0.5e-11, abs=1e-15)
        assert sums.sums[1][0] == 3.0
    # from x = 0.5 the paths cross 61 or 62 intervals: 2^62 and 2^63 paths
    states = end_states(OM, HAAR2, [0.5, 0.5], [62.25, 62.75])
    assert states.count.tolist() == [2**61, 2**61, 2**62, 2**62]
    assert states.count.dtype == object
    assert states.sums().path_count == 2**62 + 2**63


def test_cluster_ends_flags_near_ends():
    sums = cluster_ends([(2.0, 3.0), (1.0 + 1e-11, 2.0), (1.0, 1.0)], path_count=3)
    assert sums.path_count == 3
    assert len(sums.sums) == 2
    assert sums.sums[0][0] == pytest.approx(1.0 + 0.5e-11, abs=1e-15)
    assert sums.sums[0][1] == 3.0
    assert sums.flagged == [(1.0, 1.0 + 1e-11)]
    assert cluster_ends([]).sums == []
