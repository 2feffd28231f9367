"""Path enumeration and the weight-sum identities."""
import numpy as np
import pytest
from scipy.stats import unitary_group

from spectral_intervals.errors import (
    GuardExceeded,
    PreconditionViolated,
    XNotInOmega,
    XPlusTNotInOmega,
)
from spectral_intervals.intervals import new_interval_union
from spectral_intervals.paths import (
    MAX_PATHS_ENV,
    aggregate_equal_length,
    cluster_ends,
    cumulative_sums,
    end_sums,
    enumerate_paths,
    local_translation_identities,
    path_sum_by_end,
    path_table,
    predicted_path_count,
)

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
    monkeypatch.setenv(MAX_PATHS_ENV, "10")
    with pytest.raises(GuardExceeded):
        enumerate_paths(OM, SQRT_SWAP, 0.5, 3.0)


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


def test_cumulative_sums():
    sums = cumulative_sums(OM, 2.5)
    assert sums == [0.0, 1.0, 2.0]
    om = new_interval_union([(0, 1), (2, 3.5)])
    assert cumulative_sums(om, 2.6) == [0.0, 1.0, 1.5, 2.0, 2.5]


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
        states = table.at(x)
        assert int(states.count.sum()) == len(enumerate_paths(OM, SQRT_SWAP, x, 2.0))
        idx, ends = table.select(x)
        assert ends == pytest.approx(x + table.shift[idx])
    # every row is admissible from some start point of interval 0
    seen = set()
    for x in np.linspace(0.0, 1.0, 201)[1:-1]:
        seen.update(table.select(x)[0].tolist())
    assert seen == set(range(len(table.final)))
    # no path stays in interval 0 for t = 2 > l_0
    assert not np.any((table.final == 0) & (table.shift == 2.0))


def test_path_table_guard_before_states(monkeypatch):
    monkeypatch.setenv(MAX_PATHS_ENV, "10")
    with pytest.raises(GuardExceeded):
        path_table(OM, SQRT_SWAP, 0, 3.0)
    with pytest.raises(GuardExceeded):
        end_sums(OM, SQRT_SWAP, 0.5, 3.0)


def test_cluster_ends_flags_near_ends():
    sums = cluster_ends([(2.0, 3.0), (1.0 + 1e-11, 2.0), (1.0, 1.0)], path_count=3)
    assert sums.path_count == 3
    assert len(sums.sums) == 2
    assert sums.sums[0][0] == pytest.approx(1.0 + 0.5e-11, abs=1e-15)
    assert sums.sums[0][1] == 3.0
    assert sums.flagged == [(1.0, 1.0 + 1e-11)]
    assert cluster_ends([]).sums == []
