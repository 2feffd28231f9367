"""Admissible paths of the unitary group flow.

A point x flows to the right (t > 0) inside its interval, and at each right
endpoint splits into all intervals with weights from the corresponding row
of B.  An admissible path records the visited interval indices; its weight
is the product of matrix entries along the word, its remainder the time
spent inside the final interval.  Negative times mirror the construction
through left endpoints with adjoint weights.

A path that leaves interval i, fully crosses intervals with count vector k
and stops in interval j ends at x + shift, and it is admissible for every x
of one start range.  Both depend on k only through the length k.l it
covers, and within a class of commensurable lengths (integer multiples of
one unit) that length is one integer.  ``_build_table`` therefore propagates
weights forward over the end states (j, covered length per class) once per
interval, one node of n states per covered length, so callers that need
only end sums never build the paths themselves; ``enumerate_paths`` lists
single paths for reports and per-path checks.  A state whose summed weight
is exactly 0 adds exactly 0 to every end and every state after it, so the
table neither extends it nor gives it a row, and the walk likewise neither
lists nor extends a word of weight 0: on a permutation B one chain of
states carries the whole sum.  The rows also give every
point where the sum over paths changes with x: the edges of their start
ranges, and the start points whose end x + shift meets a breakpoint of the
function summed.

Both are guarded by the work they do, counted while they do it: a table
stops once its states, and the 64-bit words its path counts take beyond one
a node, pass the cap (``path_cap``), and the walk of ``enumerate_paths``
once the words it visits pass the cap.  Path counts are Python integers,
so they never wrap.
"""
from __future__ import annotations

import heapq
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    GuardExceeded,
    PreconditionViolated,
    ValidationError,
    XNotInOmega,
    XPlusTNotInOmega,
)
from .intervals import IntervalUnion

DEFAULT_MAX_PATHS = 10 ** 6
MAX_PATHS_ENV = "SPECTRAL_INTERVALS_MAX_PATHS"


def path_cap() -> int:
    """The path cap: SPECTRAL_INTERVALS_MAX_PATHS if set, else 10^6.

    Raises ValidationError unless the variable holds a positive integer.
    """
    raw = os.environ.get(MAX_PATHS_ENV)
    if raw is None:
        return DEFAULT_MAX_PATHS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"{MAX_PATHS_ENV} must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True)
class Path:
    """One admissible path: index word, remainder, end point, and weight."""

    word: tuple[int, ...]
    direction: str  # "forward" or "backward"
    remainder: float
    end: float
    weight: complex

    @property
    def length(self) -> int:
        return len(self.word)


def _levels(omega: IntervalUnion, t: float) -> int:
    """ceil(|t| / lmin): no path fully crosses that many intervals in |t|."""
    return math.ceil(min(abs(t) / omega.lmin, sys.float_info.max))


def _cap(t: float) -> int:
    """The cap a guard checks against; a non-finite t raises ValidationError."""
    if not math.isfinite(t):
        raise ValidationError(f"t must be a finite number, got {t}")
    return path_cap()


def enumerate_paths(omega: IntervalUnion, b, x: float, t: float) -> list[Path]:
    """The admissible paths for (x, t) of nonzero weight, in depth-first order.

    A word of weight 0 (a zero entry of B on it) is neither listed nor
    extended: every path through it has weight 0.  The walk visits the n
    successors of every word it extends, n words per extension; it raises
    GuardExceeded before those words pass the cap (``path_cap``), so one
    interval, whose single path is |t| / l long, is guarded too.  A
    non-finite t raises ValidationError.
    """
    b = np.asarray(b, dtype=complex)
    i = omega.index_of(x)
    if i is None:
        raise XNotInOmega(f"x={x} is not in an open interval of the set")
    cap = _cap(t)

    forward = t >= 0
    direction = "forward" if forward else "backward"
    lengths = omega.lengths
    lefts, rights = omega.lefts, omega.rights
    n = omega.n
    if forward:
        exit_time = rights[i] - x
        weights = b
    else:
        exit_time = x - lefts[i]
        weights = b.conj().T  # adjoint entries b*_{i,j} = conj(b_{j,i})

    big_t = abs(t)
    if big_t < exit_time:
        end = x + t
        r = end - lefts[i] if forward else rights[i] - end
        return [Path((i,), direction, r, end, 1.0 + 0j)]

    paths: list[Path] = []
    # depth first, one iterator over the successors of each interval of the
    # word, so that a long path takes no recursion; elapsed[d] and weight[d]
    # are the time spent and the weight gathered by word[:d + 1]; every
    # frame visits n words
    word, elapsed, weight = [i], [exit_time], [1.0 + 0j]
    frames = [iter(range(n))]
    words = n
    while frames:
        if words > cap:
            raise GuardExceeded(f"path walk visits more than cap {cap} words for t={t}")
        for j in frames[-1]:
            w = weight[-1] * weights[word[-1], j]
            if w == 0:
                continue
            remaining = big_t - elapsed[-1]
            if remaining < lengths[j]:
                end = lefts[j] + remaining if forward else rights[j] - remaining
                paths.append(Path((*word, j), direction, remaining, end, complex(w)))
            else:
                word.append(j)
                elapsed.append(elapsed[-1] + lengths[j])
                weight.append(w)
                frames.append(iter(range(n)))
                words += n
                break
        else:
            frames.pop()
            word.pop()
            elapsed.pop()
            weight.pop()
    return paths


@dataclass(frozen=True)
class EndStates:
    """The end states admissible from a batch of start pairs (x, t).

    Per state, in order of pair: the index of its pair, final interval, end
    point, summed weight (never 0, see ``_build_table``) and path count, a
    Python int in an object array.  ``tables`` path tables were built for
    the batch and ``states`` states propagated in them, of which
    ``zero_states`` were dropped for a summed weight of exactly 0;
    ``state_bound`` is the most states one table held; the guard compared
    them, with the words of their path counts (see ``_build_table``), with
    ``cap``.
    """

    pair: np.ndarray
    final: np.ndarray
    end: np.ndarray
    weight: np.ndarray
    count: np.ndarray
    tables: int
    states: int
    zero_states: int
    state_bound: int
    cap: int

    def sums(self, tol: float | None = None) -> EndSums:
        """Weights per distinct end, clustered with ``cluster_ends``: for
        the states of one pair, its end sums, and the path count of its
        states."""
        return _cluster(self.end, self.weight, self.count, tol, sum(self.count.tolist()))


@dataclass(frozen=True)
class PathTable:
    """End states of the admissible paths that start in one interval.

    Row s sums the paths that leave the start interval through
    ``exit_edge``, fully cross intervals of total length ``cum[s]`` and stop
    in interval ``final[s]``; ``weight[s]`` is their summed weight, never
    0, and ``count[s]`` their number, a Python int (object dtype), over the
    paths that pass only through states of nonzero weight.  From the start
    point x they spend r = |t| - (exit(x) + cum[s]) in the final interval,
    entered at ``entry[s]``; they are admissible when 0 <= r < ``length[s]``
    and end at x + ``shift[s]``.  That is the start range [lo, hi) forward
    and (lo, hi] backward; rows whose range misses the start interval for
    every time the table serves are dropped.  ``big_t`` is the largest
    |t| it serves, and ``shift`` is taken at that time.  The row of the path
    that stays in the start interval i has cum = -l_i: its remainder, like
    every other, is measured from the entry edge of its final interval.
    ``states`` counts the states propagated, dropped rows included, and
    ``zero_states`` those of them whose summed weight is exactly 0.
    """

    forward: bool
    big_t: float
    exit_edge: float
    final: np.ndarray
    entry: np.ndarray
    length: np.ndarray
    cum: np.ndarray
    shift: np.ndarray
    weight: np.ndarray
    count: np.ndarray
    states: int
    zero_states: int

    def read(self, xs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The states admissible from a batch of start pairs (xs[k], ts[k]),
        each t of the table's sign and of a magnitude it serves, with one
        (pairs x rows) mask: the index k of each admissible state's pair,
        its row index and its end point, in order of pair, then of row."""
        exit_time = self.exit_edge - xs if self.forward else xs - self.exit_edge
        rem = np.abs(ts)[:, None] - (exit_time[:, None] + self.cum)
        k, idx = np.nonzero((rem >= 0) & (rem < self.length))
        rem = rem[k, idx]
        return k, idx, self.entry[idx] + rem if self.forward else self.entry[idx] - rem


def _build_table(
    omega: IntervalUnion, b, i: int, t: float, t_min: float | None = None
) -> PathTable:
    """All end states of the admissible paths from interval i for time t.

    A state is the last interval j and the length covered by full
    traversals, as one integer multiple of the unit of each length class
    (``IntervalUnion.length_classes``): with rationally independent lengths
    that is the count vector k, with commensurable ones a single integer.
    The shift depends on k only through that length, so paths that meet in
    a state merge their weights and path counts.  The n states (j, m) of
    one covered length m form a node: they are created together, by the
    first crossing that reaches m, and share its covered length cum and
    their path count.  Nodes are propagated in order of cum, so a node is
    complete before it is extended, whatever number of crossings reaches
    it; extending it across interval j adds its weight of j times row j of
    B to the n weights of node m + m_j, one dictionary lookup per crossing.
    A node is keyed by one integer, the mixed-radix code of m, so a
    crossing adds a fixed positive offset and (cum, key) orders the heap:
    the order of one heap entry per state (cum, j, m), which sums every
    weight in the same order, as long as no two nodes share a float cum.
    A state stops the path for the x where 0 <= |t| - exit(x) - cum < l_j,
    with exit(x) the time to leave interval i; one (nodes x n) mask picks
    those rows at the end, in order of node, then of j.  The state where
    x + t stays in interval i is included.

    A state whose summed weight is exactly 0 adds exactly 0 to every end
    and every state after it: it is not extended, and the mask gives it no
    row.  A node is then reached only through states of nonzero weight, and
    its path count, a Python int, counts the words that pass only through
    such states.  On a permutation or weighted permutation B the table is
    one chain of nodes, one per crossing, where all words would reach one
    node per covered length.

    The guard counts as it pops: the node that would take the table past
    ``path_cap()`` raises GuardExceeded, where a node counts its n states
    and one more for every 64-bit word its path count takes beyond the
    first.  A count can grow by a bit a crossing, so without that charge
    the counts of a table within the cap could take memory and time
    quadratic in |t|.  A non-finite t raises ValidationError before any
    work.

    With ``t_min`` the table serves every time of the sign of t whose
    magnitude lies between |t_min| and |t|: it keeps each row admissible
    from some start point at one of those times, and ``PathTable.read``
    reads the rows of any of them.  By default it serves t alone.
    """
    cap = _cap(t)
    b = np.asarray(b, dtype=complex)
    forward = t >= 0
    big_t = abs(t)
    small_t = big_t if t_min is None else abs(t_min)
    n = omega.n
    a, c = omega.endpoints[i]
    lengths = omega.lengths
    weights = (b if forward else b.conj().T).tolist()
    classes = omega.length_classes
    # node keys: m in mixed radix, the first class most significant; a node
    # is at most _levels crossings deep, so m_c <= levels * largest multiple
    levels = _levels(omega, t)
    top = [0] * len(classes.units)
    for k, multiple in zip(classes.classes, classes.multiples):
        top[k] = max(top[k], multiple)
    stride, radix = [], 1
    for multiple in reversed(top):
        stride.append(radix)
        radix *= levels * multiple + 1
    stride.reverse()
    # per crossing of interval j: its length, key offset and row of weights
    crossings = [
        (length, classes.multiples[j] * stride[classes.classes[j]], weights[j])
        for j, length in enumerate(lengths)
    ]
    # pending nodes key -> [the n summed weights, path count]; the heap
    # orders them by cum, that of the first crossing to reach the node
    pending = {0: [list(weights[i]), 1]}
    heap = [(0.0, 0)]
    cums, node_weights, counts = [], [], []
    # the nodes the cap leaves room for, once it is charged the 64-bit words
    # the path counts kept take beyond one a node
    words, most = 0, cap // n
    while heap:
        cum, key = heapq.heappop(heap)
        w, count = pending.pop(key)
        if count >> 64:
            words += (count.bit_length() - 1) >> 6
            most = (cap - words) // n
        if len(cums) >= most:
            raise GuardExceeded(
                f"path table of interval {i} holds more than cap {cap} states for t={t}"
                + (f", counting {words} extra 64-bit words of path counts" if words else "")
            )
        cums.append(cum)
        node_weights.append(w)
        counts.append(count)
        for wj, (length, offset, row) in zip(w, crossings):
            cum_next = cum + length
            if not wj or cum_next >= big_t:
                continue  # weight 0, or no start point has time left to cross j
            key_next = key + offset
            target = pending.get(key_next)
            if target is None:
                pending[key_next] = [[wj * r for r in row], count]
                heapq.heappush(heap, (cum_next, key_next))
            else:
                target[0] = [s + wj * r for s, r in zip(target[0], row)]
                target[1] += count

    # The start range of a state, [lo, hi) at |t| = big_t stretched to cover
    # |t| = small_t, meets interval i iff cum < big_t and cum + l_j > reach;
    # a state of weight 0 gives no row.  First the row of the path that
    # stays in interval i, with cum = -l_i so that its remainder too is
    # measured from the entry edge of its final interval.
    reach = small_t - lengths[i]
    node_cum = np.array(cums)
    length = np.array(lengths)
    node_weight = np.array(node_weights, dtype=complex)
    nonzero = node_weight != 0
    node, final = np.nonzero(
        (node_cum[:, None] < big_t) & (node_cum[:, None] + length > reach) & nonzero
    )
    cum = node_cum[node]
    weight = node_weight[node, final]
    count = np.array(counts, dtype=object)[node]
    if reach < 0:
        final = np.concatenate(([i], final))
        cum = np.concatenate(([-lengths[i]], cum))
        weight = np.concatenate(([1.0 + 0j], weight))
        count = np.concatenate((np.ones(1, dtype=object), count))
    if forward:
        entry = np.array(omega.lefts)[final]
        shift = entry - c + t - cum
    else:
        entry = np.array(omega.rights)[final]
        shift = entry - a + t + cum
    return PathTable(
        forward,
        big_t,
        c if forward else a,
        final,
        entry,
        length[final],
        cum,
        shift,
        weight,
        count,
        n * len(cums),
        nonzero.size - int(np.count_nonzero(nonzero)),
    )


def end_states(omega: IntervalUnion, b, xs, ts) -> EndStates:
    """The end states admissible from each start pair (xs[k], ts[k]): xs and
    ts are equally long and not empty, or two scalars for one pair.

    The pairs that start in the same interval with t of the same sign share
    one path table, built for the largest |t| among them and serving down
    to the smallest (``_build_table``'s ``t_min``), and read with one mask
    (``PathTable.read``); each table guards itself as it is built.  Raises
    XNotInOmega when a start point is not in an open interval of the set,
    and ValidationError, before any table, when a t is not finite.
    """
    xs, ts = np.array(xs, dtype=float, ndmin=1), np.array(ts, dtype=float, ndmin=1)
    lefts, rights = np.array(omega.lefts), np.array(omega.rights)
    # the last interval starting at or before x (the first one for an x left
    # of the set); x is in it iff it lies strictly between its endpoints
    start = np.clip(np.searchsorted(lefts, xs, side="right") - 1, 0, None)
    outside = np.flatnonzero(~((lefts[start] < xs) & (xs < rights[start])))
    if outside.size:
        raise XNotInOmega(f"x={float(xs[outside[0]])} is not in an open interval of the set")
    cap = _cap(float(ts[np.argmax(np.abs(ts))]))
    # one table per (start interval, sign of t), read for all its pairs
    keys = 2 * start + (ts >= 0)
    reads = []
    states = zero_states = bound = 0
    for key in np.flatnonzero(np.bincount(keys)).tolist():
        members = np.flatnonzero(keys == key)
        times = ts[members]
        big = np.abs(times)
        table = _build_table(omega, b, key // 2, float(times[np.argmax(big)]), float(big.min()))
        states += table.states
        zero_states += table.zero_states
        bound = max(bound, table.states)
        k, idx, end = table.read(xs[members], times)
        reads.append((members[k], table.final[idx], end, table.weight[idx], table.count[idx]))
    pair, *columns = (np.concatenate(column) for column in zip(*reads))
    order = np.argsort(pair, kind="stable")
    return EndStates(
        pair[order],
        *(column[order] for column in columns),
        len(reads),
        states,
        zero_states,
        bound,
        cap,
    )


@dataclass
class EndSums:
    """Path weights aggregated by end point (merged within tolerance)."""

    sums: list[tuple[float, complex]]
    flagged: list[tuple[float, float]]  # clusters of analytically distinct ends
    path_count: int = 0

    def sum_at(self, e: float, tol: float = 1e-9) -> complex:
        for end, s in self.sums:
            if abs(end - e) <= tol:
                return s
        return 0.0 + 0j

    @property
    def ends(self) -> list[float]:
        return [end for end, _ in self.sums]


def cluster_ends(pairs, tol: float | None = None, path_count: int = 0) -> EndSums:
    """Sum of weights per distinct end over (end, weight) pairs.

    Ends closer than the merging tolerance but not numerically identical are
    merged and flagged rather than silently collapsed.
    """
    pairs = list(pairs)
    ends = np.array([e for e, _ in pairs], dtype=float)
    weights = np.array([w for _, w in pairs], dtype=complex)
    return _cluster(ends, weights, np.ones(len(pairs)), tol, path_count)


def _cluster(ends, weights, counts, tol, path_count) -> EndSums:
    """``cluster_ends`` on arrays: a cluster ends where the next end, in
    sorted order, lies more than tol beyond the last.  A merged end is the
    mean of its ends weighted by ``counts``, the number of paths behind
    each (Python ints, object dtype), so it does not depend on how paths
    were grouped into states.  Each count is divided, exactly rounded, by
    the largest of its cluster, so counts past the range of a float weigh
    in too."""
    if not len(ends):
        return EndSums([], [], path_count)
    order = np.argsort(ends)
    ends, weights, counts = ends[order], weights[order], np.asarray(counts)[order]
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ends))))
    starts = np.flatnonzero(np.r_[True, np.diff(ends) > tol])
    sizes = np.diff(np.r_[starts, len(ends)])
    counts = (counts / np.repeat(np.maximum.reduceat(counts, starts), sizes)).astype(float)
    first, last = ends[starts], ends[starts + sizes - 1]
    spread = np.add.reduceat((ends - np.repeat(first, sizes)) * counts, starts)
    mean = first + spread / np.add.reduceat(counts, starts)
    total = np.add.reduceat(weights, starts)
    wide = np.flatnonzero(last - first > 1e-13 * np.maximum(1.0, np.abs(first)))
    return EndSums(
        list(zip(mean.tolist(), total.tolist())),
        list(zip(first[wide].tolist(), last[wide].tolist())),
        path_count,
    )


def path_sum_by_end(paths: list[Path], tol: float | None = None) -> EndSums:
    """Sum of weights per distinct end of a list of paths (``cluster_ends``)."""
    return cluster_ends([(p.end, p.weight) for p in paths], tol, len(paths))


def end_sums(
    omega: IntervalUnion, b, x: float, t: float, tol: float | None = None
) -> EndSums:
    """Path weights per distinct end for one (x, t), from its end states."""
    return end_states(omega, b, x, t).sums(tol)


@dataclass
class TranslationIdentityReport:
    """Path-sum identities at a target point: weight 1 at x+t, 0 elsewhere."""

    passed: bool
    target: float
    target_sum: complex
    other_sums: list[tuple[float, complex]]
    offending: list[tuple[float, complex]]


def local_translation_identities(
    omega: IntervalUnion,
    b,
    x: float,
    t: float,
    tol: float = 1e-10,
    states: EndStates | None = None,
) -> TranslationIdentityReport:
    """Check the spectral-set path-sum identities for one (x, t) pair.

    ``states`` reuses the end states already read for (x, t); their ends are
    clustered here with the identities' own tolerance.
    """
    target = x + t
    if omega.index_of(target) is None:
        raise XPlusTNotInOmega(f"x+t={target} is not in an open interval of the set")
    end_tol = 1e-9 * max(1.0, abs(omega.endpoints[-1][1]))
    if states is None:
        states = end_states(omega, b, x, t)
    sums = states.sums(end_tol)
    target_sum = sums.sum_at(target, tol=end_tol)
    offending = []
    others = []
    if not any(abs(end - target) <= end_tol for end in sums.ends):
        offending.append((target, 0.0 + 0j))
    elif abs(target_sum - 1.0) > tol:
        offending.append((target, target_sum))
    for end, s in sums.sums:
        if abs(end - target) <= end_tol:
            continue
        others.append((end, s))
        if abs(s) > tol:
            offending.append((end, s))
    return TranslationIdentityReport(not offending, target, target_sum, others, offending)


def aggregate_equal_length(omega: IntervalUnion, b, x: float, t: float, p: int):
    """Path-weight aggregation on equal-length sets versus rows of B^p.

    For (p-1)l < t - (b_i - x) < p*l all paths share the same remainder and
    the coefficient of f(a_j + r) is [B^p]_{i,j}.  Returns (coefficients,
    matrix row, max difference).
    """
    b = np.asarray(b, dtype=complex)
    if not omega.equal_lengths():
        raise PreconditionViolated("intervals must have equal lengths")
    ell = omega.measure / omega.n
    i = omega.index_of(x)
    if i is None:
        raise XNotInOmega(f"x={x} is not in the set")
    tau = t - (omega.rights[i] - x)
    if not (p - 1) * ell < tau < p * ell:
        raise PreconditionViolated(
            f"need (p-1)l < t - (b_i - x) < p*l, got {tau} with l={ell}, p={p}"
        )
    states = end_states(omega, b, x, t)
    coeffs = np.zeros(omega.n, dtype=complex)
    np.add.at(coeffs, states.final, states.weight)
    row = np.linalg.matrix_power(b, p)[i]
    return coeffs, row, float(np.max(np.abs(coeffs - row)))

