"""Admissible paths of the unitary group flow.

A point x flows to the right (t > 0) inside its interval, and at each right
endpoint splits into all intervals with weights from the corresponding row
of B.  An admissible path records the visited interval indices; its weight
is the product of matrix entries along the word, its remainder the time
spent inside the final interval.  Negative times mirror the construction
through left endpoints with adjoint weights.

A path that leaves interval i, fully crosses intervals with count vector k
and stops in interval j ends at x + shift(j, k), and it is admissible for
every x of one start range.  ``path_table`` propagates weights forward over
these end states (j, k) once per interval, so callers that need only end
sums never build the paths themselves; ``enumerate_paths`` lists single
paths for reports and per-path checks.  The rows also give every point where
the sum over paths changes with x: the edges of their start ranges, and the
start points whose end x + shift meets a breakpoint of the function summed.
"""
from __future__ import annotations

import math
import os
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


def predicted_path_count(omega: IntervalUnion, t: float) -> int:
    """Upper bound n^(ceil(|t|/lmin) + 1) on the number of admissible paths."""
    return omega.n ** (math.ceil(abs(t) / omega.lmin) + 1)


def check_path_guard(omega: IntervalUnion, t: float, max_paths: int | None = None) -> int:
    """Raise GuardExceeded when the predicted path count passes the cap.

    The cap defaults to 10^6, overridable via SPECTRAL_INTERVALS_MAX_PATHS.
    Returns the cap; a non-finite t raises ValidationError.
    """
    if not math.isfinite(t):
        raise ValidationError(f"t must be a finite number, got {t}")
    cap = path_cap() if max_paths is None else max_paths
    predicted = predicted_path_count(omega, t)
    if predicted > cap:
        raise GuardExceeded(
            f"predicted path count {predicted} exceeds cap {cap} for t={t}"
        )
    return cap


def enumerate_paths(
    omega: IntervalUnion, b, x: float, t: float, max_paths: int | None = None
) -> list[Path]:
    """The complete set of admissible paths for (x, t).

    Raises GuardExceeded when the predicted or actual path count passes the
    cap (see ``check_path_guard``).
    """
    b = np.asarray(b, dtype=complex)
    i = omega.index_of(x)
    if i is None:
        raise XNotInOmega(f"x={x} is not in an open interval of the set")
    cap = check_path_guard(omega, t, max_paths)

    forward = t >= 0
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
        return [Path((i,), "forward" if forward else "backward", r, end, 1.0 + 0j)]

    paths: list[Path] = []

    def extend(word: list[int], elapsed: float, weight: complex):
        if len(paths) > cap:
            raise GuardExceeded(f"path count exceeded cap {cap}")
        j_prev = word[-1]
        for j in range(n):
            w = weight * weights[j_prev, j]
            remaining = big_t - elapsed
            if remaining < lengths[j]:
                end = lefts[j] + remaining if forward else rights[j] - remaining
                paths.append(
                    Path(
                        tuple(word) + (j,),
                        "forward" if forward else "backward",
                        remaining,
                        end,
                        complex(w),
                    )
                )
            else:
                word.append(j)
                extend(word, elapsed + lengths[j], w)
                word.pop()

    extend([i], exit_time, 1.0 + 0j)
    return paths


@dataclass(frozen=True)
class EndStates:
    """The end states admissible from one start point x.

    Per state: final interval, end point, summed weight and path count.
    """

    final: np.ndarray
    end: np.ndarray
    weight: np.ndarray
    count: np.ndarray

    def sums(self, tol: float | None = None) -> EndSums:
        """Weights per distinct end, clustered with ``cluster_ends``."""
        pairs = zip(self.end.tolist(), self.weight.tolist())
        return cluster_ends(pairs, tol, int(self.count.sum()))


@dataclass(frozen=True)
class PathTable:
    """End states (j, k) of the admissible paths that start in one interval.

    Row s sums the paths that leave the start interval through
    ``exit_edge``, fully cross intervals with count vector k (total length
    ``cum[s]`` = k.l) and stop in interval ``final[s]``; ``weight[s]`` is
    their summed weight and ``count[s]`` their number.  From the start point
    x they spend r = |t| - (exit(x) + cum[s]) in the final interval, entered
    at ``entry[s]``; they are admissible when 0 <= r < ``length[s]`` and end
    at x + ``shift[s]``.  That is the start range [lo, hi) forward and
    (lo, hi] backward; rows whose range misses the start interval for
    every time the table serves are dropped.  ``big_t`` is the largest
    |t| it serves, and ``shift`` is taken at that time.  The row of the path
    that stays in the start interval i has cum = -l_i: its remainder, like
    every other, is measured from the entry edge of its final interval.
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

    def select(self, x: float, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of the states admissible from x at time t, and their
        end points; t has the table's sign and a magnitude the table serves."""
        exit_time = self.exit_edge - x if self.forward else x - self.exit_edge
        rem = abs(t) - (exit_time + self.cum)
        idx = np.flatnonzero((rem >= 0) & (rem < self.length))
        rem = rem[idx]
        return idx, self.entry[idx] + rem if self.forward else self.entry[idx] - rem

    def at(self, x: float) -> EndStates:
        """The states admissible from x at the table's time."""
        idx, ends = self.select(x, self.big_t)
        return EndStates(self.final[idx], ends, self.weight[idx], self.count[idx])


def path_table(
    omega: IntervalUnion,
    b,
    i: int,
    t: float,
    max_paths: int | None = None,
    t_min: float | None = None,
) -> PathTable:
    """All end states of the admissible paths from interval i for time t.

    Forward propagation over states (last interval j, count vector k of full
    traversals), merging weights and path counts per state; a state stops
    the path for the x where 0 <= |t| - exit(x) - k.l < l_j, with exit(x)
    the time to leave interval i.  The state where x + t stays in interval i
    is included.  The predicted-count guard runs before any state is built.

    With ``t_min`` the table serves every time of the sign of t whose
    magnitude lies between |t_min| and |t|: it keeps each row admissible
    from some start point at one of those times, and ``select`` reads the
    rows of any of them.  By default it serves t alone.
    """
    check_path_guard(omega, t, max_paths)
    b = np.asarray(b, dtype=complex)
    forward = t >= 0
    big_t = abs(t)
    small_t = big_t if t_min is None else abs(t_min)
    n = omega.n
    a, c = omega.endpoints[i]
    lefts, rights, lengths = omega.lefts, omega.rights, omega.lengths
    weights = (b if forward else b.conj().T).tolist()
    rows: list[tuple] = []

    def add_row(j, cum, weight, count):
        # the start range at |t| = big_t, stretched to cover |t| = small_t
        if forward:
            lo = c - big_t + cum
            hi = c - small_t + cum + lengths[j]
            entry, shift = lefts[j], lefts[j] - c + t - cum
        else:
            hi = a + big_t - cum
            lo = a + small_t - cum - lengths[j]
            entry, shift = rights[j], rights[j] - a + t + cum
        if max(lo, a) < min(hi, c):
            rows.append((j, entry, lengths[j], cum, shift, weight, count))

    add_row(i, -lengths[i], 1.0 + 0j, 1)
    # one generation holds the states with |k| full traversals:
    # (j, k) -> [cumulative length k.l, summed weight, path count]
    level = {(j, (0,) * n): [0.0, weights[i][j], 1] for j in range(n)}
    while level:
        nxt: dict = {}
        for (j, k), (cum, w, m) in level.items():
            add_row(j, cum, w, m)
            cum_next = cum + lengths[j]
            if cum_next >= big_t:
                continue  # no start point has time left to cross j
            k_next = k[:j] + (k[j] + 1,) + k[j + 1:]
            row = weights[j]
            for jj in range(n):
                state = nxt.get((jj, k_next))
                if state is None:
                    nxt[(jj, k_next)] = [cum_next, w * row[jj], m]
                else:
                    state[1] += w * row[jj]
                    state[2] += m
        level = nxt

    cols = list(zip(*rows))
    dtypes = (int, float, float, float, float, complex, np.int64)
    return PathTable(
        forward,
        big_t,
        c if forward else a,
        *(np.array(col, dtype=dt) for col, dt in zip(cols, dtypes)),
    )


def states_at(omega: IntervalUnion, b, x: float, t: float) -> EndStates:
    """The end states admissible from the single start point x."""
    i = omega.index_of(x)
    if i is None:
        raise XNotInOmega(f"x={x} is not in an open interval of the set")
    return path_table(omega, b, i, t).at(x)


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
    ordered = sorted(pairs, key=lambda p: p[0])
    if not ordered:
        return EndSums([], [], path_count)
    if tol is None:
        tol = 1e-9 * max(1.0, max(abs(e) for e, _ in ordered))
    sums: list[tuple[float, complex]] = []
    flagged: list[tuple[float, float]] = []
    cluster: list[tuple[float, complex]] = []

    def close_cluster():
        ends = [e for e, _ in cluster]
        total = sum(w for _, w in cluster)
        sums.append((sum(ends) / len(ends), complex(total)))
        if ends[-1] - ends[0] > 1e-13 * max(1.0, abs(ends[0])):
            flagged.append((ends[0], ends[-1]))

    for e, w in ordered:
        if cluster and e - cluster[-1][0] > tol:
            close_cluster()
            cluster = []
        cluster.append((e, w))
    close_cluster()
    return EndSums(sums, flagged, path_count)


def path_sum_by_end(paths: list[Path], tol: float | None = None) -> EndSums:
    """Sum of weights per distinct end of a list of paths (``cluster_ends``)."""
    return cluster_ends([(p.end, p.weight) for p in paths], tol, len(paths))


def end_sums(
    omega: IntervalUnion, b, x: float, t: float, tol: float | None = None
) -> EndSums:
    """Path weights per distinct end for one (x, t), from the end-state table."""
    return states_at(omega, b, x, t).sums(tol)


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
        states = states_at(omega, b, x, t)
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
    states = path_table(omega, b, i, t).at(x)
    coeffs = np.zeros(omega.n, dtype=complex)
    np.add.at(coeffs, states.final, states.weight)
    row = np.linalg.matrix_power(b, p)[i]
    return coeffs, row, float(np.max(np.abs(coeffs - row)))

