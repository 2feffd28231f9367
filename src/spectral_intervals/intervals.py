"""Unions of finite open intervals and their set-level geometry.

An :class:`IntervalUnion` is an ordered union of disjoint finite open
intervals (a_1, b_1), ..., (a_n, b_n).  Adjacent intervals may share an
endpoint (b_i = a_{i+1}) but never overlap.  All operations here are pure
functions on immutable values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyInterval,
    GuardExceeded,
    MoveCollision,
    NonFinite,
    OverlappingIntervals,
    ValidationError,
)

#: cap on the number of nodes visited by the gap decomposition search
COMBINATION_CAP = 10 ** 6


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint finite open intervals."""

    endpoints: tuple[tuple[float, float], ...]

    @property
    def n(self) -> int:
        return len(self.endpoints)

    @cached_property
    def lefts(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.endpoints)

    @cached_property
    def rights(self) -> tuple[float, ...]:
        return tuple(b for _, b in self.endpoints)

    @cached_property
    def lengths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in self.endpoints)

    @cached_property
    def gaps(self) -> tuple[float, ...]:
        eps = self.endpoints
        return tuple(eps[i + 1][0] - eps[i][1] for i in range(self.n - 1))

    @cached_property
    def measure(self) -> float:
        return sum(self.lengths)

    @property
    def lmin(self) -> float:
        return min(self.lengths)

    @property
    def diameter(self) -> float:
        return self.endpoints[-1][1] - self.endpoints[0][0]

    def tol(self) -> float:
        """Absolute comparison tolerance, scaled by the largest endpoint."""
        return 1e-9 * max(1.0, abs(self.endpoints[-1][1]), abs(self.endpoints[0][0]))

    def index_of(self, x: float) -> int | None:
        """Index of the open interval containing x, or None."""
        for i, (a, b) in enumerate(self.endpoints):
            if a < x < b:
                return i
        return None

    def __contains__(self, x: float) -> bool:
        return self.index_of(x) is not None

    def equal_lengths(self) -> bool:
        ls = self.lengths
        return max(ls) - min(ls) <= self.tol()

    @cached_property
    def length_classes(self) -> Commensurability:
        """The commensurability classes of the interval lengths.

        ``commensurability`` with a tolerance of 1e-12 times the scale of
        the endpoints (``tol() / 1000``): far above the rounding of an
        endpoint, far below any tolerance an end is compared with, so
        1 : 1 + 5e-8 stays two classes.  Every length is an integer
        multiple of the unit of its class.
        """
        return commensurability(self.lengths, self.tol() / 1000)


@dataclass(frozen=True)
class CongruenceMap:
    """Whole-interval shifts, all multiples of ``modulus``, tiling an interval.

    ``pieces`` lists (source interval index, shift).
    """

    pieces: tuple[tuple[int, float], ...]
    modulus: float


@dataclass(frozen=True)
class Commensurability:
    """Classes of rationally related values.

    Value j is ``multiples[j] * units[classes[j]]``; the multiples of one
    class are coprime positive integers.
    """

    classes: tuple[int, ...]
    multiples: tuple[int, ...]
    units: tuple[float, ...]


#: largest denominator of a ratio that makes two values commensurable
MAX_DENOMINATOR = 64


def commensurability(values, tol: float) -> Commensurability:
    """Group positive values into classes of integer multiples of one unit.

    Every value starts as a class of its own, with itself as unit; values
    within ``tol`` of each other start as one class.  Class b fits class a
    when unit b is (p/q) times unit a, with q at most ``MAX_DENOMINATOR``,
    to within ``tol`` over the largest multiple of b, so that every value
    of b stays within ``tol``.  Classes that fit in either direction merge
    into one class with the finer unit (unit a / q).  Every value is still
    an integer multiple of that unit, so a class that fit one of them fits
    the merged class too.  Each round tests all pairs of classes at once
    and merges every connected set of fitting classes, until none fits
    another.  So the partition does not depend on the order
    of the values: (1, 1.01, 1.02) is one class of unit 0.01 although
    1.01 / 1 = 101/100.  A merge whose unit would fall below
    ``MAX_DENOMINATOR**2 * tol`` is refused: near that unit nearly every
    value lies within ``tol`` of some (p/q) * unit, and the test no longer
    tells commensurable values apart.  Classes are numbered in order of
    their first value, and the multiples of one class are coprime.
    """
    qs = np.arange(1, MAX_DENOMINATOR + 1)
    floor = MAX_DENOMINATOR ** 2 * tol
    # one entry per class, in order of its first value: the indices of its
    # values (the first one smallest), their multiples of the unit, the unit.
    # A value within tol of the next smaller one fits it at p = q = 1, so the
    # first round would merge them: they start in one class
    values = [float(v) for v in values]
    runs: list[list[int]] = []
    for j in sorted(range(len(values)), key=values.__getitem__):
        if runs and values[j] - values[runs[-1][-1]] <= tol:
            runs[-1].append(j)
        else:
            runs.append([j])
    classes = sorted(
        ((sorted(run), [1] * len(run), values[min(run)]) for run in runs),
        key=lambda cls: cls[0][0],
    )
    merged = True
    while merged and len(classes) > 1:
        u = np.array([unit for _, _, unit in classes])
        slack = np.array([tol / max(ms) for _, ms, _ in classes])
        # x[a, b, q - 1] = q * unit b / unit a: class b fits class a at q
        # when x is within slack[b] * q / unit a of an integer p >= 1
        x = np.multiply.outer(u / u[:, None], qs)
        p = np.rint(x)
        fit = (p >= 1) & (np.abs(x - p) <= np.multiply.outer(slack / u[:, None], qs))
        fits = fit.any(axis=2)
        np.fill_diagonal(fits, False)
        a_idx, b_idx = np.nonzero(fits)
        if not len(a_idx):
            break
        # links[a]: (b, num, den) with unit b = num/den * unit a, q smallest
        q = fit[a_idx, b_idx].argmax(axis=1)
        links = [[] for _ in classes]
        for a, b, num, den in zip(
            a_idx.tolist(), b_idx.tolist(), p[a_idx, b_idx, q].tolist(), (q + 1).tolist()
        ):
            links[a].append((b, int(num), den))
            links[b].append((a, den, int(num)))
        seen = [False] * len(classes)
        merged, next_classes = False, []
        for root in range(len(classes)):
            if seen[root]:
                continue
            # unit c = num/den * unit root, over the classes linked to root
            scale, frontier = {root: (1, 1)}, [root]
            while frontier:
                a = frontier.pop()
                for b, num, den in links[a]:
                    if b not in scale:
                        num, den = num * scale[a][0], den * scale[a][1]
                        common = math.gcd(num, den)
                        scale[b] = (num // common, den // common)
                        frontier.append(b)
            group = sorted(scale)
            for c in group:
                seen[c] = True
            if len(group) > 1:
                den = math.lcm(*(d for _, d in scale.values()))
                whole = []
                for c in group:
                    n, d = scale[c]
                    whole += [m * n * (den // d) for m in classes[c][1]]
                common = math.gcd(*whole)
                unit = classes[root][2] * common / den
                if unit >= floor:
                    members = [j for c in group for j in classes[c][0]]
                    next_classes.append((members, [m // common for m in whole], unit))
                    merged = True
                    continue
            next_classes.extend(classes[c] for c in group)
        classes = sorted(next_classes, key=lambda cls: cls[0][0])
    labels, multiples = [0] * len(values), [0] * len(values)
    for c, (members, ms, _) in enumerate(classes):
        for j, m in zip(members, ms):
            labels[j], multiples[j] = c, m
    return Commensurability(
        tuple(labels), tuple(multiples), tuple(unit for _, _, unit in classes)
    )


def new_interval_union(endpoints) -> IntervalUnion:
    """Validate and sort a list of (a, b) pairs into an IntervalUnion."""
    if not endpoints:
        raise EmptyInterval("need at least one interval")
    eps = []
    for pair in endpoints:
        a, b = float(pair[0]), float(pair[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFinite(f"non-finite endpoint in ({a}, {b})")
        eps.append((a, b))
    eps.sort()
    scale = max(1.0, *(abs(v) for pair in eps for v in pair))
    tol = 1e-9 * scale
    for a, b in eps:
        if b - a <= tol:
            raise EmptyInterval(f"interval ({a}, {b}) has nonpositive length")
    for (a1, b1), (a2, b2) in zip(eps, eps[1:]):
        if a2 < b1 - tol:
            raise OverlappingIntervals(
                f"intervals ({a1}, {b1}) and ({a2}, {b2}) overlap"
            )
    return IntervalUnion(tuple(eps))


def gap_decomposition(omega: IntervalUnion, gap: float, tol: float | None = None):
    """All multisets of interval lengths (repetition allowed) summing to ``gap``.

    Returns a sorted list of tuples of length values; empty if no combination
    fits.  Lengths equal within tolerance are merged to one value, so two
    witnesses with the same length multiset collapse.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    tol = omega.tol() if tol is None else tol
    # cluster lengths into distinct values
    values: list[float] = []
    for l in sorted(omega.lengths):
        if not values or l - values[-1] > tol:
            values.append(l)
    max_terms = math.ceil((gap + tol) / omega.lmin)
    results: set[tuple[float, ...]] = set()
    # depth first, one iterator over the next value per chosen value, so
    # that a deep search takes no recursion; totals[d] sums chosen[:d]
    chosen: list[float] = []
    totals = [0.0]
    frames = [iter(range(len(values)))]
    nodes = 1
    while frames:
        for k in frames[-1]:
            nodes += 1
            if nodes > COMBINATION_CAP:
                raise GuardExceeded(
                    f"gap decomposition search exceeded {COMBINATION_CAP} nodes"
                )
            total = totals[-1] + values[k]
            chosen.append(values[k])
            if abs(total - gap) <= tol:
                results.add(tuple(chosen))
            elif total <= gap + tol and len(chosen) < max_terms:
                totals.append(total)
                frames.append(iter(range(k, len(values))))
                break
            chosen.pop()
        else:
            frames.pop()
            totals.pop()
            if chosen:
                chosen.pop()
    return sorted(results)


def tiles_by_lattice(omega: IntervalUnion, a: float, tol: float | None = None):
    """Whether the translates {omega + k*a} partition R up to measure zero.

    Equivalent to the mod-a reductions of the intervals covering [0, a)
    exactly once.  Returns (bool, certificate) where the certificate lists
    the mod-a pieces and any holes/overlaps found.
    """
    if a <= 0:
        raise ValueError("lattice step must be positive")
    tol = omega.tol() if tol is None else tol
    pieces = []
    for i, (lo, hi) in enumerate(omega.endpoints):
        k = math.floor(lo / a)
        while k * a < hi - tol:
            s = max(lo, k * a)
            e = min(hi, (k + 1) * a)
            if e - s > tol:
                pieces.append((s - k * a, e - k * a, i))
            k += 1
    pieces.sort()
    holes = []
    overlaps = []
    pos = 0.0
    for s, e, _ in pieces:
        if s > pos + tol:
            holes.append((pos, s))
        elif s < pos - tol:
            overlaps.append((s, min(e, pos)))
        pos = max(pos, e)
    if pos < a - tol:
        holes.append((pos, a))
    ok = not holes and not overlaps
    certificate = {"pieces": pieces, "holes": holes, "overlaps": overlaps}
    return ok, certificate


def translates_disjoint(omega: IntervalUnion, a: float, tol: float | None = None) -> bool:
    """True iff omega and omega + k*a overlap in measure zero for every k != 0."""
    if a == 0:
        raise ValueError("shift must be nonzero")
    tol = omega.tol() if tol is None else tol
    kmax = math.ceil(omega.diameter / abs(a))
    for k in range(1, kmax + 1):
        shift = k * abs(a)
        overlap = 0.0
        for a1, b1 in omega.endpoints:
            for a2, b2 in omega.endpoints:
                lo = max(a1, a2 + shift)
                hi = min(b1, b2 + shift)
                if hi - lo > 0:
                    overlap += hi - lo
        if overlap > tol:
            return False
    return True


def translation_congruence_to_interval(
    omega: IntervalUnion, a: float, tol: float | None = None
) -> CongruenceMap | None:
    """Shift whole intervals by multiples of ``a`` onto (a_1, a_1 + L).

    Returns the congruence map, or None if no assignment of shifts in a*Z
    tiles the target interval with the intervals of omega.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValidationError(f"modulus must be positive and finite, got {a}")
    tol = omega.tol() if tol is None else tol
    target_lo = omega.endpoints[0][0]
    lengths = omega.lengths

    def backtrack(pos: float, used: list[int | None], order: list[tuple[int, float]]):
        if len(order) == omega.n:
            return list(order)
        for j in range(omega.n):
            if j in (idx for idx, _ in order):
                continue
            shift = pos - omega.endpoints[j][0]
            k = round(shift / a)
            if abs(shift - k * a) > tol:
                continue
            order.append((j, k * a))
            found = backtrack(pos + lengths[j], used, order)
            if found is not None:
                return found
            order.pop()
        return None

    solution = backtrack(target_lo, [], [])
    if solution is None:
        return None
    return CongruenceMap(tuple(solution), a)


def reflect(omega: IntervalUnion) -> IntervalUnion:
    """The reflected set -omega, re-sorted."""
    return IntervalUnion(tuple((-b, -a) for a, b in reversed(omega.endpoints)))


def move_interval(omega: IntervalUnion, j: int, i: int) -> IntervalUnion:
    """Move interval j to the end of interval i (0-based indices).

    The result keeps every other interval and replaces intervals i and j by
    (a_i, a_i + l_i + l_j).  Raises MoveCollision if the enlarged interval
    overlaps a third one.
    """
    if i == j:
        raise ValueError("source and destination must differ")
    for idx in (i, j):
        if not 0 <= idx < omega.n:
            raise IndexError(f"interval index {idx} out of range")
    a_i = omega.endpoints[i][0]
    merged = (a_i, a_i + omega.lengths[i] + omega.lengths[j])
    kept = [omega.endpoints[k] for k in range(omega.n) if k not in (i, j)]
    try:
        return new_interval_union(kept + [merged])
    except OverlappingIntervals as exc:
        raise MoveCollision(str(exc)) from exc
