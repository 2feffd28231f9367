"""Exact time evolution of piecewise exponential-polynomial functions.

U(t) moves every admissible-path contribution by a pure shift, so on the
class of functions that are finite sums of p(x)*e^{2*pi*i*lambda*x} per
interval the evolution is closed algebra: the result is again such a
function, on a refinement of the intervals.  A ``PiecewiseExpPoly`` is
stored as arrays only: piece ends, and per piece its atoms' frequencies and
zero-padded coefficients; ``pieces`` reads them as ``Piece``/``Atom``
records.  ``apply_U_paths`` computes U(t)f on those arrays: one path table
per interval, read at the midpoints of all its sub-pieces at once, then one
batched shift, scaling and merge of the atoms of f for every sub-piece.
``evaluate`` is one search over the piece starts and one vectorised sum
over the atoms (``_atom_values``, the evaluator of the local-translation
trials too).  ``inner_product`` makes one row per piece of the common
refinement and pair of atoms, all integrated by one call of the kernel
``_poly_exp_integral``.  The spectral (eigenbasis) evolution serves as an
independent functional-calculus oracle.
"""
from __future__ import annotations

import bisect
import math
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import cis, reflected_boundary_matrix
from .errors import NotEigenCombination, ValidationError, XNotInOmega
from .intervals import IntervalUnion, reflect as reflect_set
from .paths import _build_table, _cap, end_states
from .spectrum import SpectrumReport

MAX_DEGREE = 8
PROBE_POINTS_PER_PIECE = 64


def shift_polys(coeffs: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Row r of the result holds the coefficients of p_r(x + deltas[r]), p_r
    given by row r of ``coeffs`` (ascending, zero-padded to a common
    length).  Repeated synthetic division by x - delta, one vector step per
    pair of degrees."""
    out = np.array(coeffs, dtype=complex).T
    size = len(out)
    for k in range(size - 1):
        for j in range(size - 2, k - 1, -1):
            out[j] += deltas * out[j + 1]
    return out.T


@dataclass(frozen=True)
class Atom:
    """One term p(x) * e^{2*pi*i*freq*x} with ascending poly coefficients."""

    freq: float
    coeffs: tuple[complex, ...]


@dataclass(frozen=True)
class Piece:
    """The atoms of a function on the piece (lo, hi)."""

    lo: float
    hi: float
    atoms: tuple[Atom, ...]


def _atom_values(freq: np.ndarray, coeffs: np.ndarray, xs) -> np.ndarray:
    """Sum over the atom axis of p(x) * e^{2*pi*i*freq*x}.

    ``freq`` is (..., atoms), ``coeffs`` (..., atoms, degree + 1) and ``xs``
    broadcasts against the leading axes ``...``.
    """
    xs = np.asarray(xs, dtype=float)[..., None]
    acc = 0j
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        acc = acc * xs + coeffs[..., k]
    return np.sum(acc * cis(freq * xs), axis=-1)


def _merge(piece, freq, coeffs, size):
    """Flat atoms (piece, frequency, coefficients, coefficient count per
    row) sorted by piece and frequency, with the atoms of one frequency on
    one piece summed into one.  Frequencies merge only when exactly equal;
    the sum keeps the coefficient count of its longest term, trailing zeros
    included, because ``_poly_exp_integral`` picks its method by degree.
    Equal keys sum in the order of their rows."""
    order = np.lexsort((freq, piece))
    piece, freq = piece[order], freq[order]
    starts = np.ones(len(piece), dtype=bool)
    starts[1:] = (piece[1:] != piece[:-1]) | (freq[1:] != freq[:-1])
    first = np.flatnonzero(starts)
    if not len(first):
        return piece, freq, coeffs, size
    coeffs = np.add.reduceat(coeffs[order], first)
    return piece[first], freq[first], coeffs, np.maximum.reduceat(size[order], first)


@dataclass(frozen=True, eq=False)
class PiecewiseExpPoly:
    """Function on an interval union, exp-poly on each (refined) piece.

    It is stored as arrays: the ends ``lo`` and ``hi`` of its P pieces, in
    ascending order, and their numbers of ``atoms``; per piece, the
    frequencies ``freq`` (P, A), ascending coefficients ``coeffs``
    (P, A, D) and coefficient counts ``size`` (P, A) of its atoms,
    zero-padded to A atoms of D coefficients.  The atoms of a piece have
    distinct frequencies, in ascending order, and D is the largest
    coefficient count (at least 1).  ``pieces`` reads them as ``Piece``
    records.
    """

    omega: IntervalUnion
    lo: np.ndarray
    hi: np.ndarray
    atoms: np.ndarray
    freq: np.ndarray
    coeffs: np.ndarray
    size: np.ndarray

    @classmethod
    def scatter(cls, omega: IntervalUnion, lo, hi, piece, freq, coeffs, size) -> "PiecewiseExpPoly":
        """From flat atoms, in any order: atom r lies on piece ``piece[r]``
        with frequency ``freq[r]``, coefficients ``coeffs[r]`` (zero-padded)
        and coefficient count ``size[r]``.  The atoms of one frequency on
        one piece merge into one (``_merge``)."""
        piece, freq, coeffs, size = _merge(piece, freq, coeffs, size)
        atoms = np.bincount(piece, minlength=len(lo))
        slot = np.arange(len(piece)) - (np.cumsum(atoms) - atoms)[piece]
        shape = (len(lo), int(atoms.max(initial=0)))
        width = int(size.max(initial=1))
        padded = (
            np.zeros(shape),
            np.zeros((*shape, width), dtype=complex),
            np.zeros(shape, dtype=int),
        )
        for out, flat in zip(padded, (freq, coeffs[:, :width], size)):
            out[piece, slot] = flat
        return cls(omega, lo, hi, atoms, *padded)

    @classmethod
    def from_pieces(cls, omega: IntervalUnion, pieces) -> "PiecewiseExpPoly":
        """From ``Piece`` records: one or more, ascending and pairwise
        disjoint, of degree at most MAX_DEGREE, else ValidationError.
        Neighbours may overlap by ``omega.tol()``, as neighbouring
        intervals of omega may."""
        pieces = tuple(pieces)
        lo = np.array([p.lo for p in pieces], dtype=float)
        hi = np.array([p.hi for p in pieces], dtype=float)
        if not len(lo) or (hi < lo).any() or (lo[1:] < hi[:-1] - omega.tol()).any():
            raise ValidationError("need one or more pieces, ascending and disjoint")
        flat = [(k, atom) for k, p in enumerate(pieces) for atom in p.atoms]
        size = np.array([len(atom.coeffs) for _, atom in flat], dtype=int)
        width = int(size.max(initial=1))
        if width - 1 > MAX_DEGREE:
            raise ValidationError(f"polynomial degree above {MAX_DEGREE}")
        coeffs = np.zeros((len(flat), width), dtype=complex)
        for row, (_, atom) in zip(coeffs, flat):
            row[: len(atom.coeffs)] = atom.coeffs
        return cls.scatter(
            omega,
            lo,
            hi,
            np.array([k for k, _ in flat], dtype=int),
            np.array([atom.freq for _, atom in flat], dtype=float),
            coeffs,
            size,
        )

    @classmethod
    def from_atoms(cls, omega: IntervalUnion, atoms_by_interval) -> "PiecewiseExpPoly":
        """One piece per interval of omega; atoms as (freq, coeffs) pairs."""
        if len(atoms_by_interval) != omega.n:
            raise ValidationError("need one atom list per interval")
        return cls.from_pieces(
            omega,
            (
                Piece(lo, hi, tuple(Atom(freq, coeffs) for freq, coeffs in atoms))
                for (lo, hi), atoms in zip(omega.endpoints, atoms_by_interval)
            ),
        )

    @classmethod
    def exponential(cls, omega: IntervalUnion, lam: float, amplitudes=None):
        """e_lambda, optionally with a constant amplitude per interval."""
        if amplitudes is None:
            amplitudes = [1.0] * omega.n
        return cls.from_atoms(
            omega, [[(lam, (complex(a),))] for a in amplitudes]
        )

    @classmethod
    def bump(cls, omega: IntervalUnion):
        """(x - a)(c - x) on every interval (a, c): it vanishes at every
        endpoint, so it lies in the domain of every boundary matrix."""
        return cls.from_atoms(omega, [[(0.0, (-a * c, a + c, -1.0))] for a, c in omega.endpoints])

    @classmethod
    def zero(cls, omega: IntervalUnion):
        return cls.from_atoms(omega, [[] for _ in range(omega.n)])

    @property
    def pieces(self) -> tuple[Piece, ...]:
        """The pieces as ``Piece`` records of ``Atom`` records, built on each
        call."""
        columns = (self.lo, self.hi, self.atoms, self.freq, self.coeffs, self.size)
        return tuple(
            Piece(lo, hi, tuple(Atom(f, tuple(c[:m])) for f, c, m in zip(fr[:k], co, sz)))
            for lo, hi, k, fr, co, sz in zip(*(column.tolist() for column in columns))
        )

    def _atoms_of(self, k: np.ndarray):
        """The atoms of the pieces k[0], k[1], ...: for each, the position r
        in k of its piece, its frequency, coefficients and coefficient
        count, in order of r."""
        r, a = np.nonzero(np.arange(self.freq.shape[1]) < self.atoms[k, None])
        return r, self.freq[k[r], a], self.coeffs[k[r], a], self.size[k[r], a]

    def evaluate(self, xs):
        """f at a point or an array of points, in one pass: each point on the
        last piece that starts at or before it (the first piece for a point
        left of all)."""
        xs = np.asarray(xs, dtype=float)
        k = np.clip(np.searchsorted(self.lo, xs, side="right") - 1, 0, len(self.lo) - 1)
        return _atom_values(self.freq[k], self.coeffs[k], xs)

    def __call__(self, xs):
        return self.evaluate(xs)

    def containing(self, xs: np.ndarray) -> np.ndarray:
        """The piece of each point: the last one with lo <= x <= hi.  Raises
        XNotInOmega for a point outside every piece."""
        k = np.searchsorted(self.lo, xs, side="right") - 1
        outside = (k < 0) | (xs > self.hi[np.maximum(k, 0)])
        if outside.any():
            raise XNotInOmega(f"point {float(xs[np.argmax(outside)])} is outside every piece")
        return k

    def boundary_values(self):
        """One-sided limits (f(a_vec), f(b_vec)) at the interval endpoints:
        f(a_i) on the piece of least lo among those that start within tol of
        a_i or hold it, f(b_i) on the piece of largest hi among those that end
        within tol of b_i or hold it.  Raises XNotInOmega for an endpoint that
        no piece reaches."""
        tol = self.omega.tol()
        a, b = np.array(self.omega.lefts), np.array(self.omega.rights)
        values = []
        for x, edge, sign in ((a, self.lo, 1.0), (b, self.hi, -1.0)):
            col = x[:, None]
            reach = (np.abs(edge - col) <= tol) | ((self.lo <= col) & (col <= self.hi))
            key = np.where(reach, sign * edge, np.inf)  # the least lo or the largest hi
            missed = ~reach.any(axis=1)
            if missed.any():
                raise XNotInOmega(f"point {float(x[np.argmax(missed)])} is outside every piece")
            k = key.argmin(axis=1)
            values.append(_atom_values(self.freq[k], self.coeffs[k], x))
        return tuple(values)

    def reflect(self) -> "PiecewiseExpPoly":
        """The function J f on -omega, (Jf)(x) = f(-x): piece k of the P
        pieces becomes piece P - 1 - k, every atom p(x)e^{2*pi*i*freq*x}
        becomes p(-x)e^{-2*pi*i*freq*x}."""
        piece, freq, coeffs, size = self._atoms_of(np.arange(len(self.lo))[::-1])
        sign = (-1.0) ** np.arange(coeffs.shape[1])
        lo, hi = -self.hi[::-1], -self.lo[::-1]
        return PiecewiseExpPoly.scatter(reflect_set(self.omega), lo, hi, piece, -freq, coeffs * sign, size)

    def scaled(self, factor: complex) -> "PiecewiseExpPoly":
        return replace(self, coeffs=self.coeffs * factor)

    def __add__(self, other: "PiecewiseExpPoly") -> "PiecewiseExpPoly":
        """f + g on the common refinement (``_overlaps``); on each of its
        pieces the atoms of f, then those of g, merge by frequency."""
        if self.omega.endpoints != other.omega.endpoints:
            raise ValidationError("functions live on different sets")
        kf, kg, lo, hi = _overlaps(self, other)
        # (overlap, frequency, coefficients, count) of the atoms of f and of g,
        # the coefficients padded to one width
        columns = list(zip(self._atoms_of(kf), other._atoms_of(kg)))
        width = max(self.coeffs.shape[-1], other.coeffs.shape[-1])
        columns[2] = [np.pad(c, ((0, 0), (0, width - c.shape[1]))) for c in columns[2]]
        return PiecewiseExpPoly.scatter(self.omega, lo, hi, *map(np.concatenate, columns))


def probe_points(f: PiecewiseExpPoly, per_piece: int = PROBE_POINTS_PER_PIECE):
    """Equispaced interior points per piece, half-step off the breakpoints."""
    if per_piece < 1:
        raise ValidationError(f"need at least one probe point per piece, got {per_piece}")
    lo, hi = f.lo[:, None], f.hi[:, None]
    return (lo + (hi - lo) / per_piece * (np.arange(per_piece) + 0.5)).ravel()


# -- closed-form integration -------------------------------------------------

_TAYLOR_TERMS = 22
_CHUNK_PHASE = 0.25  # |2*pi*s| * chunk half-width where the Taylor series is used
# [a, b] -> integral of w^(a+b) over (-1, 1), for products of two atoms' polynomials
_MONOMIAL = np.array(
    [[2.0 / (a + b + 1) if (a + b) % 2 == 0 else 0.0 for b in range(_TAYLOR_TERMS)]
     for a in range(2 * MAX_DEGREE + 1)]
)
_INV_FACTORIAL = np.array([1.0 / math.factorial(k) for k in range(_TAYLOR_TERMS)])
# [a, b] -> the term of z^b in the integral of w^a * e^{zw} over (-1, 1)
_SERIES = _MONOMIAL * _INV_FACTORIAL
# the least |z| at which |z|^b / b! reaches 2^-64, for b = 1, 2, ...
_TERM_RADIUS = tuple((2.0**-64 * math.factorial(b)) ** (1.0 / b) for b in range(1, _TAYLOR_TERMS))
# (-1)^k * k!: the weight of p^(k)(x) / k! in the antiderivative
_SIGNED_FACTORIAL = np.array([(-1.0) ** k * math.factorial(k) for k in range(2 * MAX_DEGREE + 1)])


def _poly_exp_integral(coeffs, s, lo, hi):
    """Integral of p(x) * e^{2*pi*i*s*x} over (lo, hi), row by row.

    ``coeffs`` holds ascending coefficients on its last axis; its leading
    axes, ``s``, ``lo`` and ``hi`` broadcast to the shape of the result, one
    row per element (a complex when all are scalars).  With c = 2*pi*i*s,
    h the half-width of (lo, hi) and deg the degree of the row's p: where
    |c|*h > max(1, deg) the exact antiderivative
    e^{cx} * sum_k (-1)^k p^(k)(x) / c^(k+1) is used, whose terms do not
    cancel there; elsewhere (lo, hi) is cut into at most 4*max(1, deg) equal
    chunks on which |c| times the half-width is at most 1/4, and the Taylor
    series of e^{cx} about each chunk's centre is integrated against p.  The
    cost does not grow with |s|.  Each method runs once, over all its rows.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    shape = np.broadcast(coeffs[..., 0], s, lo, hi).shape
    grid = np.empty((3, *shape))
    grid[0], grid[1], grid[2] = s, lo, hi
    rows = np.empty((*shape, coeffs.shape[-1]), dtype=complex)
    rows[...] = coeffs
    count = math.prod(shape)
    out = _integrals(rows.reshape(count, coeffs.shape[-1]), *grid.reshape(3, count))
    return out.reshape(shape) if shape else complex(out[0])


def _integrals(coeffs: np.ndarray, s: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``_poly_exp_integral`` on flat rows: coefficients (R, D), frequencies,
    lower and upper ends (R,)."""
    c, h = 2j * np.pi * s, (hi - lo) / 2
    phase = np.abs(c) * h
    deg = (coeffs != 0).cumsum(axis=1).argmax(axis=1)  # the last non-zero coefficient
    big = phase > np.maximum(deg, 1)
    out = np.zeros(len(c), dtype=complex)
    if big.any():
        both = np.concatenate([hi[big], lo[big]])
        ends = _antiderivative(np.tile(coeffs[big], (2, 1)), np.tile(c[big], 2), both)
        out[big] = ends[: len(both) // 2] - ends[len(both) // 2 :]
    small = ~big & (h > 0)
    if small.any():
        out[small] = _taylor_chunks(coeffs[small], c[small], lo[small], h[small], phase[small])
    return out


def _antiderivative(coeffs: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e^{cx} * sum_k (-1)^k p^(k)(x) / c^(k+1) for each row, the sum by
    Horner's rule in 1/c."""
    at_x = shift_polys(coeffs, x) * _SIGNED_FACTORIAL[: coeffs.shape[1]]  # (-1)^k p^(k)(x)
    inv = 1.0 / c
    acc = at_x[:, -1]
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * inv + at_x[:, k]
    return np.exp(c * x) * acc * inv


def _taylor_chunks(coeffs, c, lo, h, phase) -> np.ndarray:
    """For each row, the sum over max(1, ceil(phase / _CHUNK_PHASE)) equal
    chunks of the integral of p times the Taylor series of e^{cx} about the
    chunk's centre.  Every (row, chunk) is one entry of the arrays; the
    chunks of a row are summed by ``np.add.reduceat``."""
    nchunks = np.maximum(1, np.ceil(phase / _CHUNK_PHASE)).astype(int)
    first = np.cumsum(nchunks) - nchunks
    row = np.repeat(np.arange(len(c)), nchunks)
    hc = (h / nchunks)[row]
    centre = lo[row] + (2 * (np.arange(len(row)) - first[row]) + 1) * hc
    size = coeffs.shape[1]
    centred = shift_polys(coeffs[row], centre) * hc[:, None] ** np.arange(1, size + 1)
    # the integral over a chunk is sum_b q_b z^b, z = c*hc, summed by Horner's
    # rule up to the first power whose |z|^b / b! is below 2^-64 everywhere
    terms = 1 + bisect.bisect_right(_TERM_RADIUS, float((phase / nchunks).max()))
    z = c[row] * hc
    q = _SERIES[:size, :terms].T @ centred.T
    acc = q[-1]
    for b in range(terms - 2, -1, -1):
        acc = acc * z + q[b]
    return np.add.reduceat(np.exp(c[row] * centre) * acc, first)


def _overlaps(f: PiecewiseExpPoly, g: PiecewiseExpPoly):
    """The pieces of the common refinement of f and g: the overlaps, longer
    than 1e-13, of a piece of f with a piece of g, as the indices (kf, kg)
    of the two pieces and the overlap's ends (lo, hi)."""
    lo, hi = np.maximum.outer(f.lo, g.lo), np.minimum.outer(f.hi, g.hi)
    kf, kg = (hi - lo > 1e-13).nonzero()
    return kf, kg, lo[kf, kg], hi[kf, kg]


def _pairing(f: PiecewiseExpPoly, g: PiecewiseExpPoly):
    """The kernel rows of <f, g>: one per piece of the common refinement
    (``_overlaps``) and pair of an atom of f with an atom of g there, as
    (coefficients of p_f * conj(p_g), frequency difference, lo, hi)."""
    kf, kg, lo, hi = _overlaps(f, g)
    m, a, b = ((f.size[kf] > 0)[:, :, None] & (g.size[kg] > 0)[:, None, :]).nonzero()
    pf, pg = kf[m], kg[m]
    cf, cg = f.coeffs[pf, a], g.coeffs[pg, b].conj()
    prod = np.zeros((len(m), cf.shape[1] + cg.shape[1] - 1), dtype=complex)
    for k in range(cf.shape[1]):
        prod[:, k : k + cg.shape[1]] += cf[:, k, None] * cg
    return prod, f.freq[pf, a] - g.freq[pg, b], lo[m], hi[m]


def inner_product(omega: IntervalUnion, f: PiecewiseExpPoly, g: PiecewiseExpPoly) -> complex:
    """L^2(omega) pairing <f, g> in closed form: one kernel call over every
    (refinement piece, atom pair) row (``_pairing``)."""
    return complex(_integrals(*_pairing(f, g)).sum())


def norm(omega: IntervalUnion, f: PiecewiseExpPoly) -> float:
    return math.sqrt(max(inner_product(omega, f, f).real, 0.0))


# -- evolution ---------------------------------------------------------------


@dataclass
class EvolutionResult:
    """U(t)f as a piecewise exp-poly with the sub-breakpoints used.

    ``path_count`` sums, over the sub-pieces, the paths of the rows read
    there: the paths that pass only through states of nonzero weight
    (``_build_table``).  ``stats`` says how it was produced: ``tables``
    built, ``states`` propagated in them, ``zero_states`` among those
    dropped for a summed weight of exactly 0, ``ends`` (end states summed
    over all sub-pieces), ``pieces`` (sub-pieces assembled), ``atoms`` (atoms of the result, after
    the merge by frequency), ``state_bound``, the most states one table
    held, the ``cap`` the guard compared it with, and ``seconds`` for the
    ``tables``, ``cuts`` and ``pieces`` stages.
    """

    function: PiecewiseExpPoly
    refinement: dict[int, list[float]] = field(default_factory=dict)
    path_count: int = 0
    stats: dict = field(default_factory=dict)


def apply_U_paths(omega: IntervalUnion, b, t: float, f: PiecewiseExpPoly) -> EvolutionResult:
    """Apply U(t) through the admissible-path sum, exactly.

    Interval i is cut where a row of its path table becomes or stops being
    admissible (the edges of the row's start range) and where the end
    x + shift of a row crosses a breakpoint of f strictly inside the row's
    final interval; nothing else changes the sum.  A table has no row of
    weight 0, so no cut comes from a state that adds nothing.  Each table
    is read at the midpoints of all the sub-pieces of its interval with one
    mask (``PathTable.read``), and ``_assemble`` builds every sub-piece in
    one batched pass.  Each table guards itself as it is built
    (``_build_table``); a non-finite t raises ValidationError first.
    """
    cap = _cap(t)
    bps = np.array(sorted({*f.lo.tolist(), *f.hi.tolist()}))
    # inside[j, m]: breakpoint m lies strictly inside interval j
    inside = (bps > np.array(omega.lefts)[:, None]) & (bps < np.array(omega.rights)[:, None])
    tol = omega.tol()
    refinement: dict[int, list[float]] = {}
    parts = []
    total_paths = states = zero_states = state_bound = ends_read = pieces = 0
    seconds = dict.fromkeys(("tables", "cuts", "pieces"), 0.0)
    for i, (alo, ahi) in enumerate(omega.endpoints):
        t0 = time.perf_counter()
        table = _build_table(omega, b, i, t)
        states += table.states
        zero_states += table.zero_states
        state_bound = max(state_bound, table.states)
        t1 = time.perf_counter()
        sign = 1.0 if table.forward else -1.0
        edge = table.exit_edge - sign * table.big_t + sign * table.cum
        crossings = (bps - table.shift[:, None])[inside[table.final]]
        cands = np.concatenate([edge, edge + sign * table.length, crossings])
        dedup = []
        for x in np.sort(cands[(cands > alo + tol) & (cands < ahi - tol)]).tolist():
            if not dedup or x - dedup[-1] > 1e-12:
                dedup.append(x)
        refinement[i] = dedup
        edges = np.array([alo] + dedup + [ahi])
        keep = np.flatnonzero(np.diff(edges) > 1e-13)
        lo, hi = edges[keep], edges[keep + 1]
        t2 = time.perf_counter()
        k, idx, ends = table.read((lo + hi) / 2, np.full(len(lo), t))
        # path counts are Python ints: a row read on many sub-pieces adds its
        # count once per sub-piece
        uses = np.bincount(idx, minlength=len(table.count))
        total_paths += sum(map(operator.mul, table.count.tolist(), uses.tolist()))
        parts.append((lo, hi, pieces + k, table.shift[idx], table.weight[idx], ends))
        ends_read += len(idx)
        pieces += len(lo)
        seconds["tables"] += t1 - t0
        seconds["cuts"] += t2 - t1
        seconds["pieces"] += time.perf_counter() - t2
    t0 = time.perf_counter()
    result = _assemble(omega, f, *(np.concatenate(column) for column in zip(*parts)))
    seconds["pieces"] += time.perf_counter() - t0
    stats = {
        "tables": omega.n,
        "states": states,
        "zero_states": zero_states,
        "ends": ends_read,
        "pieces": pieces,
        "atoms": int(result.atoms.sum()),
        "state_bound": state_bound,
        "cap": cap,
        "seconds": seconds,
    }
    return EvolutionResult(result, refinement, total_paths, stats)


def _assemble(omega, f: PiecewiseExpPoly, lo, hi, sub, shift, weight, ends) -> PiecewiseExpPoly:
    """The pieces (lo[s], hi[s]) of U(t)f, from the rows read on them: row r
    adds, on sub-piece sub[r], the atoms of the piece of f that holds
    ends[r], shifted by shift[r] and scaled by weight[r].  The atoms of one
    sub-piece with one frequency merge into one (``PiecewiseExpPoly.scatter``).
    """
    r, freq, coeffs, size = f._atoms_of(f.containing(ends))
    shift = shift[r]
    coeffs = shift_polys(coeffs, shift) * (weight[r] * cis(freq * shift))[:, None]
    return PiecewiseExpPoly.scatter(omega, lo, hi, sub[r], freq, coeffs, size)


def evolve_point(omega: IntervalUnion, b, x: float, t: float, f: PiecewiseExpPoly) -> complex:
    """[U(t)f](x) through the path sum, for a single point."""
    states = end_states(omega, b, x, t)
    return complex(np.sum(states.weight * f.evaluate(states.end)))


def eigenfunction(
    omega: IntervalUnion, report: SpectrumReport, k: int, which: int = 0
) -> PiecewiseExpPoly:
    """The eigenfunction e^{2*pi*i*lambda_k*x} * sum_i c_i chi_i."""
    try:
        lam = report.eigenvalues[k]
        c = report.eigenspaces[k][which]
    except IndexError as exc:
        raise NotEigenCombination(str(exc)) from exc
    return PiecewiseExpPoly.exponential(omega, lam, list(c))


def apply_U_spectral(
    omega: IntervalUnion, report: SpectrumReport, t: float, combination
) -> PiecewiseExpPoly:
    """Functional-calculus oracle: sum a_k e^{2*pi*i*lambda_k*t} phi_k.

    ``combination`` is a list of (k, a_k) or (k, a_k, which) referring to
    eigenvalues/eigenspace bases of the spectrum report.
    """
    atoms_by_interval = [[] for _ in range(omega.n)]
    for entry in combination:
        if len(entry) == 2:
            k, a = entry
            which = 0
        else:
            k, a, which = entry
        try:
            lam = report.eigenvalues[k]
            c = report.eigenspaces[k][which]
        except (IndexError, TypeError) as exc:
            raise NotEigenCombination(str(exc)) from exc
        phase = complex(a) * complex(cis(lam * t))
        for i in range(omega.n):
            atoms_by_interval[i].append((lam, (phase * c[i],)))
    return PiecewiseExpPoly.from_atoms(omega, atoms_by_interval)


TRIAL_ATOMS = 2
TRIAL_DEGREE = 1


def _draw_atoms(n: int, rng: np.random.Generator, count: int, freqs, atoms: int, degree: int):
    """The random atoms of ``count`` domain functions, in one pass.

    Each function has four base frequencies (``freqs`` if given, else drawn
    from (-3, 3)); an atom takes one of them plus a normal jitter, a degree
    up to ``degree`` and complex normal coefficients.  Returns frequencies
    (count, n, atoms + 1) and ascending coefficients
    (count, n, atoms + 1, max(degree, 1) + 1), zero-padded; the last atom
    slot of each interval is left for ``_fix_boundary``.
    """
    shape = (count, n, atoms)
    if freqs is None:
        base = rng.uniform(-3, 3, size=(count, 1, 1, 4))
    else:
        base = np.asarray(freqs, dtype=float).reshape(1, 1, 1, -1)
    pick = rng.integers(0, base.shape[-1], size=shape)
    freq = np.zeros((count, n, atoms + 1))
    freq[..., :-1] = np.take_along_axis(base, pick[..., None], axis=-1)[..., 0]
    freq[..., :-1] += rng.normal(scale=0.25, size=shape)
    deg = rng.integers(0, degree + 1, size=shape)
    draws = rng.normal(size=(2, *shape, degree + 1))
    coeffs = np.zeros((count, n, atoms + 1, max(degree, 1) + 1), dtype=complex)
    coeffs[..., :-1, : degree + 1] = np.where(
        np.arange(degree + 1) <= deg[..., None], draws[0] + 1j * draws[1], 0
    )
    return freq, coeffs


def _draw_pairs(omega: IntervalUnion, rng: np.random.Generator, count: int):
    """``count`` random pairs (x, t) with x and x + t interior to the set.

    Both points are drawn the same way: an interval with probability
    proportional to its length, then a uniform point at least 1e-6 of its
    length inside it.  Returns the arrays xs and ts.
    """
    lengths = np.array(omega.lengths)
    which = rng.choice(omega.n, size=(2, count), p=lengths / lengths.sum())
    margin = 1e-6 * lengths[which]
    points = rng.uniform(np.array(omega.lefts)[which] + margin, np.array(omega.rights)[which] - margin)
    return points[0], points[1] - points[0]


def _draw_trials(omega: IntervalUnion, rng: np.random.Generator, trials: int, freqs=None):
    """The draws of ``trials`` local-translation trials: the atoms of their
    functions (see ``_draw_atoms``; the boundary atom still to be fixed),
    then their start points xs and times ts."""
    freq, coeffs = _draw_atoms(omega.n, rng, trials, freqs, TRIAL_ATOMS, TRIAL_DEGREE)
    return (freq, coeffs, *_draw_pairs(omega, rng, trials))


def _fix_boundary(omega: IntervalUnion, b, freq: np.ndarray, coeffs: np.ndarray) -> None:
    """Write the linear atom that fixes the boundary condition into the
    last atom slot, in place, for every function along the leading axes.

    With g the other atoms and d = B g(a_vec) - g(b_vec), the atom of
    interval i is h_i(x) = d_i (x - a_i) / l_i: h_i(a_i) = 0, h_i(b_i) = d_i.
    """
    b = np.asarray(b, dtype=complex)
    a, c = np.array(omega.lefts), np.array(omega.rights)
    l = c - a
    g_alpha = _atom_values(freq[..., :-1], coeffs[..., :-1, :], a)
    g_beta = _atom_values(freq[..., :-1], coeffs[..., :-1, :], c)
    d = g_alpha @ b.T - g_beta
    freq[..., -1] = 0.0
    coeffs[..., -1, :] = 0.0
    coeffs[..., -1, 0] = -d * a / l
    coeffs[..., -1, 1] = d / l


def _as_function(omega: IntervalUnion, freq: np.ndarray, coeffs: np.ndarray) -> PiecewiseExpPoly:
    """The function of one draw: atoms (n, atoms) with coefficients (n, atoms, degree + 1)."""
    return PiecewiseExpPoly.from_atoms(
        omega,
        [
            [(f, np.trim_zeros(c, "b")) for f, c in zip(freq[i].tolist(), coeffs[i])]
            for i in range(omega.n)
        ],
    )


def random_domain_function(
    omega: IntervalUnion,
    b,
    rng: np.random.Generator,
    freqs=None,
    atoms_per_interval: int = TRIAL_ATOMS,
    degree: int = TRIAL_DEGREE,
) -> PiecewiseExpPoly:
    """Random exp-poly satisfying the boundary condition B f(a_vec) = f(b_vec).

    Random atoms first, then one linear correction atom per interval fixes
    the boundary mismatch.
    """
    freq, coeffs = _draw_atoms(omega.n, rng, 1, freqs, atoms_per_interval, degree)
    _fix_boundary(omega, b, freq, coeffs)
    return _as_function(omega, freq[0], coeffs[0])


def sample_local_pair(omega: IntervalUnion, rng: np.random.Generator):
    """Random (x, t) with both x and x + t interior to the set."""
    xs, ts = _draw_pairs(omega, rng, 1)
    return float(xs[0]), float(ts[0])


@dataclass
class LocalTranslationReport:
    """Outcome of the trials; ``tables`` path tables were built and
    ``states`` end states read over all trials.  ``table_states`` states
    were propagated in the tables, and ``zero_states`` of those dropped for
    a summed weight of exactly 0.  ``state_bound`` is the most states one
    table held; the guard compared them, with the words of their path
    counts, with ``cap``.  ``seconds`` times the ``draw``, ``states`` and
    ``evaluate`` stages."""

    passed: bool
    trials: int
    max_error: float
    witnesses: list[tuple[float, float, float]]  # (x, t, error)
    tables: int
    states: int
    table_states: int = 0
    zero_states: int = 0
    state_bound: int = 0
    cap: int = 0
    seconds: dict = field(default_factory=dict)


def local_translation_test(
    omega: IntervalUnion,
    b,
    trials: int,
    tol: float = 1e-9,
    seed: int = 0,
    freqs=None,
) -> LocalTranslationReport:
    """Sample random (x, t, f) and check [U(t)f](x) = f(x+t).

    Passing all trials is evidence of spectrality; any failure is a
    counterexample witness.  Every trial is drawn first, in one batched
    pass (``_draw_trials``); the end states of all trials are read in one
    ``end_states`` call, and the trial functions are evaluated at every end
    and target in one pass.
    """
    if trials < 0:
        raise ValidationError(f"trials must be non-negative, got {trials}")
    if trials == 0:
        return LocalTranslationReport(True, 0, 0.0, [], 0, 0)
    t0 = time.perf_counter()
    freq, coeffs, xs, ts = _draw_trials(omega, np.random.default_rng(seed), trials, freqs)
    _fix_boundary(omega, b, freq, coeffs)
    t1 = time.perf_counter()
    states = end_states(omega, b, xs, ts)
    t2 = time.perf_counter()

    # ends on the interval of their row, targets x + t on the one holding them
    targets = xs + ts
    lefts = np.array(omega.lefts)
    target_in = np.clip(np.searchsorted(lefts, targets, side="right") - 1, 0, omega.n - 1)
    who = np.concatenate([states.pair, np.arange(trials)])
    where = np.concatenate([states.final, target_in])
    at = np.concatenate([states.end, targets])
    values = _atom_values(freq[who, where], coeffs[who, where], at)
    ends = len(states.end)
    terms = states.weight * values[:ends]
    lhs = np.bincount(states.pair, terms.real, trials)
    lhs = lhs + 1j * np.bincount(states.pair, terms.imag, trials)
    errors = np.abs(lhs - values[ends:])
    witnesses = [
        (x, t, err)
        for x, t, err in zip(xs.tolist(), ts.tolist(), errors.tolist())
        if err > tol
    ]
    seconds = {"draw": t1 - t0, "states": t2 - t1, "evaluate": time.perf_counter() - t2}
    return LocalTranslationReport(
        not witnesses, trials, float(errors.max()), witnesses, states.tables, ends,
        states.states, states.zero_states, states.state_bound, states.cap, seconds,
    )


def reflection_consistency(
    omega: IntervalUnion, b, t: float, f: PiecewiseExpPoly, tol: float = 1e-9
) -> bool:
    """Check U_{B~}(t) on -omega against J U_B(-t) J* pointwise.

    B~ is the boundary matrix of the reflected set (the reversed adjoint).
    """
    omega_r = reflect_set(omega)
    b_r = reflected_boundary_matrix(b)
    g = f.reflect()  # J f on -omega
    lhs = apply_U_paths(omega_r, b_r, t, g).function
    rhs = apply_U_paths(omega, b, -t, f).function.reflect()
    xs = np.concatenate([probe_points(lhs, 16), probe_points(rhs, 16)])
    return bool(np.max(np.abs(lhs.evaluate(xs) - rhs.evaluate(xs))) < tol)
