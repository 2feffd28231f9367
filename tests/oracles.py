"""Checks the tests share that the package itself has no use for."""
import heapq
import math
from collections import defaultdict

import numpy as np

from spectral_intervals.boundary import UNITARITY_TOL, cis, require_unitary
from spectral_intervals.errors import XNotInOmega
from spectral_intervals.evolution import (
    _CHUNK_PHASE,
    _INV_FACTORIAL,
    _MONOMIAL,
    _TAYLOR_TERMS,
    Atom,
    EvolutionResult,
    Piece,
    PiecewiseExpPoly,
)
from spectral_intervals.paths import PathTable, _build_table
from spectral_intervals.spectrum import (
    CHUNK,
    STALL,
    TOL_EIG,
    TOL_ROOT,
    _cell_counts,
    _gauge,
    _phase_data,
    _real_det,
    transfer_matrix,
)


def boundary_condition_check(b, f, tol: float = 1e-8) -> bool:
    """Whether the piecewise function f satisfies the domain condition
    B f(a_vec) = f(b_vec)."""
    b = np.asarray(b, dtype=complex)
    f_alpha, f_beta = f.boundary_values()
    return bool(np.linalg.norm(b @ f_alpha - f_beta) < tol)


def classify_structure_per_entry(b, tol: float = UNITARITY_TOL):
    """(kind, sigma, weights, is_cycle) of a unitary B, entry by entry: a
    row of B supported on a permutation has one entry within ``tol`` of
    modulus 1 and every other entry below ``tol``, and the columns of those
    entries are distinct; the weights are the entries as given, and
    is_cycle walks sigma from 0."""
    b = require_unitary(b, max(tol, UNITARITY_TOL))
    n = b.shape[0]
    sigma = []
    weights = []
    for i in range(n):
        row = b[i]
        unimod = [j for j in range(n) if abs(abs(row[j]) - 1.0) < tol]
        zero = [j for j in range(n) if abs(row[j]) < tol]
        if len(unimod) != 1 or len(zero) != n - 1 or unimod[0] in zero:
            return "general", None, None, None
        sigma.append(unimod[0])
        weights.append(complex(row[unimod[0]]))
    if len(set(sigma)) != n:
        return "general", None, None, None
    seen = {0}
    k = sigma[0]
    while k not in seen:
        seen.add(k)
        k = sigma[k]
    kind = "permutation" if all(abs(w - 1.0) < tol for w in weights) else "weighted_permutation"
    return kind, tuple(sigma), tuple(weights), len(seen) == n


def rational_order_check(b, d: int, n: int) -> bool:
    """Whether B^(d*n) = I, the consequence of a rational spectrum of common
    denominator d on an equal-length set of measure 1 with n intervals."""
    b = np.asarray(b, dtype=complex)
    bp = np.linalg.matrix_power(b, d * n)
    return np.max(np.abs(bp - np.eye(b.shape[0]))) < 1e-7


# -- functions, one atom at a time --------------------------------------------


def shift_poly(coeffs, delta: float):
    """Coefficients of p(x + delta) from those of p(x) (ascending order)."""
    if delta == 0.0:
        return tuple(coeffs)
    out = [0j] * len(coeffs)
    for m, cm in enumerate(coeffs):
        if cm == 0:
            continue
        binom = 1.0
        power = 1.0
        for k in range(m, -1, -1):
            out[k] += cm * binom * power
            binom = binom * k / (m - k + 1)
            power *= delta
    return tuple(out)


def atom_value(atom: Atom, xs):
    """The atom p(x) * e^{2*pi*i*freq*x} at xs."""
    xs = np.asarray(xs, dtype=float)
    acc = np.zeros_like(xs, dtype=complex)
    for c in reversed(atom.coeffs):
        acc = acc * xs + c
    return acc * cis(atom.freq * xs)


def shifted(atom: Atom, delta: float, scale: complex = 1.0) -> Atom:
    """The atom x -> scale * atom(x + delta)."""
    factor = scale * complex(cis(atom.freq * delta))
    return Atom(atom.freq, tuple(factor * c for c in shift_poly(atom.coeffs, delta)))


def reflected(atom: Atom) -> Atom:
    """The atom x -> atom(-x)."""
    return Atom(-atom.freq, tuple(c * (-1) ** k for k, c in enumerate(atom.coeffs)))


def merge_atoms(atoms) -> tuple[Atom, ...]:
    """One atom per frequency, in order of first appearance: the sum of the
    atoms of exactly that frequency, with the coefficient count of the
    longest."""
    by_freq: dict[float, list] = defaultdict(list)
    for atom in atoms:
        by_freq[atom.freq].append(atom.coeffs)
    merged = []
    for freq, groups in by_freq.items():
        coeffs = [0j] * max(len(g) for g in groups)
        for g in groups:
            for k, c in enumerate(g):
                coeffs[k] += c
        merged.append(Atom(freq, tuple(coeffs)))
    return tuple(merged)


def piece_value(piece: Piece, xs):
    """The sum of the atoms of a piece at xs."""
    xs = np.asarray(xs, dtype=float)
    acc = np.zeros_like(xs, dtype=complex)
    for atom in piece.atoms:
        acc = acc + atom_value(atom, xs)
    return acc


def piece_containing(pieces, x: float) -> Piece:
    """The piece that holds x strictly inside, else the last one with
    lo <= x <= hi; XNotInOmega if there is none."""
    best = None
    for p in pieces:
        if p.lo <= x <= p.hi:
            if p.lo < x < p.hi:
                return p
            best = p
    if best is not None:
        return best
    raise XNotInOmega(f"point {x} is outside every piece")


def values_per_piece(pieces, xs) -> np.ndarray:
    """``PiecewiseExpPoly.evaluate`` one point at a time: each point on the
    last piece that starts at or before it, the first piece for a point left
    of all."""
    out = []
    for x in np.ravel(xs).tolist():
        piece = max((p for p in pieces if p.lo <= x), key=lambda p: p.lo, default=pieces[0])
        out.append(complex(piece_value(piece, x)))
    return np.array(out).reshape(np.shape(xs))


def boundary_values_per_piece(omega, pieces):
    """``PiecewiseExpPoly.boundary_values`` one interval at a time: f(a_i)
    on the first piece that starts within tol of a_i or holds it, f(b_i) on
    the last that ends within tol of b_i or holds it."""
    tol = omega.tol()
    f_alpha = np.zeros(omega.n, dtype=complex)
    f_beta = np.zeros(omega.n, dtype=complex)
    for i, (a, b) in enumerate(omega.endpoints):
        first = min(
            (p for p in pieces if abs(p.lo - a) <= tol or p.lo <= a <= p.hi),
            key=lambda p: p.lo,
        )
        last = max(
            (p for p in pieces if abs(p.hi - b) <= tol or p.lo <= b <= p.hi),
            key=lambda p: p.hi,
        )
        f_alpha[i] = piece_value(first, a)
        f_beta[i] = piece_value(last, b)
    return f_alpha, f_beta


def reflect_per_piece(pieces) -> tuple[Piece, ...]:
    """The pieces of x -> f(-x), one atom at a time."""
    return tuple(Piece(-p.hi, -p.lo, tuple(map(reflected, p.atoms))) for p in reversed(pieces))


def scaled_per_piece(pieces, factor: complex) -> tuple[Piece, ...]:
    """The pieces of factor * f, one coefficient at a time."""
    return tuple(
        Piece(p.lo, p.hi, tuple(Atom(a.freq, tuple(factor * c for c in a.coeffs)) for a in p.atoms))
        for p in pieces
    )


def add_per_piece(f_pieces, g_pieces) -> tuple[Piece, ...]:
    """The pieces of f + g: every overlap longer than 1e-13 of a piece of f
    with a piece of g, with the atoms of both merged by frequency."""
    return tuple(
        Piece(max(p.lo, q.lo), min(p.hi, q.hi), merge_atoms(p.atoms + q.atoms))
        for p in f_pieces
        for q in g_pieces
        if min(p.hi, q.hi) - max(p.lo, q.lo) > 1e-13
    )


# -- spectra -----------------------------------------------------------------


def eigenvalue_distance(omega, b, lam: float) -> float:
    """h(lambda): distance from 1 to the closest eigenvalue of M(lambda)."""
    mu = np.linalg.eigvals(transfer_matrix(omega, b, lam))
    return float(np.min(np.abs(1.0 - mu)))


def phase_data_eigvals(omega, b, lams: np.ndarray, matrices=_gauge):
    """The phase sums in [0, 2pi), nearest angles and g(lambda) of
    ``spectrum._phase_data``, from stacked eigvals of W(lambda) (or of the
    ``matrices`` given, such as ``transfer_matrix``), CHUNK at a time, with
    det(I - W) = prod(1 - mu)."""
    b = np.asarray(b, dtype=complex)
    sums = np.empty(len(lams))
    nearest = np.empty(len(lams))
    dets = np.empty(len(lams), dtype=complex)
    for s in range(0, len(lams), CHUNK):
        mu = np.linalg.eigvals(matrices(omega, b, lams[s:s + CHUNK]))
        ang = np.angle(mu)
        sums[s:s + CHUNK] = np.mod(ang, 2 * np.pi).sum(axis=1)
        pick = np.argmin(np.abs(ang), axis=1)[:, None]
        nearest[s:s + CHUNK] = np.take_along_axis(ang, pick, axis=1)[:, 0]
        dets[s:s + CHUNK] = np.prod(1.0 - mu, axis=1)
    arg_det = float(np.angle(np.linalg.det(b)))
    return sums, nearest, _real_det(omega, b, lams, arg_det, dets)


def nullspace_at(omega, b, lam: float) -> list:
    """Orthonormal basis of {c : B E(lambda a)c = E(lambda b)c}, from one SVD
    of I - W(lambda), each null vector v mapped to c = E(-lambda a) v; []
    off the spectrum."""
    _, sv, vh = np.linalg.svd(np.eye(omega.n) - _gauge(omega, np.asarray(b, dtype=complex), lam))
    return [np.conj(cis(lam * np.array(omega.lefts))) * v for v in vh.conj()[sv < TOL_EIG]]


def grid_cells_all_points(omega, b, grid, arg_det: float, stats: dict):
    """``spectrum._grid_cells`` as it was before the knots: eigenphases at
    every grid point count the roots of every grid cell, g comes from the
    same eigenphases, and every cell that holds a root goes to ``_locate``
    with its phase data."""
    sums, nearest, g = _phase_data(omega, b, grid, arg_det, stats)
    stats["eig_rows"] += len(grid)
    counts = _cell_counts(omega, grid, sums)
    k = np.flatnonzero(counts)
    cells = [grid[k], grid[k + 1], sums[k], sums[k + 1], nearest[k], nearest[k + 1],
             g[k], g[k + 1], counts[k]]
    return cells, int(counts.sum())


def solve_brackets_illinois(fn, rows: str, a, c, fa, fc, x, stats) -> np.ndarray:
    """``spectrum._solve_brackets`` by Illinois false position, as it was
    before Anderson-Bjorck: the value at an end kept twice in a row is
    halved, and the state is filtered on every step."""
    roots = np.empty(len(a))
    idx = np.arange(len(a))
    moved = np.zeros(len(a), dtype=int)
    ref = c - a
    stall = np.zeros(len(a), dtype=int)
    while True:
        mid = 0.5 * (a + c)
        done = (fa == 0) | (c - a <= 2 * TOL_ROOT) | (mid <= a) | (mid >= c)
        roots[idx[done]] = np.where(fa == 0, a, mid)[done]
        if done.all():
            return roots
        a, c, fa, fc, x, mid, moved, ref, stall, idx = (
            v[~done] for v in (a, c, fa, fc, x, mid, moved, ref, stall, idx)
        )
        x = np.clip(x, a + TOL_ROOT, c - TOL_ROOT)
        x = np.where((stall >= STALL) | (x <= a) | (x >= c), mid, x)
        fx = fn(x)
        stats["bracket_iterations"] += 1
        stats[rows] += len(x)
        left = (fx == 0) | ((fx > 0) == (fa > 0))
        fa = np.where(~left & (moved == -1), 0.5 * fa, fa)
        fc = np.where(left & (moved == 1), 0.5 * fc, fc)
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        c, fc = np.where(left, c, x), np.where(left, fc, fx)
        moved = np.where(left, 1, -1)
        halved = c - a <= 0.5 * ref
        ref = np.where(halved, c - a, ref)
        stall = np.where(halved, 0, stall + 1)
        x = a + (c - a) * (fa / (fa - fc))


# -- path tables -------------------------------------------------------------


def per_state_walk(
    omega,
    b,
    i: int,
    t: float,
    t_min: float | None = None,
    limit: float = math.inf,
    drop_zero: bool = True,
):
    """The loop of ``build_table_per_state``, unguarded: its rows (final
    interval, covered length, weight, path count), the states it propagated,
    those of weight exactly 0, the largest path count of a state, a Python
    int, and the 64-bit words the path counts take beyond one a node (the n
    states of a node share its count).  It stops after ``limit`` + 1
    states, so more than ``limit`` states means the table has more.  A state of weight 0 is neither
    extended nor given a row; with ``drop_zero`` false it is both, as every
    word was before, so the rows sum all words."""
    b = np.asarray(b, dtype=complex)
    big_t = abs(t)
    small_t = big_t if t_min is None else abs(t_min)
    n = omega.n
    lengths = omega.lengths
    weights = (b if t >= 0 else b.conj().T).tolist()
    classes = omega.length_classes
    # The start range of a state, [lo, hi) at |t| = big_t stretched to cover
    # |t| = small_t, meets interval i iff cum < big_t and cum + l_j > reach.
    # Its rows: (final interval, covered length, weight, path count), first
    # the path that stays in interval i, with cum = -l_i so that its
    # remainder too is measured from the entry edge of its final interval.
    reach = small_t - lengths[i]
    rows: list[tuple] = [(i, -lengths[i], 1.0 + 0j, 1)] if reach < 0 else []
    # pending states (j, m) -> [summed weight, path count], m the covered
    # length per class in units of the class; the heap orders them by the
    # covered length cum, that of the first path to reach the state
    none = (0,) * len(classes.units)
    pending = {(j, none): [weights[i][j], 1] for j in range(n)}
    heap = [(0.0, j, none) for j in range(n)]
    states = zeros = largest = 0
    words = {}
    while heap and states <= limit:
        cum, j, m = heapq.heappop(heap)
        w, count = pending.pop((j, m))
        states += 1
        largest = max(largest, count)
        words[m] = (count.bit_length() - 1) >> 6
        if w == 0:
            zeros += 1
            if drop_zero:
                continue
        cum_next = cum + lengths[j]
        if cum < big_t and cum_next > reach:
            rows.append((j, cum, w, count))
        if cum_next >= big_t:
            continue  # no start point has time left to cross j
        k = classes.classes[j]
        m_next = m[:k] + (m[k] + classes.multiples[j],) + m[k + 1:]
        row = weights[j]
        for jj in range(n):
            state = pending.get((jj, m_next))
            if state is None:
                pending[(jj, m_next)] = [w * row[jj], count]
                heapq.heappush(heap, (cum_next, jj, m_next))
            else:
                state[0] += w * row[jj]
                state[1] += count
    return rows, states, zeros, largest, sum(words.values())


def build_table_per_state(
    omega, b, i: int, t: float, t_min: float | None = None, drop_zero: bool = True
) -> PathTable:
    """``_build_table`` as it was before it propagated nodes: one heap entry
    (cum, j, m) and one dictionary entry per state (j, m), one lookup per
    (state, successor).  A state is complete before it is extended because
    states pop in order of cum, that of the first path to reach them.  With
    ``drop_zero`` false it keeps the states of weight 0, the all-words table
    of before they were dropped."""
    forward = t >= 0
    a, c = omega.endpoints[i]
    rows, states, zeros, _, _ = per_state_walk(omega, b, i, t, t_min, drop_zero=drop_zero)
    cols = list(zip(*rows))
    final, cum = np.array(cols[0], dtype=int), np.array(cols[1], dtype=float)
    weight, count = np.array(cols[2], dtype=complex), np.array(cols[3], dtype=object)
    if forward:
        entry = np.array(omega.lefts)[final]
        shift = entry - c + t - cum
    else:
        entry = np.array(omega.rights)[final]
        shift = entry - a + t + cum
    return PathTable(
        forward,
        abs(t),
        c if forward else a,
        final,
        entry,
        np.array(omega.lengths)[final],
        cum,
        shift,
        weight,
        count,
        states,
        zeros,
    )


def select(table: PathTable, x: float, t: float):
    """Row indices of the states of ``table`` admissible from x at time t,
    and their end points: ``PathTable.read`` for one pair."""
    _, idx, ends = table.read(np.array([x]), np.array([t]))
    return idx, ends


# -- evolution ---------------------------------------------------------------


def apply_U_per_subpiece(omega, b, t: float, f: PiecewiseExpPoly) -> EvolutionResult:
    """U(t)f built one sub-piece, one row and one atom at a time: the cuts
    of ``apply_U_paths``, then on each sub-piece every row admissible at its
    midpoint adds the atoms of the piece of f at its end
    (``piece_containing``), each shifted on its own (``shifted``), and
    ``merge_atoms`` sums the atoms of one frequency.  Its ``stats`` hold
    ``ends`` alone."""
    f_pieces = f.pieces
    bps = np.array(sorted({p.lo for p in f_pieces} | {p.hi for p in f_pieces}))
    inside = (bps > np.array(omega.lefts)[:, None]) & (bps < np.array(omega.rights)[:, None])
    tol = omega.tol()
    pieces = []
    refinement = {}
    total_paths = ends_read = 0
    for i, (alo, ahi) in enumerate(omega.endpoints):
        table = _build_table(omega, b, i, t)
        sign = 1.0 if table.forward else -1.0
        edge = table.exit_edge - sign * table.big_t + sign * table.cum
        crossings = (bps - table.shift[:, None])[inside[table.final]]
        cands = np.concatenate([edge, edge + sign * table.length, crossings])
        dedup = []
        for x in np.sort(cands[(cands > alo + tol) & (cands < ahi - tol)]).tolist():
            if not dedup or x - dedup[-1] > 1e-12:
                dedup.append(x)
        refinement[i] = dedup
        edges = [alo] + dedup + [ahi]
        for lo, hi in zip(edges, edges[1:]):
            if hi - lo <= 1e-13:
                continue
            atoms = []
            idx, ends = select(table, (lo + hi) / 2, t)
            ends_read += len(idx)
            for s, end in zip(idx.tolist(), ends.tolist()):
                total_paths += int(table.count[s])
                src = piece_containing(f_pieces, end)
                weight, shift = complex(table.weight[s]), float(table.shift[s])
                atoms.extend(shifted(atom, shift, weight) for atom in src.atoms)
            pieces.append(Piece(lo, hi, merge_atoms(atoms)))
    function = PiecewiseExpPoly.from_pieces(omega, pieces)
    return EvolutionResult(function, refinement, total_paths, {"ends": ends_read})


# -- integrals ---------------------------------------------------------------


def poly_exp_integral(coeffs, s, lo: float, hi: float):
    """Integral of p(x) * e^{2*pi*i*s*x} over (lo, hi) for one polynomial and
    interval, ``s`` a scalar or an array: the kernel as it was before it took
    rows.  The method is chosen per s by deg = len(coeffs) - 1; the chunk
    count of the Taylor series is set by the largest phase among the s that
    use it."""
    s = np.asarray(s, dtype=float)
    c = 2j * np.pi * s.ravel()
    out = np.zeros(c.shape, dtype=complex)
    h = (hi - lo) / 2
    if h > 0:
        deg = len(coeffs) - 1
        phase = np.abs(c) * h
        big = phase > max(1, deg)
        if big.any():
            out[big] = _antiderivative(coeffs, c[big], hi) - _antiderivative(coeffs, c[big], lo)
        small = ~big
        if small.any():
            out[small] = _taylor_chunks(coeffs, c[small], lo, h, float(phase[small].max()))
    return out.reshape(s.shape) if s.ndim else complex(out[0])


def _antiderivative(coeffs, c: np.ndarray, x: float) -> np.ndarray:
    """e^{cx} * sum_k (-1)^k p^(k)(x) / c^(k+1) for each c."""
    at_x = shift_poly(coeffs, x)  # p^(k)(x) / k!
    signed = np.array([(-1) ** k * math.factorial(k) * a for k, a in enumerate(at_x)])
    inv = 1.0 / c
    return np.exp(c * x) * (inv[:, None] ** np.arange(1, len(at_x) + 1) @ signed)


def _taylor_chunks(coeffs, c: np.ndarray, lo: float, h: float, phase: float) -> np.ndarray:
    """Sum over equal chunks of the integral of p times the Taylor series of
    e^{cx} about the chunk's centre, for |c|*h <= phase."""
    nchunks = max(1, math.ceil(phase / _CHUNK_PHASE))
    hc = h / nchunks
    expo = (c[:, None] * hc) ** np.arange(_TAYLOR_TERMS) * _INV_FACTORIAL
    ncoef = len(coeffs)
    total = np.zeros(c.shape, dtype=complex)
    for j in range(nchunks):
        centre = lo + (2 * j + 1) * hc
        centred = np.array(shift_poly(coeffs, centre)) * hc ** np.arange(1, ncoef + 1)
        total += np.exp(c * centre) * (expo @ (centred @ _MONOMIAL[:ncoef]))
    return total


def exp_gram_per_interval(omega, lambdas) -> np.ndarray:
    """Gram matrix of the e_lambda over omega: one ``poly_exp_integral`` per
    interval, on the whole matrix of differences lambda_k - lambda_l."""
    lambdas = np.asarray(list(lambdas), dtype=float)
    diff = lambdas[:, None] - lambdas[None, :]
    g = np.zeros(diff.shape, dtype=complex)
    for a, b in omega.endpoints:
        g += poly_exp_integral((1.0,), diff, a, b)
    return g


def common_refinement(f: PiecewiseExpPoly, g: PiecewiseExpPoly):
    """The pieces (lo, hi) between consecutive breakpoints of f and g that
    are longer than 1e-13 and whose midpoint lies in the set."""
    cuts = sorted(
        {p.lo for p in f.pieces}
        | {p.hi for p in f.pieces}
        | {p.lo for p in g.pieces}
        | {p.hi for p in g.pieces}
    )
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        if f.omega.index_of(mid) is not None and hi - lo > 1e-13:
            out.append((lo, hi))
    return out


def inner_product_per_pair(omega, f: PiecewiseExpPoly, g: PiecewiseExpPoly) -> complex:
    """<f, g> with one ``poly_exp_integral`` per atom pair on each piece of
    the common refinement."""
    total = 0j
    f_pieces, g_pieces = f.pieces, g.pieces
    for lo, hi in common_refinement(f, g):
        mid = (lo + hi) / 2
        pf = piece_containing(f_pieces, mid)
        pg = piece_containing(g_pieces, mid)
        for af in pf.atoms:
            for ag in pg.atoms:
                prod = np.convolve(af.coeffs, np.conj(ag.coeffs))
                total += poly_exp_integral(prod, af.freq - ag.freq, lo, hi)
    return total
