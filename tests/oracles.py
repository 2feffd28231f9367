"""Checks the tests share that the package itself has no use for."""
import heapq
import math

import numpy as np

from spectral_intervals.evolution import (
    _CHUNK_PHASE,
    _INV_FACTORIAL,
    _MONOMIAL,
    _TAYLOR_TERMS,
    EvolutionResult,
    Piece,
    PiecewiseExpPoly,
    _merge_atoms,
    shift_poly,
)
from spectral_intervals.paths import PathTable, _build_table, check_state_guard
from spectral_intervals.spectrum import CHUNK, TOL_EIG, _real_det, transfer_matrix


def boundary_condition_check(b, f, tol: float = 1e-8) -> bool:
    """Whether the piecewise function f satisfies the domain condition
    B f(a_vec) = f(b_vec)."""
    b = np.asarray(b, dtype=complex)
    f_alpha, f_beta = f.boundary_values()
    return bool(np.linalg.norm(b @ f_alpha - f_beta) < tol)


def rational_order_check(b, d: int, n: int) -> bool:
    """Whether B^(d*n) = I, the consequence of a rational spectrum of common
    denominator d on an equal-length set of measure 1 with n intervals."""
    b = np.asarray(b, dtype=complex)
    bp = np.linalg.matrix_power(b, d * n)
    return np.max(np.abs(bp - np.eye(b.shape[0]))) < 1e-7


# -- spectra -----------------------------------------------------------------


def eigenvalue_distance(omega, b, lam: float) -> float:
    """h(lambda): distance from 1 to the closest eigenvalue of M(lambda)."""
    mu = np.linalg.eigvals(transfer_matrix(omega, b, lam))
    return float(np.min(np.abs(1.0 - mu)))


def phase_data_eigvals(omega, b, lams: np.ndarray):
    """The phase sums in [0, 2pi), nearest angles and g(lambda) of
    ``spectrum._phase_data``, from stacked eigvals of M(lambda), CHUNK at a
    time, with det(I - M) = prod(1 - mu)."""
    sums = np.empty(len(lams))
    nearest = np.empty(len(lams))
    dets = np.empty(len(lams), dtype=complex)
    for s in range(0, len(lams), CHUNK):
        mu = np.linalg.eigvals(transfer_matrix(omega, b, lams[s:s + CHUNK]))
        ang = np.angle(mu)
        sums[s:s + CHUNK] = np.mod(ang, 2 * np.pi).sum(axis=1)
        pick = np.argmin(np.abs(ang), axis=1)[:, None]
        nearest[s:s + CHUNK] = np.take_along_axis(ang, pick, axis=1)[:, 0]
        dets[s:s + CHUNK] = np.prod(1.0 - mu, axis=1)
    arg_det = float(np.angle(np.linalg.det(b)))
    return sums, nearest, _real_det(omega, b, lams, arg_det, dets)


def nullspace_at(omega, b, lam: float) -> list:
    """Orthonormal basis of {c : B E(lambda a)c = E(lambda b)c}, from one SVD
    of I - M(lambda); [] off the spectrum."""
    _, sv, vh = np.linalg.svd(np.eye(omega.n) - transfer_matrix(omega, b, lam))
    return list(vh.conj()[sv < TOL_EIG])


# -- path tables -------------------------------------------------------------


def path_table(omega, b, i: int, t: float, t_min: float | None = None) -> PathTable:
    """The path table of interval i for time t (serving down to |t_min|),
    built after the state guard has passed t."""
    check_state_guard(omega, t)
    return _build_table(omega, b, i, t, t_min)


def build_table_per_state(
    omega, b, i: int, t: float, t_min: float | None = None
) -> PathTable:
    """``_build_table`` as it was before it propagated nodes: one heap entry
    (cum, j, m) and one dictionary entry per state (j, m), one lookup per
    (state, successor).  A state is complete before it is extended because
    states pop in order of cum, that of the first path to reach them."""
    b = np.asarray(b, dtype=complex)
    forward = t >= 0
    big_t = abs(t)
    small_t = big_t if t_min is None else abs(t_min)
    n = omega.n
    a, c = omega.endpoints[i]
    lefts, rights, lengths = omega.lefts, omega.rights, omega.lengths
    weights = (b if forward else b.conj().T).tolist()
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
    states = 0
    while heap:
        cum, j, m = heapq.heappop(heap)
        w, count = pending.pop((j, m))
        states += 1
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

    cols = list(zip(*rows))
    final, cum = np.array(cols[0], dtype=int), np.array(cols[1], dtype=float)
    weight, count = np.array(cols[2], dtype=complex), np.array(cols[3], dtype=np.int64)
    if forward:
        entry = np.array(lefts)[final]
        shift = entry - c + t - cum
    else:
        entry = np.array(rights)[final]
        shift = entry - a + t + cum
    return PathTable(
        forward,
        big_t,
        c if forward else a,
        final,
        entry,
        np.array(lengths)[final],
        cum,
        shift,
        weight,
        count,
        states,
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
    (``piece_containing``), each shifted on its own (``Atom.shifted``), and
    ``_merge_atoms`` sums the atoms of one frequency.  Its ``stats`` hold
    ``ends`` alone."""
    check_state_guard(omega, t)
    bps = np.array(sorted({p.lo for p in f.pieces} | {p.hi for p in f.pieces}))
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
                src = f.piece_containing(end)
                weight, shift = complex(table.weight[s]), float(table.shift[s])
                atoms.extend(atom.shifted(shift, weight) for atom in src.atoms)
            pieces.append(Piece(lo, hi, _merge_atoms(atoms)))
    function = PiecewiseExpPoly(omega, tuple(pieces))
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
    for lo, hi in common_refinement(f, g):
        mid = (lo + hi) / 2
        pf = f.piece_containing(mid)
        pg = g.piece_containing(mid)
        for af in pf.atoms:
            for ag in pg.atoms:
                prod = np.convolve(af.coeffs, np.conj(ag.coeffs))
                total += poly_exp_integral(prod, af.freq - ag.freq, lo, hi)
    return total
