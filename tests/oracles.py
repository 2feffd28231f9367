"""Checks the tests share that the package itself has no use for."""
import numpy as np

from spectral_intervals.evolution import EvolutionResult, PiecewiseExpPoly, Piece, _merge_atoms
from spectral_intervals.paths import PathTable, _build_table, check_state_guard
from spectral_intervals.spectrum import TOL_EIG, transfer_matrix


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
