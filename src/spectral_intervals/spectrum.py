"""Discrete spectra of the self-adjoint extensions D_B.

A real lambda belongs to the spectrum iff 1 is an eigenvalue of the unitary
transfer matrix M(lambda) = E(lambda*b_vec)* B E(lambda*a_vec); the
eigenspace is spanned by the null vectors of I - M(lambda).  The general
solver counts the roots of every grid cell from the eigenphases of M at its
ends (det M(lambda) = det B e^{-2 pi i lambda L}), halves the cells until
each root has a bracket, and solves the brackets of simple roots on the real
determinant g(lambda) (``_real_det``), one stacked LU per step, all open
cells at once.  Eigenphases come from the Hermitian Cayley transform of M,
one stacked solve and eigvalsh (``_eigenphases``).  The equal-length
shortcut reads the spectrum off the eigenphases of B.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boundary import UnitaryEigenData, cis, eig_unitary, require_unitary
from .errors import ConvergenceFailure, GuardExceeded, NotEqualLength, ValidationError
from .intervals import IntervalUnion

#: the bracket solver stops at brackets at most 2*TOL_ROOT wide and reports
#: their midpoint, so a located root is within TOL_ROOT
TOL_ROOT = 1e-13
#: singular values of I - M(lambda) below this span the eigenspace
TOL_EIG = 1e-8
#: a cell's phase count must lie this close to an integer
TOL_COUNT = 1e-6
#: cells narrower than this, relative to max(1, |lambda|), hold one root
MIN_CELL = 1e-11
#: matrices per stacked decomposition, which bounds its memory
CHUNK = 256
#: the default grid step, in mean root spacings 1/L
GRID_SPACINGS = 0.5
#: steps of the bracket solver without halving a bracket before it bisects it
STALL = 3
#: a matrix M with |det(I + M)| below this is decomposed by eigvals, not
#: through its Cayley transform (see ``_eigenphases``)
POLE_DET = 1e-2
#: a window predicted to hold more roots than this is refused
MAX_ROOTS = 10**6
#: a scan with more grid points than this is refused
MAX_GRID = 10**7


def transfer_matrix(omega: IntervalUnion, b, lam) -> np.ndarray:
    """M(lambda) = E(lambda*b_vec)* B E(lambda*a_vec), unitary for real lambda;
    stacked along the first axes for an array of lambdas."""
    b = np.asarray(b, dtype=complex)
    lam = np.asarray(lam, dtype=float)[..., None]
    left = np.conj(cis(lam * np.array(omega.rights)))
    right = cis(lam * np.array(omega.lefts))
    return left[..., :, None] * b * right[..., None, :]


def _eigenphases(mats: np.ndarray) -> tuple[np.ndarray, int]:
    """The eigenphases theta_k of a stack of unitaries, in (-pi, pi] along
    the last axis, and the number of matrices decomposed by eigvals.

    H = i (I + M)^{-1} (I - M) is Hermitian with eigenvalues tan(theta_k/2)
    (the Cayley transform of M), so one stacked solve and eigvalsh give
    theta = 2 arctan(eigvalsh(H)), 1.9-2.7 times cheaper than eigvals on a
    stack of 256 matrices of order 4 to 8.
    eigvalsh errs by about eps ||H|| on every eigenvalue, the one that
    locates a root included, and ||H|| is about 2 / min_k |1 + mu_k|: it
    grows without bound as an eigenvalue mu_k of M nears -1, and the solve
    raises at -1 for the whole stack.  A matrix with
    |det(I + M)| < POLE_DET = 1e-2 is decomposed by eigvals and never
    reaches the solve.  Each |1 + mu_k| is at most 2, so every other matrix
    has ||H|| <= 100 * 2^n; on the 122,230 matrices of the benchmark's
    scan pool those had ||H|| <= 2e3 and nearest angles within 3.5e-13 of
    eigvals' (6.5e-14 where the angle is below 1e-3, near a root), and 0.5%
    of the matrices took eigvals.
    """
    eye = np.eye(mats.shape[-1])
    plus = eye + mats
    pole = np.abs(np.linalg.det(plus)) < POLE_DET
    plus[pole] = eye
    poles = int(np.count_nonzero(pole))
    h = 1j * np.linalg.solve(plus, eye - mats)
    # the Hermitian part, not the lower triangle that eigvalsh reads: the
    # solve's error in the direction of an eigenvalue near -1 is about
    # eps / min|1 + mu_k|^2, and almost all of it is anti-Hermitian
    theta = 2 * np.arctan(np.linalg.eigvalsh(h + np.swapaxes(h.conj(), -1, -2)) / 2)
    if poles:
        theta[pole] = np.angle(np.linalg.eigvals(mats[pole]))
    return theta, poles


def _phase_data(omega: IntervalUnion, b, lams: np.ndarray, arg_det: float, stats: dict):
    """For each lambda, the sum of the eigenphases of M(lambda) in [0, 2pi),
    the signed angle of its eigenvalue closest to 1, and g(lambda) (see
    ``_real_det``) from the same eigenphases, det(I - M) = prod(1 - e^{i theta}).
    Matrices decomposed by eigvals (see ``_eigenphases``) are counted in
    ``stats["pole_rows"]``.

    Every eigenphase of M is strictly decreasing in lambda (each interval
    has positive length), so the nearest angle falls through zero at
    spectrum points and jumps only upwards, where two eigenvalues are
    equally close to 1.
    """
    sums = np.empty(len(lams))
    nearest = np.empty(len(lams))
    dets = np.empty(len(lams), dtype=complex)
    for s in range(0, len(lams), CHUNK):
        theta, poles = _eigenphases(transfer_matrix(omega, b, lams[s:s + CHUNK]))
        stats["pole_rows"] += poles
        sums[s:s + CHUNK] = np.mod(theta, 2 * np.pi).sum(axis=1)
        pick = np.argmin(np.abs(theta), axis=1)[:, None]
        nearest[s:s + CHUNK] = np.take_along_axis(theta, pick, axis=1)[:, 0]
        dets[s:s + CHUNK] = np.prod(1.0 - np.exp(1j * theta), axis=1)
    return sums, nearest, _real_det(omega, b, lams, arg_det, dets)


def _real_det(omega: IntervalUnion, b, lams: np.ndarray, arg_det: float, dets=None) -> np.ndarray:
    """g(lambda) = Re[i^n det(I - M(lambda)) e^{-i(arg det B - 2 pi lambda L)/2}],
    with arg det B given as ``arg_det``, from the determinants ``dets`` if
    given, else by one stacked LU per CHUNK lambdas.

    With eigenphases theta_k of M, det(I - M) = (-2i)^n e^{i sum theta_k/2}
    prod sin(theta_k/2), and e^{i sum theta_k/2} is the twist's inverse up to
    one sign for all lambda (det M = det B e^{-2 pi i lambda L}), so
    g = +-2^n prod sin(theta_k/2): real and analytic, zero exactly on the
    spectrum, with a sign change at every root of odd multiplicity.
    """
    if dets is None:
        dets = np.empty(len(lams), dtype=complex)
        eye = np.eye(omega.n)
        for s in range(0, len(lams), CHUNK):
            dets[s:s + CHUNK] = np.linalg.det(eye - transfer_matrix(omega, b, lams[s:s + CHUNK]))
    # the twist, in turns for cis
    turns = omega.n / 4 + lams * omega.measure / 2 - arg_det / (4 * np.pi)
    return (dets * cis(turns)).real


def _cell_counts(omega: IntervalUnion, edges, sums) -> np.ndarray:
    """Spectrum points, with multiplicity, between consecutive edges along
    the last axis.

    The eigenphases fall by L*(c - a) turns in total over a cell [a, c], so
    it holds L*(c - a) + (sum(c) - sum(a))/2pi roots.
    """
    raw = omega.measure * np.diff(edges) + np.diff(sums) / (2 * np.pi)
    counts = np.rint(raw)
    bad = (np.abs(raw - counts) > TOL_COUNT) | (counts < 0)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        right = k[:-1] + (k[-1] + 1,)
        raise ConvergenceFailure(
            f"phase count {raw[k]:.9g} on [{float(edges[k])!r}, {float(edges[right])!r}] "
            "is not a non-negative integer"
        )
    return counts.astype(int)


def _locate(omega: IntervalUnion, b, arg_det, grid, sums, nearest, g, counts, stats) -> np.ndarray:
    """The roots in the grid cells, sorted, one per root of any multiplicity.

    Level by level, over all open cells at once: a cell that holds one root
    brackets it for g if g strictly changes sign across it.  A cell that g
    does not bracket is a bracket of the nearest angle if the angle falls
    through zero across it (>= 0 at its left end, < 0 at its right) and it
    holds one root, or it is at the floor width, where its roots are one
    root of that multiplicity; any other floor cell yields its midpoint.
    Every other cell is halved, the midpoints of all of them in one
    ``_phase_data`` call, and each half is counted again.  The brackets are
    solved together at the end, each kind on its own function, from the
    secant of the nearest angle where it falls through zero across the
    bracket.
    """
    k = np.flatnonzero(counts)
    cells = [grid[k], grid[k + 1], sums[k], sums[k + 1], nearest[k], nearest[k + 1],
             g[k], g[k + 1], counts[k]]
    simple, angles, roots = [np.empty((5, 0))], [np.empty((5, 0))], [np.empty(0)]
    while len(cells[0]):
        a, c, sa, sc, na, nc, ga, gc, count = cells
        mid = 0.5 * (a + c)
        floor = c - a < MIN_CELL * np.maximum(1.0, np.abs(mid))
        # a zero of g at an end may be the root of the neighbouring cell: the
        # phase sums count a root on an edge on one side only
        one = (count == 1) & (np.sign(ga) * np.sign(gc) < 0)
        # an end where the angle is exactly 0 is a root of the cell it starts:
        # the phase sums take angles in [0, 2pi)
        falls = (na >= 0) & (nc < 0)
        angle = ~one & ((count == 1) | floor) & falls
        # first trial points: the secant of the nearest angle where it falls
        # through zero across the cell (the root itself where the eigenphases
        # are linear in lambda, as for a weighted permutation), else of g
        with np.errstate(divide="ignore", invalid="ignore"):
            xa = a + (c - a) * (na / (na - nc))
            xg = np.where(falls, xa, a + (c - a) * (ga / (ga - gc)))
        simple.append(np.stack([a, c, ga, gc, xg])[:, one])
        angles.append(np.stack([a, c, na, nc, xa])[:, angle])
        solve = one | angle
        roots.append(mid[floor & ~solve])
        split = ~(solve | floor)
        a, c, mid, sa, sc, na, nc, ga, gc = (
            x[split] for x in (a, c, mid, sa, sc, na, nc, ga, gc)
        )
        if not len(mid):
            break
        smid, nmid, gmid = _phase_data(omega, b, mid, arg_det, stats)
        stats["levels"] += 1
        stats["bisected_cells"] += len(mid)
        stats["eig_rows"] += len(mid)
        halves = _cell_counts(
            omega, np.stack([a, mid, c], axis=1), np.stack([sa, smid, sc], axis=1)
        )
        pairs = ((a, mid), (mid, c), (sa, smid), (smid, sc), (na, nmid), (nmid, nc),
                 (ga, gmid), (gmid, gc), halves.T)
        cells = [np.concatenate(pair) for pair in pairs]
        cells = [x[cells[-1] > 0] for x in cells]
    roots.append(_solve_brackets(
        lambda x: _real_det(omega, b, x, arg_det), "lu_rows", *np.concatenate(simple, axis=1), stats
    ))
    roots.append(_solve_brackets(
        lambda x: _phase_data(omega, b, x, arg_det, stats)[1], "eig_rows",
        *np.concatenate(angles, axis=1), stats,
    ))
    return np.sort(np.concatenate(roots))


def _solve_brackets(fn, rows: str, a, c, fa, fc, x, stats) -> np.ndarray:
    """A root of ``fn`` in each bracket [a, c], where fa and fc have strictly
    opposite signs or fa == 0, from the first trial points ``x``.

    Illinois false position over all brackets at once, one ``fn`` call on
    the stacked trial points per iteration (counted in ``stats[rows]``); a
    bracket that has not halved in STALL steps is bisected.  Every step
    keeps a sign change of ``fn``: for g, which is continuous, a root;
    for the nearest angle, which jumps only upwards, the sign change
    >= 0 -> < 0 kept is a root too.  A bracket with fa == 0 has its root at
    a; one at most 2*TOL_ROOT wide, or with no float inside, has it at its
    midpoint.
    """
    roots = np.empty(len(a))
    idx = np.arange(len(a))
    # the end each bracket's last step moved (+1 left, -1 right), its width
    # when it last halved and the steps since
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
        # a step lands at least TOL_ROOT inside the bracket: once one end
        # is at the root, the next step crosses it and closes the bracket
        x = np.clip(x, a + TOL_ROOT, c - TOL_ROOT)
        x = np.where((stall >= STALL) | (x <= a) | (x >= c), mid, x)
        fx = fn(x)
        stats["bracket_iterations"] += 1
        stats[rows] += len(x)
        left = (fx == 0) | ((fx > 0) == (fa > 0))
        # Illinois: the value at an end kept twice in a row is halved
        fa = np.where(~left & (moved == -1), 0.5 * fa, fa)
        fc = np.where(left & (moved == 1), 0.5 * fc, fc)
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        c, fc = np.where(left, c, x), np.where(left, fc, fx)
        moved = np.where(left, 1, -1)
        halved = c - a <= 0.5 * ref
        ref = np.where(halved, c - a, ref)
        stall = np.where(halved, 0, stall + 1)
        x = a + (c - a) * (fa / (fa - fc))


def _eigenspaces(omega: IntervalUnion, b, lams):
    """Orthonormal bases of {c : B E(lambda a)c = E(lambda b)c}, from stacked
    SVDs of I - M(lambda), and the largest boundary residual of each basis
    (0 for an empty one)."""
    lams = np.asarray(lams, dtype=float)
    bases: list[list[np.ndarray]] = []
    residuals = np.zeros(len(lams))
    for s in range(0, len(lams), CHUNK):
        lam = lams[s:s + CHUNK]
        _, sv, vh = np.linalg.svd(np.eye(omega.n) - transfer_matrix(omega, b, lam))
        vecs = vh.conj()  # rows: the right singular vectors
        null = sv < TOL_EIG
        res = np.where(null, _boundary_residuals(omega, b, lam[:, None], vecs), 0.0)
        residuals[s:s + CHUNK] = res.max(axis=1)
        # the null vectors of every root in order, split root by root
        rows = list(vecs[null])
        ends = np.cumsum(null.sum(axis=1)).tolist()
        bases += [rows[i:j] for i, j in zip([0] + ends, ends)]
    return bases, residuals.tolist()


def _boundary_residuals(omega: IntervalUnion, b, lams, vecs) -> np.ndarray:
    """|B E(lambda a)c - E(lambda b)c| for the vectors c along the last axis of
    ``vecs``; ``lams`` broadcasts against its other axes."""
    lam = np.asarray(lams, dtype=float)[..., None]
    lhs = (cis(lam * np.array(omega.lefts)) * vecs) @ np.asarray(b, dtype=complex).T
    rhs = cis(lam * np.array(omega.rights)) * vecs
    return np.linalg.norm(lhs - rhs, axis=-1)


def default_grid_step(omega: IntervalUnion) -> float:
    """GRID_SPACINGS mean root spacings 1/L.  The count certificate, not the
    grid, makes the spectrum complete: the step only trades grid points
    against refinement."""
    return GRID_SPACINGS / omega.measure


def default_window(omega: IntervalUnion) -> tuple[float, float]:
    half = max(5.0 * omega.measure, 5.0 * omega.n / omega.measure)
    return (-half, half)


def _checked(omega: IntervalUnion, window, grid_step) -> tuple[float, float, float]:
    """The window and the grid step, defaults filled in; bad values raise,
    and a window predicted to hold more than MAX_ROOTS roots trips the guard
    before anything is allocated."""
    lo, hi = default_window(omega) if window is None else window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"window must be finite with lo < hi, got ({lo}, {hi})")
    step = default_grid_step(omega) if grid_step is None else grid_step
    if not (math.isfinite(step) and step > 0):
        raise ValidationError(f"grid_step must be positive and finite, got {grid_step}")
    predicted = omega.measure * (hi - lo)
    if predicted > MAX_ROOTS:
        raise GuardExceeded(
            f"the window ({lo}, {hi}) holds about {predicted:.3g} roots, over the bound {MAX_ROOTS}"
        )
    return lo, hi, step


@dataclass
class SpectrumReport:
    """Eigenvalues of D_B in a window, with eigenspace data.

    root_count is the number of spectrum points in the window counted with
    multiplicity; every report has sum(dims) == root_count.  stats says how
    the report was produced: grid_points, levels (stacked bisection levels),
    bisected_cells, bracket_iterations, eig_rows (matrices decomposed, by
    their Cayley transform, eigvals or SVD), lu_rows (matrices passed to
    stacked determinants), pole_rows (those of the eig_rows with an
    eigenvalue near -1, decomposed by eigvals; see ``_eigenphases``) and
    seconds per stage (grid, locate, eigenspaces).
    """

    eigenvalues: list[float]
    eigenspaces: list[list[np.ndarray]]
    residuals: list[float]
    window: tuple[float, float]
    method: str
    root_count: int
    stats: dict = field(default_factory=dict)

    @property
    def dims(self) -> list[int]:
        return [len(basis) for basis in self.eigenspaces]

    def constant_flags(self, tol: float = 1e-6) -> list[bool]:
        return _constant_flags(self.eigenspaces, tol).tolist()


def _stats(grid_points: int, eig_rows: int) -> dict:
    """A report's stats before refinement; the caller adds ``seconds``."""
    return {
        "grid_points": grid_points,
        "levels": 0,
        "bisected_cells": 0,
        "bracket_iterations": 0,
        "eig_rows": eig_rows,
        "lu_rows": 0,
        "pole_rows": 0,
    }


def compute_spectrum(
    omega: IntervalUnion,
    b,
    window: tuple[float, float] | None = None,
    grid_step: float | None = None,
) -> SpectrumReport:
    """Count-certified solver for the spectrum in a window.

    Cuts the window into grid cells of about ``grid_step``, counts the roots
    of each cell from the eigenphases at its ends (stacked eigendecompositions
    of the whole grid), locates the roots of the cells that hold any (see
    ``_locate``), and attaches eigenspaces.  Raises ConvergenceFailure unless
    every count is an integer, every eigenspace is nonempty and their
    dimensions add up to the count of the window.
    """
    b = require_unitary(b)
    lo, hi, grid_step = _checked(omega, window, grid_step)
    t0 = time.perf_counter()
    # the window is closed: widened by the bisection floor, the counted range
    # holds a root on its edge
    edges = (lo - MIN_CELL * max(1.0, abs(lo)), hi + MIN_CELL * max(1.0, abs(hi)))
    points = max(2, math.ceil((hi - lo) / grid_step) + 1)
    if points > MAX_GRID:
        raise GuardExceeded(
            f"grid step {grid_step} gives {points} grid points, over the bound {MAX_GRID}"
        )
    grid = np.linspace(*edges, points)
    stats = _stats(len(grid), eig_rows=len(grid))
    arg_det = float(np.angle(np.linalg.det(b)))
    sums, nearest, g = _phase_data(omega, b, grid, arg_det, stats)
    counts = _cell_counts(omega, grid, sums)
    t1 = time.perf_counter()
    roots = _locate(omega, b, arg_det, grid, sums, nearest, g, counts, stats)
    # rounding can count the eigenvalues of a multiple root on both sides of
    # a cell edge: roots closer than the bisection floor are one root
    eigenvalues: list[float] = []
    for r in roots.tolist():
        if not eigenvalues or r - eigenvalues[-1] >= MIN_CELL * max(1.0, abs(r)):
            eigenvalues.append(r)
    t2 = time.perf_counter()
    eigenspaces, residuals = _eigenspaces(omega, b, eigenvalues)
    stats["eig_rows"] += len(eigenvalues)
    stats["seconds"] = {"grid": t1 - t0, "locate": t2 - t1, "eigenspaces": time.perf_counter() - t2}
    report = SpectrumReport(
        eigenvalues, eigenspaces, residuals, (lo, hi), "scan", int(counts.sum()), stats
    )
    if sum(report.dims) != report.root_count or 0 in report.dims:
        raise ConvergenceFailure(
            f"eigenspace dimensions {report.dims} do not add up to the "
            f"{report.root_count} roots counted in ({lo}, {hi})"
        )
    return report


def equal_length_spectrum(
    omega: IntervalUnion, b, window: tuple[float, float] | None = None
) -> SpectrumReport:
    """Spectrum via the eigenphases of B when all interval lengths are equal.

    lambda = (theta_j + k)/l for eigenphases theta_j; eigenspace vectors are
    c = E(-lambda a_vec) v with v an eigenvector of B.
    """
    return _equal_length(omega, b, window)[0]


def _equal_length(
    omega: IntervalUnion, b, window: tuple[float, float] | None
) -> tuple[SpectrumReport, UnitaryEigenData]:
    """``equal_length_spectrum`` and the eigendata of B it was read from."""
    if not omega.equal_lengths():
        raise NotEqualLength("intervals do not all have the same length")
    b = require_unitary(b)
    lo, hi, _ = _checked(omega, window, None)
    t0 = time.perf_counter()
    ell = omega.measure / omega.n
    eig = eig_unitary(b)
    groups, lams = eig.phase_groups(), []
    for group in groups:
        theta = eig.phases[group[0]]
        kmin = math.ceil(lo * ell - theta - 1e-12)
        kmax = math.floor(hi * ell - theta + 1e-12)
        lams.append((theta + np.arange(kmin, kmax + 1)) / ell)
    t1 = time.perf_counter()
    # per phase group, the basis of every lambda: shape (lambdas, group, n)
    vecs = [
        np.conj(cis(lam[:, None, None] * np.array(omega.lefts))) * eig.vectors[:, group].T
        for lam, group in zip(lams, groups)
    ]
    residuals = np.concatenate(
        [_boundary_residuals(omega, b, lam[:, None], v).max(axis=1) for lam, v in zip(lams, vecs)]
    )
    bases = [list(basis) for v in vecs for basis in v]
    lams = np.concatenate(lams)
    order = np.argsort(lams, kind="stable")
    stats = _stats(0, eig_rows=1)
    stats["seconds"] = {"grid": 0.0, "locate": t1 - t0, "eigenspaces": time.perf_counter() - t1}
    report = SpectrumReport(
        lams[order].tolist(),
        [bases[k] for k in order],
        residuals[order].tolist(),
        (lo, hi),
        "equal_length",
        sum(map(len, bases)),
        stats,
    )
    return report, eig


@dataclass
class SpectralCheck:
    """Outcome of the constant-eigenvector criterion for spectrality.

    verdict is one of "spectral_exact", "spectral_on_window", "not_spectral",
    "undecided".  For not_spectral, witness_lambda and witness_vectors hold
    an eigenvalue whose eigenspace is multidimensional or non-constant.
    """

    verdict: str
    witness_lambda: float | None
    witness_vectors: list[np.ndarray] | None
    report: SpectrumReport

    @property
    def is_spectral(self) -> bool:
        return self.verdict in ("spectral_exact", "spectral_on_window")


def _constant_flags(eigenspaces: list[list[np.ndarray]], tol: float) -> np.ndarray:
    """Per eigenspace, whether it is one-dimensional and spanned by a
    constant vector: every one-dimensional basis vector v is projected on
    the constant unit vector u at once, and v is constant when
    |v - (u*v)u| < tol."""
    flags = np.array([len(basis) == 1 for basis in eigenspaces], dtype=bool)
    if flags.any():
        v = np.array([basis[0] for basis in eigenspaces if len(basis) == 1])
        u = np.ones(v.shape[1]) / math.sqrt(v.shape[1])
        flags[flags] = np.linalg.norm(v - np.outer(v @ u, u), axis=1) < tol
    return flags


def spectral_matrix_check(
    omega: IntervalUnion,
    b,
    window: tuple[float, float] | None = None,
    tol_const: float = 1e-6,
    grid_step: float | None = None,
) -> SpectralCheck:
    """Decide whether B is a spectral boundary matrix for omega.

    Every spectrum point must have a one-dimensional eigenspace spanned by a
    constant vector.  Equal-length sets whose left endpoints are congruent
    modulo the common length admit an exact verdict from the finite
    eigenphase set; otherwise the verdict is limited to the window.
    ``grid_step`` is the scan's; the equal-length shortcut needs no grid but
    still rejects a bad one, like a bad window.
    """
    _checked(omega, window, grid_step)
    if omega.equal_lengths():
        report, eig = _equal_length(omega, b, window)
        ell = omega.measure / omega.n
        # one representative lambda per phase class, plus every window point
        alphas = np.array(omega.lefts)
        lams, bases = [], []
        for group in eig.phase_groups():
            lam = eig.phases[group[0]] / ell
            lams.append(lam)
            bases.append([np.conj(cis(lam * alphas)) * eig.vectors[:, idx] for idx in group])
        bad = np.flatnonzero(~_constant_flags(bases, tol_const))
        if bad.size:
            return SpectralCheck("not_spectral", lams[bad[0]], bases[bad[0]], report)
        offsets = [(a - omega.lefts[0]) / ell for a in omega.lefts]
        if all(abs(o - round(o)) < omega.tol() for o in offsets):
            return SpectralCheck("spectral_exact", None, None, report)
    else:
        report = compute_spectrum(omega, b, window, grid_step)
        if not report.eigenvalues:
            return SpectralCheck("undecided", None, None, report)
    bad = np.flatnonzero(~_constant_flags(report.eigenspaces, tol_const))
    if bad.size:
        k = bad[0]
        return SpectralCheck("not_spectral", report.eigenvalues[k], report.eigenspaces[k], report)
    return SpectralCheck("spectral_on_window", None, None, report)
