"""Discrete spectra of the self-adjoint extensions D_B.

A real lambda belongs to the spectrum iff 1 is an eigenvalue of the unitary
transfer matrix M(lambda) = E(lambda*b_vec)* B E(lambda*a_vec); the
eigenspace is spanned by the null vectors of I - M(lambda).  The scan works
on the gauge form W(lambda) = diag(e^{-2 pi i lambda l}) B (``_gauge``),
unitarily similar to M: same eigenphases, same determinants, and null
vectors v of I - W map back to c = E(-lambda a_vec) v.  The general solver
counts the roots between knots, every KNOT_CELLS-th grid point, from the
eigenphases of W there (det W(lambda) = det B e^{-2 pi i lambda L}), and
takes the real determinant g(lambda) (``_real_det``) at every grid point by
stacked LU: a super-cell between two knots with as many sign changes of g as
roots is certified, one simple root per sign change, and any other is
counted cell by cell (``_grid_cells``).  It halves the cells until each root
has a bracket, and solves the brackets of simple roots on g, one stacked LU
per step, all open cells at once, by Anderson-Bjorck false position.
Eigenphases come from the Hermitian Cayley transform of W, one stacked solve
and eigvalsh (``_eigenphases``).  A root whose count-1 cell certifies that
it is simple takes its null vector from one stacked shifted inverse of
I - W (``_solve_null``); every other root, from stacked SVDs
(``_eigenspaces``).
Equal lengths, and a B supported on a permutation, have the spectrum in
closed form as lattices of modes (``_modes``): one per eigenvector of B, or
one per cycle of the permutation.  ``_spectrum`` is the one choice of
method: it reads the modes off (``_lattice``) where they exist and scans
otherwise, for ``spectral_matrix_check``, which decides the closed-form
pairs on all of R, ``equal_length_spectrum`` and the command line.
``compute_spectrum`` is the scan alone, on any pair.
Both producers, ``_scan`` and ``_lattice``, merge roots by one rule
(``_starts``) and hand their eigenvectors, one per row with the index of
its eigenvalue, to one finisher (``_finish``): it phase-fixes every vector
(``_fixed_phase``), stacks the bases in eigenvalue order in one block
(``SpectrumReport.vectors``), measures each basis's residual and certifies
that every eigenspace is nonempty and the dimensions add up to the count.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .boundary import _cycles, _eig_unitary, _support, cis, require_boundary
from .errors import ConvergenceFailure, GuardExceeded, NotEqualLength, ValidationError
from .intervals import IntervalUnion

#: the bracket solver stops at brackets at most 2*max(TOL_ROOT, one ulp)
#: wide and reports a point within max(TOL_ROOT, one ulp) of both their
#: ends, so a located root is within max(TOL_ROOT, one ulp of the root)
TOL_ROOT = 1e-13
#: singular values of I - W(lambda) below this span the eigenspace: the
#: SVD's null vectors, or a solved vector x with |(I - W)x| below it (see
#: ``_eigenspaces``)
TOL_EIG = 1e-8
#: a root whose count-1 cell bounds sigma_2(I - W) below by this takes its
#: null vector from the shifted solve, not the SVD
SIMPLE_GAP = 100 * TOL_EIG
#: the shift of the solve (see ``_solve_null``)
SHIFT = 1e-12
#: entries of a reported vector whose modulus is within this fraction of the
#: largest tie for the entry made real and positive (see ``_fixed_phase``)
PHASE_TIE = 1e-6
#: a cell's phase count must lie this close to an integer
TOL_COUNT = 1e-6
#: cells narrower than this, relative to max(1, |lambda|), hold one root
MIN_CELL = 1e-11
#: matrices per stacked decomposition, which bounds its memory
CHUNK = 256
#: the default grid step, in mean root spacings 1/L
GRID_SPACINGS = 0.5
#: grid cells per super-cell: eigenphases count the roots at every
#: KNOT_CELLS-th grid point and the last (see ``_grid_cells``)
KNOT_CELLS = 8
#: a grid value of g with |g| <= SIGN_FLOOR * 2^n has no sign: g by LU and
#: g from eigvals agreed to 8.6e-14 * 2^n on the benchmark's scan pool
SIGN_FLOOR = 1e-11
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
    stacked along the first axes for an array of lambdas.  The scan itself
    builds the similar W(lambda) (``_gauge``)."""
    b = np.asarray(b, dtype=complex)
    lam = np.asarray(lam, dtype=float)[..., None]
    left = np.conj(cis(lam * np.array(omega.rights)))
    right = cis(lam * np.array(omega.lefts))
    return left[..., :, None] * b * right[..., None, :]


def _gauge(omega: IntervalUnion, b, lam) -> np.ndarray:
    """W(lambda) = diag(e^{-2 pi i lambda l}) B = E(lambda a) M(lambda) E(lambda a)*,
    one phase per length; stacked along the first axes for an array of
    lambdas.  ``b`` is a complex array."""
    lam = np.asarray(lam, dtype=float)[..., None]
    return cis(-lam * np.array(omega.lengths))[..., :, None] * b


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
    """For each lambda, the sum of the eigenphases of W(lambda) in [0, 2pi),
    the signed angle of its eigenvalue closest to 1, and g(lambda) (see
    ``_real_det``) from the same eigenphases, det(I - W) = prod(1 - e^{i theta}).
    Matrices decomposed by eigvals (see ``_eigenphases``) are counted in
    ``stats["pole_rows"]``.

    Every eigenphase of W is strictly decreasing in lambda (each interval
    has positive length), so the nearest angle falls through zero at
    spectrum points and jumps only upwards, where two eigenvalues are
    equally close to 1.
    """
    sums = np.empty(len(lams))
    nearest = np.empty(len(lams))
    dets = np.empty(len(lams), dtype=complex)
    for s in range(0, len(lams), CHUNK):
        theta, poles = _eigenphases(_gauge(omega, b, lams[s:s + CHUNK]))
        stats["pole_rows"] += poles
        sums[s:s + CHUNK] = np.mod(theta, 2 * np.pi).sum(axis=1)
        pick = np.argmin(np.abs(theta), axis=1)[:, None]
        nearest[s:s + CHUNK] = np.take_along_axis(theta, pick, axis=1)[:, 0]
        dets[s:s + CHUNK] = np.prod(1.0 - np.exp(1j * theta), axis=1)
    return sums, nearest, _real_det(omega, b, lams, arg_det, dets)


def _real_det(omega: IntervalUnion, b, lams: np.ndarray, arg_det: float, dets=None) -> np.ndarray:
    """g(lambda) = Re[i^n det(I - W(lambda)) e^{-i(arg det B - 2 pi lambda L)/2}],
    with arg det B given as ``arg_det``, from the determinants ``dets`` if
    given, else by one stacked LU per CHUNK lambdas.  det(I - W) = det(I - M).

    With eigenphases theta_k of W, det(I - W) = (-2i)^n e^{i sum theta_k/2}
    prod sin(theta_k/2), and e^{i sum theta_k/2} is the twist's inverse up to
    one sign for all lambda (det W = det B e^{-2 pi i lambda L}), so
    g = +-2^n prod sin(theta_k/2): real and analytic, zero exactly on the
    spectrum, with a sign change at every root of odd multiplicity.
    """
    if dets is None:
        dets = np.empty(len(lams), dtype=complex)
        eye = np.eye(omega.n)
        for s in range(0, len(lams), CHUNK):
            dets[s:s + CHUNK] = np.linalg.det(eye - _gauge(omega, b, lams[s:s + CHUNK]))
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


def _grid_cells(omega: IntervalUnion, b, grid, arg_det: float, stats: dict):
    """The grid cells that hold roots, as ``_locate`` takes them, and the
    number of roots on the grid.

    g is taken at every grid point, by one stacked LU per CHUNK points, and
    the eigenphases only at the knots: every KNOT_CELLS-th grid point and
    the last.  They count the roots of each super-cell between two knots
    exactly.  A super-cell of count C with exactly C grid cells across which
    g strictly changes sign is certified: each of those cells holds an odd
    number of roots, so exactly one, a simple root, and every other cell of
    the super-cell none.  A certified cell goes to ``_locate`` with count 1
    and no phase data (NaN) at an end that is not a knot.  Every other
    super-cell takes eigenphases at its interior points, and each of its
    cells is counted.  A value of g with |g| <= SIGN_FLOOR * 2^n has no sign.
    """
    g = _real_det(omega, b, grid, arg_det)
    stats["lu_rows"] += len(grid)
    knots = np.append(np.arange(0, len(grid) - 1, KNOT_CELLS), len(grid) - 1)
    sums, nearest = np.full(len(grid), np.nan), np.full(len(grid), np.nan)
    sums[knots], nearest[knots], _ = _phase_data(omega, b, grid[knots], arg_det, stats)
    counts = _cell_counts(omega, grid[knots], sums[knots])
    sign = np.where(np.abs(g) > SIGN_FLOOR * 2.0**omega.n, np.sign(g), 0.0)
    change = sign[:-1] * sign[1:] < 0
    # the super-cell of each grid cell, and of each point but the last
    cell = np.arange(len(grid) - 1)
    sup = cell // KNOT_CELLS
    recount = np.bincount(sup[change], minlength=len(counts)) != counts
    redo = recount[sup]
    inner = np.flatnonzero(redo & (cell % KNOT_CELLS != 0))
    sums[inner], nearest[inner], _ = _phase_data(omega, b, grid[inner], arg_det, stats)
    stats["knots"], stats["recounted"] = len(knots), int(np.count_nonzero(recount))
    stats["eig_rows"] += len(knots) + len(inner)
    k = np.flatnonzero(redo)
    ends = np.stack([k, k + 1], axis=1)
    fine = _cell_counts(omega, grid[ends], sums[ends])[:, 0]
    k, fine = k[fine > 0], fine[fine > 0]
    one = np.flatnonzero(change & ~redo)
    k = np.concatenate([one, k])
    cells = [grid[k], grid[k + 1], sums[k], sums[k + 1], nearest[k], nearest[k + 1],
             g[k], g[k + 1], np.concatenate([np.ones(len(one), dtype=int), fine])]
    return cells, int(counts.sum())


def _sine_root(omega: IntervalUnion, a, c, ga, gc) -> np.ndarray:
    """The root r nearest the midpoint m of [a, c] of the sinusoid
    A sin(pi L (x - r)) through (a, ga) and (c, gc), the first trial point
    of a g bracket without a falling nearest angle.  It is the root of g
    where g is one sinusoid, as for any single weighted cycle, since
    prod_k sin(x + k pi/n) = sin(n x)/2^(n-1).

    With t = pi L (c - a)/2, ga + gc = -2A cos t sin(pi L (r - m)) and
    gc - ga = 2A sin t cos(pi L (r - m)).
    """
    t = 0.5 * np.pi * omega.measure * (c - a)
    phi = np.arctan2(-(ga + gc) * np.sin(t), (gc - ga) * np.cos(t))
    phi -= np.pi * np.round(phi / np.pi)
    return 0.5 * (a + c) + phi / (np.pi * omega.measure)


def _locate(omega: IntervalUnion, b, arg_det, cells, stats) -> tuple[np.ndarray, np.ndarray]:
    """The roots in the ``cells`` (see ``_grid_cells``), sorted, one per
    root of any multiplicity, and a cell of each (one column per root): for
    a root solved on g, the cell [a, c] whose count is 1, else the empty
    cell [root, root].

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
    bracket, else from the root of the sinusoid through g at its ends
    (``_sine_root``).
    """
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
        # are linear in lambda, as for a weighted permutation), else the
        # root of the sinusoid through g at its ends
        with np.errstate(divide="ignore", invalid="ignore"):
            xa = a + (c - a) * (na / (na - nc))
        xg = np.where(falls, xa, _sine_root(omega, a, c, ga, gc))
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
    simple, angles, roots = (np.concatenate(x, axis=-1) for x in (simple, angles, roots))
    stats["g_roots"], stats["angle_roots"], stats["floor_roots"] = (
        simple.shape[1], angles.shape[1], len(roots)
    )
    g_roots = _solve_brackets(lambda x: _real_det(omega, b, x, arg_det), "lu_rows", *simple, stats)
    roots = np.concatenate([
        roots,
        _solve_brackets(
            lambda x: _phase_data(omega, b, x, arg_det, stats)[1], "eig_rows", *angles, stats
        ),
    ])
    # the count-1 cell of each g root; the others get the empty cell [r, r]
    lams = np.concatenate([g_roots, roots])
    cells = np.stack([np.concatenate([simple[0], roots]), np.concatenate([simple[1], roots])])
    order = np.argsort(lams, kind="stable")
    return lams[order], cells[:, order]


def _solve_brackets(fn, rows: str, a, c, fa, fc, x, stats) -> np.ndarray:
    """A root of ``fn`` in each bracket [a, c], where fa and fc have strictly
    opposite signs or fa == 0, from the first trial points ``x``.

    Anderson-Bjorck false position (BIT 13, 1973) over all brackets at once,
    one ``fn`` call on the stacked trial points per iteration (counted in
    ``stats[rows]``); a bracket that has not halved in STALL steps is
    bisected.  Every step keeps a sign change of ``fn``: for g, which is
    continuous, a root; for the nearest angle, which jumps only upwards, the
    sign change >= 0 -> < 0 kept is a root too.  A bracket with fa == 0 has
    its root at a; one at most 2*max(TOL_ROOT, one ulp) wide, or with no
    float inside, has it at its false-position point, kept within
    max(TOL_ROOT, one ulp) of both its ends.
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
        # from |lambda| = 512 on one ulp exceeds TOL_ROOT, and from 1024 on
        # a + TOL_ROOT rounds back to a
        tol = np.maximum(TOL_ROOT, np.spacing(np.abs(mid)))
        done = (fa == 0) | (c - a <= 2 * tol) | (mid <= a) | (mid >= c)
        # the state is filtered only on a step that closes a bracket: the
        # first steps of a scan close none
        if done.any():
            # x is the false-position point of the bracket: a trial point
            # already at the root to rounding is reported there, not moved
            # by up to tol to the midpoint
            last = np.clip(x, c - tol, a + tol)
            roots[idx[done]] = np.where(fa == 0, a, last)[done]
            a, c, fa, fc, x, mid, tol, moved, ref, stall, idx = (
                v[~done] for v in (a, c, fa, fc, x, mid, tol, moved, ref, stall, idx)
            )
        if not len(idx):
            return roots
        # a step lands at least tol inside the bracket: once one end is at
        # the root, the next step crosses it and closes the bracket
        x = np.clip(x, a + tol, c - tol)
        x = np.where((stall >= STALL) | (x <= a) | (x >= c), mid, x)
        fx = fn(x)
        stats["bracket_iterations"] += 1
        stats[rows] += len(x)
        left = (fx == 0) | ((fx > 0) == (fa > 0))
        # Anderson-Bjorck: the value at an end kept twice in a row is scaled
        # by m = 1 - f(x)/f(replaced end), by 1/2 where m <= 0.  The replaced
        # end was set by the last step, so its value is unscaled and nonzero
        m = 1.0 - fx / np.where(left, fa, fc)
        m = np.where(m > 0, m, 0.5)
        fa = np.where(~left & (moved == -1), m * fa, fa)
        fc = np.where(left & (moved == 1), m * fc, fc)
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        c, fc = np.where(left, c, x), np.where(left, fc, fx)
        moved = np.where(left, 1, -1)
        halved = c - a <= 0.5 * ref
        ref = np.where(halved, c - a, ref)
        stall = np.where(halved, 0, stall + 1)
        x = a + (c - a) * (fa / (fa - fc))


def _eigenspaces(omega: IntervalUnion, b, lams, cells, stats: dict):
    """The eigenvectors at the roots ``lams``: unit vectors c, one per row,
    of {c : B E(lambda a)c = E(lambda b)c}, and the index of the root of
    each, for ``_finish``.  A null vector v of I - W maps to
    c = E(-lambda a) v, of the same norm.  The rows of one root come in the
    order the SVD gives them.

    ``cells`` holds, one column per root, a cell [a, c] that the phase sums
    count one root in, or the empty cell [lambda, lambda].  A root takes its
    null vector from a shifted solve (``_solve_null``) when two certificates
    hold, and stacked SVDs of I - W otherwise:
    - sigma_2(I - W) >= SIMPLE_GAP.  Every eigenphase of W falls at a rate
      between 2 pi l_min and 2 pi l_max, and only one crosses 0 in the cell,
      so at a distance d = min(lambda - a, c - lambda) from its ends every
      other one is at least 2 pi l_min d away from 0 (mod 2 pi), and
      sigma_2 >= 2 sin(min(pi/2, pi l_min d)).
    - sigma_1 < TOL_EIG: the unit solution x has |(I - W)x| < TOL_EIG.
    Together they prove that the SVD would find exactly one singular value
    below TOL_EIG.  The roots are counted in ``stats["solve_rows"]`` and
    ``stats["svd_rows"]``.
    """
    lams = np.asarray(lams, dtype=float)
    dist = np.minimum(lams - cells[0], cells[1] - lams)
    simple = 2 * np.sin(np.minimum(np.pi / 2, np.pi * omega.lmin * dist)) >= SIMPLE_GAP
    rows, owner = [np.empty((0, omega.n), dtype=complex)], [np.empty(0, dtype=int)]
    for s in range(0, len(lams), CHUNK):
        mats = np.eye(omega.n) - _gauge(omega, b, lams[s:s + CHUNK])
        one = simple[s:s + CHUNK].copy()
        vecs, ok = _solve_null(mats[one])
        one[one] = ok
        solved, svd = np.flatnonzero(one), np.flatnonzero(~one)
        rows.append(vecs[ok])
        owner.append(s + solved)
        stats["solve_rows"] += len(solved)
        stats["svd_rows"] += len(svd)
        if len(svd):
            _, sv, vh = np.linalg.svd(mats[svd])
            null = sv < TOL_EIG
            rows.append(vh.conj()[null])
            owner.append(s + np.repeat(svd, null.sum(axis=1)))
    owner = np.concatenate(owner)
    return np.conj(cis(lams[owner, None] * np.array(omega.lefts))) * np.concatenate(rows), owner


def _solve_null(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of I - W(lambda), a unit vector x of each by two steps of
    inverse iteration with shift SHIFT, and whether |(I - W)x| < TOL_EIG.

    I - W is normal with eigenvalues mu_k on the circle |z - 1| = 1, so
    I - W + SHIFT*I has smallest singular value at least SHIFT: one stacked
    inverse G never meets a singular matrix, not even at a root where I - W
    is exactly singular in floating point.  Column j of G is
    sum_k v_k conj(v_k[j]) / (mu_k + SHIFT), one step from e_j; the column of
    largest norm has |v_1[j]| >= 1/sqrt(n), and a product with G is the
    second step.
    """
    g = np.linalg.inv(mats + SHIFT * np.eye(mats.shape[-1]))
    pick = np.argmax(np.linalg.norm(g, axis=-2), axis=-1)
    x = (g @ g[np.arange(len(g)), :, pick, None])[..., 0]
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    return x, np.linalg.norm((mats @ x[..., None])[..., 0], axis=-1) < TOL_EIG


def _fixed_phase(vecs: np.ndarray) -> np.ndarray:
    """The rows of ``vecs``, each nonzero one rotated so that its first entry
    of modulus within a fraction PHASE_TIE of the largest is real and
    positive.  Ties within PHASE_TIE take the first entry, so two
    decompositions that agree to rounding fix the same entry."""
    mod = np.abs(vecs)
    first = (mod >= (1 - PHASE_TIE) * mod.max(axis=1, keepdims=True)).argmax(axis=1)
    rows = np.arange(len(vecs))
    size = mod[rows, first]
    out = vecs * (vecs[rows, first].conj() / size)[:, None]
    # the rotated entry is its modulus up to rounding: set it exactly
    out[rows, first] = size
    return out


def _boundary_residuals(omega: IntervalUnion, b, lams, vecs) -> np.ndarray:
    """|B E(lambda a)c - E(lambda b)c| for the vectors c along the last axis of
    ``vecs``; ``lams`` broadcasts against its other axes."""
    lam = np.asarray(lams, dtype=float)[..., None]
    lhs = (cis(lam * np.array(omega.lefts)) * vecs) @ np.asarray(b, dtype=complex).T
    rhs = cis(lam * np.array(omega.rights)) * vecs
    return np.linalg.norm(lhs - rhs, axis=-1)


def _starts(roots: np.ndarray) -> np.ndarray:
    """Whether each of the sorted ``roots`` starts an eigenvalue: a root
    closer than the bisection floor MIN_CELL * max(1, |lambda|) to the one
    before it joins that one's eigenvalue, so a chain of such roots is one."""
    new = np.ones(len(roots), dtype=bool)
    new[1:] = roots[1:] - roots[:-1] >= MIN_CELL * np.maximum(1.0, np.abs(roots[1:]))
    return new


def _finish(omega, b, lams, rows, owner, window, method, root_count, stats) -> SpectrumReport:
    """The report of the sorted eigenvalues ``lams`` whose eigenvectors are
    the ``rows``, row r one of the basis of lams[owner[r]]: every report is
    built here (``_scan``, ``_lattice``).  The rows are phase-fixed
    (``_fixed_phase``) and stacked basis by basis, each basis in the order
    given; each basis reports its largest boundary residual against the
    given B.  Raises ConvergenceFailure unless every basis is nonempty and
    their dimensions add up to root_count."""
    order = np.argsort(owner, kind="stable")
    owner, vecs = owner[order], _fixed_phase(rows[order])
    dims = np.bincount(owner, minlength=len(lams))
    if dims.sum() != root_count or not dims.all():
        raise ConvergenceFailure(
            f"eigenspace dimensions {dims.tolist()} do not add up to the "
            f"{root_count} roots counted in ({window[0]}, {window[1]})"
        )
    residuals = np.zeros(len(lams))
    np.maximum.at(residuals, owner, _boundary_residuals(omega, b, lams[owner], vecs))
    return SpectrumReport(
        lams.tolist(), vecs, dims.tolist(), residuals.tolist(), window, method, root_count, stats
    )


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


def _edges(lo: float, hi: float) -> tuple[float, float]:
    """The window (lo, hi) widened by the bisection floor at both ends: the
    window is closed, and the counted range holds a root on its edge."""
    return lo - MIN_CELL * max(1.0, abs(lo)), hi + MIN_CELL * max(1.0, abs(hi))


@dataclass
class SpectrumReport:
    """Eigenvalues of D_B in a window, with eigenspace data.

    vectors holds every eigenspace basis, one unit vector c per row, basis
    after basis in eigenvalue order: shape (root_count, n), the basis of the
    k-th eigenvalue in the dims[k] rows from sum(dims[:k]) on, each
    phase-fixed (``_fixed_phase``).  residuals[k] is the largest boundary
    residual |B E(lambda a)c - E(lambda b)c| of that basis.  eigenspaces is
    a read-only view of the same rows, one list per eigenvalue.
    root_count is the number of spectrum points in the window counted with
    multiplicity; every report has nonempty bases and
    sum(dims) == root_count (``_finish``).  method is
    "scan" (``compute_spectrum``), or "equal_length" or "cycles", the
    lattices of modes of equal lengths or of a B supported on a permutation
    (``_modes``), read off wherever they exist (``_spectrum``).  stats says
    how the report was produced, and reads 0 on the closed forms but for
    eig_rows = 1 (B) on equal_length and support_residual, the distance
    max|B - B'| from the B given to the B' the report was computed from
    (``boundary._support``; 0.0 but on cycles):
    grid_points, knots (grid points whose eigenphases count the roots of the
    super-cells between them), recounted (super-cells whose sign changes of
    g did not match their count, counted cell by cell), levels (stacked
    bisection levels), bisected_cells, bracket_iterations, eig_rows
    (matrices whose eigenphases were computed, by their Cayley transform or
    eigvals), lu_rows (matrices
    passed to stacked determinants), pole_rows (those of the eig_rows with
    an eigenvalue near -1, decomposed by eigvals; see ``_eigenphases``),
    how each eigenspace was found: solve_rows (certified simple, by the
    shifted solve) and svd_rows (by SVD), one per eigenvalue, how the roots
    were refined: g_roots (on sign-change brackets of g),
    angle_roots (on brackets of the nearest angle) and floor_roots (the
    midpoints of floor-width cells), counted before roots closer than the
    floor are merged, and seconds per stage (grid, locate, eigenspaces).
    """

    eigenvalues: list[float]
    vectors: np.ndarray
    dims: list[int]
    residuals: list[float]
    window: tuple[float, float]
    method: str
    root_count: int
    stats: dict = field(default_factory=dict)

    @property
    def eigenspaces(self) -> list[list[np.ndarray]]:
        ends = list(accumulate(self.dims))
        rows = list(self.vectors)
        return [rows[i:j] for i, j in zip([0] + ends, ends)]

    def constant_flags(self, tol: float = 1e-6) -> list[bool]:
        return _constant_flags(self, tol).tolist()


def _stats(grid_points: int, eig_rows: int, support_residual: float = 0.0) -> dict:
    """A report's stats before refinement; the caller adds ``seconds``."""
    return {
        "grid_points": grid_points,
        "knots": 0,
        "recounted": 0,
        "levels": 0,
        "bisected_cells": 0,
        "bracket_iterations": 0,
        "eig_rows": eig_rows,
        "lu_rows": 0,
        "pole_rows": 0,
        "svd_rows": 0,
        "solve_rows": 0,
        "g_roots": 0,
        "angle_roots": 0,
        "floor_roots": 0,
        "support_residual": support_residual,
    }


def compute_spectrum(
    omega: IntervalUnion,
    b,
    window: tuple[float, float] | None = None,
    grid_step: float | None = None,
) -> SpectrumReport:
    """Count-certified solver for the spectrum in a window.

    Cuts the window into grid cells of about ``grid_step``, finds the cells
    that hold roots and their counts from eigenphases at the knots and the
    sign of g at every grid point (see ``_grid_cells``), locates the roots
    of those cells (see ``_locate``), and attaches eigenspaces.  Raises
    ConvergenceFailure unless every count is an integer, every eigenspace is
    nonempty and their dimensions add up to the count of the window.
    """
    b = require_boundary(omega, b)
    return _scan(omega, b, *_checked(omega, window, grid_step))


def _scan(omega: IntervalUnion, b: np.ndarray, lo: float, hi: float, grid_step: float) -> SpectrumReport:
    """``compute_spectrum`` on a checked B (``require_boundary``), window and
    grid step (``_checked``)."""
    t0 = time.perf_counter()
    edges = _edges(lo, hi)
    points = max(2, math.ceil((hi - lo) / grid_step) + 1)
    if points > MAX_GRID:
        raise GuardExceeded(
            f"grid step {grid_step} gives {points} grid points, over the bound {MAX_GRID}"
        )
    grid = np.linspace(*edges, points)
    stats = _stats(len(grid), eig_rows=0)
    arg_det = float(np.angle(np.linalg.det(b)))
    cells, root_count = _grid_cells(omega, b, grid, arg_det, stats)
    t1 = time.perf_counter()
    roots, cells = _locate(omega, b, arg_det, cells, stats)
    # rounding can count the eigenvalues of a multiple root on both sides of
    # a cell edge: a chain of roots closer than the bisection floor is one
    # root, with the cell of the first (its sigma_2 bound holds whatever was
    # merged)
    new = _starts(roots)
    lams = roots[new]
    t2 = time.perf_counter()
    rows, owner = _eigenspaces(omega, b, lams, cells[:, new], stats)
    report = _finish(omega, b, lams, rows, owner, (lo, hi), "scan", root_count, stats)
    stats["seconds"] = {"grid": t1 - t0, "locate": t2 - t1, "eigenspaces": time.perf_counter() - t2}
    return report


def equal_length_spectrum(
    omega: IntervalUnion, b, window: tuple[float, float] | None = None
) -> SpectrumReport:
    """Spectrum via the eigenphases of B when all interval lengths are equal:
    lambda = (theta_j + k)/l for eigenphases theta_j, with vectors
    c = E(-lambda a_vec) v for v an eigenvector of B (see ``_modes``)."""
    if not omega.equal_lengths():
        raise NotEqualLength("intervals do not all have the same length")
    return _spectrum(omega, b, window, None)[0]


def _kspan(theta: float, period: float, lo: float, hi: float) -> tuple[int, int]:
    """The first and last integer k with (theta + k)/period in [lo, hi], to a
    slack of 1e-12 in k; the last is below the first when there is none."""
    return math.ceil(lo * period - theta - 1e-12), math.floor(hi * period - theta + 1e-12)


def _modes(omega: IntervalUnion, b: np.ndarray):
    """The spectrum of (omega, B) in closed form, as lattices of modes, with
    its method and its support residual; None when it has none and is
    scanned.  ``b`` is checked (``require_boundary``).

    Mode m has the roots (theta[m] + k)/period[m], k in Z, with the vector
    cis(lambda rate[m]) base[m] at each; they come as the arrays
    (theta, period, rate, base), one row of rate and base per mode.
    - Equal lengths l ("equal_length"): one mode per eigenvector v of B,
      phase group by phase group, theta the eigenphase of the group's first,
      period l, rate -a_vec and base v.
    - One entry of modulus at least UNITARITY_TOL in every row and column
      of B, so B is supported on a permutation sigma ("cycles"; see
      ``boundary._support``): the modes of B', B with the entries off sigma
      set to 0, and the support residual max|B - B'|, 0.0 on equal
      lengths.  One mode per cycle C of sigma, in the order of its first
      interval, theta = arg prod_{i in C} B'[i, sigma(i)] / 2 pi in [0, 1)
      and period L_C, the length of C.  Along C from its first interval,
      rate sums the jumps b_i - a_sigma(i) and base the inverse products of
      the weights B'[i, sigma(i)], over sqrt|C|: c_sigma(i) = c_i
      e^{2 pi i lambda (b_i - a_sigma(i))} / B'[i, sigma(i)].  Both are 0
      off C.
    """
    n = omega.n
    if omega.equal_lengths():
        eig = _eig_unitary(b)
        groups = eig.phase_groups()
        theta = np.array([eig.phases[group[0]] for group in groups for _ in group])
        rate = -np.array([omega.lefts] * n)
        base = eig.vectors[:, [k for group in groups for k in group]].T
        return (theta, np.full(n, omega.measure / n), rate, base), "equal_length", 0.0
    found = _support(b)
    if found is None:
        return None
    sigma, _, support, residual = found
    cycles = _cycles(sigma)
    jumps = np.array(omega.rights) - np.array(omega.lefts)[sigma]
    lengths = np.array(omega.lengths)
    theta, period = np.empty(len(cycles)), np.empty(len(cycles))
    rate, base = np.zeros((len(cycles), n)), np.zeros((len(cycles), n), dtype=complex)
    for m, index in enumerate(cycles):
        w = support[index, sigma[index]]
        theta[m] = np.angle(np.prod(w)) / (2 * np.pi) % 1.0
        period[m] = lengths[index].sum()
        rate[m, index[1:]] = np.cumsum(jumps[index[:-1]])
        base[m, index] = 1 / np.concatenate([[1.0], np.cumprod(w[:-1])]) / math.sqrt(len(index))
    return (theta, period, rate, base), "cycles", residual


def _lattice(
    omega: IntervalUnion, b, modes, method: str, residual: float, lo: float, hi: float
) -> SpectrumReport:
    """The report of the spectrum read off the lattices of ``modes`` (see
    ``_modes``) in the window (lo, hi), closed as the scan's is
    (``_edges``).  Roots closer than the bisection floor, as the scan merges
    them (``_starts``), are one eigenvalue with the vectors of their modes,
    in mode order, each taken at that eigenvalue (``_finish``).  The stats
    read 0 but for eig_rows = 1 (B) on equal lengths and the support
    residual."""
    t0 = time.perf_counter()
    theta, period, rate, base = modes
    edges = _edges(lo, hi)
    roots = []
    for t, p in zip(theta.tolist(), period.tolist()):
        kmin, kmax = _kspan(t, p, *edges)
        roots.append((t + np.arange(kmin, kmax + 1)) / p)
    mode = np.arange(len(roots)).repeat([len(r) for r in roots])
    roots = np.concatenate(roots)
    order = roots.argsort(kind="stable")
    roots, mode = roots[order], mode[order]
    new = _starts(roots)
    lams, owner = roots[new], new.cumsum() - 1
    t1 = time.perf_counter()
    rows = cis(lams[owner, None] * rate[mode]) * base[mode]
    stats = _stats(0, eig_rows=int(method == "equal_length"), support_residual=residual)
    report = _finish(omega, b, lams, rows, owner, (lo, hi), method, len(roots), stats)
    stats["seconds"] = {"grid": 0.0, "locate": t1 - t0, "eigenspaces": time.perf_counter() - t1}
    return report


def _spectrum(omega: IntervalUnion, b, window, grid_step):
    """The spectrum of (omega, B) in the window, with the lattices of modes
    it was read off (see ``_modes``), or None when it was scanned: the one
    choice of method.  The window, the grid step and B are checked once
    (``_checked``, ``require_boundary``); ``grid_step`` is the scan's, and
    the closed forms need no grid but still reject a bad one, like a bad
    window.  The report's stats carry the support residual (``_stats``)."""
    lo, hi, step = _checked(omega, window, grid_step)
    b = require_boundary(omega, b)
    found = _modes(omega, b)
    if found is None:
        return _scan(omega, b, lo, hi, step), None
    return _lattice(omega, b, *found, lo, hi), found[0]


@dataclass
class SpectralCheck:
    """Outcome of the constant-eigenvector criterion for spectrality.

    verdict is one of "spectral_exact", "spectral_on_window", "not_spectral",
    "undecided".  For not_spectral, witness_lambda and witness_vectors hold
    a spectrum point whose eigenspace is multidimensional or non-constant:
    its basis for the first root of a mode or a root of the window, else
    one non-constant eigenvector of a translate (see
    ``spectral_matrix_check``), one vector per row.
    """

    verdict: str
    witness_lambda: float | None
    witness_vectors: np.ndarray | None
    report: SpectrumReport

    @property
    def is_spectral(self) -> bool:
        return self.verdict in ("spectral_exact", "spectral_on_window")


def _constant_rows(vecs: np.ndarray, tol: float) -> np.ndarray:
    """Whether each row v of ``vecs`` is constant: |v - (u*v)u| < tol for the
    constant unit vector u, where (u*v)u is the mean of v, all rows at once."""
    dev = vecs - vecs.sum(axis=1, keepdims=True) / vecs.shape[1]
    return (dev.real**2 + dev.imag**2).sum(axis=1) < tol * tol


def _constant_flags(report: SpectrumReport, tol: float) -> np.ndarray:
    """Per eigenspace of ``report``, whether it is one-dimensional and
    spanned by a constant vector (``_constant_rows``)."""
    dims = np.array(report.dims, dtype=int)
    flags = dims == 1
    if flags.any():
        flags[flags] = _constant_rows(report.vectors[dims.cumsum()[flags] - 1], tol)
    return flags


def _window_witness(report: SpectrumReport, tol: float) -> SpectralCheck | None:
    """not_spectral with the first root of the window whose eigenspace fails
    ``_constant_flags``, or None when every one passes."""
    bad = np.flatnonzero(~_constant_flags(report, tol))
    if not bad.size:
        return None
    k = bad[0]
    start = sum(report.dims[:k])
    basis = report.vectors[start:start + report.dims[k]]
    return SpectralCheck("not_spectral", report.eigenvalues[k], basis, report)


def _translate_witness(report: SpectrumReport, theta, period, rate, base, tol: float) -> SpectralCheck:
    """not_spectral with the root nearest the report's window, outside it,
    of the mode (theta, period, rate, base) (see ``_modes``) whose vector is
    not constant, phase-fixed: among the 2 size nearest, for size = 8, 16,
    ... until one is found.

    The mode's vector turns by e^{2 pi i k phi} from its root k to the
    next, phi = rate/period, and some difference phi_j - phi_0 is off the
    integers by delta >= omega.tol() >= 1e-9.  Between two roots both
    constant to ``tol`` that difference turns by at most about
    2 sqrt(2n) tol, so they are at most about sqrt(2n) tol / (pi delta)
    < 500 sqrt(n) roots apart, and the search ends.
    """
    lo, hi = report.window
    kmin, kmax = _kspan(theta, period, *_edges(lo, hi))
    size = 8
    while True:
        ks = np.concatenate([kmax + np.arange(1, size + 1), kmin - np.arange(1, size + 1)])
        lams = (theta + ks) / period
        lams = lams[np.argsort(np.maximum(lams - hi, lo - lams), kind="stable")]
        vecs = cis(lams[:, None] * rate) * base
        bad = np.flatnonzero(~_constant_rows(vecs, tol))
        if bad.size:
            k = bad[0]
            witness = _fixed_phase(vecs[k:k + 1])
            return SpectralCheck("not_spectral", float(lams[k]), witness, report)
        size *= 2


def spectral_matrix_check(
    omega: IntervalUnion,
    b,
    window: tuple[float, float] | None = None,
    tol_const: float = 1e-6,
    grid_step: float | None = None,
) -> SpectralCheck:
    """Decide whether B is a spectral boundary matrix for omega.

    Every spectrum point must have a one-dimensional eigenspace spanned by a
    constant vector.  Equal lengths, and a B supported on a permutation up
    to entries below UNITARITY_TOL (``boundary._support``), have the
    spectrum in closed form as lattices of modes (``_modes``): the
    k-th root of mode m is its first root theta/period translated by
    k/period, where its vector has turned by cis(k rate/period).  Their
    verdict holds on all of R: spectral_exact iff at every mode's first
    root the eigenspace is one-dimensional and constant and rate/period is
    an integer, up to one turn common to the mode, within omega.tol(), so
    that every translate keeps the vector.  Else not_spectral, with the
    witness: the first root of the first mode that fails, else the first
    root of the window that fails, else the root nearest the window of the
    first mode whose turn fails.
    Any other pair is scanned, and the verdict is limited to the window:
    spectral_on_window, not_spectral with the first root that fails, or
    undecided when the window holds no root.  The report, with its method,
    is ``_spectrum``'s.
    """
    report, modes = _spectrum(omega, b, window, grid_step)
    if modes is None:
        if not report.eigenvalues:
            return SpectralCheck("undecided", None, None, report)
        return _window_witness(report, tol_const) or SpectralCheck(
            "spectral_on_window", None, None, report
        )
    theta, period, rate, base = modes
    first = theta / period
    # modes that share a root have orthogonal vectors there, so at most one
    # of them is constant: when every mode is constant at its first root,
    # every first-root eigenspace is one-dimensional and constant
    passed = _constant_rows(cis(first[:, None] * rate) * base, tol_const)
    if not passed.all():
        m = int(np.argmin(passed))
        # the eigenspace there: the modes with a root there, as ``_lattice``
        # merges roots
        k = first[m] * period - theta
        there = np.abs(k - np.rint(k)) < MIN_CELL * max(1.0, first[m]) * period
        witness = _fixed_phase(cis(first[m] * rate[there]) * base[there])
        return SpectralCheck("not_spectral", float(first[m]), witness, report)
    # each mode's turn from one root to the next, relative to its first entry
    turns = rate / period[:, None]
    turns = turns - turns[:, :1]
    steady = (np.abs(turns - np.rint(turns)) < omega.tol()).all(axis=1)
    if steady.all():
        return SpectralCheck("spectral_exact", None, None, report)
    m = int(np.argmin(steady))
    return _window_witness(report, tol_const) or _translate_witness(
        report, theta[m], period[m], rate[m], base[m], tol_const
    )
