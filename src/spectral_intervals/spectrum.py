"""Discrete spectra of the self-adjoint extensions D_B.

A real lambda belongs to the spectrum iff 1 is an eigenvalue of the unitary
transfer matrix M(lambda) = E(lambda*b_vec)* B E(lambda*a_vec); the
eigenspace is spanned by the null vectors of I - M(lambda).  The general
solver counts the roots of every grid cell from the eigenphases of M at its
ends (det M(lambda) = det B e^{-2 pi i lambda L}) and locates them; the
equal-length shortcut reads the spectrum off the eigenphases of B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .boundary import cis, eig_unitary, require_unitary
from .errors import ConvergenceFailure, NotEqualLength, ValidationError
from .intervals import IntervalUnion

#: absolute tolerance of brentq on a root
TOL_ROOT = 1e-13
#: singular values of I - M(lambda) below this span the eigenspace
TOL_EIG = 1e-8
#: a cell's phase count must lie this close to an integer
TOL_COUNT = 1e-6
#: cells narrower than this, relative to max(1, |lambda|), hold one root
MIN_CELL = 1e-11
#: grid points per stacked eigendecomposition, which bounds its memory
CHUNK = 256


def transfer_matrix(omega: IntervalUnion, b, lam) -> np.ndarray:
    """M(lambda) = E(lambda*b_vec)* B E(lambda*a_vec), unitary for real lambda;
    stacked along the first axes for an array of lambdas."""
    b = np.asarray(b, dtype=complex)
    lam = np.asarray(lam, dtype=float)[..., None]
    left = np.conj(cis(lam * np.array(omega.rights)))
    right = cis(lam * np.array(omega.lefts))
    return left[..., :, None] * b * right[..., None, :]


def eigenvalue_distance(omega: IntervalUnion, b, lam: float) -> float:
    """h(lambda): distance from 1 to the closest eigenvalue of M(lambda)."""
    mu = np.linalg.eigvals(transfer_matrix(omega, b, lam))
    return float(np.min(np.abs(1.0 - mu)))


def _phase_data(omega: IntervalUnion, b, lams: np.ndarray):
    """For each lambda, the sum of the eigenphases of M(lambda) in [0, 2pi)
    and the signed angle of its eigenvalue closest to 1.

    Every eigenphase of M is strictly decreasing in lambda (each interval
    has positive length), so the nearest angle falls through zero at
    spectrum points and jumps only upwards, where two eigenvalues are
    equally close to 1.
    """
    sums = np.empty(len(lams))
    nearest = np.empty(len(lams))
    for s in range(0, len(lams), CHUNK):
        ang = np.angle(np.linalg.eigvals(transfer_matrix(omega, b, lams[s:s + CHUNK])))
        sums[s:s + CHUNK] = np.mod(ang, 2 * np.pi).sum(axis=1)
        pick = np.argmin(np.abs(ang), axis=1)[:, None]
        nearest[s:s + CHUNK] = np.take_along_axis(ang, pick, axis=1)[:, 0]
    return sums, nearest


def _nearest_eigenvalue_angle(omega: IntervalUnion, b, lam: float) -> float:
    """``_phase_data``'s nearest angle at one lambda, without the stacking."""
    ang = np.angle(np.linalg.eigvals(transfer_matrix(omega, b, lam)))
    return float(ang[np.argmin(np.abs(ang))])


def _cell_counts(omega: IntervalUnion, edges, sums) -> np.ndarray:
    """Spectrum points, with multiplicity, between consecutive edges.

    The eigenphases fall by L*(c - a) turns in total over a cell [a, c], so
    it holds L*(c - a) + (sum(c) - sum(a))/2pi roots.
    """
    raw = omega.measure * np.diff(edges) + np.diff(sums) / (2 * np.pi)
    counts = np.rint(raw)
    bad = (np.abs(raw - counts) > TOL_COUNT) | (counts < 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ConvergenceFailure(
            f"phase count {raw[k]:.9g} on [{edges[k]!r}, {edges[k + 1]!r}] "
            "is not a non-negative integer"
        )
    return counts.astype(int)


def _refine(omega, b, left, right, count, roots) -> None:
    """Append the ``count`` roots in a cell to ``roots``.

    ``left`` and ``right`` are the (lambda, phase sum, nearest angle) of the
    cell's ends.  The root of a one-root cell is located by brentq when the
    nearest angle falls through zero across the cell, which there happens
    only at the root.  Other cells are halved and each half counted again,
    down to a width at which their roots are one root of that multiplicity,
    located by brentq in the same way, or else at the cell's midpoint.
    """
    (a, sa, ga), (c, sc, gc) = left, right
    mid = 0.5 * (a + c)
    floor = c - a < MIN_CELL * max(1.0, abs(mid))
    # an end where the angle is exactly 0 is a root of the cell it starts:
    # the phase sums take angles in [0, 2pi)
    if (count == 1 or floor) and ga >= 0 > gc:
        ends = {a: ga, c: gc}  # brentq sees the end values tested here

        def angle(lam):
            return ends[lam] if lam in ends else _nearest_eigenvalue_angle(omega, b, lam)

        roots.append(float(scipy.optimize.brentq(angle, a, c, xtol=TOL_ROOT, rtol=1e-15)))
        return
    if floor:
        roots.append(float(mid))
        return
    (smid,), (gmid,) = _phase_data(omega, b, np.array([mid]))
    middle = (mid, smid, gmid)
    left_count, right_count = _cell_counts(omega, [a, mid, c], [sa, smid, sc])
    if left_count:
        _refine(omega, b, left, middle, left_count, roots)
    if right_count:
        _refine(omega, b, middle, right, right_count, roots)


def nullspace_at(omega: IntervalUnion, b, lam: float):
    """Orthonormal basis of {c : B E(lambda a)c = E(lambda b)c}; [] off spectrum."""
    m = transfer_matrix(omega, b, lam)
    n = omega.n
    _, s, vh = np.linalg.svd(np.eye(n) - m)
    return [vh[k].conj() for k in range(n) if s[k] < TOL_EIG]


def default_grid_step(omega: IntervalUnion) -> float:
    scale = max(1.0, abs(omega.endpoints[-1][1]), abs(omega.endpoints[0][0]))
    return 1.0 / (8.0 * omega.measure * scale)


def default_window(omega: IntervalUnion) -> tuple[float, float]:
    half = max(5.0 * omega.measure, 5.0 * omega.n / omega.measure)
    return (-half, half)


def _checked(omega: IntervalUnion, window, grid_step) -> tuple[float, float, float]:
    """The window and the grid step, defaults filled in; bad values raise."""
    lo, hi = default_window(omega) if window is None else window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"window must be finite with lo < hi, got ({lo}, {hi})")
    step = default_grid_step(omega) if grid_step is None else grid_step
    if not (math.isfinite(step) and step > 0):
        raise ValidationError(f"grid_step must be positive and finite, got {grid_step}")
    return lo, hi, step


@dataclass
class SpectrumReport:
    """Eigenvalues of D_B in a window, with eigenspace data.

    root_count is the number of spectrum points in the window counted with
    multiplicity; every report has sum(dims) == root_count.
    """

    eigenvalues: list[float]
    eigenspaces: list[list[np.ndarray]]
    residuals: list[float]
    window: tuple[float, float]
    method: str
    root_count: int

    @property
    def dims(self) -> list[int]:
        return [len(basis) for basis in self.eigenspaces]

    def constant_flags(self, tol: float = 1e-6) -> list[bool]:
        return [len(basis) == 1 and _is_constant(basis[0], tol) for basis in self.eigenspaces]


def _boundary_residual(omega, b, lam, c):
    lhs = np.asarray(b, dtype=complex) @ (cis(lam * np.array(omega.lefts)) * c)
    rhs = cis(lam * np.array(omega.rights)) * c
    return float(np.linalg.norm(lhs - rhs))


def compute_spectrum(
    omega: IntervalUnion,
    b,
    window: tuple[float, float] | None = None,
    grid_step: float | None = None,
) -> SpectrumReport:
    """Count-certified solver for the spectrum in a window.

    Cuts the window into grid cells of about ``grid_step``, counts the roots
    of each cell from the eigenphases at its ends (stacked eigendecompositions
    of the whole grid), locates the roots of the cells that hold any, and
    attaches eigenspaces.  Raises ConvergenceFailure unless every count is an
    integer, every eigenspace is nonempty and their dimensions add up to the
    count of the window.
    """
    b = require_unitary(b)
    lo, hi, grid_step = _checked(omega, window, grid_step)
    # the window is closed: widened by the bisection floor, the counted range
    # holds a root on its edge
    edges = (lo - MIN_CELL * max(1.0, abs(lo)), hi + MIN_CELL * max(1.0, abs(hi)))
    grid = np.linspace(*edges, max(2, math.ceil((hi - lo) / grid_step) + 1))
    sums, nearest = _phase_data(omega, b, grid)
    counts = _cell_counts(omega, grid, sums)
    roots: list[float] = []
    for k in np.flatnonzero(counts):
        ends = [(grid[j], sums[j], nearest[j]) for j in (k, k + 1)]
        _refine(omega, b, *ends, int(counts[k]), roots)
    # rounding can count the eigenvalues of a multiple root on both sides of
    # a cell edge: roots closer than the bisection floor are one root
    eigenvalues: list[float] = []
    for r in roots:
        if not eigenvalues or r - eigenvalues[-1] >= MIN_CELL * max(1.0, abs(r)):
            eigenvalues.append(r)
    eigenspaces = [nullspace_at(omega, b, r) for r in eigenvalues]
    residuals = [
        max((_boundary_residual(omega, b, r, c) for c in basis), default=0.0)
        for r, basis in zip(eigenvalues, eigenspaces)
    ]
    report = SpectrumReport(eigenvalues, eigenspaces, residuals, (lo, hi), "scan", int(counts.sum()))
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
    if not omega.equal_lengths():
        raise NotEqualLength("intervals do not all have the same length")
    b = require_unitary(b)
    lo, hi, _ = _checked(omega, window, None)
    ell = omega.measure / omega.n
    eig = eig_unitary(b)
    alphas = np.array(omega.lefts)

    entries = []  # (lambda, basis)
    for group in eig.phase_groups():
        theta = eig.phases[group[0]]
        kmin = math.ceil(lo * ell - theta - 1e-12)
        kmax = math.floor(hi * ell - theta + 1e-12)
        for k in range(kmin, kmax + 1):
            lam = (theta + k) / ell
            basis = [
                np.conj(cis(lam * alphas)) * eig.vectors[:, idx] for idx in group
            ]
            entries.append((lam, basis))
    entries.sort(key=lambda e: e[0])
    eigenvalues = [e[0] for e in entries]
    eigenspaces = [e[1] for e in entries]
    residuals = [
        max((_boundary_residual(omega, b, lam, c) for c in basis), default=0.0)
        for lam, basis in entries
    ]
    return SpectrumReport(
        eigenvalues, eigenspaces, residuals, (lo, hi), "equal_length", sum(map(len, eigenspaces))
    )


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


def _is_constant(v: np.ndarray, tol: float) -> bool:
    u = np.ones(len(v), dtype=complex) / math.sqrt(len(v))
    proj = (u.conj() @ v) * u
    return bool(np.linalg.norm(v - proj) < tol)


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
        report = equal_length_spectrum(omega, b, window)
        ell = omega.measure / omega.n
        # one representative lambda per phase class, plus every window point
        eig = eig_unitary(require_unitary(b))
        alphas = np.array(omega.lefts)
        for group in eig.phase_groups():
            theta = eig.phases[group[0]]
            lam = theta / ell
            basis = [np.conj(cis(lam * alphas)) * eig.vectors[:, idx] for idx in group]
            if len(basis) > 1 or not _is_constant(basis[0], tol_const):
                return SpectralCheck("not_spectral", lam, basis, report)
        offsets = [(a - omega.lefts[0]) / ell for a in omega.lefts]
        if all(abs(o - round(o)) < omega.tol() for o in offsets):
            return SpectralCheck("spectral_exact", None, None, report)
    else:
        report = compute_spectrum(omega, b, window, grid_step)
        if not report.eigenvalues:
            return SpectralCheck("undecided", None, None, report)
    for lam, basis in zip(report.eigenvalues, report.eigenspaces):
        if len(basis) != 1 or not _is_constant(basis[0], tol_const):
            return SpectralCheck("not_spectral", lam, basis, report)
    return SpectralCheck("spectral_on_window", None, None, report)
