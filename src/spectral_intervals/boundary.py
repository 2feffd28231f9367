"""Unitary boundary matrices and their structure.

The boundary matrix B relates boundary values of functions in the domain of
the self-adjoint extension by B f(a_vec) = f(b_vec).  This module holds the
diagonal exponential matrices E(z), the validation of B, the one reading of
whether B is supported on a permutation (``_support``) and of its cycles
(``_cycles``), structural classification (permutation / weighted
permutation / general), eigenphase extraction, and reconstruction of B
from a candidate spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DeficientSpan,
    Inconsistent,
    NotUnitary,
    ValidationError,
    WrongStructure,
)
from .intervals import IntervalUnion

UNITARITY_TOL = 1e-10


def cis(z):
    """e^{2*pi*i*z}, elementwise."""
    return np.exp(2j * np.pi * np.asarray(z, dtype=float))


def exp_diag(z) -> np.ndarray:
    """Diagonal matrix with entries e^{2*pi*i*z_k}."""
    return np.diag(cis(z))


def is_unitary(b: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        return False
    return np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))) < tol


def require_unitary(b, tol: float = UNITARITY_TOL) -> np.ndarray:
    b = np.asarray(b, dtype=complex)
    if not is_unitary(b, tol):
        raise NotUnitary("matrix is not unitary within tolerance")
    return b


def require_boundary(omega: IntervalUnion, b) -> np.ndarray:
    """B as a complex array; raises ValidationError unless it is unitary
    (NotUnitary) of order n."""
    b = require_unitary(b)
    if len(b) != omega.n:
        raise ValidationError(f"matrix is {len(b)}x{len(b)} but the set has {omega.n} intervals")
    return b


def _support(b: np.ndarray, tol: float = UNITARITY_TOL):
    """Whether B is supported on a permutation: (sigma, weights, B', support
    residual), or None.

    Entries of modulus below ``tol`` are off the support, and the rest must
    be exactly one entry in every row and every column: B[i, sigma(i)].  The
    weights are those entries scaled to modulus 1.  B' is B with the
    off-support entries set to 0, so it is supported exactly on sigma, and
    the support residual is max|B - B'|.  ``b`` is a unitary complex array.

    The closed form of the spectrum (``spectrum._modes``) reads B', and its
    roots depend only on the arguments of the weights: they are the roots of
    U, the weighted permutation with the unimodular weights.  U is unitary,
    so diag(e^{-2 pi i lambda l}) U is normal, and by Bauer-Fike every
    eigenvalue of diag(e^{-2 pi i lambda l}) B lies within
    eps = ||B - U||_2 of one of diag(e^{-2 pi i lambda l}) U, whose
    eigenphases fall at a rate of at least 2 pi l_min: every root of B lies
    within about eps / (2 pi l_min) of a root of U.  eps is at most
    ||B - B'||_2 <= n * (support residual) plus the largest distance of a
    weight's modulus from 1, below UNITARITY_TOL when B is unitary to it.
    """
    big = np.abs(b) >= tol
    rows, sigma = np.arange(len(b)), big.argmax(axis=1)
    # n entries in all, the first of each row in it and in a column of its own
    if np.count_nonzero(big) != len(b) or not big[rows, sigma].all() or len(set(sigma.tolist())) != len(b):
        return None
    support = np.zeros_like(b)
    support[rows, sigma] = weights = b[rows, sigma]
    return sigma, weights / np.abs(weights), support, float(np.abs(b - support).max())


def _cycles(sigma) -> list[list[int]]:
    """The cycles of the permutation sigma, in the order of their first
    index, each walked from it: i, sigma(i), sigma(sigma(i)), ..."""
    cycles, seen = [], set()
    for start in range(len(sigma)):
        if start not in seen:
            cycle = [start]
            while sigma[cycle[-1]] != start:
                cycle.append(int(sigma[cycle[-1]]))
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


@dataclass(frozen=True)
class MatrixStructure:
    """Classification of a unitary matrix.

    kind is one of "permutation", "weighted_permutation", "general".  For the
    first two, sigma maps row index i to the column of its support entry,
    weights holds those entries scaled to modulus exactly 1, and
    support_residual the largest modulus off the support (see ``_support``);
    all three are None for "general".  multiplicative_everywhere mirrors the
    fact that the associated unitary group is multiplicative for all t iff B
    is a permutation matrix; forelli_everywhere the analogous weighted
    permutation criterion.
    """

    kind: str
    sigma: tuple[int, ...] | None = None
    weights: tuple[complex, ...] | None = None
    support_residual: float | None = None

    @property
    def is_cycle(self) -> bool | None:
        if self.sigma is None:
            return None
        return len(_cycles(self.sigma)) == 1

    @property
    def multiplicative_everywhere(self) -> bool:
        return self.kind == "permutation"

    @property
    def forelli_everywhere(self) -> bool:
        return self.kind in ("permutation", "weighted_permutation")


def classify_structure(b, tol: float = UNITARITY_TOL) -> MatrixStructure:
    """Classify B as permutation, weighted permutation, or general.

    B is supported on a permutation when its entries of modulus at least
    ``tol`` are one in every row and column (``_support``); it is a
    permutation when every weight is within ``tol`` of 1.
    """
    b = require_unitary(b, max(tol, UNITARITY_TOL))
    support = _support(b, tol)
    if support is None:
        return MatrixStructure("general")
    sigma, weights, _, residual = support
    weights = tuple(weights.tolist())
    kind = "permutation" if all(abs(w - 1.0) < tol for w in weights) else "weighted_permutation"
    return MatrixStructure(kind, tuple(sigma.tolist()), weights, residual)


def permutation_matrix(sigma) -> np.ndarray:
    n = len(sigma)
    p = np.zeros((n, n))
    for i, j in enumerate(sigma):
        p[i, j] = 1.0
    return p


@dataclass(frozen=True)
class UnitaryEigenData:
    """Eigenphases in [0, 1) and an orthonormal eigenbasis of a unitary matrix."""

    phases: tuple[float, ...]
    vectors: np.ndarray  # column k is the eigenvector for phases[k]

    def phase_groups(self, tol: float = 1e-9) -> list[list[int]]:
        """Indices grouped by equal phase (mod 1, merged within tol)."""
        order = sorted(range(len(self.phases)), key=lambda k: self.phases[k])
        groups: list[list[int]] = []
        for k in order:
            if groups and self.phases[k] - self.phases[groups[-1][0]] < tol:
                groups[-1].append(k)
            else:
                groups.append([k])
        # wrap-around: phases just below 1 belong with phase 0
        if len(groups) > 1 and (1.0 - self.phases[groups[-1][0]]) + self.phases[groups[0][0]] < tol:
            groups[0].extend(groups.pop())
        return groups


def eig_unitary(b, residual_tol: float = 1e-8) -> UnitaryEigenData:
    """Eigenphases and orthonormal eigenvectors of a unitary matrix.

    ``np.linalg.eig`` gives the eigenvalues and a basis of eigenvectors; the
    columns, sorted by phase, are orthonormalised by one QR.  B is normal, so
    eigenvectors of distinct eigenvalues are orthogonal and the QR only mixes
    columns inside a phase group.  Raises ConvergenceFailure when a column
    misses its eigenvalue by more than ``residual_tol``, and NotUnitary
    unless B is unitary (``_eig_unitary`` takes a checked B).
    """
    return _eig_unitary(require_unitary(b), residual_tol)


def _eig_unitary(b: np.ndarray, residual_tol: float = 1e-8) -> UnitaryEigenData:
    """``eig_unitary`` of a unitary complex array, not checked again."""
    eigvals, eigvecs = np.linalg.eig(b)
    phases = (np.angle(eigvals) / (2 * np.pi)) % 1.0
    # snap phases that rounded up to 1.0
    phases = np.where(phases >= 1.0 - 1e-15, 0.0, phases)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors, _ = np.linalg.qr(eigvecs[:, order])
    resid = np.max(
        np.abs(b @ vectors - vectors * cis(phases)[np.newaxis, :])
    )
    if resid > residual_tol:
        raise ConvergenceFailure(f"eigen residual {resid:.3e} above {residual_tol:.1e}")
    return UnitaryEigenData(tuple(float(p) for p in phases), vectors)


def boundary_exponential_vectors(omega: IntervalUnion, lam: float):
    """The vectors e_lambda(a_vec) and e_lambda(b_vec)."""
    return cis(lam * np.array(omega.lefts)), cis(lam * np.array(omega.rights))


def matrix_from_spectrum(
    omega: IntervalUnion, lambdas, tol: float = 1e-8
) -> np.ndarray:
    """The unique B with B e_lambda(a_vec) = e_lambda(b_vec) for all samples.

    Fits B by least squares over all samples, B = C A^+ with the vectors
    e_lambda(a_vec) as the columns of A and e_lambda(b_vec) as those of C,
    once A has rank n.  Raises Inconsistent, naming the worst sample, when a
    column misses its fit by more than ``tol``, and NotUnitary when the fit
    is not unitary.
    """
    lambdas = [float(l) for l in lambdas]
    n = omega.n
    if len(lambdas) < n:
        raise DeficientSpan(f"need at least {n} sample points, got {len(lambdas)}")
    amat, cmat = (
        v.T for v in boundary_exponential_vectors(omega, np.array(lambdas)[:, np.newaxis])
    )
    if np.linalg.matrix_rank(amat, tol=1e-8) < n:
        raise DeficientSpan("boundary exponential vectors do not span C^n")
    b = cmat @ np.linalg.pinv(amat)
    misfit = np.max(np.abs(b @ amat - cmat), axis=0)
    worst = int(np.argmax(misfit))
    if misfit[worst] > tol:
        raise Inconsistent(
            f"no single matrix fits all samples; mismatch at lambda={lambdas[worst]}"
        )
    if not is_unitary(b, max(tol, UNITARITY_TOL)):
        raise NotUnitary("fitted matrix is not unitary; samples are not a spectrum")
    return b


def phase_law(
    structure: MatrixStructure,
    omega: IntervalUnion,
    theta0: float,
    weight_tol: float,
    jump_tol: float,
) -> tuple[bool, bool]:
    """The weighted-permutation phase law, as (weights_ok, jumps_ok).

    For each row i with unimodular entry at sigma(i), the weight must equal
    e^{2*pi*i*(theta0/L)*(a_{sigma(i)} - b_i)} (within ``weight_tol``) and
    a_{sigma(i)} - b_i must be an integer multiple of L (within ``jump_tol``).
    """
    big_l = omega.measure
    weights_ok = jumps_ok = True
    for i, j in enumerate(structure.sigma):
        jump = omega.lefts[j] - omega.rights[i]
        if abs(structure.weights[i] - complex(cis(theta0 / big_l * jump))) > weight_tol:
            weights_ok = False
        if abs(jump / big_l - round(jump / big_l)) > jump_tol:
            jumps_ok = False
    return weights_ok, jumps_ok


def forelli_weight_check(
    b, omega: IntervalUnion, theta0: float, tol: float = 1e-8
) -> bool:
    """Check the weighted-permutation phase law against the set geometry
    (``phase_law`` with ``tol`` for both parts)."""
    structure = classify_structure(b)
    if structure.kind not in ("permutation", "weighted_permutation"):
        raise WrongStructure("matrix is not a weighted permutation")
    return all(phase_law(structure, omega, theta0, tol, tol))


def reflected_boundary_matrix(b) -> np.ndarray:
    """Boundary matrix of the reflected set -omega in sorted index order.

    Reflection pairs interval i with interval n-1-i of -omega, so the
    adjoint must be conjugated by the index reversal R: the result is
    R B* R.
    """
    b = np.asarray(b, dtype=complex)
    return b.conj().T[::-1, ::-1]
