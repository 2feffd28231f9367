"""Checks the tests share that the package itself has no use for."""
import numpy as np


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
