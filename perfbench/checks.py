"""Output checks that do not rely on the code under test.

Each check takes the op (its problem and the facts known by construction)
and the parsed JSON report, and returns None when the output is right or a
failure reason such as "check:root_count".  Everything is recomputed here
from the problem data with numpy alone.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2 * math.pi


def _geometry(problem):
    ivs = np.array(problem["intervals"], dtype=float)
    b = np.array([[complex(*z) for z in row] for row in problem["matrix"]])
    return ivs[:, 0], ivs[:, 1], b


def transfer_matrices(alphas, betas, b, lams) -> np.ndarray:
    """Stacked M(lambda) = E(lambda*beta)* B E(lambda*alpha), shape (m, n, n)."""
    alphas, betas = np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float)
    lams = np.asarray(lams, dtype=float)[:, None]
    left = np.exp(-2j * np.pi * lams * betas)
    right = np.exp(2j * np.pi * lams * alphas)
    return left[:, :, None] * b[None] * right[:, None, :]


def root_count(alphas, betas, b, lo: float, hi: float) -> float:
    """Count certificate: roots of det(I - M) in [lo, hi], with multiplicity.

    det M = det B e^{-2 pi i lambda L}, so the eigenphases fall by L(hi-lo)
    turns in total and N = L(hi-lo) + (sum arg mu(hi) - sum arg mu(lo))/2pi
    with arg in [0, 2pi).  Two eigendecompositions.
    """
    mu = np.linalg.eigvals(transfer_matrices(alphas, betas, b, [lo, hi]))
    phase = np.mod(np.angle(mu), TWO_PI).sum(axis=1)
    length = float(np.sum(np.asarray(betas) - np.asarray(alphas)))
    return length * (hi - lo) + float(phase[1] - phase[0]) / TWO_PI


def check_spectrum_fields(op, rep, window):
    lams = rep["eigenvalues"]
    dims = rep["dims"]
    if len(dims) != len(lams) or any(d < 1 for d in dims):
        return "check:eigenspace_dim"
    n_cert = root_count(*_geometry(op.problem), *window)
    if abs(n_cert - round(n_cert)) > 1e-6:
        return "check:certificate"
    if round(n_cert) != sum(dims):
        return "check:root_count"
    if lams:
        mu = np.linalg.eigvals(transfer_matrices(*_geometry(op.problem), lams))
        if np.max(np.min(np.abs(1.0 - mu), axis=1)) > 1e-6:
            return "check:not_a_root"
    return None


def check_spectrum(op, rep):
    return check_spectrum_fields(op, rep, rep["window"])


def _witness_ok(op, rep) -> bool:
    vecs = [np.array([complex(*z) for z in v]) for v in rep.get("witness_vectors", [])]
    if not vecs:
        return False
    lam = rep["witness_lambda"]
    alphas, betas, b = _geometry(op.problem)
    for c in vecs:
        lhs = b @ (np.exp(2j * np.pi * lam * alphas) * c)
        rhs = np.exp(2j * np.pi * lam * betas) * c
        if np.linalg.norm(lhs - rhs) > 1e-6 * np.linalg.norm(c):
            return False
    if len(vecs) > 1:
        return True
    c = vecs[0]
    u = np.ones(len(c)) / math.sqrt(len(c))
    return bool(np.linalg.norm(c - (u @ c) * u) > 1e-6 * np.linalg.norm(c))


def check_verify(op, rep):
    reason = check_spectrum_fields(op, rep, op.problem["window"])
    if reason:
        return reason
    spectral = op.expect["spectral"]
    if (rep["verdict"] in ("spectral_exact", "spectral_on_window")) != spectral:
        return "check:verdict"
    if not spectral:
        return None if _witness_ok(op, rep) else "check:witness"
    if "evidence" in rep and rep["evidence"]["max_offdiagonal"] > 1e-6:
        return "check:evidence"
    if "local_translation" in rep and not rep["local_translation"]["passed"]:
        return "check:local_translation"
    if any(c["status"] == "fail" for c in rep["structure"]):
        return "check:structure"
    return None


def check_classify(op, rep):
    kind = op.expect["kind"]
    if rep["kind"] != kind:
        return "check:kind"
    suite = {"permutation": "multiplicative", "weighted_permutation": "weighted_permutation"}
    if kind in suite and rep[suite[kind]]["passed"] != op.expect["spectral"]:
        return "check:suite"
    return None


def check_paths(op, rep):
    weights = [complex(*e["weight"]) for e in rep["end_sums"]]
    if not weights or rep["path_count"] < len(weights):
        return "check:path_count"
    # U(t) is unitary and acts as a weighted sum of distinct shifts
    if abs(sum(abs(w) ** 2 for w in weights) - 1.0) > 1e-9:
        return "check:probability"
    x, t = rep["x"], rep["t"]
    target_inside = any(lo < x + t < hi for lo, hi in op.problem["intervals"])
    if op.expect.get("spectral") and target_inside:
        ident = rep.get("identities")
        if ident is None or not ident["passed"] or abs(complex(*ident["target_sum"]) - 1) > 1e-9:
            return "check:identity"
    return None


def _pieces(op, rep):
    out = []
    for i, (lo, hi) in enumerate(op.problem["intervals"]):
        edges = [lo, *rep["breakpoints"][str(i)], hi]
        out += [(a, c) for a, c in zip(edges, edges[1:]) if c - a > 1e-13]
    return out


def _quadratic_norm2(c, width: float) -> float:
    """Integral over (0, width) of |c0 + c1 u + c2 u^2|^2."""
    sq = np.convolve(c, np.conj(c)).real
    return float(sum(s * width ** (k + 1) / (k + 1) for k, s in enumerate(sq)))


def check_evolve(op, rep):
    """The bump f = -(x-a)(x-b) per interval is quadratic, so U(t)f is a
    quadratic on every piece: fit each piece from its samples, integrate
    |U(t)f|^2 exactly and compare with ||f||^2 = sum l^5/30."""
    pieces = _pieces(op, rep)
    samples = rep["samples"]
    per = len(samples) // max(len(pieces), 1)
    if per < 3 or per * len(pieces) != len(samples):
        return "check:evolve_pieces"
    norm2 = 0.0
    scale = max(abs(complex(*s["value"])) for s in samples) or 1.0
    for k, (lo, hi) in enumerate(pieces):
        chunk = samples[k * per:(k + 1) * per]
        u = np.array([s["x"] for s in chunk]) - lo
        v = np.array([complex(*s["value"]) for s in chunk])
        vander = np.vander(u, 3, increasing=True)
        c, *_ = np.linalg.lstsq(vander, v, rcond=None)
        if np.max(np.abs(vander @ c - v)) > 1e-8 * scale:
            return "check:evolve_shape"
        norm2 += _quadratic_norm2(c, hi - lo)
    want = sum((hi - lo) ** 5 / 30 for lo, hi in op.problem["intervals"])
    if abs(norm2 - want) > 1e-8 * want:
        return "check:norm"
    return None


CHECKS = {
    "spectrum": check_spectrum,
    "verify": check_verify,
    "classify": check_classify,
    "paths": check_paths,
    "evolve": check_evolve,
}


def check(op, rep) -> str | None:
    return CHECKS[op.command](op, rep)


# -- planted wrong answers ------------------------------------------------------


def plant(op, rep) -> dict | None:
    """A copy of a correct report with one wrong answer planted, or None.

    spectrum drops one eigenvalue, verify and classify flip the verdict,
    paths scales one end weight, evolve scales one sample.
    """
    rep = {**rep}
    if op.command == "spectrum" and rep["eigenvalues"]:
        k = len(rep["eigenvalues"]) // 2
        rep["eigenvalues"] = rep["eigenvalues"][:k] + rep["eigenvalues"][k + 1:]
        rep["dims"] = rep["dims"][:k] + rep["dims"][k + 1:]
        return rep
    if op.command == "verify":
        spectral = rep["verdict"] in ("spectral_exact", "spectral_on_window")
        rep["verdict"] = "not_spectral" if spectral else "spectral_on_window"
        return rep
    if op.command == "classify" and op.expect["kind"] != "general":
        key = "multiplicative" if op.expect["kind"] == "permutation" else "weighted_permutation"
        rep[key] = {**rep[key], "passed": not rep[key]["passed"]}
        return rep
    if op.command == "paths":
        first = rep["end_sums"][0]
        w = complex(*first["weight"]) * 1.01 + 1e-3
        rep["end_sums"] = [{**first, "weight": [w.real, w.imag]}, *rep["end_sums"][1:]]
        return rep
    if op.command == "evolve":
        k = len(rep["samples"]) // 2
        s = rep["samples"][k]
        v = complex(*s["value"]) * 1.01 + 1e-3
        rep["samples"] = rep["samples"][:k] + [{**s, "value": [v.real, v.imag]}] + rep["samples"][k + 1:]
        return rep
    return None
