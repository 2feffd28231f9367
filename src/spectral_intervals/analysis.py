"""Orthogonality evidence and the structural theorem suites.

Gram-matrix orthogonality and Parseval residuals give evidence that a
candidate frequency set is a spectrum.  The structure suites verify the
geometric consequences of spectrality: gap decompositions, adjacency and
minimal-gap entry patterns, diagonal bounds, unimodular-entry arithmetic,
interval-move invariance, and the multiplicative / Forelli classifications
with their tiling and translation-congruence chains.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boundary import classify_structure, matrix_from_spectrum, phase_law
from .errors import (
    Inconsistent,
    InconsistentTheta,
    NotEqualLength,
    NotSpectral,
    NotUnitary,
    SpectralIntervalsError,
    WrongStructure,
)
from .evolution import PiecewiseExpPoly, _overlaps, _poly_exp_integral, inner_product
from .intervals import (
    IntervalUnion,
    gap_decomposition,
    move_interval,
    tiles_by_lattice,
    translates_disjoint,
)
from .paths import aggregate_equal_length
from .spectrum import SpectralCheck, SpectrumReport, spectral_matrix_check


def exp_gram(omega: IntervalUnion, lambdas) -> np.ndarray:
    """Gram matrix of the exponentials e_lambda over L^2(omega), closed form.

    The integral of e^{2*pi*i*s*x} over (a, b) is
    l * e^{i*pi*s*(a+b)} * sinc(s*l), l = b - a, so with
    w_j = e^{i*pi*lambda*(a_j+b_j)} the matrix is
    sum_j l_j * (w_j w_j^H) o sinc((lambda_k - lambda_l) * l_j): one product
    over all intervals, with no series branch near s = 0
    (``np.sinc(0) = 1``).
    """
    lambdas = np.asarray(list(lambdas), dtype=float)
    lefts, rights = np.array(omega.lefts), np.array(omega.rights)
    lengths = rights - lefts
    w = np.exp(1j * np.pi * np.outer(lefts + rights, lambdas))
    sinc = np.sinc((lambdas[:, None] - lambdas[None, :]) * lengths[:, None, None])
    return np.einsum("j,jk,jl,jkl->kl", lengths, w, w.conj(), sinc)


@dataclass
class SpectralVerdict:
    """Finite-window evidence that a frequency set is a spectrum.

    ``rows`` counts the integral-kernel rows evaluated (the probe's norm and
    its Parseval coefficients); ``seconds`` times the ``gram``, ``norm`` and
    ``parseval`` stages."""

    orthogonal_on_window: bool
    max_offdiagonal: float
    density_ratio: float
    parseval_residual: float
    rows: int = 0
    seconds: dict = field(default_factory=dict)


def spectral_pair_evidence(
    omega: IntervalUnion,
    lambdas,
    probe: PiecewiseExpPoly | None = None,
    tol: float = 1e-8,
) -> SpectralVerdict:
    """Orthogonality, counting density, and Parseval residual for a window.

    The Parseval residual ||f||^2 - sum |<f, e_lambda>|^2 / L decreases with
    the window; it is reported, never thresholded, because completeness is
    not finitely decidable.  The coefficients <f, e_lambda> take one kernel
    call, with one row per piece and atom of the probe and lambda.  The
    probe f defaults to ``PiecewiseExpPoly.bump``.
    """
    t0 = time.perf_counter()
    lambdas = sorted(float(l) for l in lambdas)
    g = exp_gram(omega, lambdas)
    off = g - np.diag(np.diag(g))
    max_off = float(np.max(np.abs(off))) if len(lambdas) > 1 else 0.0
    width = lambdas[-1] - lambdas[0] if len(lambdas) > 1 else 1.0
    density = len(lambdas) / (omega.measure * width) if width > 0 else math.inf
    t1 = time.perf_counter()
    if probe is None:
        probe = PiecewiseExpPoly.bump(omega)
    piece, atom = (probe.size > 0).nonzero()
    coeffs = _poly_exp_integral(
        probe.coeffs[piece, atom, None, :],
        probe.freq[piece, atom, None] - np.array(lambdas),
        probe.lo[piece, None],
        probe.hi[piece, None],
    )
    coeff2 = float(np.sum(np.abs(coeffs.sum(axis=0)) ** 2)) / omega.measure
    t2 = time.perf_counter()
    norm2 = inner_product(omega, probe, probe).real
    seconds = {"gram": t1 - t0, "parseval": t2 - t1, "norm": time.perf_counter() - t2}
    atoms = np.bincount(piece, minlength=len(probe.lo))
    kf, kg, _, _ = _overlaps(probe, probe)
    rows = coeffs.size + int(atoms[kf] @ atoms[kg])
    return SpectralVerdict(max_off < tol, max_off, density, norm2 - coeff2, rows, seconds)


@dataclass
class NamedCheck:
    name: str
    status: str  # "pass", "fail", "skipped"
    detail: str = ""
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _check(name, ok, detail="", witness=None) -> NamedCheck:
    return NamedCheck(name, "pass" if ok else "fail", detail, witness)


def structure_suite(
    omega: IntervalUnion,
    b,
    check: SpectralCheck | None = None,
    tol: float = 1e-8,
    window=None,
) -> list[NamedCheck]:
    """Run the geometric consequence checks of spectrality.

    Checks needing an actual spectral pair are skipped, with a reason, when
    the constant-eigenvector criterion fails.
    """
    b = np.asarray(b, dtype=complex)
    if check is None:
        check = spectral_matrix_check(omega, b, window)
    results: list[NamedCheck] = []

    gap_ok = True
    gap_detail = []
    for gap in omega.gaps:
        if gap <= omega.tol():
            continue  # a shared endpoint: the adjacency check covers it
        decomps = gap_decomposition(omega, gap)
        gap_detail.append((gap, decomps))
        if not decomps:
            gap_ok = False
    results.append(
        _check(
            "gap_lengths",
            gap_ok,
            "every gap is a sum of interval lengths" if gap_ok
            else "a gap admits no decomposition into interval lengths",
            gap_detail,
        )
    )

    if not check.is_spectral:
        reason = f"skipped: spectral check verdict is {check.verdict}"
        for name in ("adjacency", "minimal_gap", "diagonal", "unimodular_entry", "interval_move"):
            results.append(NamedCheck(name, "skipped", reason))
        return results

    spectrum = check.report
    tol_len = omega.tol()

    # adjacency: a shared endpoint forces the corresponding entries of B
    adj_ok, adj_applied = True, False
    for i in range(omega.n - 1):
        if abs(omega.gaps[i]) > tol_len:
            continue
        adj_applied = True
        if abs(b[i, i + 1] - 1.0) > tol:
            adj_ok = False
        for j in range(omega.n):
            if j != i + 1 and abs(b[i, j]) > tol:
                adj_ok = False
            if j != i and abs(b[j, i + 1]) > tol:
                adj_ok = False
    results.append(
        _check("adjacency", adj_ok, "" if adj_applied else "no shared endpoints; vacuous")
    )

    # minimal gap equal to the minimal length forces a bilinear identity
    min_ok, min_applied = True, False
    lmin = omega.lmin
    min_idx = [j for j, l in enumerate(omega.lengths) if abs(l - lmin) <= tol_len]
    for i in range(omega.n - 1):
        if abs(omega.gaps[i] - lmin) > tol_len:
            continue
        min_applied = True
        total = sum(b[i, j] * b[j, i + 1] for j in min_idx)
        if abs(total - 1.0) > tol:
            min_ok = False
        for j in range(omega.n):
            if j in min_idx:
                continue
            if abs(b[i, j]) > tol or abs(b[j, i + 1]) > tol:
                min_ok = False
    results.append(
        _check("minimal_gap", min_ok, "" if min_applied else "no gap equals lmin; vacuous")
    )

    # diagonal entries cannot be unimodular when there are several intervals
    if omega.n >= 2:
        bad = [k for k in range(omega.n) if abs(abs(b[k, k]) - 1.0) < tol]
        results.append(_check("diagonal", not bad, witness=bad or None))
    else:
        results.append(NamedCheck("diagonal", "skipped", "single interval"))

    # a unimodular entry pins the spectrum to an arithmetic progression
    uni_ok, uni_applied = True, False
    uni_detail = []
    lams = np.array(spectrum.eigenvalues)
    for i in range(omega.n):
        for j in range(omega.n):
            if abs(abs(b[i, j]) - 1.0) > tol:
                continue
            a = omega.lefts[j] - omega.rights[i]
            if abs(a) <= tol_len:
                continue
            uni_applied = True
            theta0 = (np.angle(b[i, j]) / (2 * np.pi)) % 1.0
            phase = lams * a + theta0
            contained = bool(np.all(np.abs(phase - np.round(phase)) < 1e-6))
            disjoint = translates_disjoint(omega, a)
            uni_detail.append((i, j, a, theta0, contained, disjoint))
            if not (contained and disjoint):
                uni_ok = False
    results.append(
        _check(
            "unimodular_entry",
            uni_ok,
            "" if uni_applied else "no unimodular off-diagonal entry; vacuous",
            uni_detail,
        )
    )

    # moving the target interval of a unimodular entry preserves the spectrum
    move_ok, move_applied = True, False
    move_detail = []
    for i in range(omega.n):
        for j in range(omega.n):
            if i == j or abs(abs(b[i, j]) - 1.0) > tol:
                continue
            try:
                moved = move_interval(omega, j, i)
            except SpectralIntervalsError:
                continue
            move_applied = True
            lam_window = spectrum.eigenvalues
            g = exp_gram(moved, lam_window)
            off = g - np.diag(np.diag(g))
            ortho = len(lam_window) < 2 or float(np.max(np.abs(off))) < 1e-6
            try:
                matrix_from_spectrum(moved, lam_window)
                fits = True
            except (NotUnitary, Inconsistent, SpectralIntervalsError):
                fits = False
            move_detail.append((i, j, ortho, fits))
            if not (ortho and fits):
                move_ok = False
    results.append(
        _check(
            "interval_move",
            move_ok,
            "" if move_applied else "no applicable unimodular entry; vacuous",
            move_detail,
        )
    )
    return results


@dataclass
class ChainStep:
    interval: int
    shift: float
    image: tuple[float, float]


@dataclass
class CongruenceChain:
    """The cycle-ordered rearrangement of omega onto (a_1, a_1 + L)."""

    steps: list[ChainStep]
    shifts_in_lattice: bool
    final_interval: tuple[float, float]
    closes: bool


def _congruence_chain(omega: IntervalUnion, sigma, tol: float) -> CongruenceChain:
    big_l = omega.measure
    steps = [ChainStep(0, 0.0, omega.endpoints[0])]
    pos = omega.endpoints[0][1]
    idx = 0
    in_lattice = True
    for _ in range(omega.n - 1):
        idx = sigma[idx]
        shift = pos - omega.lefts[idx]
        if abs(shift / big_l - round(shift / big_l)) > tol:
            in_lattice = False
        steps.append(ChainStep(idx, shift, (pos, pos + omega.lengths[idx])))
        pos += omega.lengths[idx]
    final = (omega.endpoints[0][0], pos)
    closes = abs(pos - (omega.endpoints[0][0] + big_l)) < max(tol, omega.tol())
    return CongruenceChain(steps, in_lattice, final, closes)


@dataclass
class MultiplicativeReport:
    cycle: bool
    spectrum_is_lattice: bool
    tiles: bool
    chain: CongruenceChain
    adjacency_forced: bool
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            self.cycle
            and self.spectrum_is_lattice
            and self.tiles
            and self.chain.shifts_in_lattice
            and self.chain.closes
        )


def multiplicative_spectral_suite(
    omega: IntervalUnion, b, window=None, tol: float = 1e-8
) -> MultiplicativeReport:
    """Consequences of a spectral pair with a permutation boundary matrix:
    full cycle, lattice spectrum (1/L)Z, tiling by LZ, and the congruence
    chain onto an interval with shifts in LZ."""
    structure = classify_structure(b)
    if structure.kind != "permutation":
        raise WrongStructure("boundary matrix is not a permutation matrix")
    check = spectral_matrix_check(omega, b, window)
    if not check.is_spectral:
        raise NotSpectral(f"spectral check verdict: {check.verdict}")
    big_l = omega.measure
    lattice_ok = all(
        abs(lam * big_l - round(lam * big_l)) < tol * max(1.0, big_l)
        for lam in check.report.eigenvalues
    ) and bool(check.report.eigenvalues)
    tiles, _ = tiles_by_lattice(omega, big_l)
    chain = _congruence_chain(omega, structure.sigma, tol)

    b = np.asarray(b, dtype=complex)
    adjacency_forced = True
    for i in range(omega.n - 1):
        if abs(omega.gaps[i]) <= omega.tol() and abs(b[i, i + 1] - 1.0) > tol:
            adjacency_forced = False
    return MultiplicativeReport(
        bool(structure.is_cycle), lattice_ok, tiles, chain, adjacency_forced
    )


@dataclass
class ForelliReport:
    cycle: bool
    theta0: float
    weights_match: bool
    jumps_in_lattice: bool
    spectrum_matches: bool
    tiles: bool
    chain: CongruenceChain
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            self.cycle
            and self.weights_match
            and self.jumps_in_lattice
            and self.spectrum_matches
            and self.tiles
            and self.chain.shifts_in_lattice
            and self.chain.closes
        )


def forelli_spectral_suite(
    omega: IntervalUnion, b, window=None, tol: float = 1e-8
) -> ForelliReport:
    """Consequences of a spectral pair with a weighted permutation matrix.

    theta0 is recovered from the spectrum offset (Lambda = (Z - theta0)/L),
    which determines it modulo 1, then validated against every weight.
    """
    structure = classify_structure(b)
    if structure.kind not in ("permutation", "weighted_permutation"):
        raise WrongStructure("boundary matrix is not a weighted permutation matrix")
    check = spectral_matrix_check(omega, b, window)
    if not check.is_spectral:
        raise NotSpectral(f"spectral check verdict: {check.verdict}")
    lams = check.report.eigenvalues
    if not lams:
        raise NotSpectral("no spectrum points in the window")
    big_l = omega.measure
    theta0 = (-lams[0] * big_l) % 1.0
    for lam in lams:
        resid = (lam * big_l + theta0) % 1.0
        if min(resid, 1.0 - resid) > tol * max(1.0, big_l):
            raise InconsistentTheta(
                f"spectrum point {lam} inconsistent with theta0={theta0}"
            )
    spectrum_matches = True  # established above for the window

    weights_match, jumps_ok = phase_law(structure, omega, theta0, max(tol, 1e-10), tol)
    tiles, _ = tiles_by_lattice(omega, big_l)
    chain = _congruence_chain(omega, structure.sigma, tol)
    report = ForelliReport(
        bool(structure.is_cycle),
        float(theta0),
        weights_match,
        jumps_ok,
        spectrum_matches,
        tiles,
        chain,
    )
    return report


@dataclass
class PowerSuiteReport:
    p: int
    kind: str
    necessary_condition_met: bool
    aggregation_error: float


def equal_length_power_suite(
    omega: IntervalUnion, b, t0: float, condition: str, tol: float = 1e-8
) -> PowerSuiteReport:
    """Classify B^p for (p-1)l < t0 <= p*l and test the necessary condition.

    condition "multiplicative" requires B^p to be a permutation matrix;
    "forelli" a weighted permutation matrix.  Cross-checks the power against
    raw path-weight aggregation.
    """
    if condition not in ("multiplicative", "forelli"):
        raise ValueError("condition must be 'multiplicative' or 'forelli'")
    if not omega.equal_lengths():
        raise NotEqualLength("intervals must have equal lengths")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    ell = omega.measure / omega.n
    p = max(1, math.ceil(t0 / ell - 1e-12))
    bp = np.linalg.matrix_power(np.asarray(b, dtype=complex), p)
    structure = classify_structure(bp, tol=max(tol, 1e-10))
    if condition == "multiplicative":
        met = structure.kind == "permutation"
    else:
        met = structure.kind in ("permutation", "weighted_permutation")

    a0, b0 = omega.endpoints[0]
    x = (a0 + b0) / 2
    t = (b0 - x) + (p - 0.5) * ell
    _, _, err = aggregate_equal_length(omega, b, x, t, p)
    return PowerSuiteReport(p, structure.kind, met, float(err))
