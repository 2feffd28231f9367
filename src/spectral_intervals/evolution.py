"""Exact time evolution of piecewise exponential-polynomial functions.

U(t) moves every admissible-path contribution by a pure shift, so on the
class of functions that are finite sums of p(x)*e^{2*pi*i*lambda*x} per
interval the evolution is closed algebra: the result is again such a
function, on a refinement of the intervals.  The spectral (eigenbasis)
evolution serves as an independent functional-calculus oracle.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .boundary import cis, reflected_boundary_matrix
from .errors import NotEigenCombination, XNotInOmega
from .intervals import IntervalUnion, reflect as reflect_set
from .paths import check_path_guard, cumulative_sums, path_table, states_at
from .spectrum import SpectrumReport

MAX_DEGREE = 8
PROBE_POINTS_PER_PIECE = 64


def shift_poly(coeffs, delta: float):
    """Coefficients of p(x + delta) from those of p(x) (ascending order)."""
    if delta == 0.0:
        return tuple(coeffs)
    deg = len(coeffs) - 1
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


@dataclass(frozen=True)
class Atom:
    """One term p(x) * e^{2*pi*i*freq*x} with ascending poly coefficients."""

    freq: float
    coeffs: tuple[complex, ...]

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        acc = np.zeros_like(xs, dtype=complex)
        for c in reversed(self.coeffs):
            acc = acc * xs + c
        return acc * cis(self.freq * xs)

    def shifted(self, delta: float, scale: complex = 1.0) -> "Atom":
        factor = scale * complex(cis(self.freq * delta))
        return Atom(self.freq, tuple(factor * c for c in shift_poly(self.coeffs, delta)))

    def reflected(self) -> "Atom":
        coeffs = tuple(c * (-1) ** k for k, c in enumerate(self.coeffs))
        return Atom(-self.freq, coeffs)


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    atoms: tuple[Atom, ...]

    def evaluate(self, xs):
        xs = np.asarray(xs, dtype=float)
        acc = np.zeros_like(xs, dtype=complex)
        for atom in self.atoms:
            acc = acc + atom(xs)
        return acc


def _merge_atoms(atoms) -> tuple[Atom, ...]:
    by_freq: dict[float, list] = defaultdict(list)
    order: list[float] = []
    for atom in atoms:
        if atom.freq not in by_freq:
            order.append(atom.freq)
        by_freq[atom.freq].append(atom.coeffs)
    merged = []
    for freq in order:
        groups = by_freq[freq]
        size = max(len(g) for g in groups)
        coeffs = [0j] * size
        for g in groups:
            for k, c in enumerate(g):
                coeffs[k] += c
        merged.append(Atom(freq, tuple(coeffs)))
    return tuple(merged)


@dataclass(frozen=True)
class PiecewiseExpPoly:
    """Function on an interval union, exp-poly on each (refined) piece."""

    omega: IntervalUnion
    pieces: tuple[Piece, ...]

    @classmethod
    def from_atoms(cls, omega: IntervalUnion, atoms_by_interval) -> "PiecewiseExpPoly":
        """One piece per interval of omega; atoms as (freq, coeffs) pairs."""
        if len(atoms_by_interval) != omega.n:
            raise ValueError("need one atom list per interval")
        pieces = []
        for (lo, hi), atoms in zip(omega.endpoints, atoms_by_interval):
            built = []
            for freq, coeffs in atoms:
                coeffs = tuple(complex(c) for c in coeffs)
                if len(coeffs) - 1 > MAX_DEGREE:
                    raise ValueError(f"polynomial degree above {MAX_DEGREE}")
                built.append(Atom(float(freq), coeffs))
            pieces.append(Piece(lo, hi, _merge_atoms(built)))
        return cls(omega, tuple(pieces))

    @classmethod
    def exponential(cls, omega: IntervalUnion, lam: float, amplitudes=None):
        """e_lambda, optionally with a constant amplitude per interval."""
        if amplitudes is None:
            amplitudes = [1.0] * omega.n
        return cls.from_atoms(
            omega, [[(lam, (complex(a),))] for a in amplitudes]
        )

    @classmethod
    def zero(cls, omega: IntervalUnion):
        return cls.from_atoms(omega, [[] for _ in range(omega.n)])

    def evaluate(self, xs):
        xs = np.asarray(xs, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        out = np.zeros(len(xs), dtype=complex)
        los = np.array([p.lo for p in self.pieces])
        idx = np.searchsorted(los, xs, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        for k in range(len(self.pieces)):
            mask = idx == k
            if mask.any():
                out[mask] = self.pieces[k].evaluate(xs[mask])
        return out[0] if scalar else out

    def __call__(self, xs):
        return self.evaluate(xs)

    def piece_containing(self, x: float) -> Piece:
        best = None
        for p in self.pieces:
            if p.lo <= x <= p.hi:
                if p.lo < x < p.hi:
                    return p
                best = p
        if best is not None:
            return best
        raise XNotInOmega(f"point {x} is outside every piece")

    def boundary_values(self):
        """One-sided limits (f(a_vec), f(b_vec)) at the interval endpoints."""
        tol = self.omega.tol()
        f_alpha = np.zeros(self.omega.n, dtype=complex)
        f_beta = np.zeros(self.omega.n, dtype=complex)
        for i, (a, b) in enumerate(self.omega.endpoints):
            first = min(
                (p for p in self.pieces if abs(p.lo - a) <= tol or p.lo <= a <= p.hi),
                key=lambda p: p.lo,
            )
            last = max(
                (p for p in self.pieces if abs(p.hi - b) <= tol or p.lo <= b <= p.hi),
                key=lambda p: p.hi,
            )
            f_alpha[i] = first.evaluate(np.array([a]))[0]
            f_beta[i] = last.evaluate(np.array([b]))[0]
        return f_alpha, f_beta

    def reflect(self) -> "PiecewiseExpPoly":
        """The function J f on -omega, (Jf)(x) = f(-x)."""
        new_omega = reflect_set(self.omega)
        pieces = tuple(
            Piece(-p.hi, -p.lo, tuple(a.reflected() for a in p.atoms))
            for p in reversed(self.pieces)
        )
        return PiecewiseExpPoly(new_omega, pieces)

    def scaled(self, factor: complex) -> "PiecewiseExpPoly":
        pieces = tuple(
            Piece(
                p.lo,
                p.hi,
                tuple(Atom(a.freq, tuple(factor * c for c in a.coeffs)) for a in p.atoms),
            )
            for p in self.pieces
        )
        return PiecewiseExpPoly(self.omega, pieces)

    def __add__(self, other: "PiecewiseExpPoly") -> "PiecewiseExpPoly":
        if self.omega.endpoints != other.omega.endpoints:
            raise ValueError("functions live on different sets")
        pieces = []
        for lo, hi in _common_refinement(self, other):
            atoms = list(self.piece_containing((lo + hi) / 2).atoms)
            atoms += list(other.piece_containing((lo + hi) / 2).atoms)
            pieces.append(Piece(lo, hi, _merge_atoms(atoms)))
        return PiecewiseExpPoly(self.omega, tuple(pieces))


def _common_refinement(f: PiecewiseExpPoly, g: PiecewiseExpPoly):
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


def probe_points(f: PiecewiseExpPoly, per_piece: int = PROBE_POINTS_PER_PIECE):
    """Equispaced interior points per piece, half-step off the breakpoints."""
    xs = []
    for p in f.pieces:
        step = (p.hi - p.lo) / per_piece
        xs.append(p.lo + step * (np.arange(per_piece) + 0.5))
    return np.concatenate(xs)


# -- closed-form integration -------------------------------------------------

_TAYLOR_TERMS = 22


def _poly_exp_integral(coeffs, s: float, lo: float, hi: float) -> complex:
    """Integral of p(x) * e^{2*pi*i*s*x} over (lo, hi), p given by coeffs.

    Degree zero uses the exact antiderivative (series for small phase).
    Higher degrees integrate a centered Taylor expansion of the exponential
    on chunks short enough that the expansion is exact to machine precision.
    """
    c = 2j * np.pi * s
    width = hi - lo
    if width <= 0:
        return 0j
    if len(coeffs) == 1:
        p0 = coeffs[0]
        arg = c * width
        if abs(arg) < 0.1:
            # e^{c*lo} * width * sum (c*width)^k / (k+1)!
            total = 0j
            term = 1.0 + 0j
            for k in range(_TAYLOR_TERMS):
                total += term / math.factorial(k + 1)
                term *= arg
            return p0 * np.exp(c * lo) * width * total
        return p0 * (np.exp(c * hi) - np.exp(c * lo)) / c

    nchunks = max(1, math.ceil(abs(c) * width / 0.5))
    edges = np.linspace(lo, hi, nchunks + 1)
    total = 0j
    for u0, u1 in zip(edges, edges[1:]):
        mid = (u0 + u1) / 2
        h = (u1 - u0) / 2
        centered = shift_poly(coeffs, mid)  # p(mid + u) in u
        # e^{c(mid+u)} = e^{c*mid} * sum c^k u^k / k!
        expo = [complex(np.exp(c * mid))]
        for k in range(1, _TAYLOR_TERMS):
            expo.append(expo[-1] * c / k)
        # product polynomial in u, integrate monomials over (-h, h)
        acc = 0j
        for a_pow, a_c in enumerate(centered):
            if a_c == 0:
                continue
            for b_pow, b_c in enumerate(expo):
                j = a_pow + b_pow
                if j % 2 == 0:
                    acc += a_c * b_c * 2.0 * h ** (j + 1) / (j + 1)
        total += acc
    return total


def inner_product(omega: IntervalUnion, f: PiecewiseExpPoly, g: PiecewiseExpPoly) -> complex:
    """L^2(omega) pairing <f, g> in closed form per atom pair."""
    total = 0j
    for lo, hi in _common_refinement(f, g):
        mid = (lo + hi) / 2
        pf = f.piece_containing(mid)
        pg = g.piece_containing(mid)
        for af in pf.atoms:
            for ag in pg.atoms:
                conj_coeffs = tuple(np.conj(c) for c in ag.coeffs)
                prod = np.convolve(np.array(af.coeffs), np.array(conj_coeffs))
                total += _poly_exp_integral(tuple(prod), af.freq - ag.freq, lo, hi)
    return total


def norm(omega: IntervalUnion, f: PiecewiseExpPoly) -> float:
    return math.sqrt(max(inner_product(omega, f, f).real, 0.0))


# -- evolution ---------------------------------------------------------------


def boundary_condition_check(b, f: PiecewiseExpPoly, tol: float = 1e-8) -> bool:
    """Whether f satisfies the domain condition B f(a_vec) = f(b_vec)."""
    b = np.asarray(b, dtype=complex)
    f_alpha, f_beta = f.boundary_values()
    return bool(np.linalg.norm(b @ f_alpha - f_beta) < tol)


@dataclass
class EvolutionResult:
    """U(t)f as a piecewise exp-poly with the sub-breakpoints used."""

    function: PiecewiseExpPoly
    refinement: dict[int, list[float]] = field(default_factory=dict)
    path_count: int = 0


def apply_U_paths(
    omega: IntervalUnion, b, t: float, f: PiecewiseExpPoly, max_paths: int | None = None
) -> EvolutionResult:
    """Apply U(t) through the admissible-path sum, exactly.

    Each interval is cut where the path set (or the piece of f hit by a path
    end) changes; on each sub-piece every end state of the interval's path
    table that is admissible there contributes a shifted, scaled copy of the
    atoms of f at its end.  That copy is the same on every sub-piece where
    the state hits the same piece of f, so it is built once.
    """
    check_path_guard(omega, t, max_paths)
    b = np.asarray(b, dtype=complex)
    n = omega.n
    csums = cumulative_sums(omega, abs(t))
    bps = sorted({p.lo for p in f.pieces} | {p.hi for p in f.pieces})
    tol = omega.tol()

    if t >= 0:
        shifts = {t} | {
            omega.lefts[j] - omega.rights[i] + t - c
            for i in range(n)
            for j in range(n)
            for c in csums
        }
    else:
        shifts = {t} | {
            omega.rights[j] - omega.lefts[i] + t + c
            for i in range(n)
            for j in range(n)
            for c in csums
        }

    new_pieces = []
    refinement: dict[int, list[float]] = {}
    total_paths = 0
    for i, (alo, ahi) in enumerate(omega.endpoints):
        cands: set[float] = set()
        if t >= 0:
            cands.update(ahi - t + c for c in csums)
        else:
            cands.update(alo - t - c for c in csums)
        for bp in bps:
            cands.update(bp - s for s in shifts)
        cuts = sorted(x for x in cands if alo + tol < x < ahi - tol)
        dedup = []
        for x in cuts:
            if not dedup or x - dedup[-1] > 1e-12:
                dedup.append(x)
        refinement[i] = dedup
        edges = [alo] + dedup + [ahi]
        table = path_table(omega, b, i, t, max_paths)
        state_shift = table.shift.tolist()
        state_weight = table.weight.tolist()
        state_count = table.count.tolist()
        shifted: dict[tuple[int, int], list[Atom]] = {}
        for lo, hi in zip(edges, edges[1:]):
            if hi - lo <= 1e-13:
                continue
            xm = (lo + hi) / 2
            atoms = []
            idx, ends = table.select(xm)
            for s, end in zip(idx.tolist(), ends.tolist()):
                total_paths += state_count[s]
                src = f.piece_containing(end)
                key = (s, id(src))
                if key not in shifted:
                    shifted[key] = [
                        atom.shifted(state_shift[s], state_weight[s]) for atom in src.atoms
                    ]
                atoms.extend(shifted[key])
            new_pieces.append(Piece(lo, hi, _merge_atoms(atoms)))
    result = PiecewiseExpPoly(omega, tuple(new_pieces))
    return EvolutionResult(result, refinement, total_paths)


def evolve_point(omega: IntervalUnion, b, x: float, t: float, f: PiecewiseExpPoly) -> complex:
    """[U(t)f](x) through the path sum, for a single point."""
    states = states_at(omega, b, x, t)
    return complex(np.sum(states.weight * f.evaluate(states.end)))


def eigenfunction(
    omega: IntervalUnion, report: SpectrumReport, k: int, which: int = 0
) -> PiecewiseExpPoly:
    """The eigenfunction e^{2*pi*i*lambda_k*x} * sum_i c_i chi_i."""
    try:
        lam = report.eigenvalues[k]
        c = report.eigenspaces[k][which]
    except IndexError as exc:
        raise NotEigenCombination(str(exc)) from exc
    return PiecewiseExpPoly.exponential(omega, lam, list(c))


def apply_U_spectral(
    omega: IntervalUnion, report: SpectrumReport, t: float, combination
) -> PiecewiseExpPoly:
    """Functional-calculus oracle: sum a_k e^{2*pi*i*lambda_k*t} phi_k.

    ``combination`` is a list of (k, a_k) or (k, a_k, which) referring to
    eigenvalues/eigenspace bases of the spectrum report.
    """
    atoms_by_interval = [[] for _ in range(omega.n)]
    for entry in combination:
        if len(entry) == 2:
            k, a = entry
            which = 0
        else:
            k, a, which = entry
        try:
            lam = report.eigenvalues[k]
            c = report.eigenspaces[k][which]
        except (IndexError, TypeError) as exc:
            raise NotEigenCombination(str(exc)) from exc
        phase = complex(a) * complex(cis(lam * t))
        for i in range(omega.n):
            atoms_by_interval[i].append((lam, (phase * c[i],)))
    return PiecewiseExpPoly.from_atoms(omega, atoms_by_interval)


def random_domain_function(
    omega: IntervalUnion,
    b,
    rng: np.random.Generator,
    freqs=None,
    atoms_per_interval: int = 2,
    degree: int = 1,
) -> PiecewiseExpPoly:
    """Random exp-poly satisfying the boundary condition B f(a_vec) = f(b_vec).

    Random atoms first, then one linear correction atom per interval fixes
    the boundary mismatch.
    """
    b = np.asarray(b, dtype=complex)
    if freqs is None:
        freqs = list(rng.uniform(-3, 3, size=4))
    atoms_by_interval = []
    for _ in range(omega.n):
        atoms = []
        for _ in range(atoms_per_interval):
            freq = float(rng.choice(freqs)) + float(rng.normal(scale=0.25))
            deg = int(rng.integers(0, degree + 1))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            atoms.append((freq, tuple(coeffs)))
        atoms_by_interval.append(atoms)
    g = PiecewiseExpPoly.from_atoms(omega, atoms_by_interval)
    g_alpha, g_beta = g.boundary_values()
    d = b @ g_alpha - g_beta
    fix = []
    for i, (a, bb) in enumerate(omega.endpoints):
        l = bb - a
        # h_i(a) = 0, h_i(b) = d_i
        fix.append([(0.0, (-d[i] * a / l, d[i] / l))])
    h = PiecewiseExpPoly.from_atoms(omega, fix)
    return g + h


def sample_local_pair(omega: IntervalUnion, rng: np.random.Generator):
    """Random (x, t) with both x and x + t interior to the set."""
    lengths = np.array(omega.lengths)
    probs = lengths / lengths.sum()

    def sample_point():
        i = int(rng.choice(omega.n, p=probs))
        a, b = omega.endpoints[i]
        margin = 1e-6 * (b - a)
        return float(rng.uniform(a + margin, b - margin))

    x = sample_point()
    y = sample_point()
    return x, y - x


@dataclass
class LocalTranslationReport:
    passed: bool
    trials: int
    max_error: float
    witnesses: list[tuple[float, float, float]]  # (x, t, error)


def local_translation_test(
    omega: IntervalUnion,
    b,
    trials: int,
    tol: float = 1e-9,
    seed: int = 0,
    freqs=None,
) -> LocalTranslationReport:
    """Sample random (x, t, f) and check [U(t)f](x) = f(x+t).

    Passing all trials is evidence of spectrality; any failure is a
    counterexample witness.
    """
    rng = np.random.default_rng(seed)
    max_error = 0.0
    witnesses = []
    for _ in range(trials):
        f = random_domain_function(omega, b, rng, freqs=freqs)
        x, t = sample_local_pair(omega, rng)
        lhs = evolve_point(omega, b, x, t, f)
        rhs = f.evaluate(x + t)
        err = abs(lhs - rhs)
        max_error = max(max_error, err)
        if err > tol:
            witnesses.append((x, t, err))
    return LocalTranslationReport(not witnesses, trials, max_error, witnesses)


def reflection_consistency(
    omega: IntervalUnion, b, t: float, f: PiecewiseExpPoly, tol: float = 1e-9
) -> bool:
    """Check U_{B~}(t) on -omega against J U_B(-t) J* pointwise.

    B~ is the boundary matrix of the reflected set (the reversed adjoint).
    """
    omega_r = reflect_set(omega)
    b_r = reflected_boundary_matrix(b)
    g = f.reflect()  # J f on -omega
    lhs = apply_U_paths(omega_r, b_r, t, g).function
    rhs = apply_U_paths(omega, b, -t, f).function.reflect()
    xs = np.concatenate([probe_points(lhs, 16), probe_points(rhs, 16)])
    return bool(np.max(np.abs(lhs.evaluate(xs) - rhs.evaluate(xs))) < tol)
