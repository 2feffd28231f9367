"""Deterministic problem corpus for the benchmark workloads.

``make_ops(workload, seed, rounds, outdir)`` writes CLI problem JSON files
under ``outdir`` and returns the ops that use them, in round-robin order.
Each op carries the facts its output checks need, known by construction
(expected verdict, expected matrix kind).  The program under test only ever
sees the JSON files and argv.

No op of the timed loop fails at the seed commit.  The inputs on which the
seed commit fails are kept apart as the probe: ``make_ops`` returns them
with the failure reason they are known to produce, and every run runs them
once and reports what they do.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

@dataclass
class Op:
    """One CLI call with the facts its checks need."""

    id: str
    argv: list[str]
    problem: dict
    expect: dict = field(default_factory=dict)
    #: probe ops only: the failure reason the seed commit gives on this input
    known: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


# -- geometry and matrices ----------------------------------------------------


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre matrix)."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def random_set(n: int, rng: np.random.Generator, measure: float, span: float, spread=0.5):
    """n intervals on [0, span] of total length ``measure``.

    Lengths and gaps are drawn from U(1 - spread, 1 + spread) and rescaled
    to the fixed measure and span, so that the solver cost of sets of one
    size depends little on the draw.
    """
    lengths = rng.uniform(1 - spread, 1 + spread, size=n)
    lengths *= measure / lengths.sum()
    gaps = rng.uniform(0.5, 1.5, size=n - 1)
    gaps *= (span - measure) / gaps.sum()
    out = []
    pos = 0.0
    for k in range(n):
        if k:
            pos += float(gaps[k - 1])
        out.append((pos, pos + float(lengths[k])))
        pos += float(lengths[k])
    return out


def jittered_window(rng: np.random.Generator, half: float) -> tuple[float, float]:
    return (-half + float(rng.uniform(-0.45, 0.45)), half + float(rng.uniform(-0.45, 0.45)))


def cell_layouts(n: int, adjacent=False) -> list[list[int]]:
    """The cell index lists c_0..c_{n-1} that ``tiling_pair`` may use."""
    out = []
    for perm in itertools.permutations(range(n)):
        cells = list(perm)
        if adjacent:
            cells[1] = cells[0]
        # piece n-1 ends at (c+1)L, piece 0 starts at c'L: keep them apart
        ok = len(set(cells)) == n - 1 if adjacent else cells[0] != cells[n - 1] + 1
        if ok and cells not in out:
            out.append(cells)
    return out


def tiling_pair(n: int, rng: np.random.Generator, big_l: float, *, adjacent=False, weighted=False,
                layout: int | None = None):
    """A spectral pair whose boundary matrix is a cyclic (weighted) permutation.

    [0, L) is cut into n pieces, piece k is moved by c_k * L with distinct
    cell indices c_k, and B sends the right end of piece k to the left end of
    piece k+1 (the last to the first).  Every jump is then in LZ, so the pair
    is spectral with spectrum (Z - theta0)/L.  Piece lengths are in the
    fixed ratio 1 : 1.01 : 1.02 ... and the cells are consecutive, so |t| up to the diameter keeps
    the predicted path count n^(ceil(|t|/lmin)+1) under the path guard for
    n = 3.  The ratio is fixed because the cost of a path enumeration grows
    like n^ceil(|t|/lmin) and the jumps t are close to multiples of L/n: a
    random length of a few percent flips the ceiling, and with it the cost
    by a factor n, from draw to draw.  With ``adjacent`` pieces 0 and 1
    share a cell, hence an endpoint.  ``layout`` indexes ``cell_layouts`` (cyclically); without it the layout
    is random.
    """
    w = 1.0 + 0.01 * np.arange(n)
    cuts = np.concatenate([[0.0], np.cumsum(w / w.sum() * big_l)])
    layouts = cell_layouts(n, adjacent)
    if layout is None:
        layout = int(rng.integers(len(layouts)))
    cells = layouts[layout % len(layouts)]
    pieces = [
        (float(cuts[k] + cells[k] * big_l), float(cuts[k + 1] + cells[k] * big_l))
        for k in range(n)
    ]
    theta0 = float(rng.uniform(0.05, 0.95)) if weighted else 0.0
    return pieces, theta0


def cycle_matrix(pieces, big_l: float, theta0: float, skew: tuple[int, float] | None = None):
    """Intervals (sorted) and B of the cycle piece k -> piece k+1."""
    order = sorted(range(len(pieces)), key=lambda k: pieces[k][0])
    pos = {k: i for i, k in enumerate(order)}
    n = len(pieces)
    b = np.zeros((n, n), dtype=complex)
    for k in range(n):
        nxt = (k + 1) % n
        jump = pieces[nxt][0] - pieces[k][1]
        weight = complex(np.exp(2j * np.pi * theta0 * jump / big_l))
        if skew is not None and skew[0] == k:
            weight *= complex(np.exp(2j * np.pi * skew[1]))
        b[pos[k], pos[nxt]] = weight
    return [pieces[k] for k in order], b


def lattice_pair(m: int, n: int, offset: float):
    """Equal-length set {m*j + [0, 1)} + offset, j < n, with B fitted to a spectrum.

    A = m*{0..n-1} has spectrum {k/(m*n)} in the torus, so the set has
    spectrum {k/(m*n) : k < n} + Z.  B is the unique matrix with
    B e_lam(alpha) = e_lam(beta) on those n frequencies (what
    ``matrix_from_spectrum`` computes), built here from the DFT directly.
    """
    alphas = offset + m * np.arange(n, dtype=float)
    lams = np.arange(n) / (m * n)
    a_mat = np.exp(2j * np.pi * np.outer(alphas, lams))
    c_mat = np.exp(2j * np.pi * np.outer(alphas + 1.0, lams))
    b = c_mat @ np.linalg.inv(a_mat)
    return [(float(a), float(a) + 1.0) for a in alphas], b


#: measure L of the constructed tiling pairs
TILING_MEASURE = 1.25
README_SET = [(0.0, 1.0), (2.0, 3.0)]
SQRT_SWAP = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


def problem(intervals, b, window) -> dict:
    return {
        "intervals": [list(p) for p in intervals],
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(b)],
        "window": list(window),
    }


def sample_point(intervals, rng: np.random.Generator) -> float:
    """A point of the set, uniform by length, away from the endpoints."""
    lengths = np.array([hi - lo for lo, hi in intervals])
    i = int(rng.choice(len(intervals), p=lengths / lengths.sum()))
    lo, hi = intervals[i]
    margin = 1e-3 * (hi - lo)
    return float(rng.uniform(lo + margin, hi - margin))


# -- workloads ------------------------------------------------------------------


#: (measure, span) per size, chosen so that one solve on (-20, 20) costs about
#: the same for every size: the latencies then form one cluster and their
#: percentiles do not jump between sizes from run to run
SCAN_SETS = {8: (2.25, 5.0), 2: (3.6, 7.2), 6: (2.7, 5.6), 3: (3.3, 6.6), 4: (3.1, 6.2)}


def _scan_round(r: int, rng):
    # one op per size; the command alternates so both see every size
    for j, (n, (measure, span)) in enumerate(SCAN_SETS.items()):
        ivs = random_set(n, rng, measure, span)
        b = haar_unitary(n, rng)
        prob = problem(ivs, b, jittered_window(rng, 20.0))
        if (r + j) % 2 == 0:
            yield f"spectrum-n{n}", prob, ["spectrum"], {}
        else:
            yield f"verify-n{n}", prob, ["verify", "--trials", "0"], {"spectral": False}


#: scan-unequal draws SCAN_PER_KIND problems of each kind (command and n),
#: chosen by the seed, from a pool of SCAN_POOL_ROUNDS rounds drawn once from
#: SCAN_POOL_SEED.  Drawing the same number of each kind keeps the mix of
#: sizes, and so the latency percentiles, the same from seed to seed.  The
#: pool is fixed so that the problems on which the seed commit fails are
#: known: the scan misses a root with no warning, or reports a root whose
#: eigenspace comes back empty (SCAN_FAILING, found by running every pool
#: entry at the seed commit).  They form the probe; the rest are drawn from.
SCAN_POOL_SEED = 2506_18625
SCAN_POOL_ROUNDS = 100
SCAN_PER_KIND = 8
SCAN_FAILING = {165: "check:root_count", 379: "check:root_count", 475: "check:eigenspace_dim"}


def scan_pool() -> list[tuple]:
    """The (name, problem, args, expect) entries of the scan-unequal pool."""
    rng = np.random.default_rng(SCAN_POOL_SEED)
    return [entry for r in range(SCAN_POOL_ROUNDS) for entry in _scan_round(r, rng)]


def _scan_entries(seed: int):
    pool = scan_pool()
    kinds: dict[str, list[int]] = {}
    for k, (name, *_) in enumerate(pool):
        if k not in SCAN_FAILING:
            kinds.setdefault(name, []).append(k)
    rng = np.random.default_rng([seed, 0])
    picks = [rng.choice(kinds[name], SCAN_PER_KIND, replace=False) for name in sorted(kinds)]
    # one of each kind in turn, so that any stretch of the loop has the mix
    for j in range(SCAN_PER_KIND):
        for i in rng.permutation(len(picks)):
            k = int(picks[i][j])
            name, prob, args, expect = pool[k]
            yield f"p{k:03d}-{name}", prob, args, expect, None
    for k, reason in sorted(SCAN_FAILING.items()):
        name, prob, args, expect = pool[k]
        yield f"p{k:03d}-{name}", prob, args, expect, reason


def _time(rung: float, lmin: float, rng, sign: int) -> float:
    """t = sign * (rung + U(-0.1, 0.1)) * lmin."""
    return sign * (rung + float(rng.uniform(-0.1, 0.1))) * lmin


#: full interval traversals of a `paths` op per size: about n^(k+1) paths,
#: 16-20k each, so every op costs about the same (~0.1 s) and the latencies
#: form one cluster.  The predicted count n^(ceil(|t|/lmin)+1) is at most
#: 2^17, 3^12 and 4^9 (the last step under the 10^6 guard for n = 4).
PATHS_STEPS = {2: 13, 3: 8, 4: 6}
#: |t|/lmin of an `evolve` op, which enumerates paths once per sub-piece
EVOLVE_RUNG = {2: 7.5, 3: 3.5, 4: 2.5}
SHORT_RUNG = 1.5


def _paths_args(ivs, steps: int, rng, start: int, forward: bool):
    """x and t such that the path from x in interval ``start`` crosses
    ``steps`` whole intervals and ends mid-interval."""
    lo, hi = ivs[start % len(ivs)]
    x = float(rng.uniform(lo, hi))
    mean = sum(b - a for a, b in ivs) / len(ivs)
    t = (hi - x if forward else x - lo) + (steps + float(rng.uniform(0.4, 0.6))) * mean
    if not forward:
        t = -t
    return [f"--x={x!r}", f"--t={t!r}"]


def _paths_round(r: int, rng):
    # the discrete choices (sign of t, start interval, direction, cell
    # layout) cycle with the round, so that every run sees the same mix of
    # them; the costs of the choices differ by up to 2x
    sign = 1 if r % 2 else -1
    for n in (2, 3, 4):
        ivs = random_set(n, rng, measure=float(n), span=2.0 * n, spread=0.02)
        b = haar_unitary(n, rng)
        prob = problem(ivs, b, (-1.0, 1.0))
        lmin = min(hi - lo for lo, hi in ivs)
        t = _time(EVOLVE_RUNG[n], lmin, rng, sign)
        yield f"evolve-n{n}", prob, ["evolve", f"--t={t!r}", "--function", "bump"], {}, None
        args = _paths_args(ivs, PATHS_STEPS[n], rng, r // 2, forward=(r // 2) % 2 == 0)
        yield f"paths-n{n}", prob, ["paths", *args], {"spectral": False}, None
        if n == 3:
            x = sample_point(ivs, rng)
            t = _time(SHORT_RUNG, lmin, rng, -sign)
            yield "paths-short", prob, ["paths", f"--x={x!r}", f"--t={t!r}"], {
                "spectral": False
            }, None
    # a spectral pair, where the target-sum identity must hold at x + t
    pieces, theta0 = tiling_pair(3, rng, TILING_MEASURE, weighted=bool(r % 2), layout=r // 2)
    ivs, b = cycle_matrix(pieces, TILING_MEASURE, theta0)
    prob = problem(ivs, b, (-1.0, 1.0))
    lmin = min(hi - lo for lo, hi in ivs)
    t = _time(EVOLVE_RUNG[3], lmin, rng, -sign)
    yield "evolve-pair", prob, ["evolve", f"--t={t!r}", "--function", "bump"], {}, None
    x = sample_point(ivs, rng)
    t = sample_point(ivs, rng) - x
    yield "paths-pair", prob, ["paths", f"--x={x!r}", f"--t={t!r}"], {"spectral": True}, None


VERIFY_TRIALS = 40
#: pairs on which ``verify --trials VERIFY_TRIALS`` fails at the seed commit,
#: with the reason, and the trials argument of their verify op in the timed
#: loop (None: no verify op there, only classify).  On the tiling pair with
#: two adjacent intervals every verify raises an uncaught
#: ValueError("gap must be positive") from structure_suite ->
#: gap_decomposition; on the 8-interval lattice pair the trials predict
#: ~1e14 paths and the CLI exits 3 after the evidence work, while
#: ``--trials 0`` passes.
VERIFY_FAILING = {"perm3-adjacent": ("ValueError", None), "lattice8": ("exit 3", "0")}


def _pairs(r: int, rng):
    """(name, intervals, B, window half-width, spectral, kind) of round r.

    Windows hold about 30 eigenvalues each, so every verify op does a
    similar amount of evidence work.  The cells of the tiling pairs, and
    the piece whose weight a near miss skews, cycle with the round: the cost
    of the trials depends on them, and every run then sees the same mix.
    """
    yield "readme", README_SET, SQRT_SWAP, 8.0, True, "general"
    yield "readme-swap", README_SET, SWAP, 8.0, False, "permutation"
    for weighted in (False, True):
        kind = "weighted_permutation" if weighted else "permutation"
        name = "forelli3" if weighted else "perm3"
        pieces, theta0 = tiling_pair(3, rng, TILING_MEASURE, weighted=weighted,
                                     layout=r + weighted)
        ivs, b = cycle_matrix(pieces, TILING_MEASURE, theta0)
        yield name, ivs, b, 12.0, True, kind
        # near miss: one weight off the theta0 law breaks spectrality
        skew = ((r + weighted) % 3, float(rng.uniform(0.1, 0.4)))
        ivs, b = cycle_matrix(pieces, TILING_MEASURE, theta0, skew)
        yield name + "-skew", ivs, b, 12.0, False, "weighted_permutation"
    # tiling permutation pair with two adjacent intervals
    pieces, _ = tiling_pair(3, rng, TILING_MEASURE, adjacent=True, layout=r)
    ivs, b = cycle_matrix(pieces, TILING_MEASURE, 0.0)
    yield "perm3-adjacent", ivs, b, 12.0, True, "permutation"
    offset = float(rng.integers(-3, 4))
    ivs, b = lattice_pair(2, 4, offset)
    yield "lattice4", ivs, b, 4.0, True, "general"
    # 8 equal-length intervals, B from the spectrum
    ivs, b = lattice_pair(2, 8, offset)
    yield "lattice8", ivs, b, 2.0, True, "general"


def _pairs_round(r: int, rng):
    # verify every pair; classify two pairs per round, in turn, so that the
    # cheap classify ops stay a minority and the median latency falls inside
    # the cluster of verify ops rather than between clusters.  The trials
    # seed is the round, so that every run draws the same trial sequences.
    trials = ["--trials", str(VERIFY_TRIALS), "--seed", str(r)]
    cases = list(_pairs(r, rng))
    for k, (name, ivs, b, half, spectral, kind) in enumerate(cases):
        prob = problem(ivs, b, jittered_window(rng, half))
        expect = {"spectral": spectral}
        reason, timed_trials = VERIFY_FAILING.get(name, (None, trials[1]))
        if reason is not None and r == 0:
            yield f"verify-{name}", prob, ["verify", *trials], expect, reason
        if timed_trials is not None:
            yield f"verify-{name}", prob, ["verify", "--trials", timed_trials, *trials[2:]], expect, None
        if (2 * r) % len(cases) == k or (2 * r + 1) % len(cases) == k:
            yield f"classify-{name}", prob, ["classify"], {**expect, "kind": kind}, None


def _rounds(round_fn, seed: int, rounds: int):
    rng = np.random.default_rng([seed, 1])
    for r in range(rounds):
        for name, *rest in round_fn(r, rng):
            yield f"r{r}-{name}", *rest


WORKLOADS = {
    "scan-unequal": lambda seed, rounds: _scan_entries(seed),
    "evolve-paths": lambda seed, rounds: _rounds(_paths_round, seed, rounds),
    "verify-pairs": lambda seed, rounds: _rounds(_pairs_round, seed, rounds),
}


def make_ops(workload: str, seed: int, rounds: int, outdir: str) -> tuple[list[Op], list[Op]]:
    """Write the problem files of a run and return (timed ops, probe ops).

    ``rounds`` rounds of the round-robin workloads; scan-unequal always
    draws SCAN_PER_KIND problems of each kind.  Probe ops carry in
    ``known`` the failure reason the seed commit gives on them.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(outdir, exist_ok=True)
    ops, probe = [], []
    for k, (name, prob, args, expect, known) in enumerate(WORKLOADS[workload](seed, rounds)):
        path = os.path.join(outdir, f"{k:04d}-{name}.json")
        with open(path, "w") as fh:
            json.dump(prob, fh)
        op = Op(name, [args[0], path, *args[1:]], prob, expect, known)
        (ops if known is None else probe).append(op)
    return ops, probe
