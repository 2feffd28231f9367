"""Command line interface.

Problems are JSON files holding an interval union and a boundary matrix
(complex entries as [re, im] pairs); each subcommand writes a JSON or CSV
report.  Exit codes: 0 success, 1 invalid input, 2 numerical failure,
3 combinatorial guard tripped.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    forelli_spectral_suite,
    multiplicative_spectral_suite,
    spectral_pair_evidence,
    structure_suite,
)
from .boundary import classify_structure, require_unitary
from .errors import GuardExceeded, NumericalError, ValidationError
from .evolution import (
    PiecewiseExpPoly,
    apply_U_paths,
    local_translation_test,
    probe_points,
)
from .intervals import new_interval_union, translation_congruence_to_interval
from .paths import enumerate_paths, local_translation_identities, states_at
from .spectrum import compute_spectrum, spectral_matrix_check


def _complex_in(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def _complex_out(z: complex):
    return [z.real, z.imag]


def load_problem(path: str):
    with open(path) as fh:
        raw = fh.read()
    data = json.loads(raw)
    try:
        omega = new_interval_union(data["intervals"])
    except KeyError as exc:
        raise ValidationError(f"problem file missing key {exc}") from exc
    b = None
    if "matrix" in data:
        rows = [[_complex_in(v) for v in row] for row in data["matrix"]]
        b = require_unitary(np.array(rows, dtype=complex))
        if b.shape[0] != omega.n:
            raise ValidationError(
                f"matrix is {b.shape[0]}x{b.shape[1]} but the set has {omega.n} intervals"
            )
    digest = hashlib.sha256(raw.encode()).hexdigest()
    return omega, b, data, digest


def _require_matrix(b):
    if b is None:
        raise ValidationError("this command needs a 'matrix' entry in the problem file")
    return b


def _window(args, data):
    if args.window is not None:
        return tuple(args.window)
    if "window" in data:
        return tuple(data["window"])
    return None


def _emit(args, report: dict, csv_rows=None, csv_header=None):
    if args.format == "csv":
        if csv_rows is None:
            raise ValidationError("csv output is not available for this command")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(command, args, digest):
    return {
        "command": command,
        "version": __version__,
        "problem_sha256": digest,
        "seed": args.seed,
    }


def cmd_spectrum(args) -> int:
    omega, b, data, digest = load_problem(args.problem)
    b = _require_matrix(b)
    t0 = time.perf_counter()
    report = compute_spectrum(
        omega,
        b,
        window=_window(args, data),
        grid_step=args.grid_step,
        jobs=args.jobs,
    )
    flags = report.constant_flags()
    out = _base_report("spectrum", args, digest)
    out.update(
        {
            "window": list(report.window),
            "method": report.method,
            "eigenvalues": report.eigenvalues,
            "dims": report.dims,
            "constant_flags": flags,
            "residuals": report.residuals,
            "warnings": report.warnings,
            "elapsed_s": time.perf_counter() - t0,
        }
    )
    rows = list(zip(report.eigenvalues, report.dims, [int(f) for f in flags]))
    _emit(args, out, rows, ["lambda", "dim", "constant"])
    return 0


def _build_function(spec: str, omega, b, window):
    """Function specs: 'bump', or 'eigenfunction:K' for the K-th eigenvalue."""
    if spec == "bump":
        return PiecewiseExpPoly.from_atoms(
            omega, [[(0.0, (-a * c, a + c, -1.0))] for a, c in omega.endpoints]
        )
    if spec.startswith("eigenfunction:"):
        k = int(spec.split(":", 1)[1])
        check = spectral_matrix_check(omega, b, window)
        report = check.report
        if not 0 <= k < len(report.eigenvalues):
            raise ValidationError(
                f"eigenfunction index {k} out of range (found {len(report.eigenvalues)})"
            )
        lam = report.eigenvalues[k]
        return PiecewiseExpPoly.exponential(omega, lam, list(report.eigenspaces[k][0]))
    raise ValidationError(f"unknown function spec {spec!r}")


def cmd_evolve(args) -> int:
    omega, b, data, digest = load_problem(args.problem)
    b = _require_matrix(b)
    t0 = time.perf_counter()
    f = _build_function(args.function, omega, b, _window(args, data))
    result = apply_U_paths(omega, b, args.t, f)
    xs = probe_points(result.function, args.samples)
    vals = result.function.evaluate(xs)
    out = _base_report("evolve", args, digest)
    out.update(
        {
            "t": args.t,
            "function": args.function,
            "path_count": result.path_count,
            "breakpoints": {str(k): v for k, v in result.refinement.items()},
            "samples": [
                {"x": float(x), "value": _complex_out(complex(v))}
                for x, v in zip(xs, vals)
            ],
            "elapsed_s": time.perf_counter() - t0,
        }
    )
    rows = [(float(x), complex(v).real, complex(v).imag) for x, v in zip(xs, vals)]
    _emit(args, out, rows, ["x", "re", "im"])
    return 0


def cmd_verify(args) -> int:
    omega, b, data, digest = load_problem(args.problem)
    b = _require_matrix(b)
    t0 = time.perf_counter()
    window = _window(args, data)
    check = spectral_matrix_check(omega, b, window)
    out = _base_report("verify", args, digest)
    out.update(
        {
            "verdict": check.verdict,
            "eigenvalues": check.report.eigenvalues,
            "dims": check.report.dims,
        }
    )
    if check.witness_lambda is not None:
        out["witness_lambda"] = check.witness_lambda
        out["witness_vectors"] = [
            [_complex_out(complex(z)) for z in v] for v in check.witness_vectors
        ]
    if check.is_spectral and check.report.eigenvalues:
        evidence = spectral_pair_evidence(omega, check.report.eigenvalues)
        out["evidence"] = {
            "max_offdiagonal": evidence.max_offdiagonal,
            "density_ratio": evidence.density_ratio,
            "parseval_residual": evidence.parseval_residual,
        }
    if args.trials > 0:
        lt = local_translation_test(omega, b, args.trials, seed=args.seed)
        out["local_translation"] = {
            "passed": lt.passed,
            "trials": lt.trials,
            "max_error": lt.max_error,
            "witnesses": lt.witnesses,
        }
    checks = structure_suite(omega, b, check)
    out["structure"] = [
        {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
    ]
    out["elapsed_s"] = time.perf_counter() - t0
    _emit(args, out)
    return 0


def cmd_classify(args) -> int:
    omega, b, data, digest = load_problem(args.problem)
    b = _require_matrix(b)
    structure = classify_structure(b)
    out = _base_report("classify", args, digest)
    out.update(
        {
            "kind": structure.kind,
            "sigma": list(structure.sigma) if structure.sigma else None,
            "is_cycle": structure.is_cycle,
        }
    )
    window = _window(args, data)
    if structure.kind == "permutation":
        try:
            rep = multiplicative_spectral_suite(omega, b, window)
            out["multiplicative"] = {
                "passed": rep.passed,
                "cycle": rep.cycle,
                "spectrum_is_lattice": rep.spectrum_is_lattice,
                "tiles": rep.tiles,
                "chain_closes": rep.chain.closes,
                "chain_shifts_in_lattice": rep.chain.shifts_in_lattice,
            }
        except ValidationError as exc:
            out["multiplicative"] = {"passed": False, "error": str(exc)}
    elif structure.kind == "weighted_permutation":
        try:
            rep = forelli_spectral_suite(omega, b, window)
            out["weighted_permutation"] = {
                "passed": rep.passed,
                "theta0": rep.theta0,
                "weights_match": rep.weights_match,
                "jumps_in_lattice": rep.jumps_in_lattice,
                "tiles": rep.tiles,
                "chain_closes": rep.chain.closes,
            }
        except ValidationError as exc:
            out["weighted_permutation"] = {"passed": False, "error": str(exc)}
    _emit(args, out)
    return 0


def cmd_paths(args) -> int:
    omega, b, data, digest = load_problem(args.problem)
    b = _require_matrix(b)
    states = states_at(omega, b, args.x, args.t)
    sums = states.sums()
    out = _base_report("paths", args, digest)
    out.update(
        {
            "x": args.x,
            "t": args.t,
            "path_count": sums.path_count,
            "end_sums": [
                {"end": end, "weight": _complex_out(s)} for end, s in sums.sums
            ],
            "flagged_clusters": sums.flagged,
        }
    )
    if omega.index_of(args.x + args.t) is not None:
        identities = local_translation_identities(
            omega, b, args.x, args.t, states=states
        )
        out["identities"] = {
            "passed": identities.passed,
            "target": identities.target,
            "target_sum": _complex_out(identities.target_sum),
            "offending": [
                {"end": e, "weight": _complex_out(w)} for e, w in identities.offending
            ],
        }
    if args.list_paths:
        paths = enumerate_paths(omega, b, args.x, args.t)
        out["paths"] = [
            {
                "word": list(p.word),
                "remainder": p.remainder,
                "end": p.end,
                "weight": _complex_out(p.weight),
            }
            for p in paths
        ]
    rows = [(end, s.real, s.imag) for end, s in sums.sums]
    _emit(args, out, rows, ["end", "re", "im"])
    return 0


def cmd_congruence(args) -> int:
    omega, _, data, digest = load_problem(args.problem)
    modulus = args.modulus if args.modulus is not None else omega.measure
    cmap = translation_congruence_to_interval(omega, modulus)
    out = _base_report("congruence", args, digest)
    out["modulus"] = modulus
    if cmap is None:
        out["congruent"] = False
    else:
        out["congruent"] = True
        out["pieces"] = [{"interval": i, "shift": s} for i, s in cmap.pieces]
    _emit(args, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-intervals",
        description="Spectra and exact unitary evolution on unions of intervals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"))
        p.add_argument("--grid-step", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(grid_step=None)

    p = sub.add_parser("spectrum", help="eigenvalues in a window")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("evolve", help="apply the unitary group to a function")
    common(p)
    p.add_argument("--t", type=float, required=True, help="evolution time")
    p.add_argument(
        "--function",
        default="bump",
        help="'bump' or 'eigenfunction:K'",
    )
    p.add_argument("--samples", type=int, default=16, help="probe points per piece")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="spectrality verdict and structure checks")
    common(p)
    p.add_argument("--trials", type=int, default=0, help="random local translation trials")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="matrix structure and its consequences")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("paths", help="admissible paths for one (x, t)")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--list-paths", action="store_true")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("congruence", help="translation congruence to an interval")
    common(p)
    p.add_argument("--modulus", type=float, default=None, help="defaults to the total measure")
    p.set_defaults(func=cmd_congruence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
