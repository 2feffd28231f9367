"""Benchmark of the spectral-intervals CLI on generated problem corpora.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan-unequal --seed 1 --seconds 25 --trace 0

One process, one thread (BLAS and OpenMP pools are set to one thread in
this process's environment).  The package is imported from ./src, and the
CLI entry ``spectral_intervals.cli.main(argv)`` is driven in-process over
problem files written to ./.perfbench/.  Ops run round-robin over the corpus
until their summed latency reaches --seconds; every output is checked after
its op, outside the timed region (see checks.py).

Times are reported at a nominal machine speed: a fixed reference
computation (``reference``) is timed every REF_EVERY seconds along the run,
and each timing is multiplied by REF_NOMINAL over the median of the
REF_NEAREST reference samples nearest to it, to the power REF_POWER.  The
raw wall-clock figures are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop and
runs every op a second time with the layers wrapped in spans (spans.py),
then prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

An op fails on a nonzero exit, an exception or a failed check; every
failure is counted and listed with its reason, and ``correct`` is false
when any op failed or a planted wrong answer slipped past the checks.  The
inputs on which the seed commit fails are not in the timed loop; they run
once per run as the probe, untimed, and the report lists what each does.
"""
import os

# one BLAS / OpenMP thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import numpy as np  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: rounds of problem files written per run; the loop cycles through them
ROUNDS = 40
SETUP_RUNS = 5
IMPORT_RUNS = 3
SETUP_CODE = "import spectral_intervals.cli as cli; cli.build_parser()"

#: seconds between two samples of the speed reference
REF_EVERY = 0.3
#: reference samples whose median scales one timing
REF_NEAREST = 11
#: seconds the reference takes at the nominal speed
REF_NOMINAL = 0.012
#: op time moves as the reference time to this power: the least-squares
#: slope of log op time on log reference time (smoothed over 5 samples) was
#: 0.70 for a spectrum op and 0.67 for an evolve op; with it the scatter of
#: the scaled op time fell by 15% and 30% from a power of 1
REF_POWER = 0.7
_REF_RNG = np.random.default_rng(0)
REF_MATS = _REF_RNG.normal(size=(64, 4, 4)) + 1j * _REF_RNG.normal(size=(64, 4, 4))

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Record:
    op: corpus.Op
    latency: float
    reason: str | None
    at: float = 0.0
    planted: bool = False
    traced: float = 0.0


def reference() -> float:
    """Wall time of a fixed computation of the kind the CLI does: small
    complex eigendecompositions, elementwise numpy and a Python loop."""
    t0 = time.perf_counter()
    for k in range(300):
        mu = np.linalg.eigvals(REF_MATS[k % 64] * np.exp(0.01j * k))
        float(np.min(np.abs(1.0 - mu)))
    table: dict[int, int] = {}
    for k in range(20000):
        table[k % 97] = table.get(k % 97, 0) + k
    return time.perf_counter() - t0


class Speed:
    """Samples of the reference time along a run.

    The machine's speed drifts (on a shared 2-vCPU host the same op took
    0.23 s and 0.40 s within a minute, CPU time tracking wall time); a
    timing scaled by the reference time measured around it drifts much less.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.last = -math.inf

    def sample(self, force=False) -> None:
        now = time.perf_counter()
        if force or now - self.last >= REF_EVERY:
            took = reference()
            self.at.append(now + took / 2)
            self.took.append(took)
            self.last = time.perf_counter()

    def scale(self, at: float) -> float:
        """Factor that brings a timing made at time ``at`` to the nominal speed."""
        i = bisect.bisect(self.at, at)
        lo = max(0, min(i - REF_NEAREST // 2, len(self.at) - REF_NEAREST))
        return (REF_NOMINAL / statistics.median(self.took[lo:lo + REF_NEAREST])) ** REF_POWER


def load_cli():
    """Import spectral_intervals.cli from ./src, and only from there."""
    if not (SRC / "spectral_intervals" / "cli.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import spectral_intervals.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout under {SRC}")
    return cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_time() -> tuple[float, float]:
    """(midpoint, wall time) of a fresh interpreter importing the CLI and building its parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT, check=True)
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def import_split(runs: int) -> tuple[float, float]:
    """Median self import time of the package and of everything else."""
    cmd = [sys.executable, "-X", "importtime", "-c", SETUP_CODE]
    package, deps = [], []
    for _ in range(runs):
        err = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                             capture_output=True, text=True).stderr
        own = other = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            if name.strip().split(".")[0] == "spectral_intervals":
                own += int(self_us)
            else:
                other += int(self_us)
        package.append(own / 1e6)
        deps.append(other / 1e6)
    return statistics.median(package), statistics.median(deps)


def run_op(cli, op):
    """Run one CLI call; returns (latency, failure reason or None, parsed report)."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the op failed; the benchmark goes on
        code, reason = None, type(exc).__name__
    latency = time.perf_counter() - t0
    if reason is None and code != 0:
        reason = f"exit {code}"
    if reason is not None:
        return latency, reason, None
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return latency, "check:json", None
    return latency, None, report


def check_op(op, report):
    try:
        return checks.check(op, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"check:{type(exc).__name__}"


def run_checked(cli, op):
    """Run one op and check its output: (latency, failure reason or None, report)."""
    latency, reason, report = run_op(cli, op)
    if report is not None:
        reason = check_op(op, report)
    return latency, reason, report


def run_traced(cli, op, tracer) -> float:
    tracer.install()
    try:
        return run_op(cli, op)[0]
    finally:
        tracer.uninstall()


def run_loop(cli, ops, seconds: float, planted: dict, plant_all=False, tracer=None, start=0,
             speed=None):
    """Round-robin over ops, from ``ops[start]``, until the summed latency
    reaches ``seconds``.

    A wrong answer is planted into the first correct report of each command
    (into every one with ``plant_all``, whose op then stands or falls by
    the planted answer); ``planted`` collects, per command, whether the
    checks caught all of them.  With a ``tracer`` every op also runs traced,
    before or after its untraced run in turn, so that drift in machine speed
    does not enter the tracing overhead.  With a ``speed`` the reference is
    sampled between ops.
    """
    records = []
    busy = 0.0
    i = start
    while busy < seconds:
        op = ops[i % len(ops)]
        i += 1
        if speed is not None:
            speed.sample()
        traced = run_traced(cli, op, tracer) if tracer is not None and i % 2 else 0.0
        t0 = time.perf_counter()
        latency, reason, report = run_checked(cli, op)
        record = Record(op, latency, reason, at=t0 + latency / 2, traced=traced)
        if tracer is not None and not i % 2:
            record.traced = run_traced(cli, op, tracer)
        busy += latency
        if reason is None and (plant_all or op.command not in planted):
            wrong = checks.plant(op, report)
            if wrong is not None:
                caught = check_op(op, wrong)
                planted[op.command] = planted.get(op.command, True) and caught is not None
                if plant_all:
                    record.reason, record.planted = caught, True
        records.append(record)
    return records, busy


def tail(values):
    """Highest percentile with at least 10 samples above it, as (value, pct).

    With 10 samples or fewer there is none: (nan, nan).
    """
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        return math.nan, math.nan
    return xs[k], 100.0 * (k + 1) / len(xs)


def latency_lines(records, times):
    """Per-command and all-op latency: name -> (p50, tail, pct, n)."""
    groups = {"op": list(times)}
    for r, t in zip(records, times):
        groups.setdefault(r.op.command, []).append(t)
    return {name: (statistics.median(xs), *tail(xs), len(xs)) for name, xs in groups.items()}


def run_probe(cli, probe) -> int:
    """Run each probe op once, untimed; print what it does; return how many failed."""
    failed = 0
    for op in probe:
        _, reason, _ = run_checked(cli, op)
        failed += reason is not None
        if reason is None:
            state = f"passes (failed with {op.known} at the seed commit)"
        elif reason == op.known:
            state = f"fails: {reason}, as at the seed commit"
        else:
            state = f"fails: {reason} (at the seed commit: {op.known})"
        print(f"probe {op.id} {op.command}: {state}")
    return failed


def print_report(workload, seed, records, busy, normal):
    failed = [r for r in records if r.reason is not None]
    print(f"# workload {workload} seed {seed}: {len(records)} ops in {busy:.3f} s of CLI time")
    wall = latency_lines(records, [r.latency for r in records])
    for name, (p50, value, pct, n) in sorted(latency_lines(records, normal).items()):
        print(f"{name}_p50_s {p50:.6f} s n={n} (wall {wall[name][0]:.6f} s)")
        if math.isnan(value):
            print(f"{name}_tail_s n/a (needs 11 samples) n={n}")
        else:
            print(f"{name}_tail_s {value:.6f} s p{pct:.1f} n={n} (wall {wall[name][1]:.6f} s)")
    print(f"failed_share {len(failed) / len(records):.6f} ratio n={len(records)}")
    for (name, reason), count in sorted(Counter((r.op.id, r.reason) for r in failed).items()):
        print(f"failure {name}: {reason} x{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    if args.trace:
        package_s, deps_s = import_split(IMPORT_RUNS)
    else:
        setup_time()  # warm the bytecode cache
    workdir = WORK / f"{args.workload}-{args.seed}"
    ops, probe = corpus.make_ops(args.workload, args.seed, ROUNDS, str(workdir))
    # warm up lazy imports and first-call paths on the smallest op of each command
    smallest = {}
    for op in ops[:12]:
        size = len(op.problem["intervals"])
        if size < smallest.get(op.command, (math.inf,))[0]:
            smallest[op.command] = (size, op)
    for _, op in smallest.values():
        run_op(cli, op)
    probe_failed = run_probe(cli, probe)

    # the loop runs in chunks with one set-up sample before each, so that
    # the set-up samples spread over the run like the ops do
    tracer = spans.Tracer() if args.trace else None
    speed = None if args.trace else Speed()
    planted: dict[str, bool] = {}
    records, busy, setup = [], 0.0, []
    for _ in range(SETUP_RUNS):
        if speed is not None:
            speed.sample(force=True)
            setup.append(setup_time())
        chunk, chunk_busy = run_loop(cli, ops, args.seconds / SETUP_RUNS, planted,
                                     tracer=tracer, start=len(records), speed=speed)
        records += chunk
        busy += chunk_busy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(r.reason is not None for r in records)
    passed = len(records) - failed
    correct = bool(planted) and all(planted.values()) and not failed

    if tracer is not None:
        print_report(args.workload, args.seed, records, busy, [r.latency for r in records])
        values = tracer.metrics(len(records))
        values["import.package_s"] = package_s
        values["import.deps_s"] = deps_s
        values["probe.failed_ops"] = probe_failed
        values["trace.overhead_share"] = sum(r.traced for r in records) / busy - 1.0
        tracer.save(workdir / "spans.npz")
        units = spans.PER_LAYER
        counts = {"import.package_s": IMPORT_RUNS, "import.deps_s": IMPORT_RUNS}
    else:
        speed.sample(force=True)
        normal = [r.latency * speed.scale(r.at) for r in records]
        print_report(args.workload, args.seed, records, busy, normal)
        values = {
            "op_p50_s": statistics.median(normal),
            "op_tail_s": tail(normal)[0],
            "ops_per_s": passed / sum(normal),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(took * speed.scale(at) for at, took in setup),
        }
        print(f"ops_per_s wall {passed / busy:.6g} 1/s")
        print(f"setup_s wall {statistics.median(took for _, took in setup):.6g} s")
        q = statistics.quantiles(speed.took, n=4)
        print(f"speed reference {statistics.median(speed.took):.6f} s (quartiles {q[0]:.6f} "
              f"{q[2]:.6f}, nominal {REF_NOMINAL}) n={len(speed.took)}")
        units = END_TO_END
        counts = {"setup_s": SETUP_RUNS}
    for name, unit in units.items():
        if not name.startswith("op_"):  # printed by print_report with its percentile
            suffix = f" n={counts[name]}" if name in counts else ""
            print(f"{name} {values[name]:.6g} {unit}{suffix}")
    for command, caught in sorted(planted.items()):
        print(f"planted wrong {command} answer {'caught' if caught else 'MISSED'}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
