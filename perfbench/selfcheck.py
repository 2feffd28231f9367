"""Self-check of the benchmark's output checks.

Runs every workload for a few seconds with a wrong answer planted into
every correct report (an eigenvalue dropped from a spectrum, a flipped
verify or classify verdict, a scaled path end weight or evolve sample) and
requires each planted op to be caught and counted in failed_share.

    python3 perfbench/selfcheck.py [--seconds 3] [--seed 7]

Exits 0 when every planted answer was caught, 1 otherwise.
"""
import argparse
import sys

import run  # sets the thread environment before numpy is imported
import corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    cli = run.load_cli()
    ok = True
    for workload in sorted(corpus.WORKLOADS):
        ops, _ = corpus.make_ops(workload, args.seed, 2, str(run.WORK / f"selfcheck-{workload}"))
        planted: dict[str, bool] = {}
        records, _ = run.run_loop(cli, ops, args.seconds, planted, plant_all=True)
        plants = [r for r in records if r.planted]
        missed = [r for r in plants if r.reason is None]
        failed = sum(r.reason is not None for r in records)
        print(f"{workload}: {len(plants)} planted of {len(records)} ops, "
              f"{len(missed)} missed, failed_share {failed / len(records):.3f}, "
              f"commands {sorted(planted)}")
        for r in missed:
            print(f"  missed: {r.op.id}")
        ok = ok and bool(plants) and not missed
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
