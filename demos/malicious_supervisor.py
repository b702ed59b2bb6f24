"""Compare supervisor behaviours on the same start state.

Runs one seeded scenario once per supervisor mode and tabulates how
long legality took, whether bad advice got rejected, and whether any
fabricated id ever leaked into node memory. The closing line sums up the
table: how many runs ended legal, the id leaks over all runs, and the
lying modes under which every dual node rejected.

    python3 demos/malicious_supervisor.py --n 32 --seed 3
"""

import argparse

from linfly.engine import SUPERVISOR_MODES, Scenario, run
from linfly.supervisor import STRATEGIES


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--topology", default="random_connected")
    args = parser.parse_args()

    print(f"{args.topology}, n={args.n}, seed={args.seed}\n")
    header = f"{'supervisor':<12} {'legal at':>8} {'all rejected':>12} " \
             f"{'advice rounds':>14} {'id leaks':>9}"
    print(header)
    print("-" * len(header))
    metrics = {}
    for mode in SUPERVISOR_MODES:
        res = run(Scenario(n=args.n, topology=args.topology,
                           supervisor=mode, seed=args.seed))
        m = metrics[mode] = res.metrics
        print(f"{mode:<12} {str(m.rounds_to_legal):>8} "
              f"{str(m.rounds_to_all_reject):>12} "
              f"{str(res.advice_rounds):>14} {m.sybil_violations:>9}")
    legal = sum(m.rounds_to_legal is not None for m in metrics.values())
    leaks = sum(m.sybil_violations for m in metrics.values())
    caught = [mode for mode in STRATEGIES
              if metrics[mode].rounds_to_all_reject is not None]
    named = f": {', '.join(caught)}" if caught else ""
    print(f"\n{legal} of {len(metrics)} runs end legal, with {leaks} id leaks; "
          f"every dual node rejected under {len(caught)} of "
          f"{len(STRATEGIES)} lying modes{named}.")


if __name__ == "__main__":
    main()
