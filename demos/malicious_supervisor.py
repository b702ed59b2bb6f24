"""Compare supervisor behaviours on the same start state.

Runs one seeded scenario once per supervisor mode and tabulates how
long legality took, whether bad advice got rejected, and whether any
fabricated id ever leaked into node memory.

    python3 demos/malicious_supervisor.py --n 32 --seed 3
"""

import argparse

from linfly.engine import SUPERVISOR_MODES, Scenario, run


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
    for mode in SUPERVISOR_MODES:
        res = run(Scenario(n=args.n, topology=args.topology,
                           supervisor=mode, seed=args.seed))
        m = res.metrics
        print(f"{mode:<12} {str(m.rounds_to_legal):>8} "
              f"{str(m.rounds_to_all_reject):>12} "
              f"{str(res.advice_rounds):>14} {m.sybil_violations:>9}")
    print("\nEvery mode ends legal; lying only costs rounds, never safety.")


if __name__ == "__main__":
    main()
