"""Watch an advised network linearize itself, round by round.

Builds a star (every node hanging off node 0), attaches an honest
supervisor, and prints what the census sees each round until the
configuration is legal and stable.

    python3 demos/honest_run.py --n 8
"""

import argparse

from linfly.engine import (
    Scenario,
    classify_structures,
    default_max_rounds,
    rounds,
    start,
)


def describe(cfg, census):
    duals = sum(1 for st in cfg.nodes.values() if st.dual)
    parts = [f"{duals} dual"]
    if census.backbones:
        bb = census.backbones[0]
        flags = [name for name, on in
                 (("winged", bb.winged), ("flyover", bb.flyover),
                  ("configured", bb.correctly_configured)) if on]
        parts.append(f"backbone of {len(bb.members)} [{', '.join(flags) or 'bare'}]")
    if census.ouroboroi:
        parts.append(f"{len(census.ouroboroi)} ouroboros")
    if census.lost:
        parts.append(f"{len(census.lost)} lost")
    return ", ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--topology", default="star")
    args = parser.parse_args()

    cfg, pair = start(Scenario(n=args.n, topology=args.topology,
                               supervisor="honest"))
    print(f"{args.topology} on {args.n} nodes, honest supervisor\n")

    settled = 0
    for r, stats, (_connected, _degree, legal, _distance) in rounds(
            cfg, pair, default_max_rounds(args.n)):
        if stats is None:
            continue
        census = classify_structures(cfg)
        print(f"round {r:3d}  msgs {stats.messages:4d}  "
              f"{'legal  ' if legal else 'illegal'}  {describe(cfg, census)}")
        # keep going a little past legality so the flyover flags show up
        done = census.backbones and census.backbones[0].correctly_configured
        settled = settled + 1 if legal else 0
        if legal and (done or settled >= 12):
            break
    print("\nfinal order by advised position:")
    by_vid = sorted(cfg.nodes.values(), key=lambda st: st.vid)
    print("  " + " -> ".join(str(st.id) for st in by_vid))


if __name__ == "__main__":
    main()
