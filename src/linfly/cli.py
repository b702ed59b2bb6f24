"""Command line experiment runner.

Builds one scenario from flags, executes a batch of seeded runs, and
emits one CSV row per run. Output is fully deterministic: the same
flags produce byte-identical CSV, so acceptance runs can be diffed.

Exit status: 0 on success, 1 when any run recorded a connectivity or
provenance violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .engine import CORRUPTIONS, SUPERVISOR_MODES, TOPOLOGIES, Scenario, run

# fixed column order; the header row is part of the output contract
COLUMNS = (
    "seed",
    "n",
    "topology",
    "supervisor",
    "rounds_to_legal",
    "rounds_to_all_reject",
    "max_degree_seen",
    "total_messages",
    "connectivity_violations",
    "sybil_violations",
)

SUPERVISOR_CHOICES = tuple(m.replace("_", "-") for m in SUPERVISOR_MODES)


@dataclass
class ExperimentSpec:
    """A batch of scenarios, each repeated over consecutive seeds."""

    scenarios: list = field(default_factory=list)
    reps: int = 1
    trace: Optional[str] = None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _choice(kind: str, choices: Sequence[str]):
    """Argument type for a name flag: accepts - or _ between words and
    returns the spelling used in choices."""
    spelling = {c.replace("-", "_"): c for c in choices}

    def parse(text: str) -> str:
        token = spelling.get(text.replace("-", "_"))
        if token is None:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {text!r} (choose from {', '.join(choices)})")
        return token

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfly",
        description="Run seeded overlay-linearization experiments and emit CSV metrics.",
    )
    parser.add_argument("--n", type=_positive_int, required=True,
                        help="number of nodes (>= 1; far_pair needs >= 4)")
    parser.add_argument("--topology", type=_choice("topology", TOPOLOGIES),
                        default="random_connected",
                        help="start topology: %s (default: random_connected)"
                             % ", ".join(TOPOLOGIES))
    parser.add_argument("--supervisor", type=_choice("supervisor", SUPERVISOR_CHOICES),
                        default="honest",
                        help="supervisor mode: %s (default: honest)"
                             % ", ".join(SUPERVISOR_CHOICES))
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed; rep k uses seed+k (default: 0)")
    parser.add_argument("--reps", type=_positive_int, default=1,
                        help="runs per scenario on consecutive seeds (default: 1)")
    parser.add_argument("--max-rounds", type=_positive_int, default=None,
                        help="round budget per run (default: 12*n+40)")
    parser.add_argument("--corruption", type=_choice("corruption", CORRUPTIONS),
                        default="none",
                        help="initial-state fault model: %s (default: none)"
                             % ", ".join(CORRUPTIONS))
    parser.add_argument("--out", default=None,
                        help="CSV output path (default: stdout)")
    parser.add_argument("--trace", default=None,
                        help="also write per-round JSONL trace records here")
    return parser


def parse_scenario(argv: Sequence[str]) -> Scenario:
    """Parse flags into a single Scenario (batch flags are ignored here)."""
    parser = build_parser()
    return _namespace_scenario(parser, parser.parse_args(list(argv)))


def _namespace_scenario(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> Scenario:
    if args.topology == "far_pair" and args.n < 4:
        parser.error(f"--topology far_pair needs --n >= 4, got {args.n}")
    return Scenario(
        n=args.n,
        topology=args.topology,
        supervisor=args.supervisor,
        corruption=args.corruption,
        seed=args.seed,
        max_rounds=args.max_rounds,
    )


def _row(scenario: Scenario, result) -> dict:
    m = result.metrics
    return {
        "seed": scenario.seed,
        "n": scenario.n,
        "topology": scenario.topology,
        "supervisor": scenario.supervisor,
        "rounds_to_legal": m.rounds_to_legal,
        "rounds_to_all_reject": m.rounds_to_all_reject,
        "max_degree_seen": m.max_degree_seen,
        "total_messages": m.total_messages(),
        "connectivity_violations": m.connectivity_violations,
        "sybil_violations": m.sybil_violations,
    }


def run_experiments(spec: ExperimentSpec) -> list[dict]:
    """Execute every (scenario, rep) pair and return one row dict each.

    Rows are ordered by (scenario index, seed). When spec.trace is set,
    all runs append to the one trace file; each run is preceded by a
    one-line record naming its seed so the rounds can be told apart.
    """
    for scenario in spec.scenarios:
        if scenario.n < 1:
            raise ValueError(f"n must be >= 1, got {scenario.n}")
        if scenario.max_rounds is not None and scenario.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {scenario.max_rounds}")
    rows = []
    tracer = open(spec.trace, "w", encoding="utf-8") if spec.trace else None
    try:
        for scenario in spec.scenarios:
            for k in range(spec.reps):
                seeded = replace(scenario, seed=scenario.seed + k)
                if tracer is not None:
                    tracer.write('{"run": {"seed": %d, "n": %d}}\n'
                                 % (seeded.seed, seeded.n))
                result = run(seeded, trace_path=tracer)
                rows.append(_row(seeded, result))
    finally:
        if tracer is not None:
            tracer.close()
    return rows


def write_csv(stream, rows: list[dict]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow(["" if row[c] is None else row[c] for c in COLUMNS])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    scenario = _namespace_scenario(parser, args)
    spec = ExperimentSpec(scenarios=[scenario], reps=args.reps, trace=args.trace)
    rows = run_experiments(spec)
    if args.out is None:
        write_csv(sys.stdout, rows)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, rows)
    bad = any(row["connectivity_violations"] or row["sybil_violations"]
              for row in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
