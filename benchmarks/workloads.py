"""The benchmark's workloads: seeded inputs and one batch of calls each.

Each workload turns the benchmark seed into plain scenario specs, and
the program sees only those specs (as `engine.Scenario` objects). A
batch is one closed-loop pass: every scenario starts after the previous
one has finished. Only the calls into the program are timed; the
correctness gate and the digest of simulated statistics are taken
between them.

`far_pair` ignores its seed, so those scenarios repeat on every seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

# the CLI's trace file goes to a temporary directory inside the checkout
CHECKOUT = Path(__file__).resolve().parent.parent

STRATEGIES = ("split", "sybil", "wrong-vids", "cycle", "partial", "stale")

# the CLI's CSV header is part of its output contract
CSV_COLUMNS = (
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


class Spec(NamedTuple):
    """One scenario, as plain data: the benchmark's only input to the program."""

    n: int
    topology: str
    supervisor: str
    seed: int


@dataclass
class Batch:
    """What one pass over a workload's inputs did and cost."""

    wall_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    rounds: int = 0
    messages: int = 0
    max_degree: int = 0
    all_reject: list = field(default_factory=list)
    trees: int = 0
    trace_bytes: int = 0
    records: list = field(default_factory=list)

    @property
    def items(self) -> int:
        """Units of work: simulated rounds, or checked tree instances."""
        return self.rounds + self.trees

    def digest(self) -> str:
        text = json.dumps(self.records, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def honest_round_limit(n: int) -> int:
    """Rounds an honest run may take: 16 * ceil(log2 n)."""
    return 16 * max(1, (n - 1).bit_length())


def _problems(spec: Spec, rounds_to_legal: Optional[int], connectivity: int,
              provenance: int) -> list:
    problems = []
    if connectivity:
        problems.append(f"{connectivity} connectivity violations")
    if provenance:
        problems.append(f"{provenance} provenance violations")
    if rounds_to_legal is None:
        problems.append("not legal within default_max_rounds(n)")
    elif spec.supervisor == "honest" and rounds_to_legal > honest_round_limit(spec.n):
        problems.append(f"honest run took {rounds_to_legal} rounds "
                        f"> {honest_round_limit(spec.n)}")
    return problems


def _count(batch: Batch, spec: Spec, problems: list) -> None:
    batch.attempted += 1
    if problems:
        batch.failures.append(f"{spec}: " + "; ".join(problems))


def _scenario(mods, spec: Spec):
    return mods.engine.Scenario(n=spec.n, topology=spec.topology,
                                supervisor=spec.supervisor, seed=spec.seed)


def run_scenarios(mods, specs: list) -> Batch:
    """Call `engine.run` once per scenario, timing each call."""
    batch = Batch()
    clock = time.perf_counter
    for spec in specs:
        scenario = _scenario(mods, spec)
        t0 = clock()
        result = mods.engine.run(scenario)
        batch.wall_s += clock() - t0
        m = result.metrics
        _count(batch, spec, _problems(spec, m.rounds_to_legal,
                                      m.connectivity_violations,
                                      m.sybil_violations))
        batch.rounds += result.rounds
        batch.messages += m.total_messages()
        batch.max_degree = max(batch.max_degree, m.max_degree_seen)
        if m.rounds_to_all_reject is not None:
            batch.all_reject.append(m.rounds_to_all_reject)
        batch.records.append({
            "spec": list(spec),
            "rounds": result.rounds,
            "rounds_to_legal": m.rounds_to_legal,
            "rounds_to_all_reject": m.rounds_to_all_reject,
            "max_degree_seen": m.max_degree_seen,
            "messages_per_round": m.messages_per_round,
            "connectivity_violations": m.connectivity_violations,
            "sybil_violations": m.sybil_violations,
            "advice_rounds": result.advice_rounds,
            "pair_distances": result.pair_distances,
            "final": hashlib.sha256(result.config.dumps().encode()).hexdigest(),
        })
    return batch


def run_cli_batch(mods, specs: list) -> Batch:
    """Drive the scenarios through `cli.run_experiments` with a JSONL trace."""
    batch = Batch()
    cli = mods.cli
    clock = time.perf_counter
    with tempfile.TemporaryDirectory(dir=CHECKOUT, prefix=".bench-tmp-") as tmp:
        trace = os.path.join(tmp, "trace.jsonl")
        spec = cli.ExperimentSpec(scenarios=[_scenario(mods, s) for s in specs],
                                  reps=1, trace=trace)
        buf = io.StringIO()
        t0 = clock()
        rows = cli.run_experiments(spec)
        cli.write_csv(buf, rows)
        batch.wall_s = clock() - t0
        with open(trace, "rb") as fh:
            trace_sha = hashlib.sha256(fh.read()).hexdigest()
        batch.trace_bytes = os.path.getsize(trace)
    csv_text = buf.getvalue()
    header_ok = csv_text.split("\n", 1)[0] == ",".join(CSV_COLUMNS)
    for s, row in zip(specs, rows):
        problems = _problems(s, row["rounds_to_legal"],
                             row["connectivity_violations"],
                             row["sybil_violations"])
        if not header_ok:
            problems.append("CSV header differs from the contract columns")
        _count(batch, s, problems)
        batch.rounds += row["rounds_to_legal"] or 0
        batch.messages += row["total_messages"]
        batch.max_degree = max(batch.max_degree, row["max_degree_seen"])
        if row["rounds_to_all_reject"] is not None:
            batch.all_reject.append(row["rounds_to_all_reject"])
    if len(rows) != len(specs):
        batch.failures.append(f"{len(rows)} CSV rows for {len(specs)} scenarios")
    batch.records = [csv_text, trace_sha]
    return batch


def expected_trees(max_n: int) -> int:
    """Rooted labelled trees on 2..max_n vertices, both root labels
    (Cayley: n^(n-2) trees, n roots, 2 labels)."""
    return sum(2 * n ** (n - 1) for n in range(2, max_n + 1))


class TreeSweep(NamedTuple):
    """Input of the exhaustive verifier: every tree on 2..max_n vertices."""

    max_n: int


def run_ttp(mods, sweep: TreeSweep) -> Batch:
    """One exhaustive `ttp.verify_all_trees` pass; the oracle raises on a bad path."""
    expected = expected_trees(sweep.max_n)
    t0 = time.perf_counter()
    count = mods.ttp.verify_all_trees(sweep.max_n)
    batch = Batch(wall_s=time.perf_counter() - t0, attempted=1, trees=count,
                  records=[sweep.max_n, count])
    if count != expected:
        batch.failures.append(f"checked {count} instances, expected {expected}")
    return batch


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, bool], object]  # (seed, smoke) -> specs or a TreeSweep
    run: Callable[[object, object], Batch]  # (mods, inputs)


def _seeds(seed: int, k: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(k)]


def _honest_advice(seed: int, smoke: bool) -> list:
    (s,) = _seeds(seed, 1)
    return [Spec(32 if smoke else 1024, "random_connected", "honest", s),
            Spec(16 if smoke else 512, "far_pair", "honest", s)]


def _unassisted_long(seed: int, smoke: bool) -> list:
    (s,) = _seeds(seed, 1)
    return [Spec(16 if smoke else 256, "far_pair", "none", s),
            Spec(32 if smoke else 1024, "random_connected", "none", s)]


def _adversarial(seed: int, smoke: bool) -> list:
    n = 24 if smoke else 512
    return [Spec(n, "random_connected", strategy, s)
            for strategy, s in zip(STRATEGIES, _seeds(seed, len(STRATEGIES)))]


def _tree_sweep(seed: int, smoke: bool) -> TreeSweep:
    return TreeSweep(5 if smoke else 7)


WORKLOADS = {w.name: w for w in (
    Workload("honest-advice", _honest_advice, run_scenarios),
    Workload("unassisted-long", _unassisted_long, run_scenarios),
    Workload("adversarial-traced", _adversarial, run_cli_batch),
    Workload("ttp-exhaustive", _tree_sweep, run_ttp),
)}
