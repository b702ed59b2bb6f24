"""linfly benchmark: one workload per invocation, one process, no threads.

Usage, from the root of a linfly checkout:

    python3 benchmarks/run.py --workload honest-advice --seed 1 --seconds 30 --trace 0

The run repeats one pass in a closed loop: time set-up (import `linfly`
and build every start configuration) a few times, then run the
workload's batch. It stops before a pass that would end after
`--seconds`, but makes at least one. Timings are medians over the run,
in nominal seconds: host seconds scaled by a machine-speed probe (see
speed.py).

With `--trace 0` no wrapper is installed and the last line of standard
output is a JSON object with the end-to-end metrics. With `--trace 1`
each untraced batch is followed by a batch under timing wrappers, and
the JSON holds the per-layer metrics. The lines before it are a
readable report, including host seconds and a digest of the simulated
statistics that must not change unless the program's behaviour does.

Seed 1 is the default; 104729 is the held-out seed for checking that a
claim holds on a seed that was not used while a change was written.
Exit status: 0 after a measurement (correct or not), 2 when there is
no `src/linfly` to measure or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer, wrapped_targets
from workloads import WORKLOADS, Batch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 104729
# set-up is timed this many times before every batch, so that its median
# spans the whole run rather than its first second
SETUP_REPS = 5
MODULES = ("core", "protocol", "supervisor", "ttp", "engine", "cli")

# metric names and units, as the contract lists them
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
# per-layer names of delivered-message counts, one per message class
KIND_PREFIX = "protocol.msgs_in."

MONITORS = ("engine.connectivity", "engine.legality", "engine.degree",
            "engine.pair_distance")


def import_linfly() -> types.SimpleNamespace:
    """Import `linfly` afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m == "linfly" or m.startswith("linfly.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"linfly.{m}")
                                    for m in MODULES})


def build_start_configurations(mods, specs) -> None:
    """The set-up calls `engine.run` makes, through the same public functions."""
    for spec in specs:
        adjacency, _pair = mods.engine.make_topology(
            spec.topology, spec.n, random.Random(spec.seed))
        config = mods.core.initial_configuration(adjacency)
        token = spec.supervisor.replace("-", "_")
        if token == "honest":
            config.supervisor = mods.supervisor.make_supervisor(
                set(config.ids()), "honest")
        elif token != "none":
            config.supervisor = mods.supervisor.make_supervisor(
                set(config.ids()), "malicious", token)
        mods.engine.inject_faults(config, "none", spec.seed)


def measure_setup(inputs) -> tuple[types.SimpleNamespace, list[float], float]:
    """Time SETUP_REPS set-ups; return the last import's modules, the host
    seconds of each, and the speed factor over them."""
    # ttp-exhaustive builds no start configuration: its set-up is the import
    specs = inputs if isinstance(inputs, list) else []
    times = []
    with SpeedProbe() as speed:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            mods = import_linfly()
            build_start_configurations(mods, specs)
            times.append(time.perf_counter() - t0)
    return mods, times, speed.factor()


def run_batch(workload, mods, inputs) -> Batch:
    """One batch; a call that raises counts as one failed attempt."""
    try:
        return workload.run(mods, inputs)
    except Exception:
        traceback.print_exc()
        return Batch(attempted=1, failures=[f"{workload.name}: raised, see stderr"])


def run_untraced(workload, mods, inputs) -> Batch:
    wrapped = wrapped_targets(mods)
    if wrapped:
        raise RuntimeError(f"timing wrappers left installed: {wrapped}")
    batch = run_batch(workload, mods, inputs)
    wrapped = wrapped_targets(mods)
    if wrapped:
        raise RuntimeError(f"timing wrappers installed during an untraced batch: {wrapped}")
    return batch


def layer_metrics(tr: Tracer, batch: Batch) -> dict:
    """Per-layer figures of one traced batch."""
    msgs_in = tr.counts["protocol.msgs_in"]
    node_round_self = tr.self_time("protocol.node_round")
    kinds = {cls.__name__: n for cls, n in tr.kinds.items()}
    run_total = tr.total("engine.run")
    monitors = sum(tr.total(s) for s in MONITORS)
    out = {
        "protocol.node_round.self_s": node_round_self,
        "protocol.node_round.calls": tr.calls("protocol.node_round"),
        "protocol.msgs_in": msgs_in,
        "protocol.us_per_msg_in": 1e6 * node_round_self / msgs_in if msgs_in else 0.0,
        "protocol.sends": tr.counts["protocol.sends"],
        "protocol.sends_dropped": tr.counts["protocol.sends_dropped"],
        "protocol.rejects": tr.counts["protocol.rejects"],
        **{name: kinds.get(name[len(KIND_PREFIX):], 0)
           for name in PER_LAYER if name.startswith(KIND_PREFIX)},
        "baseline.base_step.s": tr.total("baseline.base_step"),
        "baseline.base_step.calls": tr.calls("baseline.base_step"),
        "baseline.msgs_in": tr.counts["baseline.msgs_in"],
        "engine.step_round.self_s": tr.self_time("engine.step_round"),
        "engine.connectivity.s": tr.total("engine.connectivity"),
        "engine.legality.s": tr.total("engine.legality"),
        "engine.degree.s": tr.total("engine.degree"),
        "engine.pair_distance.s": tr.total("engine.pair_distance"),
        "core.explicit_edges.s": tr.total("core.explicit_edges"),
        "core.explicit_edges.calls_per_round":
            tr.calls("core.explicit_edges") / batch.rounds if batch.rounds else 0.0,
        "engine.monitors.share": monitors / run_total if run_total else 0.0,
        "supervisor.step.s": tr.total("supervisor.step"),
        "supervisor.step.calls": tr.calls("supervisor.step"),
        "supervisor.advice_out": tr.counts["supervisor.advice_out"],
        "supervisor.snapshot_requests": tr.counts["supervisor.snapshot_requests"],
        "engine.trace.s": tr.total("engine.trace"),
        "engine.trace.bytes": batch.trace_bytes,
        "cli.run_experiments.self_s": tr.self_time("cli.run_experiments"),
        "cli.write_csv.s": tr.total("cli.write_csv"),
        "engine.setup.s": tr.total("engine.setup"),
        "ttp.enumerate.s": tr.total("ttp.enumerate"),
        "ttp.tree_to_path.s": tr.total("ttp.tree_to_path"),
        "ttp.oracle.s": tr.total("ttp.oracle"),
        "ttp.trees": batch.trees,
        "engine.loop.self_s": tr.self_time("engine.run"),
    }
    out.update(simulated_stats(batch))
    return out


def simulated_stats(batch: Batch) -> dict:
    return {
        "rounds_to_legal": batch.rounds,
        "messages": batch.messages,
        "max_degree": batch.max_degree,
        "rounds_to_all_reject": max(batch.all_reject, default=0),
        "rounds_to_all_reject.runs": len(batch.all_reject),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one workload and return its report; see `result_line`."""
    workload = WORKLOADS[workload_name]
    inputs = workload.inputs(seed, smoke)
    # host seconds, and host seconds scaled to nominal speed (see speed.py)
    setup_host: list[float] = []
    setup_nominal: list[float] = []
    untraced: list[Batch] = []
    untraced_nominal: list[float] = []
    traced: list[Batch] = []
    traced_nominal: list[float] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        mods, times, factor = measure_setup(inputs)
        setup_host += times
        setup_nominal += [t * factor for t in times]
        with SpeedProbe() as speed:
            batch = run_untraced(workload, mods, inputs)
        untraced.append(batch)
        untraced_nominal.append(batch.wall_s * speed.factor())
        if trace:
            with SpeedProbe() as speed, Tracer(mods) as tr:
                batch = run_batch(workload, mods, inputs)
            traced.append(batch)
            traced_nominal.append(batch.wall_s * speed.factor())
            layers.append(layer_metrics(tr, batch))
        # stop before a pass that would end after `seconds`
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) > seconds:
            break

    batches = untraced + traced
    digests = sorted({b.digest() for b in batches})
    failures = [f for b in batches for f in b.failures]
    first = untraced[0]
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "batches": len(untraced),
        "attempted": sum(b.attempted for b in batches),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "correct": not failures and len(digests) == 1,
        "wall_host": [b.wall_s for b in untraced],
        "wall_nominal": untraced_nominal,
        "setup_host": setup_host,
        "setup_nominal": setup_nominal,
        "rounds": first.rounds,
        "trees": first.trees,
        "simulated": simulated_stats(first),
    }
    if trace:
        metrics = {name: _median([l[name] for l in layers])
                   for name in PER_LAYER if name != "trace_overhead"}
        metrics["trace_overhead"] = (statistics.median(traced_nominal)
                                     - statistics.median(untraced_nominal))
        report["metrics"] = {name: (metrics[name], PER_LAYER[name]) for name in PER_LAYER}
    else:
        metrics = {
            "wall_s": statistics.median(untraced_nominal),
            "work_items": first.items,
            "setup_s": statistics.median(setup_nominal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["metrics"] = {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}
    return report


def _median(values: list):
    """Median; counts repeat exactly across batches and stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def print_report(report: dict) -> None:
    print(f"linfly benchmark  workload={report['workload']}  seed={report['seed']}"
          f"  trace={int(report['trace'])}  batches={report['batches']}")
    print(f"  correct={str(report['correct']).lower()}  attempted={report['attempted']}"
          f"  failed={report['failed']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    for digest in report["digests"]:
        print(f"  simulated-statistics digest sha256:{digest}")
    for label, key in (("wall_s", "wall"), ("setup_s", "setup")):
        nominal, host = report[f"{key}_nominal"], report[f"{key}_host"]
        print(f"  {label:<21} {statistics.median(nominal):.4f} s nominal"
              f" ({_spread(nominal)}); {statistics.median(host):.4f} s host"
              f" ({_spread(host)})")
    wall = statistics.median(report["wall_nominal"])
    if report["rounds"]:
        print(f"  rounds_per_s          {report['rounds'] / wall:.4f} rounds/s nominal")
    if report["trees"]:
        print(f"  trees_per_s           {report['trees'] / wall:.1f} trees/s nominal")
    sim = report["simulated"]
    if report["rounds"]:
        print(f"  rounds_to_legal       {sim['rounds_to_legal']} rounds")
        print(f"  messages              {sim['messages']} msgs")
        print(f"  max_degree            {sim['max_degree']} edges")
    if sim["rounds_to_all_reject.runs"]:
        print(f"  rounds_to_all_reject  {sim['rounds_to_all_reject']} rounds"
              f"  (recorded by {sim['rounds_to_all_reject.runs']} runs per batch)")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<36} {value} {unit}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to measure (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the harness itself")
    args = parser.parse_args(argv)
    if not (SRC / "linfly" / "__init__.py").is_file():
        print(f"run.py: no linfly sources under {SRC}; run from a linfly checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke)
    print_report(report)
    print(result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
