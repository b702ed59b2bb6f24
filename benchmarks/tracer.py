"""Per-layer timing from outside the program.

A `Tracer` replaces module attributes of `linfly` with timing wrappers,
so every call the program makes through that attribute opens a span.
Spans are aggregated by name as they close (total time, self time,
calls); a span's self time is its duration minus the time its child
spans cover. Counters are taken at the same boundaries, from the
arguments and results the wrapped functions already pass around.

Only attributes that the program looks up at call time can be wrapped,
which is why `engine.explicit_edges` is wrapped beside
`core.explicit_edges`: `engine` imported that name directly.
"""

from __future__ import annotations

import collections
import time

# (module, attribute, span); several attributes may share one span name,
# and the same function reached through two modules reports as one layer.
TARGETS = (
    ("engine", "run", "engine.run"),
    ("cli", "run", "engine.run"),
    ("engine", "make_topology", "engine.setup"),
    ("engine", "initial_configuration", "engine.setup"),
    ("engine", "make_supervisor", "engine.setup"),
    ("engine", "inject_faults", "engine.setup"),
    ("engine", "step_round", "engine.step_round"),
    ("engine", "honest_step", "supervisor.step"),
    ("engine", "node_round", "protocol.node_round"),
    ("protocol", "base_step", "baseline.base_step"),
    ("engine", "is_weakly_connected", "engine.connectivity"),
    ("engine", "is_legal", "engine.legality"),
    ("engine", "_degree_high_water", "engine.degree"),
    ("engine", "communication_graph", "engine.pair_distance"),
    ("engine", "bfs_distances", "engine.pair_distance"),
    ("engine", "explicit_edges", "core.explicit_edges"),
    ("core", "explicit_edges", "core.explicit_edges"),
    ("engine", "_trace_record", "engine.trace"),
    ("cli", "run_experiments", "cli.run_experiments"),
    ("cli", "write_csv", "cli.write_csv"),
    ("ttp", "verify_all_trees", "ttp.verify_all_trees"),
    ("ttp", "enumerate_labelled_trees", "ttp.enumerate"),
    ("ttp", "tree_to_path", "ttp.tree_to_path"),
    ("ttp", "oracle_is_valid_output", "ttp.oracle"),
)

# generator functions: each next() is one span
ITERATORS = frozenset({"ttp.enumerate"})

MARK = "_bench_span"

_DONE = object()


def wrapped_targets(mods) -> list[str]:
    """Names of target attributes that currently hold a timing wrapper."""
    return [f"{m}.{a}" for m, a, _ in TARGETS
            if hasattr(getattr(getattr(mods, m), a), MARK)]


class Tracer:
    """Installs timing wrappers on enter and restores the originals on exit."""

    def __init__(self, mods):
        self.mods = mods
        # span name -> [total seconds, self seconds, calls]
        self.spans: dict[str, list] = collections.defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: collections.Counter = collections.Counter()
        # message class -> delivered count; read out by class name
        self.kinds: collections.Counter = collections.Counter()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._nodes: dict = {}

    def __enter__(self) -> "Tracer":
        before = {"engine.step_round": self._enter_round}
        observe = {
            "protocol.node_round": self._count_node_round,
            "baseline.base_step": self._count_base_step,
            "supervisor.step": self._count_supervisor,
        }
        try:
            for m, attr, span in TARGETS:
                module = getattr(self.mods, m)
                fn = getattr(module, attr)
                if span in ITERATORS:
                    wrapper = self._timed_iter(span, fn)
                else:
                    wrapper = self._timed(span, fn, before.get(span),
                                          observe.get(span))
                setattr(wrapper, MARK, span)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _close(self, span: str, t0: float, t1: float) -> None:
        child = self._stack.pop()
        acc = self.spans[span]
        acc[0] += t1 - t0
        acc[1] += t1 - t0 - child
        acc[2] += 1

    def _timed(self, span, fn, before, observe):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t_outer = clock()
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, t0, clock())
            if observe is not None:
                observe(args, result)
            # counting is hidden from the caller's self time as well
            if stack:
                stack[-1] += clock() - t_outer
            return result

        return wrapper

    def _timed_iter(self, span, fn):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    item = _DONE
                t1 = clock()
                self._close(span, t0, t1)
                if stack:
                    stack[-1] += t1 - t0
                if item is _DONE:
                    return
                yield item

        return wrapper

    # --- counters --------------------------------------------------------

    def _enter_round(self, args) -> None:
        self._nodes = args[0].nodes

    def _count_node_round(self, args, result) -> None:
        delivered = args[1]
        _st, out = result
        c = self.counts
        c["protocol.msgs_in"] += len(delivered)
        self.kinds.update(map(type, delivered))
        c["protocol.sends"] += len(out.sends)
        nodes = self._nodes
        c["protocol.sends_dropped"] += sum(1 for dest, _m in out.sends
                                           if dest not in nodes)
        c["protocol.rejects"] += bool(out.did_reject)

    def _count_base_step(self, args, result) -> None:
        self.counts["baseline.msgs_in"] += len(args[2])

    def _count_supervisor(self, args, result) -> None:
        core = self.mods.core
        for _u, msg in result[1]:
            if isinstance(msg, core.Advice):
                self.counts["supervisor.advice_out"] += 1
            elif isinstance(msg, core.RequestSnapshot):
                self.counts["supervisor.snapshot_requests"] += 1

    # --- readout ---------------------------------------------------------

    def total(self, span: str) -> float:
        return self.spans[span][0] if span in self.spans else 0.0

    def self_time(self, span: str) -> float:
        return self.spans[span][1] if span in self.spans else 0.0

    def calls(self, span: str) -> int:
        return self.spans[span][2] if span in self.spans else 0
