"""Synchronous round engine, topologies, fault injection, and checkers.

The engine owns everything around the per-node round function: it builds
start topologies, steps whole configurations (supervisor first, so its
messages reach the nodes within the same round), audits id provenance,
takes a census of linked structures, and decides when a configuration is
legal, meaning every sorted-consecutive pair shares an explicit edge and
no node hoards addresses far beyond its target degree.

`start` builds a scenario's start configuration, and `seed_backbone`
and `seed_flyover` standing structures, primed by a `step_round` of a
copy. `rounds` steps a configuration and reads connectivity, degree,
legality and the designated pair's distance after every round, for as
long as its caller keeps asking; `run` stops it at the first legal
round and gathers the readings and each round's provenance audit into a
metrics object.

A node that repeats a fixed point (same registers, same deliveries) is
not recomputed: `step_round` replays its stored output and audit
verdict, which a recomputation would reproduce exactly (see there).
Unassisted runs spend most node-rounds in such fixed points. Each round
also names the nodes it changed, so `rounds` recomputes the out-sets of
those nodes only (every node's for the start reading), and the
communication graph only when one moved.

`step_round` also pauses the cyclic garbage collector for the round,
whose allocations form no cycles (see there); it is the one place the
library touches the collector.
"""

from __future__ import annotations

import gc
import json
import random
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Collection, Iterator, Optional

# communication_graph, explicit_edges and is_weakly_connected are not
# called here; benchmarks/tracer.py times them as engine attributes
from .core import (
    Configuration,
    FlyConstR,
    NodeId,
    NodeState,
    PathMinus,
    PathPlus,
    RejFlyover,
    TestCert,
    TestFlyID,
    TestLineR,
    TestVID,
    Verified,
    bfs_distances,
    communication_graph,
    explicit_edges,
    explicit_out,
    explicit_out_of,
    implicit_out_of,
    initial_configuration,
    is_weakly_connected,
    undirected,
    vouched_ids,
)
# node_round is a rebindable hook: tests swap in a broken round function
# to prove the provenance audit actually fires on misbehaving nodes. A
# round function must not mutate its delivered list: replay keys on it.
from .protocol import node_round
from .supervisor import STRATEGIES, honest_step, make_supervisor
from .ttp import decode_pruefer

CORRUPTIONS = ("none", "garbage_flyover_vars", "stale_channel_messages", "all")

SUPERVISOR_MODES = ("honest", "none") + STRATEGIES


# --- scenarios and metrics --------------------------------------------------


@dataclass
class Scenario:
    """One reproducible experiment: who runs, where, and for how long."""

    n: int
    topology: str = "random_connected"
    supervisor: str = "honest"
    corruption: str = "none"
    seed: int = 0
    max_rounds: Optional[int] = None


@dataclass
class RoundStats:
    """Per-round observables returned by step_round."""

    messages: int = 0
    rejected: set[NodeId] = field(default_factory=set)
    provenance_violations: int = 0
    # nodes whose registers changed or whose new channel differs from the
    # one they consumed: no other node's out-sets moved this round
    changed: set[NodeId] = field(default_factory=set)


@dataclass
class RunMetrics:
    rounds_to_legal: Optional[int] = None
    rounds_to_all_reject: Optional[int] = None
    max_degree_seen: int = 0
    messages_per_round: list[int] = field(default_factory=list)
    connectivity_violations: int = 0
    sybil_violations: int = 0

    def total_messages(self) -> int:
        return sum(self.messages_per_round)


@dataclass
class RunResult:
    scenario: Scenario
    metrics: RunMetrics
    config: Configuration
    rounds: int
    advice_rounds: list[int]
    pair: Optional[tuple[NodeId, NodeId]] = None
    pair_distances: list[int] = field(default_factory=list)


# --- start topologies -------------------------------------------------------


Topology = tuple[dict[NodeId, set[NodeId]], Optional[tuple[NodeId, NodeId]]]


def _graph(n: int, edges) -> dict[NodeId, set[NodeId]]:
    """Undirected adjacency on ids 0..n-1; a self-pair adds no edge."""
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in range(n)}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def path_topology(n: int, _rng: random.Random) -> Topology:
    return _graph(n, ((u, u + 1) for u in range(n - 1))), None


def star_topology(n: int, _rng: random.Random) -> Topology:
    return _graph(n, ((0, u) for u in range(1, n))), None


def two_clusters_topology(n: int, _rng: random.Random) -> Topology:
    """Two cliques joined by a single bridge edge."""
    h = n // 2
    bridge = [(h - 1, h)] if h > 0 else []
    return _graph(n, chain(combinations(range(h), 2), combinations(range(h, n), 2), bridge)), None


def random_connected_topology(n: int, rng: random.Random) -> Topology:
    """Uniform random spanning tree plus n/2 extra random edges."""
    edges = []
    if n >= 2:
        # decoding a uniform random sequence yields a uniform labelled tree
        tree = decode_pruefer([rng.randrange(n) for _ in range(n - 2)], n)
        edges = [(u, v) for u, vs in enumerate(tree) for v in vs]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
    return _graph(n, edges), None


def far_pair_topology(n: int, _rng: random.Random) -> Topology:
    """Graph where the sorted-consecutive pair (n/2 - 1, n/2) sits at
    graph distance about n/2: two cliques on the extreme ids, two chains
    reaching inward, and one bridge between the cliques."""
    if n < 4:
        raise ValueError("far_pair needs n >= 4")
    q = max(2, n // 4)
    m = n // 2
    chains = ((u, u + 1) for u in chain(range(q - 1, m - 1), range(m, n - q)))
    edges = chain(combinations(range(q), 2), combinations(range(n - q, n), 2),
                  chains, [(0, n - 1)])
    return _graph(n, edges), (m - 1, m)


# name -> builder; TOPOLOGIES keeps this order, which the acceptance
# grid's per-run seeds follow
_TOPOLOGY_FNS = {
    "path": path_topology,
    "star": star_topology,
    "two_clusters": two_clusters_topology,
    "random_connected": random_connected_topology,
    "far_pair": far_pair_topology,
}

TOPOLOGIES = tuple(_TOPOLOGY_FNS)


def make_topology(name: str, n: int, rng: Optional[random.Random] = None,
                  ) -> Topology:
    if n < 1:
        raise ValueError("n must be at least 1")
    if name not in _TOPOLOGY_FNS:
        raise ValueError(f"unknown topology {name!r}")
    return _TOPOLOGY_FNS[name](n, rng or random.Random(0))


# --- fault injection --------------------------------------------------------


def inject_faults(config: Configuration, corruption: str = "none",
                  seed: int = 0) -> Configuration:
    """Deterministically corrupt register contents and channels in place.

    Base memory is never touched, so the communication graph can only
    gain edges and weak connectivity survives the injection.
    """
    if corruption == "none":
        return config
    if corruption not in CORRUPTIONS:
        raise ValueError(f"unknown corruption {corruption!r}")
    rng = random.Random((seed << 1) ^ 0xFA17)
    ids = config.ids()
    n = len(ids)
    for u in ids:
        st = config.nodes[u]
        others = [v for v in ids if v != u]
        pool = sorted(st.base_mem - {u}) + others
        if corruption in ("garbage_flyover_vars", "all") and rng.random() < 0.5:
            st.L = [rng.choice(pool) for _ in range(rng.randrange(0, 3))] if pool else []
            st.R = [rng.choice(pool) for _ in range(rng.randrange(0, 3))] if pool else []
            st.vid = rng.randrange(0, n + 2)
            st.flyid = rng.choice([u] + pool[:4]) if pool else u
            st.exit = rng.choice((0, 0, 0, 1))
            st.c_par = rng.randrange(0, n + 2)
            st.c_dist = rng.randrange(-1, n + 1)
            st.c_ids = ({rng.choice(pool) for _ in range(rng.randrange(0, 3))}
                        if pool else set())
            st.t = rng.randrange(0, 8)
            st.dist = rng.randrange(0, n + 1)
        if corruption in ("stale_channel_messages", "all") and rng.random() < 0.5:
            tgt = others or [u]

            def rid() -> NodeId:
                return rng.choice(tgt)

            stale = (
                TestFlyID(rid()),
                TestFlyID(None),
                TestVID(rng.randrange(0, n + 2)),
                RejFlyover(),
                TestLineR(rid()),
                FlyConstR(rid(), rng.randrange(1, 4), rid()),
                TestCert(rid(), rng.randrange(0, n + 2), rng.randrange(0, n + 1)),
                PathPlus(rid()),
                PathMinus(rid()),
                Verified("parent", rid()),
            )
            for _ in range(rng.randrange(1, 4)):
                st.channel.append(rng.choice(stale))
    return config


# --- one synchronous round --------------------------------------------------


def step_round(config: Configuration) -> RoundStats:
    """Advance every node by one round, in place, and return the round's
    statistics.

    The supervisor is stepped first and its messages are appended to this
    round's deliveries, so a reaction to node reports reaches the nodes
    without an extra round of lag; node-to-supervisor reports are queued
    for the next round. Per node, the audit records every id that leaves
    the round (stored or sent) without having been handed to the node by
    its own registers or by a node-originated message.

    A node-round that repeats a fixed point is replayed, not recomputed.
    When a computed round leaves the node's registers unchanged and the
    node's next channel equals the one it just consumed, config.replay
    keeps the round function, the registers, the whole delivered list,
    the output and the audited violation count. A later round reuses that
    entry only if the function is the same object and the registers and
    the delivered list (supervisor messages included) compare equal; it
    then routes the stored sends and adds the stored count, without
    calling node_round or auditing again. node_round is a deterministic
    function of registers and deliveries, and the audit verdict is a
    function of the registers before and after, the deliveries and the
    output, all identical on a hit, so a replay yields exactly what a
    recomputation would. Every computed node-round is audited.

    The statistics name in changed every node whose registers changed or
    whose new channel differs from the one it consumed: no other node's
    explicit or implicit out-set moved. They depend on outcomes only, so
    a replayed round and its recomputation return equal statistics.

    Automatic garbage collection is paused for the round and the caller's
    setting restored on the way out, also when node_round raises. The
    messages, sends and channels a round allocates hold only ids, None,
    strings and one another and form no cycle, so the scans the collector
    would run within a round find nothing (tests/test_engine.py checks
    that a round leaves nothing to collect). The pause lives here rather
    than in rounds() or run(), so that every caller that steps a
    configuration gets it; the library touches the collector nowhere
    else. Between rounds it runs at its normal thresholds, so a cycle
    made in a round or outside one is still collected.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        nodes = config.nodes
        deliveries = {u: list(st.channel) for u, st in nodes.items()}

        if config.supervisor is not None:
            attentive = {u for u, st in nodes.items() if st.attentive}
            config.supervisor, outbound = honest_step(
                config.supervisor, config.sup_inbox, attentive)
            for u, msg in outbound:
                if u in deliveries:
                    deliveries[u].append(msg)
        config.sup_inbox = []

        pending: dict[NodeId, list] = {u: [] for u in nodes}
        to_sup: list = []
        n_messages = 0
        violations = 0
        rejected: set[NodeId] = set()
        changed: set[NodeId] = set()
        replay = config.replay
        # (node, channel it consumed, candidate entry or None when replayed):
        # each node here keeps its registers and is unchanged if its channel
        # comes back equal
        same_registers: list = []
        round_fn = node_round

        for u in sorted(nodes):
            st = nodes[u]
            delivered = deliveries[u]
            before = st.registers()
            entry = replay.get(u)
            if (entry is not None and entry[0] is round_fn
                    and entry[1] == before and entry[2] == delivered):
                out = entry[3]
                for dest, msg in out.sends:
                    if dest in pending:
                        pending[dest].append(msg)
                for msg in out.to_supervisor:
                    to_sup.append((u, msg))
                violations += entry[4]
                same_registers.append((u, st.channel, None))
            else:
                channel = st.channel
                vouched = st.address_ids()
                vouched |= vouched_ids(delivered)
                vouched.add(u)
                st, out = round_fn(st, delivered)
                nodes[u] = st
                # one pass over the sends routes and audits them; per-id
                # membership tests beat set unions here, since most messages
                # carry one id
                bad = st.address_ids() - vouched
                for dest, msg in out.sends:
                    if dest in pending:
                        pending[dest].append(msg)
                    if dest not in vouched:
                        bad.add(dest)
                    for v in msg.ids():
                        if v not in vouched:
                            bad.add(v)
                for msg in out.to_supervisor:
                    to_sup.append((u, msg))
                    for v in msg.ids():
                        if v not in vouched:
                            bad.add(v)
                violations += len(bad)
                # a candidate for replay must get this channel again; the
                # senders already stepped have queued a prefix of it, and
                # testing that now marks most changed channels at once and
                # spares holding the outputs of most non-candidates to the
                # end of the round
                head = pending[u]
                if st.registers() != before or head != channel[:len(head)]:
                    changed.add(u)
                else:
                    same_registers.append(
                        (u, channel, (round_fn, before, delivered, out, len(bad))))
            if out.did_reject:
                rejected.add(u)
            n_messages += len(out.sends) + len(out.to_supervisor)

        for u, channel, entry in same_registers:
            if pending[u] != channel:
                changed.add(u)
            elif entry is not None:
                replay[u] = entry
        for u, st in nodes.items():
            st.channel = pending[u]
        config.sup_inbox = to_sup
        config.round_no += 1
        return RoundStats(messages=n_messages, rejected=rejected,
                          provenance_violations=violations, changed=changed)
    finally:
        if enabled:
            gc.enable()


# --- structure census -------------------------------------------------------


@dataclass
class BackboneInfo:
    members: tuple[NodeId, ...]  # spine order, left end first
    winged: bool
    flyover: bool
    correctly_configured: bool


@dataclass
class OuroborosInfo:
    members: tuple[NodeId, ...]
    perfect: bool


@dataclass
class StructureCensus:
    backbones: list[BackboneInfo]
    ouroboroi: list[OuroborosInfo]
    lost: list[NodeId]


def _is_flyover(nodes: dict[NodeId, NodeState], members: list[NodeId]) -> bool:
    m = len(members)
    st = [nodes[u] for u in members]
    for i in range(m - 1):
        if st[i + 1].vid != st[i].vid + 1:
            return False
    for p in range(1, m):
        # every doubling level up to the remaining span must be mutual
        for j in range(1, (m - p).bit_length() + 1):
            k = p + (1 << (j - 1))
            if st[p - 1].s_r(j) != members[k - 1]:
                return False
            if st[k - 1].s_l(j) != members[p - 1]:
                return False
    return True


def _is_correctly_configured(nodes: dict[NodeId, NodeState],
                             members: list[NodeId]) -> bool:
    m = len(members)
    v1 = members[0]
    for i, u in enumerate(members, 1):
        if nodes[u].vid != i or nodes[u].flyid != v1:
            return False
    sorted_b = sorted(members)
    rank = {u: r for r, u in enumerate(sorted_b)}
    vid_of = {u: i for i, u in enumerate(members, 1)}
    k = rank[v1]
    for u in members:
        r = rank[u]
        if u != v1:
            # tree parent: one step along the sorted order toward the left end
            parent = sorted_b[r + 1] if r < k else sorted_b[r - 1]
            if nodes[u].c_par != vid_of[parent]:
                return False
        needed = set()
        if r > 0:
            needed.add(sorted_b[r - 1])
        if r + 1 < m:
            needed.add(sorted_b[r + 1])
        if not needed <= nodes[u].c_ids:
            return False
        if nodes[u].c_dist != abs(r - k):
            return False
    return True


def classify_structures(config: Configuration) -> StructureCensus:
    """Census of chains, rings, and stray members among dual-state nodes.

    Mutual level-1 shortcuts form a partial matching in each direction,
    so the dual nodes decompose into simple chains and simple cycles.
    Chains whose outer shortcuts leave the member set are backbones;
    chains that point back into themselves and all cycles are ouroboroi;
    single dual nodes with no mutual shortcut at all are lost.
    """
    nodes = config.nodes
    dual = [u for u in sorted(nodes) if nodes[u].dual]
    succ: dict[NodeId, NodeId] = {}
    pred: dict[NodeId, NodeId] = {}
    for u in dual:
        v = nodes[u].s_r(1)
        if v is not None and v != u and v in nodes and nodes[v].dual \
                and nodes[v].s_l(1) == u:
            succ[u] = v
            pred[v] = u
    backbones: list[BackboneInfo] = []
    ouroboroi: list[OuroborosInfo] = []
    lost: list[NodeId] = []
    visited: set[NodeId] = set()
    for u in dual:
        if u in visited or u in pred:
            continue
        chain = [u]
        visited.add(u)
        w = succ.get(u)
        while w is not None and w not in visited:
            chain.append(w)
            visited.add(w)
            w = succ.get(w)
        if len(chain) == 1:
            lost.append(u)
            continue
        head, tail = chain[0], chain[-1]
        bset = set(chain)
        if nodes[head].s_l(1) in bset or nodes[tail].s_r(1) in bset:
            ouroboroi.append(OuroborosInfo(tuple(chain), perfect=False))
        else:
            backbones.append(BackboneInfo(
                members=tuple(chain),
                winged=bool(nodes[head].L) or bool(nodes[tail].R),
                flyover=_is_flyover(nodes, chain),
                correctly_configured=_is_correctly_configured(nodes, chain),
            ))
    # dual is sorted and the chain pass visits no cycle member, so each
    # cycle is first met at, and so starts from, its least id
    for u in dual:
        if u in visited:
            continue
        cycle = [u]
        visited.add(u)
        w = succ[u]
        while w != u:
            cycle.append(w)
            visited.add(w)
            w = succ[w]
        ouroboroi.append(OuroborosInfo(tuple(cycle), perfect=True))
    return StructureCensus(backbones, ouroboroi, lost)


# --- legality and distance checks -------------------------------------------


def is_legal(config: Configuration) -> bool:
    """Target shape reached: each sorted-consecutive pair is explicitly
    linked in at least one direction and every explicit out-degree stays
    within an additive slack of 2 * (bit_length(n - 1) + 1) of its
    target degree."""
    return _legal(explicit_out(config))


def _legal(out: dict[NodeId, Collection[NodeId]]) -> bool:
    ids = sorted(out)
    n = len(ids)
    if n <= 1:
        return True
    for a, b in zip(ids, ids[1:]):
        if b not in out[a] and a not in out[b]:
            return False
    slack = 2 * ((n - 1).bit_length() + 1)
    for i, u in enumerate(ids):
        target = 1 if i in (0, n - 1) else 2
        if len(out[u]) > target + slack:
            return False
    return True


def distance_floor_check(result: RunResult) -> bool:
    """Distances can at best halve per round, starting from the initial
    distance of the designated pair."""
    dists = result.pair_distances
    if not dists:
        return True
    first = dists[0]
    return all(d >= first / (1 << t) for t, d in enumerate(dists))


# --- seeded structures ------------------------------------------------------


def _seed(ids, top: Optional[int]) -> Configuration:
    """Chain over the sorted ids with doubling levels 1..top on each side
    (all when top is None); virtual ids and certificates are settled, and
    base memory holds the level-1 neighbours. The channels hold what one
    step_round of a copy sends, through the node_round hook: in flight,
    as in a running steady state."""
    ids = sorted(ids)
    m = len(ids)
    nodes = {}
    for i, u in enumerate(ids):
        st = NodeState(id=u)
        st.vid = i + 1
        st.flyid = ids[0]
        st.dist = i
        st.c_dist = i
        st.c_par = i
        st.R = [ids[i + (1 << j)] for j in range((m - 1 - i).bit_length())][:top]
        st.L = [ids[i - (1 << j)] for j in range(i.bit_length())][:top]
        st.c_ids = set(st.L[:1]) | set(st.R[:1])
        st.base_mem = set(st.c_ids)
        nodes[u] = st
    config = Configuration(nodes=nodes)
    primed = config.clone()
    step_round(primed)
    for u, st in nodes.items():
        st.channel = primed.nodes[u].channel
    return config


def seed_backbone(ids) -> Configuration:
    """Standing chain of mutual level-1 shortcuts over the sorted ids."""
    return _seed(ids, 1)


def seed_flyover(ids) -> Configuration:
    """Complete shortcut hierarchy over the sorted ids: every doubling
    level present and mutual."""
    return _seed(ids, None)


# --- scenario driver --------------------------------------------------------


def default_max_rounds(n: int) -> int:
    return 12 * n + 40


def start(scenario: Scenario,
          ) -> tuple[Configuration, Optional[tuple[NodeId, NodeId]]]:
    """The scenario's start configuration and designated pair: the seeded
    topology, the supervisor its mode names (with - or _), then the
    injected faults."""
    adjacency, pair = make_topology(scenario.topology, scenario.n,
                                    random.Random(scenario.seed))
    config = initial_configuration(adjacency)
    mode = scenario.supervisor.replace("-", "_")
    if mode == "honest":
        config.supervisor = make_supervisor(set(config.ids()), "honest")
    elif mode in STRATEGIES:
        config.supervisor = make_supervisor(set(config.ids()), "malicious", mode)
    elif mode != "none":
        raise ValueError(f"unknown supervisor {scenario.supervisor!r}")
    inject_faults(config, scenario.corruption, scenario.seed)
    return config, pair


def _degree_high_water(config: Configuration) -> int:
    return _max_degree(explicit_out(config))


def _max_degree(out: dict[NodeId, Collection[NodeId]]) -> int:
    return max(map(len, out.values()), default=0)


def rounds(config: Configuration, pair: Optional[tuple[NodeId, NodeId]],
           max_rounds: int) -> Iterator[tuple[
               int, Optional[RoundStats], tuple[bool, int, bool, Optional[int]]]]:
    """Yield (0, None, reading) for config as it is, then step it one round
    at a time, yielding (r, stats, reading) for r = 1..max_rounds. A round
    is stepped only when the caller asks for the next item, so the caller
    decides when to stop. reading is (connected, degree, legal, distance):
    weak connectivity, explicit degree high-water, legality and the pair's
    distance (n when apart; None without a pair).

    Both out-set maps start empty, and the start reading fills them with
    the update every round uses, over every node. After a round only the
    out-sets of stats.changed are recomputed; the graph is rebuilt and
    searched only if one moved, and degree and legality reread only if an
    explicit one did. So step_round must be the one thing that changes
    config in between.

    The maps live through every step_round, so each out-set is a tuple: on
    an honest n=1024 run, sets of 20-30 ids took 4.6 MB where tuples take
    0.6 MB. The graph and its BFS map are released before each yield.
    """
    out = dict.fromkeys(config.nodes, ())
    imp = dict.fromkeys(config.nodes, ())
    stats = None
    for r in range(max_rounds + 1):
        if r:
            stats = step_round(config)
        nodes = config.nodes
        explicit = implicit = not r
        for u in stats.changed if r else nodes:
            explicit |= _keep(out, u, explicit_out_of(nodes, u))
            implicit |= _keep(imp, u, implicit_out_of(nodes, u))
        if explicit:
            degree, legal = _max_degree(out), _legal(out)
        if explicit or implicit:
            adj = undirected(out, imp)
            dist = bfs_distances(adj, min(adj) if pair is None else pair[0])
            connected = len(dist) == len(adj)
            distance = None if pair is None else dist.get(pair[1], len(adj))
            del adj, dist
        yield r, stats, (connected, degree, legal, distance)


def _keep(kept: dict[NodeId, tuple], u: NodeId, vs: set[NodeId]) -> bool:
    """Store vs as u's entry in kept; True when it differs from the old one."""
    old = kept[u]
    if len(vs) == len(old) and vs.issuperset(old):
        return False
    kept[u] = tuple(vs)
    return True


def _trace_record(config: Configuration, stats: RoundStats, legal: bool,
                  connected: bool) -> dict:
    census = classify_structures(config)
    digest = []
    for u in config.ids():
        st = config.nodes[u]
        digest.append({
            "id": u, "vid": st.vid, "flyid": st.flyid, "t": st.t,
            "exit": st.exit, "levels": [len(st.L), len(st.R)],
            "c_dist": st.c_dist, "base": len(st.base_mem),
        })
    return {
        "round": config.round_no,
        "messages": stats.messages,
        "legal": legal,
        "connected": connected,
        "rejected": sorted(stats.rejected),
        "backbones": [{"members": list(b.members), "winged": b.winged,
                       "flyover": b.flyover,
                       "correct": b.correctly_configured}
                      for b in census.backbones],
        "ouroboroi": [{"members": list(o.members), "perfect": o.perfect}
                      for o in census.ouroboroi],
        "lost": census.lost,
        "nodes": digest,
    }


def run(scenario: Scenario, trace_path=None) -> RunResult:
    """Execute one scenario until legality or the round budget runs out.

    The rounds and their connectivity, degree, legality and pair-distance
    readings come from rounds(); run() only gathers them into metrics,
    tracks when every dual node has rejected since the last advice, and
    writes the trace.

    trace_path, when given, is an open text stream that receives one JSON
    line per round; it is not closed, so callers can interleave several
    runs into one trace file.
    """
    config, pair = start(scenario)
    max_rounds = scenario.max_rounds
    if max_rounds is None:
        max_rounds = default_max_rounds(scenario.n)

    metrics = RunMetrics()
    pair_distances: list[int] = []
    ever_dual: set[NodeId] = set()
    rejected_since: set[NodeId] = set()
    last_advice: Optional[int] = None
    advice_seen = 0

    for r, stats, (connected, degree, legal, distance) in rounds(
            config, pair, max_rounds):
        if not connected:
            metrics.connectivity_violations += 1
        metrics.max_degree_seen = max(metrics.max_degree_seen, degree)
        if distance is not None:
            pair_distances.append(distance)
        if stats is not None:
            metrics.messages_per_round.append(stats.messages)
            metrics.sybil_violations += stats.provenance_violations
            sup = config.supervisor
            if sup is not None and len(sup.advice_rounds) > advice_seen:
                advice_seen = len(sup.advice_rounds)
                last_advice = r
                ever_dual = set()
                rejected_since = set()
            ever_dual.update(u for u, st in config.nodes.items() if st.dual)
            rejected_since.update(stats.rejected)
            if (last_advice is not None
                    and metrics.rounds_to_all_reject is None
                    and ever_dual and ever_dual <= rejected_since
                    and not any(st.dual for st in config.nodes.values())):
                metrics.rounds_to_all_reject = r - last_advice
            if trace_path is not None:
                trace_path.write(json.dumps(_trace_record(
                    config, stats, legal, connected)) + "\n")
        if legal:
            metrics.rounds_to_legal = r
            break

    sup = config.supervisor
    return RunResult(
        scenario=scenario,
        metrics=metrics,
        config=config,
        rounds=config.round_no,
        advice_rounds=list(sup.advice_rounds) if sup is not None else [],
        pair=pair,
        pair_distances=pair_distances,
    )
