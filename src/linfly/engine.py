"""Synchronous round engine, topologies, fault injection, and checkers.

The engine owns everything around the per-node round function: it builds
start topologies, steps whole configurations (supervisor first, so its
messages reach the nodes within the same round), audits id provenance,
takes a census of linked structures, and decides when a configuration is
legal, meaning every sorted-consecutive pair shares an explicit edge and
no node hoards addresses far beyond its target degree.

`run` drives one scenario end to end and collects metrics. It stops at
the first legal round; the checks it performs every round (connectivity,
degree, designated-pair distance, provenance) feed the metrics object.

A node that repeats a fixed point (same registers, same deliveries) is
not recomputed: `step_round` replays its stored output and audit
verdict, which a recomputation would reproduce exactly (see there).
Unassisted runs spend most node-rounds in such fixed points.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

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
    implicit_out,
    initial_configuration,
    is_weakly_connected,
    undirected,
    vouched_ids,
)
from .protocol import node_round as _protocol_node_round
from .supervisor import STRATEGIES, honest_step, make_supervisor
from .ttp import decode_pruefer

TOPOLOGIES = ("path", "star", "two_clusters", "random_connected", "far_pair")

CORRUPTIONS = ("none", "garbage_flyover_vars", "stale_channel_messages", "all")

SUPERVISOR_MODES = ("honest", "none") + STRATEGIES

# Rebindable hook: tests swap in a broken round function to prove the
# provenance audit actually fires on misbehaving nodes. A round function
# must not mutate its delivered list: replay keys on it.
node_round = _protocol_node_round


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
    """Per-round observables filled in by step_round."""

    messages: int = 0
    rejected: set[NodeId] = field(default_factory=set)
    provenance_violations: int = 0


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


def path_topology(n: int) -> dict[NodeId, set[NodeId]]:
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in range(n)}
    for u in range(n - 1):
        adj[u].add(u + 1)
        adj[u + 1].add(u)
    return adj


def star_topology(n: int) -> dict[NodeId, set[NodeId]]:
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in range(n)}
    for u in range(1, n):
        adj[0].add(u)
        adj[u].add(0)
    return adj


def two_clusters_topology(n: int) -> dict[NodeId, set[NodeId]]:
    """Two cliques joined by a single bridge edge."""
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in range(n)}
    h = n // 2
    for lo, hi in ((0, h), (h, n)):
        for u in range(lo, hi):
            for v in range(u + 1, hi):
                adj[u].add(v)
                adj[v].add(u)
    if 0 < h < n:
        adj[h - 1].add(h)
        adj[h].add(h - 1)
    return adj


def random_connected_topology(n: int, rng: random.Random) -> dict[NodeId, set[NodeId]]:
    """Uniform random spanning tree plus n/2 extra random edges."""
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in range(n)}
    if n >= 2:
        # decoding a uniform random sequence yields a uniform labelled tree
        tree = decode_pruefer([rng.randrange(n) for _ in range(n - 2)], n)
        for u, vs in enumerate(tree):
            adj[u].update(vs)
    for _ in range(n // 2):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def far_pair_topology(n: int) -> tuple[dict[NodeId, set[NodeId]], tuple[NodeId, NodeId]]:
    """Graph where the sorted-consecutive pair (n/2 - 1, n/2) sits at
    graph distance about n/2: two cliques on the extreme ids, two chains
    reaching inward, and one bridge between the cliques."""
    if n < 4:
        raise ValueError("far_pair needs n >= 4")
    q = max(2, n // 4)
    m = n // 2
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in range(n)}
    for lo, hi in ((0, q), (n - q, n)):
        for u in range(lo, hi):
            for v in range(u + 1, hi):
                adj[u].add(v)
                adj[v].add(u)
    for u in range(q - 1, m - 1):
        adj[u].add(u + 1)
        adj[u + 1].add(u)
    for u in range(m, n - q):
        adj[u].add(u + 1)
        adj[u + 1].add(u)
    adj[0].add(n - 1)
    adj[n - 1].add(0)
    return adj, (m - 1, m)


def make_topology(name: str, n: int, rng: Optional[random.Random] = None,
                  ) -> tuple[dict[NodeId, set[NodeId]], Optional[tuple[NodeId, NodeId]]]:
    if n < 1:
        raise ValueError("n must be at least 1")
    if name == "path":
        return path_topology(n), None
    if name == "star":
        return star_topology(n), None
    if name == "two_clusters":
        return two_clusters_topology(n), None
    if name == "random_connected":
        return random_connected_topology(n, rng or random.Random(0)), None
    if name == "far_pair":
        return far_pair_topology(n)
    raise ValueError(f"unknown topology {name!r}")


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


def step_round(config: Configuration, stats: Optional[RoundStats] = None,
               ) -> Configuration:
    """Advance every node by one round, in place.

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
    """
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
    replay = config.replay
    fresh: list = []  # (node, channel it consumed, candidate entry)
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
                    if v is not None and v not in vouched:
                        bad.add(v)
            for msg in out.to_supervisor:
                to_sup.append((u, msg))
                for v in msg.ids():
                    if v not in vouched:
                        bad.add(v)
            violations += len(bad)
            # a candidate for replay must get this channel again; the
            # senders already stepped have queued a prefix of it, and
            # testing that now spares holding the outputs of most
            # non-candidates to the end of the round
            head = pending[u]
            if st.registers() == before and head == channel[:len(head)]:
                fresh.append((u, channel,
                              (round_fn, before, delivered, out, len(bad))))
        if out.did_reject:
            rejected.add(u)
        n_messages += len(out.sends) + len(out.to_supervisor)

    for u, channel, entry in fresh:
        if pending[u] == channel:
            replay[u] = entry
    for u, st in nodes.items():
        st.channel = pending[u]
    config.sup_inbox = to_sup
    config.round_no += 1
    if stats is not None:
        stats.messages = n_messages
        stats.rejected = rejected
        stats.provenance_violations = violations
    return config


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
        k = cycle.index(min(cycle))
        ouroboroi.append(OuroborosInfo(tuple(cycle[k:] + cycle[:k]), perfect=True))
    return StructureCensus(backbones, ouroboroi, lost)


# --- legality and distance checks -------------------------------------------


def is_legal(config: Configuration) -> bool:
    """Target shape reached: each sorted-consecutive pair is explicitly
    linked in at least one direction and every explicit out-degree stays
    within an additive slack of 2 * (bit_length(n - 1) + 1) of its
    target degree."""
    return _legal(explicit_out(config))


def _legal(out: dict[NodeId, set[NodeId]]) -> bool:
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
    start = dists[0]
    return all(d >= start / (1 << t) for t, d in enumerate(dists))


# --- seeded structures ------------------------------------------------------


def _prime_channels(config: Configuration) -> Configuration:
    """Fill channels as a running steady state would have them: every
    node's previous-round emissions are already in flight."""
    sends: dict[NodeId, list] = {u: [] for u in config.nodes}
    for u in sorted(config.nodes):
        _st, out = _protocol_node_round(config.nodes[u].clone(), [])
        for dest, msg in out.sends:
            if dest in sends:
                sends[dest].append(msg)
    for u, st in config.nodes.items():
        st.channel = sends[u]
    return config


def seed_backbone(ids) -> Configuration:
    """Standing chain of mutual level-1 shortcuts over the sorted ids,
    with settled virtual ids, certificates, and in-flight traffic."""
    ids = sorted(ids)
    m = len(ids)
    nodes = {}
    for i, u in enumerate(ids):
        st = NodeState(id=u)
        st.vid = i + 1
        st.flyid = ids[0]
        st.dist = i
        st.c_dist = i
        if i > 0:
            st.L = [ids[i - 1]]
            st.c_par = i
        if i + 1 < m:
            st.R = [ids[i + 1]]
        nb = set()
        if i > 0:
            nb.add(ids[i - 1])
        if i + 1 < m:
            nb.add(ids[i + 1])
        st.c_ids = set(nb)
        st.base_mem = set(nb)
        nodes[u] = st
    return _prime_channels(Configuration(nodes=nodes))


def seed_flyover(ids) -> Configuration:
    """Complete shortcut hierarchy over the sorted ids: every doubling
    level present and mutual, certificates settled, traffic in flight."""
    config = seed_backbone(ids)
    ids = sorted(ids)
    m = len(ids)
    for i, u in enumerate(ids):
        p = i + 1
        st = config.nodes[u]
        st.R = [ids[i + (1 << (j - 1))]
                for j in range(1, (m - p).bit_length() + 1)]
        st.L = [ids[i - (1 << (j - 1))]
                for j in range(1, (p - 1).bit_length() + 1)]
    return _prime_channels(config)


# --- scenario driver --------------------------------------------------------


def default_max_rounds(n: int) -> int:
    return 12 * n + 40


def _scenario_supervisor(scenario: Scenario, membership) :
    token = scenario.supervisor.replace("-", "_")
    if token == "none":
        return None
    if token == "honest":
        return make_supervisor(membership, "honest")
    if token in STRATEGIES:
        return make_supervisor(membership, "malicious", token)
    raise ValueError(f"unknown supervisor {scenario.supervisor!r}")


def _degree_high_water(config: Configuration) -> int:
    return _max_degree(explicit_out(config))


def _max_degree(out: dict[NodeId, set[NodeId]]) -> int:
    return max(map(len, out.values()), default=0)


def _monitor(config: Configuration, pair: Optional[tuple[NodeId, NodeId]],
             ) -> tuple[bool, int, bool, Optional[int]]:
    """Connectivity, explicit degree high-water, legality and the pair's
    distance (n when apart; None without a pair), all read from one
    explicit out-set map and one communication graph."""
    out = explicit_out(config)
    adj = undirected(out, implicit_out(config))
    dist = bfs_distances(adj, min(adj) if pair is None else pair[0])
    distance = None if pair is None else dist.get(pair[1], len(adj))
    return len(dist) == len(adj), _max_degree(out), _legal(out), distance


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

    trace_path, when given, is an open text stream that receives one JSON
    line per round; it is not closed, so callers can interleave several
    runs into one trace file.
    """
    if scenario.corruption not in CORRUPTIONS:
        raise ValueError(f"unknown corruption {scenario.corruption!r}")
    rng = random.Random(scenario.seed)
    adjacency, pair = make_topology(scenario.topology, scenario.n, rng)
    config = initial_configuration(adjacency)
    config.supervisor = _scenario_supervisor(scenario, set(config.ids()))
    inject_faults(config, scenario.corruption, scenario.seed)
    max_rounds = scenario.max_rounds
    if max_rounds is None:
        max_rounds = default_max_rounds(scenario.n)

    metrics = RunMetrics()
    pair_distances: list[int] = []

    def observe() -> tuple[bool, bool]:
        connected, degree, legal, distance = _monitor(config, pair)
        if not connected:
            metrics.connectivity_violations += 1
        metrics.max_degree_seen = max(metrics.max_degree_seen, degree)
        if distance is not None:
            pair_distances.append(distance)
        return connected, legal

    _connected, legal = observe()
    if legal:
        metrics.rounds_to_legal = 0

    ever_dual: set[NodeId] = set()
    rejected_since: set[NodeId] = set()
    last_advice: Optional[int] = None
    advice_seen = 0

    r = 0
    while not legal and r < max_rounds:
        stats = RoundStats()
        step_round(config, stats)
        r += 1
        metrics.messages_per_round.append(stats.messages)
        metrics.sybil_violations += stats.provenance_violations
        connected, legal = observe()
        sup = config.supervisor
        if sup is not None and len(sup.advice_rounds) > advice_seen:
            advice_seen = len(sup.advice_rounds)
            last_advice = r
            ever_dual = set()
            rejected_since = set()
        ever_dual.update(u for u, st in config.nodes.items() if st.dual)
        rejected_since.update(stats.rejected)
        if (last_advice is not None and metrics.rounds_to_all_reject is None
                and ever_dual and ever_dual <= rejected_since
                and not any(st.dual for st in config.nodes.values())):
            metrics.rounds_to_all_reject = r - last_advice
        if legal:
            metrics.rounds_to_legal = r
        if trace_path is not None:
            trace_path.write(json.dumps(_trace_record(config, stats, legal,
                                                      connected)) + "\n")

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
