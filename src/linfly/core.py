"""Node registers, wire messages, configurations, and graph extraction.

A configuration maps node ids to full register states. Edges of the
communication graph are either explicit (an id stored in an address
variable) or implicit (an id carried by an in-flight message); the union
must stay weakly connected in every round of a correct run.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Optional

NodeId = int


# --- wire messages ---------------------------------------------------------
# Frozen dataclasses; ids() lists every node id carried by the payload
# (used for implicit edges and the id-provenance audit). The order in
# which a node processes the messages of one class is protocol.SORT_KEYS.


@dataclass(frozen=True, slots=True)
class RejFlyover:
    def ids(self) -> tuple[NodeId, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class TestLineR:
    sender: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.sender,)


@dataclass(frozen=True, slots=True)
class TestLineL:
    sender: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.sender,)


@dataclass(frozen=True, slots=True)
class FlyConstR:
    w: NodeId
    level: int
    sender: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.w, self.sender)


@dataclass(frozen=True, slots=True)
class FlyConstL:
    w: NodeId
    level: int
    sender: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.w, self.sender)


@dataclass(frozen=True, slots=True)
class TestVID:
    vid: int

    def ids(self) -> tuple[NodeId, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class TestFlyID:
    flyid: Optional[NodeId]  # None tells receivers there is no flyover here

    def ids(self) -> tuple[NodeId, ...]:
        return () if self.flyid is None else (self.flyid,)


@dataclass(frozen=True, slots=True)
class TestCert:
    origin: NodeId
    target_vid: int
    dist: int

    def ids(self) -> tuple[NodeId, ...]:
        return (self.origin,)


@dataclass(frozen=True, slots=True)
class IntroCert:
    sender: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.sender,)


@dataclass(frozen=True, slots=True)
class RequestSnapshot:
    def ids(self) -> tuple[NodeId, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Intro:
    id: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.id,)


@dataclass(frozen=True, slots=True)
class Neighborhood:
    members: tuple[NodeId, ...]  # sorted snapshot of the sender's memory

    def ids(self) -> tuple[NodeId, ...]:
        return self.members


@dataclass(frozen=True, slots=True)
class Advice:
    vid: int
    c_par: int
    c_dist: int
    par: Optional[NodeId]
    dist: int

    def ids(self) -> tuple[NodeId, ...]:
        return () if self.par is None else (self.par,)


@dataclass(frozen=True, slots=True)
class TestAdvice:
    dist: int
    sender: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.sender,)


VERIFIED_KINDS = ("parent", "sib+", "sib-", "child")


@dataclass(frozen=True, slots=True)
class Verified:
    kind: str  # one of VERIFIED_KINDS
    id: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.id,)


@dataclass(frozen=True, slots=True)
class PathPlus:
    id: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.id,)


@dataclass(frozen=True, slots=True)
class PathMinus:
    id: NodeId

    def ids(self) -> tuple[NodeId, ...]:
        return (self.id,)


@dataclass(frozen=True, slots=True)
class Rev:
    dest: NodeId
    payload: tuple[NodeId, ...] = ()

    def ids(self) -> tuple[NodeId, ...]:
        return (self.dest,) + self.payload


@dataclass(frozen=True, slots=True)
class Base:
    payload: tuple[NodeId, ...]

    def ids(self) -> tuple[NodeId, ...]:
        return self.payload


Message = (
    RejFlyover | TestLineR | TestLineL | FlyConstR | FlyConstL | TestVID
    | TestFlyID | TestCert | IntroCert | RequestSnapshot | Intro
    | Neighborhood | Advice | TestAdvice | Verified | PathPlus | PathMinus
    | Rev | Base
)


def message_to_obj(msg: Message) -> list:
    return [type(msg).__name__] + [getattr(msg, f) for f in msg.__dataclass_fields__]


_SUPERVISOR_KINDS = frozenset({Advice, RequestSnapshot})


def vouched_ids(msgs) -> set[NodeId]:
    """Ids that the node-originated messages among msgs hand to their
    receiver; supervisor messages (Advice, RequestSnapshot) vouch for none."""
    out: set[NodeId] = set()
    for msg in msgs:
        if type(msg) not in _SUPERVISOR_KINDS:
            out.update(msg.ids())
    return out


# --- node state ------------------------------------------------------------


@dataclass
class NodeState:
    """Full register of one node.

    L and R are the flyover address lists (level i neighbour at index i-1,
    left and right along the advised path). vid is the path position, flyid
    the advertised leftmost member, c_par / c_dist / c_ids the connectivity
    certificate, t the advice-pipeline timer, dist the advised tree depth,
    base_mem the base-algorithm memory. channel holds the messages that will
    be delivered at the start of the next round.
    """

    id: NodeId
    L: list[NodeId] = field(default_factory=list)
    R: list[NodeId] = field(default_factory=list)
    vid: int = 0
    flyid: Optional[NodeId] = None  # None only transiently; default is own id
    exit: int = 0
    c_par: int = 0
    c_dist: int = -1
    c_ids: set[NodeId] = field(default_factory=set)
    t: int = 0
    dist: int = 0
    base_mem: set[NodeId] = field(default_factory=set)
    channel: list = field(default_factory=list)

    def __post_init__(self):
        if self.flyid is None:
            self.flyid = self.id

    @property
    def S(self) -> set[NodeId]:
        return set(self.L) | set(self.R)

    @property
    def dual(self) -> bool:
        return bool(self.L) or bool(self.R)

    @property
    def attentive(self) -> bool:
        return not self.dual and self.exit == 0 and self.t == 0

    def s_l(self, i: int) -> Optional[NodeId]:
        return self.L[i - 1] if 1 <= i <= len(self.L) else None

    def s_r(self, i: int) -> Optional[NodeId]:
        return self.R[i - 1] if 1 <= i <= len(self.R) else None

    def address_ids(self) -> set[NodeId]:
        """Every id this node stores in an address variable."""
        out = set(self.L)
        out.update(self.R)
        out.update(self.c_ids)
        out.update(self.base_mem)
        if self.flyid is not None and self.flyid != self.id:
            out.add(self.flyid)
        return out

    def registers(self) -> tuple:
        """Snapshot of every field but id and channel: all that node_round
        reads besides its deliveries, as one comparable value."""
        return (tuple(self.L), tuple(self.R), self.vid, self.flyid, self.exit,
                self.c_par, self.c_dist, frozenset(self.c_ids), self.t,
                self.dist, frozenset(self.base_mem))

    def clone(self) -> "NodeState":
        return NodeState(
            id=self.id, L=list(self.L), R=list(self.R), vid=self.vid,
            flyid=self.flyid, exit=self.exit, c_par=self.c_par,
            c_dist=self.c_dist, c_ids=set(self.c_ids), t=self.t,
            dist=self.dist, base_mem=set(self.base_mem),
            channel=list(self.channel),
        )

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "L": list(self.L),
            "R": list(self.R),
            "vID": self.vid,
            "flyID": self.flyid,
            "exit": self.exit,
            "c_par": self.c_par,
            "c_dist": self.c_dist,
            "c_ids": sorted(self.c_ids),
            "t": self.t,
            "dist": self.dist,
            "base_mem": sorted(self.base_mem),
            "channel": [message_to_obj(m) for m in self.channel],
        }


@dataclass
class Configuration:
    """Nodes, round counter, supervisor state and its inbox.

    replay is the engine's cache of node-rounds that repeat a fixed point
    (see engine.step_round); it is derived data, so clone() starts it
    empty and dumps() leaves it out.
    """

    nodes: dict[NodeId, NodeState]
    round_no: int = 0
    supervisor: Optional[object] = None
    sup_inbox: list = field(default_factory=list)
    replay: dict = field(default_factory=dict, repr=False, compare=False)

    def ids(self) -> list[NodeId]:
        return sorted(self.nodes)

    def clone(self) -> "Configuration":
        return Configuration(
            nodes={u: st.clone() for u, st in self.nodes.items()},
            round_no=self.round_no,
            supervisor=copy.deepcopy(self.supervisor),
            sup_inbox=list(self.sup_inbox),
        )

    def to_records(self) -> list[dict]:
        return [self.nodes[u].to_record() for u in self.ids()]

    def dumps(self) -> str:
        return json.dumps({"round": self.round_no, "nodes": self.to_records()})


def initial_configuration(adjacency: dict[NodeId, set[NodeId]]) -> Configuration:
    """Default-state nodes whose base memory mirrors the given adjacency."""
    nodes = {}
    for u in sorted(adjacency):
        st = NodeState(id=u)
        st.base_mem = {v for v in adjacency[u] if v != u}
        nodes[u] = st
    return Configuration(nodes=nodes)


# --- communication graph ---------------------------------------------------


def explicit_out(config: Configuration) -> dict[NodeId, set[NodeId]]:
    """Each node's explicit out-neighbours: the other nodes whose ids it
    stores in an address variable."""
    nodes = config.nodes
    return {u: {v for v in st.address_ids() if v != u and v in nodes}
            for u, st in nodes.items()}


def implicit_out(config: Configuration) -> dict[NodeId, set[NodeId]]:
    """Each node's implicit out-neighbours: the other nodes whose ids are
    carried by a message in its channel."""
    nodes = config.nodes
    return {u: {v for msg in st.channel for v in msg.ids() if v != u and v in nodes}
            for u, st in nodes.items()}


def explicit_edges(config: Configuration) -> set[tuple[NodeId, NodeId]]:
    """Directed edges (u, v) with v stored in an address variable of u."""
    return {(u, v) for u, vs in explicit_out(config).items() for v in vs}


def undirected(*outs: dict[NodeId, set[NodeId]]) -> dict[NodeId, set[NodeId]]:
    """Symmetric union of out-neighbour maps; the first names every node."""
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in outs[0]}
    for out in outs:
        for u, vs in out.items():
            adj[u].update(vs)
            for v in vs:
                adj[v].add(u)
    return adj


def communication_graph(config: Configuration) -> dict[NodeId, set[NodeId]]:
    """Undirected adjacency of the explicit plus implicit edge union."""
    return undirected(explicit_out(config), implicit_out(config))


def is_weakly_connected(graph) -> bool:
    """True when the undirected version of the graph is connected.

    Accepts a Configuration or a plain adjacency dict mapping each node
    to a set of successors (nodes without edges still need a key).
    """
    if isinstance(graph, Configuration):
        adj = communication_graph(graph)
    else:
        nodes = {v: () for succs in graph.values() for v in succs}
        nodes.update(graph)
        adj = undirected(nodes)
    if len(adj) <= 1:
        return True
    return len(bfs_distances(adj, min(adj))) == len(adj)


def bfs_distances(adj: dict[NodeId, set[NodeId]], source: NodeId) -> dict[NodeId, int]:
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist
