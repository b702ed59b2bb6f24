"""Node registers, wire messages, configurations, and graph extraction.

A configuration maps node ids to full register states. Edges of the
communication graph are either explicit (an id stored in an address
variable) or implicit (an id carried by an in-flight message); the union
must stay weakly connected in every round of a correct run.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from typing import Callable, Collection, Mapping, Optional, Sequence, get_args

NodeId = int


# --- wire messages ---------------------------------------------------------
# Frozen dataclasses. ids() lists every node id a message carries (for
# implicit edges and the id-provenance audit), read off the annotations in
# field order: NodeId gives its value, Optional[NodeId] its value unless
# None, tuple[NodeId, ...] its items, int and str nothing; any other
# annotation raises at import. A class with fields gets a derived __init__
# with the dataclass's parameters, defaults and annotations that stores
# each field through its slot's descriptor; frozenness, equality, hashing,
# repr, pickling and replace() stay the dataclass's own.
# protocol.SORT_KEYS orders a class's messages.


@dataclass(frozen=True, slots=True)
class RejFlyover:
    pass


@dataclass(frozen=True, slots=True)
class TestLineR:
    sender: NodeId


@dataclass(frozen=True, slots=True)
class TestLineL:
    sender: NodeId


@dataclass(frozen=True, slots=True)
class FlyConstR:
    w: NodeId
    level: int
    sender: NodeId


@dataclass(frozen=True, slots=True)
class FlyConstL:
    w: NodeId
    level: int
    sender: NodeId


@dataclass(frozen=True, slots=True)
class TestVID:
    vid: int


@dataclass(frozen=True, slots=True)
class TestFlyID:
    flyid: Optional[NodeId]  # None tells receivers there is no flyover here


@dataclass(frozen=True, slots=True)
class TestCert:
    origin: NodeId
    target_vid: int
    dist: int


@dataclass(frozen=True, slots=True)
class IntroCert:
    sender: NodeId


@dataclass(frozen=True, slots=True)
class RequestSnapshot:
    pass


@dataclass(frozen=True, slots=True)
class Intro:
    id: NodeId


@dataclass(frozen=True, slots=True)
class Neighborhood:
    members: tuple[NodeId, ...]  # sorted snapshot of the sender's memory


@dataclass(frozen=True, slots=True)
class Advice:
    vid: int
    c_par: int
    c_dist: int
    par: Optional[NodeId]
    dist: int


@dataclass(frozen=True, slots=True)
class TestAdvice:
    dist: int
    sender: NodeId


VERIFIED_KINDS = ("parent", "sib+", "sib-", "child")


@dataclass(frozen=True, slots=True)
class Verified:
    kind: str  # one of VERIFIED_KINDS
    id: NodeId


@dataclass(frozen=True, slots=True)
class PathPlus:
    id: NodeId


@dataclass(frozen=True, slots=True)
class PathMinus:
    id: NodeId


@dataclass(frozen=True, slots=True)
class Rev:
    dest: NodeId
    payload: tuple[NodeId, ...] = ()


@dataclass(frozen=True, slots=True)
class Base:
    payload: tuple[NodeId, ...]


Message = (
    RejFlyover | TestLineR | TestLineL | FlyConstR | FlyConstL | TestVID
    | TestFlyID | TestCert | IntroCert | RequestSnapshot | Intro
    | Neighborhood | Advice | TestAdvice | Verified | PathPlus | PathMinus
    | Rev | Base
)


def _derive_ids(cls: type) -> Callable[[Message], tuple[NodeId, ...]]:
    """cls.ids by the rule above, compiled as dataclasses compiles __init__
    so that a call costs what a hand-written method's does."""
    terms = []
    carriers = [f for f in fields(cls) if f.type not in ("int", "str")]
    for kind, group in groupby(carriers, key=lambda f: f.type):
        names = [f"self.{f.name}" for f in group]
        if kind == "NodeId":  # one display: (a, b) is faster than (a,) + (b,)
            terms.append(f"({', '.join(names)},)")
        elif kind == "Optional[NodeId]":
            terms += [f"(() if {n} is None else ({n},))" for n in names]
        elif kind == "tuple[NodeId, ...]":
            terms += names
        else:
            raise TypeError(f"{cls.__name__}: ids() has no rule for a {kind} field")
    namespace: dict = {}
    exec(f"def ids(self):\n    return {' + '.join(terms) or '()'}\n", namespace)
    return namespace["ids"]


def _derive_init(cls: type) -> Callable[..., None]:
    """cls.__init__ as dataclasses generates it, but storing each field
    through its slot's member descriptor instead of object.__setattr__,
    which a frozen class's own uses at about twice the cost per field."""
    generated = cls.__init__
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
    body = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = generated.__annotations__
    init.__qualname__ = generated.__qualname__
    return init


for _cls in get_args(Message):
    _cls.ids = _derive_ids(_cls)
    if fields(_cls):
        _cls.__init__ = _derive_init(_cls)


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
        return replace(self, L=list(self.L), R=list(self.R),
                       c_ids=set(self.c_ids), base_mem=set(self.base_mem),
                       channel=list(self.channel))

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
        return replace(self, nodes={u: st.clone() for u, st in self.nodes.items()},
                       supervisor=copy.deepcopy(self.supervisor),
                       sup_inbox=list(self.sup_inbox), replay={})

    def dumps(self) -> str:
        return json.dumps({"round": self.round_no,
                           "nodes": [self.nodes[u].to_record() for u in self.ids()]})


def initial_configuration(adjacency: dict[NodeId, set[NodeId]]) -> Configuration:
    """Default-state nodes whose base memory mirrors the given adjacency."""
    nodes = {}
    for u in sorted(adjacency):
        st = NodeState(id=u)
        st.base_mem = {v for v in adjacency[u] if v != u}
        nodes[u] = st
    return Configuration(nodes=nodes)


# --- communication graph ---------------------------------------------------


def explicit_out_of(nodes: dict[NodeId, NodeState], u: NodeId) -> set[NodeId]:
    """Node u's explicit out-neighbours: the other nodes whose ids it
    stores in an address variable."""
    return {v for v in nodes[u].address_ids() if v != u and v in nodes}


def implicit_out_of(nodes: dict[NodeId, NodeState], u: NodeId) -> set[NodeId]:
    """Node u's implicit out-neighbours: the other nodes whose ids are
    carried by a message in its channel."""
    return {v for msg in nodes[u].channel for v in msg.ids()
            if v != u and v in nodes}


def explicit_out(config: Configuration) -> dict[NodeId, set[NodeId]]:
    """Every node's explicit_out_of."""
    nodes = config.nodes
    return {u: explicit_out_of(nodes, u) for u in nodes}


def implicit_out(config: Configuration) -> dict[NodeId, set[NodeId]]:
    """Every node's implicit_out_of."""
    nodes = config.nodes
    return {u: implicit_out_of(nodes, u) for u in nodes}


def explicit_edges(config: Configuration) -> set[tuple[NodeId, NodeId]]:
    """Directed edges (u, v) with v stored in an address variable of u."""
    return {(u, v) for u, vs in explicit_out(config).items() for v in vs}


def undirected(*outs: dict[NodeId, Collection[NodeId]],
               ) -> dict[NodeId, set[NodeId]]:
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


def is_weakly_connected(config: Configuration) -> bool:
    """True when the configuration's communication graph is connected."""
    adj = communication_graph(config)
    if len(adj) <= 1:
        return True
    return len(bfs_distances(adj, min(adj))) == len(adj)


def orient(adj: Sequence[Sequence[NodeId]] | Mapping[NodeId, Collection[NodeId]],
           root: NodeId) -> tuple[dict[NodeId, NodeId], dict[NodeId, int]]:
    """Parent and depth maps of a breadth-first search from root that
    visits each vertex's neighbours in the order adj[v] lists them."""
    parent: dict[NodeId, NodeId] = {}
    depth = {root: 0}
    queue = [root]
    for v in queue:
        d = depth[v] + 1
        for w in adj[v]:
            if w not in depth:
                depth[w] = d
                parent[w] = v
                queue.append(w)
    return parent, depth


def bfs_distances(adj: dict[NodeId, set[NodeId]], source: NodeId) -> dict[NodeId, int]:
    """Hop distance from source to every vertex it reaches."""
    return orient(adj, source)[1]
