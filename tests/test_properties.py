"""Randomized invariant checks over the protocol and engine."""

import dataclasses
import typing

from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as hs

from linfly.baseline import base_step, flush
from linfly.core import (
    VERIFIED_KINDS,
    Advice,
    Base,
    Configuration,
    FlyConstL,
    FlyConstR,
    Intro,
    IntroCert,
    Message,
    Neighborhood,
    NodeState,
    PathMinus,
    PathPlus,
    RequestSnapshot,
    Rev,
    TestAdvice,
    TestCert,
    TestFlyID,
    TestLineL,
    TestLineR,
    TestVID,
    Verified,
    bfs_distances,
    communication_graph,
    explicit_out,
    implicit_out,
    initial_configuration,
    is_weakly_connected,
    orient,
    vouched_ids,
)
from linfly.engine import (
    CORRUPTIONS,
    SUPERVISOR_MODES,
    TOPOLOGIES,
    _degree_high_water,
    Scenario,
    classify_structures,
    is_legal,
    rounds,
    start,
    step_round,
)
from linfly import protocol
from linfly.protocol import SORT_KEYS, RoundOutput, next_stop, node_round
from linfly.supervisor import STRATEGIES, make_supervisor
from linfly.ttp import LabelledRootedTree, oracle_is_valid_output, tree_to_path
from test_reference import _agree

ids_strategy = hs.integers(min_value=0, max_value=7)
id_lists = hs.lists(ids_strategy, max_size=4)
id_sets = hs.sets(ids_strategy, max_size=5)


@given(mem=id_sets, incoming=hs.lists(ids_strategy | hs.none(), max_size=6),
       self_id=ids_strategy)
def test_flush_closed_form(mem, incoming, self_id):
    # incoming self and None are dropped; existing memory is left alone
    got = flush(set(mem), incoming, self_id)
    want = set(mem) | {v for v in incoming if v is not None and v != self_id}
    assert got == want


@given(self_id=hs.integers(min_value=0, max_value=20),
       mem=hs.sets(hs.integers(min_value=0, max_value=20), max_size=8))
def test_base_step_keeps_closest_and_stays_local(self_id, mem):
    mem.discard(self_id)
    new_mem, sends = base_step(self_id, set(mem), [])
    lset = {v for v in mem if v < self_id}
    rset = {v for v in mem if v > self_id}
    want = set()
    if lset:
        want.add(max(lset))
    if rset:
        want.add(min(rset))
    assert new_mem == want
    for dest, msg in sends:
        assert dest in mem
        for v in msg.ids():
            assert v in mem or v == self_id


@given(vid=hs.integers(min_value=0, max_value=30), left=id_lists, right=id_lists,
       val=hs.integers(min_value=-2, max_value=40))
def test_next_stop_picks_from_own_shortcuts(vid, left, right, val):
    node = NodeState(id=1, vid=vid, L=list(left), R=list(right))
    got = next_stop(node, val)
    assert got is None or got in set(left) | set(right)
    if val < 1 or val == vid:
        assert got is None


# ids 0..7 are node ids in the other tests; 8..11 name nodes that do not
# exist, and the drawn node id is often carried by its own messages
wire_ids = hs.integers(min_value=0, max_value=11)
small_ints = hs.integers(min_value=-1, max_value=9)
id_tuples = hs.lists(wire_ids, max_size=3).map(tuple)

# what each field annotation of a message class draws; these are the
# annotation strings as written in linfly.core
FIELD_STRATEGIES = {
    "NodeId": wire_ids,
    "int": small_ints,
    "Optional[NodeId]": wire_ids | hs.none(),
    "tuple[NodeId, ...]": id_tuples,
    "str": hs.sampled_from(VERIFIED_KINDS),
}

MESSAGE_CLASSES = typing.get_args(Message)

# one strategy per message kind, all 19 of them, built from their fields
messages = hs.one_of([
    hs.builds(cls, *(FIELD_STRATEGIES[f.type] for f in dataclasses.fields(cls)))
    for cls in MESSAGE_CLASSES
])


def test_message_strategy_draws_every_class():
    annotations = {f.type for cls in MESSAGE_CLASSES for f in dataclasses.fields(cls)}
    assert annotations == set(FIELD_STRATEGIES)
    assert len(MESSAGE_CLASSES) == 19
    # find raises when no drawn example is of the class
    for cls in MESSAGE_CLASSES:
        find(messages, lambda m: type(m) is cls,
             settings=settings(max_examples=2000, database=None,
                               phases=[Phase.generate]))


def reference_ids(msg) -> tuple:
    """The ids msg carries, read field by field from the annotation strings
    independently of Message.ids()."""
    out = []
    for f in dataclasses.fields(msg):
        value = getattr(msg, f.name)
        if f.type == "NodeId":
            out.append(value)
        elif f.type == "Optional[NodeId]":
            if value is not None:
                out.append(value)
        elif f.type == "tuple[NodeId, ...]":
            out.extend(value)
        else:
            assert f.type in ("int", "str"), f.type
    return tuple(out)


@settings(max_examples=1000, deadline=None)
@given(msg=messages)
def test_ids_follow_field_types(msg):
    assert msg.ids() == reference_ids(msg)


@given(data=hs.data())
def test_message_fields_read_back_what_was_passed(data):
    # each class's derived __init__ stores every argument in its own field,
    # passed by position or by name
    cls = data.draw(hs.sampled_from(MESSAGE_CLASSES))
    names = [f.name for f in dataclasses.fields(cls)]
    values = [data.draw(FIELD_STRATEGIES[f.type]) for f in dataclasses.fields(cls)]
    msg = cls(*values)
    assert [getattr(msg, n) for n in names] == values
    assert cls(**dict(zip(names, values))) == msg


# The order in which a node processes the messages of one class, written out
# here independently of protocol.SORT_KEYS; classes without fields have none.
REFERENCE_KEYS = {
    TestLineR: lambda m: m.sender,
    TestLineL: lambda m: m.sender,
    FlyConstR: lambda m: (m.level, m.sender, m.w),
    FlyConstL: lambda m: (m.level, m.sender, m.w),
    TestVID: lambda m: m.vid,
    TestFlyID: lambda m: -1 if m.flyid is None else m.flyid,
    TestCert: lambda m: (m.target_vid, m.dist, m.origin),
    IntroCert: lambda m: m.sender,
    Intro: lambda m: m.id,
    Neighborhood: lambda m: m.members,
    Advice: lambda m: (m.vid, m.c_par, m.c_dist,
                       -1 if m.par is None else m.par, m.dist),
    TestAdvice: lambda m: (m.sender, m.dist),
    Verified: lambda m: (VERIFIED_KINDS.index(m.kind), m.id),
    PathPlus: lambda m: m.id,
    PathMinus: lambda m: m.id,
    Rev: lambda m: (m.dest, m.payload),
    Base: lambda m: m.payload,
}


@given(bag=hs.lists(messages, min_size=2, max_size=30))
@example(bag=[FlyConstR(w=0, level=2, sender=1), FlyConstR(w=0, level=1, sender=2)])
@example(bag=[TestFlyID(None), TestFlyID(0)])
def test_sort_keys_match_the_reference_order(bag):
    assert set(SORT_KEYS) == set(REFERENCE_KEYS)
    for m in bag:
        cls = type(m)
        if cls.__dataclass_fields__:
            assert SORT_KEYS[cls](m) == REFERENCE_KEYS[cls](m)
        else:
            assert cls not in SORT_KEYS


def _draw_node(data, node_id=None) -> NodeState:
    if node_id is None:
        node_id = data.draw(ids_strategy)
    if data.draw(hs.booleans()):
        # an idle node in the advice window, so the pipeline runs too
        return NodeState(id=node_id, t=data.draw(hs.integers(min_value=0, max_value=6)),
                         dist=data.draw(hs.integers(min_value=0, max_value=3)),
                         base_mem=data.draw(id_sets))
    return NodeState(
        id=node_id,
        L=data.draw(id_lists),
        R=data.draw(id_lists),
        vid=data.draw(hs.integers(min_value=0, max_value=9)),
        flyid=data.draw(ids_strategy | hs.none()),
        c_par=data.draw(hs.integers(min_value=0, max_value=9)),
        c_dist=data.draw(hs.integers(min_value=-1, max_value=9)),
        c_ids=data.draw(id_sets),
        t=data.draw(hs.integers(min_value=-1, max_value=6)),
        dist=data.draw(hs.integers(min_value=0, max_value=9)),
        base_mem=data.draw(id_sets),
        exit=data.draw(hs.integers(min_value=0, max_value=1)),
    )


def _round_outcome(node: NodeState, delivered: list):
    after, out = node_round(node.clone(), list(delivered))
    return (after.to_record(), out.sends, out.to_supervisor, out.did_reject)


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_node_round_ignores_delivery_order(data):
    node = _draw_node(data)
    bag = data.draw(hs.lists(messages, max_size=10))
    if bag:
        bag += data.draw(hs.lists(hs.sampled_from(bag), max_size=3))
    shuffled = data.draw(hs.permutations(bag))
    want = _round_outcome(node, bag)
    assert _round_outcome(node, shuffled) == want
    assert _round_outcome(node, bag[::-1]) == want


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_node_round_only_uses_known_ids(data):
    node = _draw_node(data)
    delivered = data.draw(hs.lists(messages, max_size=10))
    # every id referenced this round must have been in the node's own
    # registers or handed over by a node-originated delivered message
    known = {node.id} | node.address_ids() | vouched_ids(delivered)
    after, out = node_round(node.clone(), list(delivered))
    assert after.address_ids() <= known
    for dest, msg in out.sends:
        assert dest in known
        # a node addresses itself only in reply to a delivered
        # RequestSnapshot or TestAdvice
        assert dest != node.id or delivered
        for v in msg.ids():
            assert v is None or v in known
    for msg in out.to_supervisor:
        assert set(msg.ids()) <= known
    for reg in (after.L, after.R, after.c_ids, after.base_mem):
        assert after.id not in reg


# The message kinds each guarded step of node_round reads; without any of
# them it must leave the node and the round's output alone.
GUARDED_KINDS = {
    "_r_test_flyover_construction": {TestLineR, TestLineL, FlyConstR, FlyConstL},
    "_r_test_conn_certificate": {TestCert, IntroCert},
    "_r_test_flyover_metadata": {TestVID, TestFlyID},
    "advice pipeline": {RequestSnapshot, Intro, Advice, TestAdvice, Verified,
                        PathPlus, PathMinus},
}


def _advice_pipeline(st, by_type, out):
    protocol._snapshot_req(st, by_type, out)
    protocol._get_advice(st, by_type, out)
    protocol._certify_tree(st, by_type, out)
    protocol._local_transform(st, by_type, out)
    protocol._join_path(st, by_type)


def test_node_round_guards_steps_with_the_kinds_they_read():
    assert GUARDED_KINDS == {
        "_r_test_flyover_construction": protocol.CONSTRUCTION_KINDS,
        "_r_test_conn_certificate": protocol.CERTIFICATE_KINDS,
        "_r_test_flyover_metadata": protocol.METADATA_KINDS,
        "advice pipeline": protocol.ADVICE_KINDS,
    }


GUARDED_STEPS = {
    "_r_test_flyover_construction": protocol._r_test_flyover_construction,
    "_r_test_conn_certificate": protocol._r_test_conn_certificate,
    "_r_test_flyover_metadata": protocol._r_test_flyover_metadata,
    "advice pipeline": _advice_pipeline,
}


def _output(out: RoundOutput):
    return (list(out.sends), list(out.to_supervisor), out.did_reject)


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_guarded_steps_ignore_rounds_without_their_kinds(data):
    dual = data.draw(hs.booleans())
    sides = hs.lists(ids_strategy, min_size=1 if dual else 0,
                     max_size=4 if dual else 0)
    left, right = data.draw(sides), data.draw(sides)
    if dual and data.draw(hs.booleans()):
        left, right = (left, []) if data.draw(hs.booleans()) else ([], right)
    node = NodeState(
        id=data.draw(ids_strategy), L=left, R=right,
        vid=data.draw(small_ints), flyid=data.draw(ids_strategy | hs.none()),
        exit=data.draw(hs.integers(min_value=0, max_value=1)),
        c_par=data.draw(small_ints), c_dist=data.draw(small_ints),
        c_ids=data.draw(id_sets),
        t=data.draw(hs.integers(min_value=0, max_value=5)),
        dist=data.draw(small_ints), base_mem=data.draw(id_sets),
    )
    bag = data.draw(hs.lists(messages, max_size=12))
    prior = data.draw(hs.lists(hs.builds(Base, id_tuples), max_size=2))
    for name, step in GUARDED_STEPS.items():
        by_type = {}
        for m in bag:
            if type(m) not in GUARDED_KINDS[name]:
                by_type.setdefault(type(m), []).append(m)
        st = node.clone()
        out = RoundOutput(sends=[(0, m) for m in prior])
        before = (st.to_record(), _output(out))
        step(st, by_type, out)
        assert (st.to_record(), _output(out)) == before, name
    if not node.dual:
        st, out = node.clone(), RoundOutput()
        protocol._test_flyover_construction(st, out)
        assert (st.to_record(), _output(out)) == (node.to_record(), _output(RoundOutput()))


def _reference_base_step(self_id, mem, delivered):
    """base_step as two comprehension splits of its memory."""
    sends = []
    mem = set(mem)
    for msg in delivered:
        if isinstance(msg, Base):
            mem.update(v for v in msg.payload if v != self_id)
        elif isinstance(msg, Rev) and msg.dest != self_id:
            head = msg.payload[:1] == (self_id,)
            sends.append((msg.dest, Base(payload=msg.payload if head else (self_id,))))
    lset = sorted(v for v in mem if v < self_id)
    rset = sorted(v for v in mem if v > self_id)
    new_mem = set()
    if lset:
        new_mem.add(lset[-1])
        sends.append((lset[-1], Base(payload=(self_id,))))
        sends += [(lset[i], Rev(dest=lset[i + 1], payload=(lset[i],)))
                  for i in range(len(lset) - 1)]
    if rset:
        new_mem.add(rset[0])
        sends.append((rset[0], Base(payload=(self_id,))))
        sends += [(rset[i], Rev(dest=rset[i - 1], payload=(rset[i],)))
                  for i in range(1, len(rset))]
    return new_mem, sends


base_ids = hs.integers(min_value=0, max_value=12)
base_payloads = hs.lists(base_ids, max_size=3).map(tuple)
base_bags = hs.lists(hs.builds(Base, base_payloads)
                     | hs.builds(Rev, base_ids, base_payloads), max_size=6)


@settings(max_examples=300, deadline=None)
@given(self_id=base_ids, mem=hs.sets(base_ids, max_size=9), delivered=base_bags)
@example(self_id=5, mem=set(), delivered=[])
@example(self_id=5, mem={5}, delivered=[])
@example(self_id=5, mem={1, 2, 5}, delivered=[])
@example(self_id=5, mem={5, 8, 9}, delivered=[])
@example(self_id=0, mem={0, 3, 4}, delivered=[Base(payload=(0,))])
@example(self_id=12, mem={2, 12}, delivered=[Rev(dest=3, payload=(12, 4))])
def test_base_step_matches_the_comprehension_split(self_id, mem, delivered):
    # mem may hold the node's own id: it sits on neither side and is dropped
    before = set(mem)
    assert base_step(self_id, mem, list(delivered)) == \
        _reference_base_step(self_id, mem, delivered)
    assert mem == before


def _reference_monitors(config, source, target):
    """Connectivity, explicit degree high-water and the distance from source
    to target, computed from the registers and channels directly."""
    nodes = config.nodes
    stored = {u: {v for v in st.address_ids() if v in nodes and v != u}
              for u, st in nodes.items()}
    link = {u: set() for u in nodes}
    for u, st in nodes.items():
        carried = {v for msg in st.channel for v in msg.ids()}
        for v in stored[u] | carried:
            if v in nodes and v != u:
                link[u].add(v)
                link[v].add(u)
    dist = {source: 0}
    queue = [source]
    for x in queue:
        for y in link[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    degree = max(len(vs) for vs in stored.values())
    return len(dist) == len(nodes), degree, dist.get(target, len(nodes))


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_fused_monitors_match_reference_and_public_checks(data):
    # nodes 0..n-1; registers and channels also name absent ids (up to 11),
    # the holder's own id and None
    n = data.draw(hs.integers(min_value=1, max_value=7))
    cfg = initial_configuration({u: set() for u in range(n)})
    for u, st in cfg.nodes.items():
        st.L = data.draw(hs.lists(wire_ids, max_size=2))
        st.R = data.draw(hs.lists(wire_ids, max_size=2))
        st.flyid = data.draw(wire_ids | hs.none())
        st.c_ids = data.draw(hs.sets(wire_ids, max_size=2))
        st.base_mem = data.draw(hs.sets(wire_ids, max_size=3))
        st.channel = data.draw(hs.lists(messages, max_size=3))
    source = data.draw(hs.integers(min_value=0, max_value=n - 1))
    target = data.draw(hs.integers(min_value=0, max_value=n - 1))
    # the start reading is rounds()'s from-scratch path
    _r, _stats, reading = next(rounds(cfg, (source, target), 0))
    connected, degree, legal, distance = reading
    assert (connected, degree, distance) == _reference_monitors(cfg, source, target)
    assert next(rounds(cfg, None, 0))[2] == (connected, degree, legal, None)
    assert connected == is_weakly_connected(cfg)
    assert degree == _degree_high_water(cfg)
    assert legal == is_legal(cfg)
    assert distance == bfs_distances(communication_graph(cfg), source).get(target, n)


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_step_round_matches_the_reference_on_drawn_configurations(data):
    # arbitrary registers and channels, so replay meets states that no
    # seeded scenario reaches
    nodes = {}
    for u in data.draw(hs.lists(ids_strategy, min_size=1, max_size=6, unique=True)):
        nodes[u] = _draw_node(data, u)
        nodes[u].channel = data.draw(hs.lists(messages, max_size=6))
    mode = data.draw(hs.sampled_from(SUPERVISOR_MODES))
    supervisor = None
    if mode == "honest":
        supervisor = make_supervisor(nodes)
    elif mode in STRATEGIES:
        supervisor = make_supervisor(nodes, "malicious", mode)
    config = Configuration(nodes=nodes, supervisor=supervisor)
    _agree(config, data.draw(hs.integers(min_value=1, max_value=3 * len(nodes))))


@settings(max_examples=30, deadline=None)
@given(n=hs.integers(min_value=2, max_value=12),
       seed=hs.integers(min_value=0, max_value=10 ** 6),
       corruption=hs.sampled_from(CORRUPTIONS),
       supervised=hs.booleans())
def test_rounds_preserve_weak_connectivity(n, seed, corruption, supervised):
    cfg, _pair = start(Scenario(n=n, supervisor="honest" if supervised else "none",
                                corruption=corruption, seed=seed))
    assert is_weakly_connected(cfg)
    for _ in range(8):
        step_round(cfg)
        assert is_weakly_connected(cfg)


@settings(max_examples=40, deadline=None)
@given(n=hs.integers(min_value=4, max_value=40),
       seed=hs.integers(min_value=0, max_value=10 ** 6),
       topology=hs.sampled_from(TOPOLOGIES),
       supervisor=hs.sampled_from(SUPERVISOR_MODES),
       corruption=hs.sampled_from(CORRUPTIONS))
def test_round_stats_name_every_node_whose_out_sets_moved(n, seed, topology,
                                                          supervisor, corruption):
    cfg, _pair = start(Scenario(n=n, topology=topology, supervisor=supervisor,
                                corruption=corruption, seed=seed))
    out, imp = explicit_out(cfg), implicit_out(cfg)
    for r in range(10):
        changed = step_round(cfg).changed
        out_next, imp_next = explicit_out(cfg), implicit_out(cfg)
        for u in cfg.nodes.keys() - changed:
            assert (out_next[u], imp_next[u]) == (out[u], imp[u]), (r, u)
        out, imp = out_next, imp_next


@settings(max_examples=60, deadline=None)
@given(data=hs.data())
def test_census_is_a_partition_of_dual_nodes(data):
    n = data.draw(hs.integers(min_value=1, max_value=7))
    nodes = {}
    node_ids = hs.integers(min_value=0, max_value=n - 1)
    for u in range(n):
        nodes[u] = NodeState(
            id=u,
            L=data.draw(hs.lists(node_ids, max_size=3)),
            R=data.draw(hs.lists(node_ids, max_size=3)),
            vid=data.draw(hs.integers(min_value=0, max_value=n)),
            flyid=data.draw(node_ids | hs.none()),
            c_par=data.draw(hs.integers(min_value=0, max_value=n)),
            c_dist=data.draw(hs.integers(min_value=-1, max_value=n)),
        )
    cfg = initial_configuration({u: set() for u in range(n)})
    cfg.nodes = nodes
    census = classify_structures(cfg)
    placed = [u for b in census.backbones for u in b.members]
    placed += [u for o in census.ouroboroi for u in o.members]
    placed += list(census.lost)
    duals = {u for u, node in nodes.items() if node.dual}
    assert sorted(placed) == sorted(set(placed))
    assert set(placed) == duals


@settings(max_examples=200)
@given(data=hs.data())
def test_orient_is_a_breadth_first_search(data):
    n = data.draw(hs.integers(min_value=1, max_value=9))
    vertices = hs.integers(min_value=0, max_value=n - 1)
    lists = [[] for _ in range(n)]
    for u, v in data.draw(hs.lists(hs.tuples(vertices, vertices), max_size=2 * n)):
        if u != v and v not in lists[u]:
            lists[u].append(v)
            lists[v].append(u)
    # often disconnected; lists of lists or dicts of sets
    adj = lists if data.draw(hs.booleans()) else {u: set(vs) for u, vs in enumerate(lists)}
    root = data.draw(vertices)
    parent, depth = orient(adj, root)
    want = {root: 0}  # hop counts relaxed until nothing changes
    relaxed = True
    while relaxed:
        relaxed = False
        for u in list(want):
            for v in adj[u]:
                if want.get(v, n) > want[u] + 1:
                    want[v] = want[u] + 1
                    relaxed = True
    assert depth == want
    assert parent.keys() == depth.keys() - {root}
    for w, v in parent.items():
        assert v in adj[w] and depth[v] == depth[w] - 1
    assert list(depth.values()) == sorted(depth.values())


@settings(max_examples=150)
@given(data=hs.data())
def test_tree_linearization_passes_oracle(data):
    n = data.draw(hs.integers(min_value=2, max_value=8))
    parent = {v: data.draw(hs.integers(min_value=0, max_value=v - 1),
                           label=f"parent[{v}]")
              for v in range(1, n)}
    root_label = data.draw(hs.sampled_from([0, 1]))
    depth = {0: 0}
    for v in range(1, n):  # parent[v] < v, so its depth is already known
        depth[v] = depth[parent[v]] + 1
    tree = LabelledRootedTree(0, parent, {v: root_label ^ (d & 1) for v, d in depth.items()})
    path = tree_to_path(tree)
    assert sorted(path) == list(range(n))
    assert oracle_is_valid_output(tree, path)
