"""State containers, message payloads, and the communication graph."""

import copy
import inspect
import pickle
import typing
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    dataclass,
    fields,
    make_dataclass,
    replace,
)

import pytest

from linfly.core import (
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
    RejFlyover,
    RequestSnapshot,
    Rev,
    TestAdvice,
    TestCert,
    TestFlyID,
    TestLineL,
    TestLineR,
    TestVID,
    VERIFIED_KINDS,
    Verified,
    _derive_ids,
    communication_graph,
    explicit_edges,
    explicit_out,
    implicit_out,
    initial_configuration,
    is_weakly_connected,
)


def test_default_state_is_attentive():
    st = NodeState(id=7)
    assert st.flyid == 7
    assert st.vid == 0 and st.c_par == 0 and st.c_dist == -1
    assert not st.dual
    assert st.attentive


def test_dual_iff_any_shortcut():
    st = NodeState(id=1)
    assert not st.dual
    st.L = [0]
    assert st.dual and not st.attentive
    st.L, st.R = [], [5]
    assert st.dual


def test_timer_blocks_attentiveness():
    st = NodeState(id=1, t=3)
    assert not st.attentive


def test_shortcut_accessors():
    st = NodeState(id=4, L=[3, 2], R=[5, 6, 8])
    assert st.s_l(1) == 3 and st.s_l(2) == 2 and st.s_l(3) is None
    assert st.s_r(3) == 8 and st.s_r(4) is None
    assert st.S == {2, 3, 5, 6, 8}


def test_address_ids_excludes_own_flyid():
    st = NodeState(id=4, L=[3], R=[5])
    st.c_ids = {2}
    st.base_mem = {9}
    assert st.address_ids() == {2, 3, 5, 9}
    st.flyid = 1
    assert 1 in st.address_ids()


def test_clone_is_independent():
    st = NodeState(id=1, L=[0], base_mem={2})
    st.channel = [Base(id=2)]
    cp = st.clone()
    cp.L.append(9)
    cp.base_mem.add(9)
    cp.channel.clear()
    assert st.L == [0] and st.base_mem == {2} and len(st.channel) == 1


def test_config_clone_is_independent():
    cfg = initial_configuration({0: {1}, 1: {0}})
    cfg.sup_inbox = [(0, Intro(1))]
    cp = cfg.clone()
    cp.nodes[0].base_mem.add(5)
    cp.sup_inbox.clear()
    assert cfg.nodes[0].base_mem == {1}
    assert len(cfg.sup_inbox) == 1


def test_initial_configuration_mirrors_adjacency():
    cfg = initial_configuration({0: {1, 2}, 1: {0}, 2: {0, 2}})
    assert cfg.nodes[0].base_mem == {1, 2}
    assert cfg.nodes[2].base_mem == {0}  # self edge dropped
    assert all(not st.channel for st in cfg.nodes.values())


# one instance of every message class with the exact ids it carries, in
# order; int fields hold values that could be node ids, so a rule that
# read them would fail its row
ID_TABLE = [
    (RejFlyover(), ()),
    (TestLineR(sender=4), (4,)),
    (TestLineL(sender=5), (5,)),
    (FlyConstR(level=2, sender=1, w=6), (1, 6)),
    (FlyConstL(level=3, sender=2, w=7), (2, 7)),
    (TestVID(vid=3), ()),
    (TestFlyID(flyid=2), (2,)),
    (TestFlyID(flyid=None), ()),
    (TestCert(target_vid=4, dist=1, origin=8), (8,)),
    (IntroCert(sender=9), (9,)),
    (RequestSnapshot(), ()),
    (Intro(id=10), (10,)),
    (Neighborhood(members=(1, 3, 5)), (1, 3, 5)),
    (Neighborhood(members=()), ()),
    (Advice(vid=2, c_par=1, c_dist=1, par=9, dist=1), (9,)),
    (Advice(vid=1, c_par=0, c_dist=0, par=None, dist=0), ()),
    (TestAdvice(sender=11, dist=2), (11,)),
    (Verified(kind="sib+", id=12), (12,)),
    (PathPlus(id=13), (13,)),
    (PathMinus(id=14), (14,)),
    (Rev(dest=3), (3,)),
    (Base(id=4), (4,)),
]


def test_id_table_names_every_message_class():
    assert {type(msg) for msg, _ in ID_TABLE} == set(typing.get_args(Message))


# test ids are the reprs without spaces
@pytest.mark.parametrize("msg, ids", ID_TABLE,
                         ids=lambda v: repr(v).replace(" ", ""))
def test_message_id_payloads(msg, ids):
    assert type(msg.ids()) is tuple
    assert msg.ids() == ids


def test_ids_rule_refuses_an_unlisted_annotation():
    # ids held in a list would reach neither the provenance audit nor the
    # implicit edges, so deriving ids() for such a class must fail
    @dataclass(frozen=True, slots=True)
    class Batch:
        sender: "NodeId"
        members: "list[NodeId]"

    with pytest.raises(TypeError, match=r"list\[NodeId\]"):
        _derive_ids(Batch)


# --- derived constructors ----------------------------------------------------


def _field_values(cls, offset: int = 0) -> list:
    """One value per field of cls, of the field's type; no two fields of a
    class hold equal values, so a constructor that swapped two shows."""
    sample = {
        "NodeId": lambda i: 10 + i,
        "int": lambda i: 20 + i,
        "Optional[NodeId]": lambda i: 30 + i,
        "tuple[NodeId, ...]": lambda i: (40 + i, 50 + i),
        "str": lambda i: VERIFIED_KINDS[i % len(VERIFIED_KINDS)],
    }
    return [sample[f.type](i + offset) for i, f in enumerate(fields(cls))]


def _twin(cls) -> type:
    """A plain frozen, slotted dataclass with cls's fields."""
    specs = [(f.name, f.type) for f in fields(cls)]
    return make_dataclass(cls.__name__, specs, frozen=True, slots=True)


def test_no_message_field_has_a_default():
    # the derived __init__ passes no defaults on; a class that gains one
    # needs that support back, with a test of it
    assert [(cls.__name__, f.name) for cls in typing.get_args(Message)
            for f in fields(cls)
            if f.default is not MISSING or f.default_factory is not MISSING] == []


each_message_class = pytest.mark.parametrize(
    "cls", typing.get_args(Message), ids=lambda cls: cls.__name__)


@each_message_class
def test_derived_init_keeps_the_dataclass_signature(cls):
    names = tuple(f.name for f in fields(cls))
    assert inspect.signature(cls) == inspect.signature(_twin(cls))
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__match_args__ == names
    # the constructor stores through the slots; a class without fields
    # keeps the dataclass's own, which stores nothing
    assert cls.__init__.__code__.co_names == tuple(f"_set_{n}" for n in names)


@each_message_class
def test_derived_init_stores_each_field(cls):
    values = _field_values(cls)
    names = [f.name for f in fields(cls)]
    msg = cls(*values)
    assert [getattr(msg, n) for n in names] == values
    assert cls(**dict(zip(names, values))) == msg
    twin = _twin(cls)(*values)
    assert repr(msg) == repr(twin)
    assert hash(msg) == hash(twin)


@each_message_class
def test_derived_init_refuses_missing_and_unknown_arguments(cls):
    values = _field_values(cls)
    names = [f.name for f in fields(cls)]
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError, match="bogus"):
        cls(*values, bogus=0)
    if names:
        with pytest.raises(TypeError, match=names[-1]):
            cls(*values[:-1])
        with pytest.raises(TypeError, match=names[0]):
            cls(*values, **{names[0]: values[0]})


@each_message_class
def test_derived_init_keeps_messages_frozen(cls):
    msg = cls(*_field_values(cls))
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(msg, f.name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(msg, f.name)


@each_message_class
def test_messages_refuse_new_attributes(cls):
    # a name that is not a field is refused as a field is, and nothing is
    # stored
    msg = cls(*_field_values(cls))
    with pytest.raises(FrozenInstanceError):
        msg.extra = 0
    with pytest.raises(FrozenInstanceError):
        del msg.extra
    assert not hasattr(msg, "__dict__")
    assert not hasattr(msg, "extra")


@each_message_class
def test_messages_survive_copy_pickle_and_replace(cls):
    values = _field_values(cls)
    msg = cls(*values)
    for other in (copy.copy(msg), copy.deepcopy(msg),
                  pickle.loads(pickle.dumps(msg))):
        assert type(other) is cls
        assert other == msg and hash(other) == hash(msg)
    others = _field_values(cls, offset=5)
    names = [f.name for f in fields(cls)]
    assert replace(msg, **dict(zip(names, others))) == cls(*others)
    assert msg == cls(*values)


def test_extract_graph_explicit():
    # a stored id is an explicit edge and nothing else
    a = NodeState(id=1)
    a.base_mem = {2}
    cfg = Configuration(nodes={1: a, 2: NodeState(id=2)})
    assert explicit_out(cfg) == {1: {2}, 2: set()}
    assert implicit_out(cfg) == {1: set(), 2: set()}


def test_extract_graph_implicit():
    # a carried id is an implicit edge and nothing else
    a = NodeState(id=1)
    a.channel = [Intro(id=2)]
    cfg = Configuration(nodes={1: a, 2: NodeState(id=2)})
    assert explicit_out(cfg) == {1: set(), 2: set()}
    assert implicit_out(cfg) == {1: {2}, 2: set()}


def test_extract_graph_supervisor_message_is_no_edge():
    # a supervisor message vouches for no id, so the advised parent it
    # names is no edge, as it is nothing a node may keep
    a = NodeState(id=1)
    a.channel = [Advice(vid=2, c_par=1, c_dist=1, par=9, dist=1), RequestSnapshot()]
    cfg = Configuration(nodes={1: a, 9: NodeState(id=9)})
    assert implicit_out(cfg) == {1: set(), 9: set()}
    assert communication_graph(cfg) == {1: set(), 9: set()}


def test_extract_graph_explicit_wins():
    # an id both stored and carried is an edge of both kinds, and the
    # communication graph holds it once
    a = NodeState(id=1)
    a.base_mem = {2}
    a.channel = [Intro(id=2)]
    cfg = Configuration(nodes={1: a, 2: NodeState(id=2)})
    assert explicit_out(cfg) == {1: {2}, 2: set()}
    assert implicit_out(cfg) == {1: {2}, 2: set()}
    assert communication_graph(cfg) == {1: {2}, 2: {1}}


def test_extract_graph_no_self_loop():
    # the own id, own flyid included, is an edge of neither kind
    st = NodeState(id=3)
    st.flyid = 3
    st.base_mem = {3}
    st.channel = [Intro(id=3)]
    cfg = Configuration(nodes={3: st})
    assert explicit_out(cfg) == {3: set()}
    assert implicit_out(cfg) == {3: set()}
    assert communication_graph(cfg) == {3: set()}


def test_edge_sets():
    # node 1 stores 2 and 4 and carries 3 and 4; its own id (stored, carried
    # and as its default flyid) and the absent 9 appear in neither map
    a = NodeState(id=1, L=[2, 1], R=[9])
    a.base_mem = {1, 4}
    a.c_ids = {1}
    a.channel = [Base(id=3), Rev(dest=4), Base(id=1), Rev(dest=9), Intro(id=1)]
    c = NodeState(id=3)
    c.flyid = 1
    cfg = Configuration(nodes={1: a, 2: NodeState(id=2), 3: c, 4: NodeState(id=4)})
    assert explicit_out(cfg) == {1: {2, 4}, 2: set(), 3: {1}, 4: set()}
    assert implicit_out(cfg) == {1: {3, 4}, 2: set(), 3: set(), 4: set()}
    assert explicit_edges(cfg) == {(1, 2), (1, 4), (3, 1)}
    adj = communication_graph(cfg)
    assert adj == {1: {2, 3, 4}, 2: {1}, 3: {1}, 4: {1}}


def test_weak_connectivity_on_configs():
    cfg = initial_configuration({0: {1}, 1: set(), 2: {1}})
    assert is_weakly_connected(cfg)
    cfg2 = initial_configuration({0: {1}, 1: set(), 2: set()})
    assert not is_weakly_connected(cfg2)


def test_weak_connectivity_on_plain_graphs():
    assert is_weakly_connected(initial_configuration({0: set()}))
    assert is_weakly_connected(initial_configuration({0: {1}, 1: set()}))
    assert not is_weakly_connected(initial_configuration({0: set(), 1: set()}))
    # an id without a node is no edge: 1 and 2 stay apart
    assert not is_weakly_connected(initial_configuration({1: {3}, 2: set()}))
