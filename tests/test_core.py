"""State containers, message payloads, and the communication graph."""

from linfly.core import (
    Advice,
    Base,
    Configuration,
    Intro,
    NodeState,
    Rev,
    TestFlyID,
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
    st.channel = [Base(payload=(2,))]
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


def test_message_id_payloads():
    assert Rev(dest=3, payload=(1, 2)).ids() == (3, 1, 2)
    assert Base(payload=(4,)).ids() == (4,)
    assert TestFlyID(None).ids() == ()
    assert TestFlyID(2).ids() == (2,)
    assert Advice(vid=2, c_par=1, c_dist=1, par=9, dist=1).ids() == (9,)
    assert Advice(vid=1, c_par=0, c_dist=0, par=None, dist=0).ids() == ()


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
    a.channel = [Base(payload=(3, 4, 1, 9)), Intro(id=1)]
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
    assert is_weakly_connected({0: set()})
    assert is_weakly_connected({0: {1}, 1: set()})
    assert not is_weakly_connected({0: set(), 1: set()})
    # a successor without a key is still a node of the graph
    assert not is_weakly_connected({1: {3}, 2: set()})
