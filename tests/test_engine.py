"""Engine-level tests: topologies, fault injection, stepping, census, runs."""

import dataclasses
import gc
import io
import json
import random
from collections import Counter
from itertools import product

import pytest

from linfly import engine
from linfly.baseline import Base
from linfly.core import (
    Advice,
    Configuration,
    Intro,
    IntroCert,
    Neighborhood,
    NodeState,
    Rev,
    bfs_distances,
    communication_graph,
    initial_configuration,
    is_weakly_connected,
)
from linfly.engine import (
    CORRUPTIONS,
    SUPERVISOR_MODES,
    _degree_high_water,
    RoundStats,
    Scenario,
    classify_structures,
    default_max_rounds,
    distance_floor_check,
    inject_faults,
    is_legal,
    make_topology,
    rounds,
    run,
    seed_backbone,
    seed_flyover,
    start,
    step_round,
)
from linfly.protocol import TestFlyID


# --- topologies -------------------------------------------------------------


def test_path_topology_edges():
    adj, pair = make_topology("path", 4)
    assert pair is None
    assert adj == {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}


def test_star_topology_center_zero():
    adj, _ = make_topology("star", 5)
    assert adj[0] == {1, 2, 3, 4}
    for u in (1, 2, 3, 4):
        assert adj[u] == {0}


def test_two_clusters_shape():
    adj, _ = make_topology("two_clusters", 8)
    # cliques on 0..3 and 4..7, one bridge between 3 and 4
    for u in range(4):
        assert adj[u] >= {v for v in range(4) if v != u}
    for u in range(4, 8):
        assert adj[u] >= {v for v in range(4, 8) if v != u}
    assert 4 in adj[3] and 3 in adj[4]
    assert not any(v in adj[u] for u in range(3) for v in range(5, 8))


def test_random_connected_is_connected_and_deterministic():
    import random

    adj1, _ = make_topology("random_connected", 20, random.Random(5))
    adj2, _ = make_topology("random_connected", 20, random.Random(5))
    assert adj1 == adj2
    assert set(adj1) == set(range(20))
    assert is_weakly_connected(initial_configuration(adj1))
    adj3, _ = make_topology("random_connected", 20, random.Random(6))
    assert adj3 != adj1


def test_random_connected_small_sizes():
    for seed in range(10):
        adj1, _ = make_topology("random_connected", 1, random.Random(seed))
        adj2, _ = make_topology("random_connected", 2, random.Random(seed))
        adj3, _ = make_topology("random_connected", 3, random.Random(seed))
        assert adj1 == {0: set()}
        assert adj2 == {0: {1}, 1: {0}}
        assert set(adj3) == {0, 1, 2}
        assert is_weakly_connected(initial_configuration(adj3))


@pytest.mark.parametrize("n,pair,dist", [(16, (7, 8), 11), (32, (15, 16), 19), (64, (31, 32), 35)])
def test_far_pair_distances(n, pair, dist):
    adj, got_pair = make_topology("far_pair", n)
    assert got_pair == pair
    cfg = initial_configuration(adj)
    d = bfs_distances(communication_graph(cfg), pair[0])[pair[1]]
    assert d == dist


def test_far_pair_needs_four_nodes():
    with pytest.raises(ValueError):
        make_topology("far_pair", 3)


def test_topology_rejects_bad_args():
    with pytest.raises(ValueError):
        make_topology("moebius", 8)
    with pytest.raises(ValueError):
        make_topology("path", 0)


# --- fault injection --------------------------------------------------------


def _path_config(n):
    adj, _ = make_topology("path", n)
    return initial_configuration(adj)


def test_inject_none_is_identity():
    cfg = _path_config(8)
    out = inject_faults(cfg.clone(), "none", 3)
    assert out.dumps() == cfg.dumps()


def test_inject_garbage_touches_flyover_vars_only():
    cfg = _path_config(8)
    out = inject_faults(cfg.clone(), "garbage_flyover_vars", 3)
    assert any(st.S for st in out.nodes.values())
    for u in cfg.nodes:
        assert out.nodes[u].base_mem == cfg.nodes[u].base_mem


def test_inject_stale_puts_old_messages_in_channels():
    cfg = _path_config(8)
    out = inject_faults(cfg.clone(), "stale_channel_messages", 3)
    msgs = [m for st in out.nodes.values() for m in st.channel]
    assert msgs
    assert any(isinstance(m, TestFlyID) for m in msgs)


def test_inject_is_deterministic_per_seed():
    cfg = _path_config(8)
    a = inject_faults(cfg.clone(), "all", 3)
    b = inject_faults(cfg.clone(), "all", 3)
    assert a.dumps() == b.dumps()
    c = inject_faults(cfg.clone(), "all", 4)
    assert c.dumps() != a.dumps()


def test_inject_all_does_both():
    cfg = _path_config(8)
    out = inject_faults(cfg.clone(), "all", 3)
    assert any(st.S for st in out.nodes.values())
    assert any(st.channel for st in out.nodes.values())


def test_inject_rejects_unknown_corruption():
    assert "bogus" not in CORRUPTIONS
    with pytest.raises(ValueError):
        inject_faults(_path_config(4), "bogus", 0)


# --- stepping ---------------------------------------------------------------


def test_step_two_nodes_exchange_introductions():
    cfg = _path_config(2)
    stats = step_round(cfg)
    assert cfg.round_no == 1
    assert stats.messages > 0
    for u, peer in ((0, 1), (1, 0)):
        st = cfg.nodes[u]
        assert st.base_mem == {peer}
        intro = [m for m in st.channel if isinstance(m, Base)]
        assert intro and intro[0].payload == (peer,)


def test_step_round_is_deterministic():
    cfg = _path_config(6)
    cfg = inject_faults(cfg, "all", 9)
    a, b = cfg.clone(), cfg.clone()
    for _ in range(5):
        step_round(a)
        step_round(b)
    assert a.dumps() == b.dumps()


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_stepping_a_clone_leaves_the_original_alone(corruption):
    # node rounds update sets such as base memory in place; a clone must
    # share none of them with its original
    cfg, _pair = start(Scenario(n=16, corruption=corruption, seed=5))
    before = cfg.dumps()
    copy = cfg.clone()
    for _ in range(8):
        step_round(copy)
    assert copy.dumps() != before
    assert cfg.dumps() == before

    # the same once the original's replay table holds entries: the clone
    # starts with an empty one and shares none of the stored rounds
    for _ in range(40):
        step_round(cfg)
        if cfg.replay:
            break
    assert cfg.replay
    before, table = cfg.dumps(), repr(sorted(cfg.replay.items()))
    copy = cfg.clone()
    assert copy.replay == {}
    copy.nodes[min(copy.nodes)].exit = 1
    for _ in range(8):
        step_round(copy)
    assert copy.dumps() != before
    assert cfg.dumps() == before
    assert repr(sorted(cfg.replay.items())) == table


def test_step_keeps_weak_connectivity():
    cfg = inject_faults(_path_config(10), "all", 2)
    for _ in range(12):
        step_round(cfg)
        assert is_weakly_connected(cfg)


def test_exit_spreads_through_flyover():
    # one planted exit tears the whole 8-node flyover down within 8 rounds
    cfg = seed_flyover(list(range(8)))
    cfg.nodes[0].exit = 1
    rejected = set()
    for _ in range(8):
        rejected |= step_round(cfg).rejected
        if len(rejected) == 8:
            break
    assert rejected == set(range(8))


# --- the collector pause -----------------------------------------------------


@pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
def collector(request):
    """Switch automatic collection on or off for one test, then restore it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_step_round_pauses_the_collector_and_restores_it(monkeypatch, collector):
    seen = []
    real = engine.node_round

    def watched(state, delivered):
        seen.append(gc.isenabled())
        return real(state, delivered)

    monkeypatch.setattr(engine, "node_round", watched)
    step_round(_path_config(4))
    assert seen == [False] * 4
    assert gc.isenabled() is collector


def test_step_round_restores_the_collector_when_node_round_raises(monkeypatch,
                                                                 collector):
    def broken(state, delivered):
        raise RuntimeError("broken round")

    monkeypatch.setattr(engine, "node_round", broken)
    with pytest.raises(RuntimeError, match="broken round"):
        step_round(_path_config(4))
    assert gc.isenabled() is collector


# every supervisor mode under every corruption at n=16, and one honest run
# at n=256
GARBAGE_FREE = [Scenario(n=16, supervisor=mode, corruption=corruption, seed=seed)
                for seed, (mode, corruption)
                in enumerate(product(SUPERVISOR_MODES, CORRUPTIONS))]
GARBAGE_FREE.append(Scenario(n=256))


@pytest.mark.parametrize("scenario", GARBAGE_FREE,
                         ids=lambda sc: f"{sc.supervisor}-{sc.corruption}-n{sc.n}")
def test_rounds_leave_nothing_for_the_collector(scenario):
    # the premise of step_round's pause: the objects a round makes form no
    # cycle, so collecting after each round finds nothing. A failure here
    # means the pause is wrong, not this test.
    was = gc.isenabled()
    gc.disable()
    # the objects that exist before the run are set aside, so that each
    # collection searches only what the run made
    gc.freeze()
    try:
        config, _pair = start(scenario)
        gc.collect()
        for r in range(1, 2 * scenario.n + 1):
            step_round(config)
            assert gc.collect() == 0, f"round {r}"
    finally:
        gc.unfreeze()
        if was:
            gc.enable()


# --- replay of quiescent node-rounds -----------------------------------------


def _count_node_round(monkeypatch) -> list:
    """Rebind engine.node_round to a counting wrapper; returns its counter."""
    calls = [0]
    real = engine.node_round

    def counted(state, delivered):
        calls[0] += 1
        return real(state, delivered)

    monkeypatch.setattr(engine, "node_round", counted)
    return calls


@pytest.mark.parametrize("supervisor", SUPERVISOR_MODES)
@pytest.mark.parametrize("topology", ["far_pair", "random_connected"])
def test_replay_matches_recomputation_every_round(monkeypatch, topology,
                                                  supervisor):
    # a config that replays steps in lockstep with a clone whose replay
    # table is emptied before each step, so it computes every node-round
    calls = _count_node_round(monkeypatch)
    rounds, n = 48, 32
    for corruption in CORRUPTIONS:
        cfg, _pair = start(Scenario(n=n, topology=topology, supervisor=supervisor,
                                    corruption=corruption, seed=3))
        ref = cfg.clone()
        computed = 0
        for r in range(rounds):
            before = calls[0]
            a = step_round(cfg)
            computed += calls[0] - before
            ref.replay.clear()
            b = step_round(ref)
            assert cfg.dumps() == ref.dumps(), (corruption, r)
            assert cfg.sup_inbox == ref.sup_inbox, (corruption, r)
            assert a == b, (corruption, r)
        if topology == "far_pair" and supervisor == "none":
            assert computed < rounds * n, corruption


def _replaying_flyover(monkeypatch, advice=None):
    """seed_flyover(range(9)), a fixed point, stepped until every node's
    round is in the replay table and then three rounds more, none of
    which calls node_round. With advice, a stand-in supervisor hands node
    4 that same message every round."""
    cfg = seed_flyover(list(range(9)))
    if advice is not None:
        cfg.supervisor = "stand-in"
        monkeypatch.setattr(engine, "honest_step",
                            lambda sup, inbox, attentive: (sup, [(4, advice)]))
    calls = _count_node_round(monkeypatch)
    step_round(cfg)
    step_round(cfg)
    assert sorted(cfg.replay) == cfg.ids()
    before = calls[0]
    for _ in range(3):
        step_round(cfg)
    assert calls[0] == before
    return cfg


def _step_against_recomputation(cfg) -> RoundStats:
    """Step cfg and a clone of it, which starts with an empty replay
    table; both must reach the same configuration and statistics."""
    ref = cfg.clone()
    a = step_round(cfg)
    b = step_round(ref)
    assert cfg.dumps() == ref.dumps()
    assert cfg.sup_inbox == ref.sup_inbox
    assert a == b
    return a


def test_replay_sees_a_stale_message_in_the_inbox(monkeypatch):
    cfg = _replaying_flyover(monkeypatch)
    cfg.nodes[4].channel.append(TestFlyID(5))
    _step_against_recomputation(cfg)
    assert cfg.nodes[4].exit == 1


def test_replay_sees_a_changed_register(monkeypatch):
    # criterion 07 plants an exit the same way
    cfg = _replaying_flyover(monkeypatch)
    cfg.nodes[4].exit = 1
    stats = _step_against_recomputation(cfg)
    assert 4 in stats.rejected


def test_replay_sees_a_rebound_round_function(monkeypatch):
    cfg = _replaying_flyover(monkeypatch, advice=Advice(2, 1, 1, 7, 1))
    real = engine.node_round

    def leaky_round(state, delivered):
        # criterion 05's broken node, which trusts Advice.par blindly
        for msg in delivered:
            if isinstance(msg, Advice) and msg.par is not None:
                state.base_mem.add(msg.par)
        return real(state, delivered)

    monkeypatch.setattr(engine, "node_round", leaky_round)
    stats = _step_against_recomputation(cfg)
    assert stats.provenance_violations > 0


def _reporting(round_fn, report):
    """round_fn, plus one supervisor report report(state) per node-round."""
    def reporting_round(state, delivered):
        st, out = round_fn(state, delivered)
        out.to_supervisor.append(report(st))
        return st, out
    return reporting_round


def test_audit_counts_ids_in_supervisor_reports(monkeypatch):
    cfg = seed_flyover(list(range(9)))
    assert step_round(cfg.clone()).provenance_violations == 0
    # id 99 names no node any node knows of
    monkeypatch.setattr(engine, "node_round",
                        _reporting(engine.node_round, lambda st: Neighborhood((99,))))
    assert step_round(cfg).provenance_violations > 0


def test_replay_routes_stored_supervisor_reports(monkeypatch):
    # a fixed point that reports its base memory every round, as a node
    # answering snapshot requests would, replays those reports too
    monkeypatch.setattr(engine, "node_round", _reporting(
        engine.node_round, lambda st: Neighborhood(tuple(sorted(st.base_mem)))))
    cfg = _replaying_flyover(monkeypatch)
    stats = _step_against_recomputation(cfg)
    assert [u for u, _msg in cfg.sup_inbox] == cfg.ids()
    assert stats.provenance_violations == 0


def _changed(value):
    if isinstance(value, list):
        return value + [99]
    if isinstance(value, set):
        return value | {99}
    if isinstance(value, int):
        return value + 1
    pytest.fail(f"no way to change a {type(value).__name__} register")


def test_every_register_is_in_the_replay_key():
    # a register missing from registers() would let a changed node replay
    st = NodeState(id=1, L=[0], R=[2, 3], vid=2, flyid=0, c_par=1, c_dist=1,
                   c_ids={0, 2}, t=0, dist=1, base_mem={0, 2})
    key = st.registers()
    for f in dataclasses.fields(NodeState):
        if f.name in ("id", "channel"):
            continue
        other = st.clone()
        setattr(other, f.name, _changed(getattr(other, f.name)))
        assert other.registers() != key, f.name


# --- seeded structures ------------------------------------------------------


def test_seeded_flyover_is_a_fixed_point():
    cfg = seed_flyover(list(range(9)))
    regs0 = {
        u: (st.L[:], st.R[:], st.vid, st.c_par, st.c_dist, sorted(st.c_ids))
        for u, st in cfg.nodes.items()
    }
    assert not step_round(cfg).rejected
    chan1 = {u: Counter(st.channel) for u, st in cfg.nodes.items()}
    for _ in range(4):
        assert not step_round(cfg).rejected
        regs = {
            u: (st.L[:], st.R[:], st.vid, st.c_par, st.c_dist, sorted(st.c_ids))
            for u, st in cfg.nodes.items()
        }
        chan = {u: Counter(st.channel) for u, st in cfg.nodes.items()}
        assert regs == regs0
        assert chan == chan1


def test_backbone_grows_shortcuts_doubling():
    ids = [10, 20, 30, 40, 50]
    cfg = seed_backbone(ids)
    assert cfg.nodes[10].R == [20]
    step_round(cfg)
    assert cfg.nodes[10].R == [20, 30]
    step_round(cfg)
    assert cfg.nodes[10].R == [20, 30, 50]
    step_round(cfg)
    assert cfg.nodes[10].R == [20, 30, 50]
    census = classify_structures(cfg)
    assert len(census.backbones) == 1
    bb = census.backbones[0]
    assert bb.members == (10, 20, 30, 40, 50)
    assert bb.flyover and bb.correctly_configured


@pytest.mark.parametrize("m", [4, 8, 16])
def test_flyover_flag_first_true_at_log_rounds(m):
    cfg = seed_backbone(list(range(m)))
    want = (m - 1).bit_length() - 1
    for r in range(want):
        assert not classify_structures(cfg).backbones[0].flyover
        step_round(cfg)
    assert classify_structures(cfg).backbones[0].flyover


# --- census -----------------------------------------------------------------


@pytest.mark.parametrize("register,value,flyover,configured", [
    # node 5's level-2 left shortcut is 3 in a flyover (L is [4, 3, 1])
    ("L", [4, 0, 1], False, True),
    # its certificate parent, node 4, has vid 5
    ("c_par", 2, True, False),
    # it sits 5 sorted positions from the left end
    ("c_dist", 9, True, False),
])
def test_census_checks_each_shortcut_and_certificate(register, value, flyover,
                                                     configured):
    cfg = seed_flyover(list(range(8)))
    [bb] = classify_structures(cfg).backbones
    assert bb.flyover and bb.correctly_configured
    setattr(cfg.nodes[5], register, value)
    [bb] = classify_structures(cfg).backbones
    assert (bb.flyover, bb.correctly_configured) == (flyover, configured)


def _rings(*orders) -> Configuration:
    """Perfect rings of mutual level-1 shortcuts, each in its successor order."""
    nodes = {}
    for order in orders:
        for i, u in enumerate(order):
            nodes[u] = NodeState(id=u, R=[order[(i + 1) % len(order)]],
                                 L=[order[i - 1]])
    return Configuration(nodes=nodes)


def test_census_perfect_ring():
    ids = [1, 2, 3]
    nodes = {}
    for i, u in enumerate(ids):
        st = NodeState(id=u, vid=i + 1, c_par=i, c_dist=i)
        st.R = [ids[(i + 1) % 3]]
        st.L = [ids[(i - 1) % 3]]
        nodes[u] = st
    census = classify_structures(Configuration(nodes=nodes))
    assert [(o.members, o.perfect) for o in census.ouroboroi] == [((1, 2, 3), True)]
    assert not census.backbones and not census.lost
    # a ring is reported from its least member, whatever its successor order
    census = classify_structures(_rings([4, 1, 3]))
    assert [(o.members, o.perfect) for o in census.ouroboroi] == [((1, 3, 4), True)]
    census = classify_structures(_rings([5, 2, 7], [6, 3]))
    assert [(o.members, o.perfect) for o in census.ouroboroi] == [
        ((2, 7, 5), True), ((3, 6), True)]
    assert not census.backbones and not census.lost


def test_census_stylish_ring():
    # 2-chain whose tail points back inside via its level-1 right shortcut
    a = NodeState(id=1, R=[2], vid=1, c_dist=0)
    b = NodeState(id=2, L=[1], R=[1], vid=2, c_par=1, c_dist=1)
    b.flyid = 1
    census = classify_structures(Configuration(nodes={1: a, 2: b}))
    assert [(o.members, o.perfect) for o in census.ouroboroi] == [((1, 2), False)]
    assert not census.backbones and not census.lost


def test_census_lost_node():
    solo = NodeState(id=5, L=[4], vid=2, c_par=1, c_dist=1)
    census = classify_structures(Configuration(nodes={4: NodeState(id=4), 5: solo}))
    assert census.lost == [5]
    assert not census.backbones and not census.ouroboroi


def test_census_empty_without_duals():
    census = classify_structures(_path_config(5))
    assert not census.backbones and not census.ouroboroi and not census.lost


def test_three_node_steady_state_census():
    # run an advised 3-node network well past convergence; the stable picture
    # is a single backbone carrying the flyover and configured as advised
    cfg, _pair = start(Scenario(n=3, topology="path"))
    for _ in range(40):
        step_round(cfg)
    census = classify_structures(cfg)
    assert len(census.backbones) == 1
    bb = census.backbones[0]
    assert sorted(bb.members) == [0, 1, 2]
    assert bb.flyover and bb.correctly_configured and not bb.winged
    assert not census.ouroboroi and not census.lost
    for _ in range(3):
        step_round(cfg)
    again = classify_structures(cfg)
    assert again.backbones[0] == bb


# --- legality ---------------------------------------------------------------


def test_legal_exact_sorted_path():
    assert is_legal(_path_config(16))


def test_legal_fails_on_missing_pair():
    cfg = _path_config(16)
    cfg.nodes[7].base_mem.discard(8)
    cfg.nodes[8].base_mem.discard(7)
    assert not is_legal(cfg)


def test_legal_allows_full_flyover_within_slack():
    assert is_legal(seed_flyover(list(range(16))))
    # endpoint 0 of a 16-node path has target degree 1 and slack
    # 2 * (bit_length(15) + 1) = 10: 11 stored ids pass, 15 do not
    cfg = _path_config(16)
    cfg.nodes[0].base_mem = set(range(1, 12))
    assert is_legal(cfg)
    cfg.nodes[0].base_mem = set(range(1, 16))
    assert not is_legal(cfg)


def test_legal_trivial_sizes():
    assert is_legal(initial_configuration({0: set()}))
    assert is_legal(Configuration(nodes={}))


# --- full runs --------------------------------------------------------------


def test_run_star_honest_smoke():
    buf = io.StringIO()
    res = run(Scenario(n=8, topology="star", supervisor="honest", seed=1), trace_path=buf)
    m = res.metrics
    assert m.rounds_to_legal == 3
    assert res.advice_rounds == [1]
    assert m.connectivity_violations == 0 and m.sybil_violations == 0
    assert m.max_degree_seen == 7
    assert is_legal(res.config)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    assert {"round", "legal", "connected", "messages", "rejected",
            "nodes", "backbones", "ouroboroi", "lost"} <= set(first)
    assert last["round"] == 3 and last["legal"] is True


def test_run_already_legal_path_stops_at_zero():
    res = run(Scenario(n=8, topology="path", supervisor="honest", seed=1))
    assert res.metrics.rounds_to_legal == 0
    assert res.advice_rounds == []
    assert res.rounds == 0


def test_run_single_node():
    res = run(Scenario(n=1, topology="path", supervisor="honest", seed=0))
    assert res.metrics.rounds_to_legal == 0


def test_run_far_pair_floor_holds():
    res = run(Scenario(n=16, topology="far_pair", supervisor="honest", seed=2))
    assert res.pair == (7, 8)
    assert res.metrics.rounds_to_legal == 11
    assert distance_floor_check(res)


def test_run_trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        run(Scenario(n=8, topology="star", supervisor="honest", seed=1), trace_path=fh)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    json.loads(lines[0])


@pytest.mark.parametrize("supervisor", SUPERVISOR_MODES)
@pytest.mark.parametrize("topology", ["far_pair", "random_connected"])
def test_run_monitors_match_the_public_checks(monkeypatch, topology, supervisor):
    # rounds() patches its readings from the nodes each round changed;
    # every round its connectivity, degree, legality and pair distance must
    # equal the standalone public functions (the replay test's grid, where
    # fixed-point rounds replay)
    inject = engine.inject_faults
    real_rounds = engine.rounds
    pair = (15, 16) if topology == "far_pair" else None
    seen = []

    def checked_rounds(config, pair_, max_rounds):
        for r, stats, got in real_rounds(config, pair_, max_rounds):
            dist = None
            if pair is not None:
                dist = bfs_distances(communication_graph(config), pair[0]).get(
                    pair[1], len(config.nodes))
            assert got == (is_weakly_connected(config),
                           _degree_high_water(config), is_legal(config),
                           dist), (corruption, r)
            assert r == len(seen) == config.round_no
            seen.append(got)
            yield r, stats, got

    def inject_and_pollute(config, corruption, seed):
        # every third channel also names an absent node, the receiver
        # itself and no node at all
        inject(config, corruption, seed)
        absent = max(config.nodes) + 1
        for u in sorted(config.nodes)[::3]:
            config.nodes[u].channel += [
                Intro(absent), Base((absent, u)), Rev(absent, (u,)),
                IntroCert(u), TestFlyID(None), Advice(2, 1, 1, None, 1),
            ]
        return config

    monkeypatch.setattr(engine, "inject_faults", inject_and_pollute)
    monkeypatch.setattr(engine, "rounds", checked_rounds)
    for corruption in CORRUPTIONS:
        seen.clear()
        buf = io.StringIO()
        res = run(Scenario(n=32, topology=topology, supervisor=supervisor,
                           corruption=corruption, seed=3), trace_path=buf)
        trace = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert res.pair == pair
        assert len(seen) == res.rounds + 1 == len(trace) + 1
        assert [(t["connected"], t["legal"]) for t in trace] == [
            (c, legal) for c, _d, legal, _p in seen[1:]]
        m = res.metrics
        assert m.connectivity_violations == sum(not c for c, *_ in seen)
        assert m.max_degree_seen == max(d for _c, d, *_ in seen)
        assert m.rounds_to_legal == next(
            (r for r, (*_, legal, _p) in enumerate(seen) if legal), None)
        assert res.pair_distances == [p for *_, p in seen if p is not None]


def test_rounds_steps_only_when_asked():
    cfg, _pair = start(Scenario(n=8, topology="star", supervisor="honest"))
    items = list(rounds(cfg, None, 3))
    assert [r for r, _stats, _reading in items] == [0, 1, 2, 3]
    assert [stats is None for _r, stats, _reading in items] == [
        True, False, False, False]
    assert all(isinstance(stats, RoundStats) for _r, stats, _ in items[1:])
    assert cfg.round_no == 3
    # nothing is stepped ahead of the item the caller takes
    cfg, _pair = start(Scenario(n=8, topology="star", supervisor="honest"))
    for r, _stats, _reading in rounds(cfg, None, 3):
        break
    assert (r, cfg.round_no) == (0, 0)


def test_run_is_deterministic():
    sc = Scenario(n=12, topology="two_clusters", supervisor="split",
                  corruption="all", seed=7)
    a, b = run(sc), run(sc)
    assert a.config.dumps() == b.config.dumps()
    assert a.metrics == b.metrics


@pytest.mark.parametrize("fn", [start, run])
@pytest.mark.parametrize("name", ["topology", "supervisor", "corruption"])
def test_unknown_scenario_names_are_rejected(fn, name):
    scenario = dataclasses.replace(Scenario(n=8), **{name: "bogus"})
    with pytest.raises(ValueError, match=f"unknown {name} 'bogus'"):
        fn(scenario)


def test_start_takes_either_spelling_of_a_mode():
    a, _pair = start(Scenario(n=8, supervisor="wrong-vids"))
    b, _pair = start(Scenario(n=8, supervisor="wrong_vids"))
    assert a.supervisor == b.supervisor
    assert a.supervisor.strategy == "wrong_vids"
    unsupervised, _pair = start(Scenario(n=8, supervisor="none"))
    assert unsupervised.supervisor is None


def test_default_round_budget():
    assert default_max_rounds(8) == 136
    assert default_max_rounds(1) == 52
