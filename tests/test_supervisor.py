"""Advice computation, the supervisor's round, and adversaries."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from linfly.core import Advice, Intro, Neighborhood, RequestSnapshot, bfs_distances
from linfly.protocol import well_formed_advice
from linfly.supervisor import (
    STRATEGIES,
    compute_advice,
    honest_step,
    make_supervisor,
    malicious_step,
    snapshot_graph,
)

PATH3 = {1: {2}, 2: {1, 3}, 3: {2}}


def test_three_node_path_advice():
    adv = compute_advice(PATH3)
    # advised path runs 1, 3, 2
    assert adv[1] == Advice(vid=1, c_par=0, c_dist=0, par=None, dist=0)
    assert adv[2] == Advice(vid=3, c_par=1, c_dist=1, par=1, dist=1)
    assert adv[3] == Advice(vid=2, c_par=3, c_dist=2, par=2, dist=2)


def test_two_node_advice():
    adv = compute_advice({1: {2}, 2: {1}})
    assert adv[2] == Advice(vid=2, c_par=1, c_dist=1, par=1, dist=1)


def test_advice_is_well_formed_for_recipients():
    adv = compute_advice(PATH3)
    for u, a in adv.items():
        assert well_formed_advice(a, PATH3[u])


def test_advice_vids_are_a_bijection():
    snap = {u: set() for u in range(6)}
    for u in range(5):
        snap[u].add(u + 1)
        snap[u + 1].add(u)
    snap[0].add(5)
    snap[5].add(0)
    adv = compute_advice(snap)
    assert sorted(a.vid for a in adv.values()) == list(range(1, 7))
    # certificate distances count positions along the sorted path
    assert [adv[u].c_dist for u in range(6)] == list(range(6))


def test_advice_tree_is_breadth_first():
    # on the 4-cycle 0-1-2-3-0 the advice tree reaches 2 through 1, its
    # smaller neighbour at the least depth
    adv = compute_advice({0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}})
    assert adv[2].par == 1 and adv[2].dist == 2
    assert adv[3].par == 0 and adv[1].par == 0


def test_advice_refuses_disconnected():
    with pytest.raises(ValueError):
        compute_advice({1: {2}, 2: {1}, 3: set()})


def test_advice_refuses_singleton():
    with pytest.raises(ValueError):
        compute_advice({1: set()})


def test_snapshot_union_is_undirected():
    snap = snapshot_graph({1: frozenset({2}), 2: frozenset()}, {1, 2})
    assert snap == {1: {2}, 2: {1}}


def test_snapshot_ignores_foreign_ids():
    snap = snapshot_graph({1: frozenset({2, 99})}, {1, 2})
    assert snap == {1: {2}, 2: {1}}
    # a report from outside the membership adds nothing either
    snap = snapshot_graph({1: frozenset({2}), 99: frozenset({1})}, {1, 2})
    assert snap == {1: {2}, 2: {1}}


def union_snapshot(reports, membership):
    """The snapshot by definition: the edge {u, v} for every member u whose
    report names a member v other than u, and nothing else."""
    edges = {frozenset((u, v)) for u in membership for v in reports.get(u, ())
             if v in membership and v != u}
    return {u: {v for e in edges if u in e for v in e if v != u}
            for u in sorted(membership)}


# ids 10 and 11 are never members: they report and are reported as outsiders
report_ids = hs.integers(0, 11)
reported = hs.lists(report_ids, max_size=6).map(tuple) | hs.frozensets(report_ids, max_size=6)


@given(membership=hs.sets(hs.integers(0, 9), max_size=8),
       reports=hs.dictionaries(report_ids, reported, max_size=10))
@example(membership={1, 2, 3},
         reports={1: (2, 2, 1, 10), 3: frozenset({3, 11}), 10: (1, 3)})
def test_snapshot_is_the_union_of_member_reports(membership, reports):
    # reports come as sent (tuples, repeats allowed) or as sets; reporters
    # and ids outside the membership and each reporter's own id add nothing,
    # and a member without a report still names a vertex
    snap = snapshot_graph(reports, membership)
    assert snap == union_snapshot(reports, membership)
    assert list(snap) == sorted(membership)


@hs.composite
def report_rounds(draw):
    """A membership and one round's inbound: reports from members and from
    ids 8 and 9, which are not, any member reporting more than once, and
    messages of other kinds; every member reports in about half the draws."""
    membership = draw(hs.sets(hs.integers(0, 7), min_size=2, max_size=6))
    wire = sorted(membership) + [8, 9]
    senders = draw(hs.lists(hs.sampled_from(wire), max_size=10))
    if draw(hs.booleans()):
        senders += sorted(membership)
    message = (hs.builds(Neighborhood, hs.lists(hs.sampled_from(wire), max_size=4).map(tuple))
               | hs.builds(Intro, hs.sampled_from(wire))
               | hs.just(RequestSnapshot()))
    inbound = [(u, draw(message)) for u in draw(hs.permutations(senders))]
    return membership, inbound


@given(case=report_rounds())
@example(case=({1, 2, 3, 4}, [
    (1, Neighborhood((3, 4))), (9, Neighborhood((1, 4))), (2, Intro(4)),
    (2, Neighborhood((3, 9))), (3, Neighborhood((4,))), (4, RequestSnapshot()),
    (1, Neighborhood((2,))), (4, Neighborhood(()))]))
def test_honest_step_advises_on_each_members_last_report(case):
    # the last Neighborhood per member counts; other kinds and reports from
    # outside the membership are ignored
    membership, inbound = case
    last = {u: msg.members for u, msg in inbound if isinstance(msg, Neighborhood)}
    expected = union_snapshot(last, membership)
    _sup, out = honest_step(make_supervisor(membership), inbound, set())
    if (last.keys() >= membership
            and len(bfs_distances(expected, min(expected))) == len(expected)):
        assert out == sorted(compute_advice(expected).items())
    else:
        assert out == []


def test_make_supervisor_validates():
    with pytest.raises(ValueError):
        make_supervisor({1, 2}, "malicious", "nonsense")
    with pytest.raises(ValueError):
        make_supervisor({1, 2}, "weird")
    with pytest.raises(ValueError):
        make_supervisor({1, 2}, "malicious")
    with pytest.raises(ValueError):
        make_supervisor({1, 2}, "honest", "split")


# --- the supervisor's round -------------------------------------------------

def neighborhood_reports(adj):
    return [(u, Neighborhood(tuple(sorted(vs)))) for u, vs in adj.items()]


def requests(ids):
    return [(u, RequestSnapshot()) for u in ids]


def test_honest_cycle_requests_then_advises():
    sup = make_supervisor({1, 2, 3})
    sup, out = honest_step(sup, [], {1, 2, 3})
    assert out == requests([1, 2, 3])

    sup, out = honest_step(sup, neighborhood_reports(PATH3), {1, 2, 3})
    advice = {d: m for d, m in out if isinstance(m, Advice)}
    assert set(advice) == {1, 2, 3}
    assert advice[2].vid == 3
    assert sup.advice_rounds == [1]
    # every member is still attentive, so the advising round asks again
    assert out[3:] == requests([1, 2, 3])


def test_waiting_until_all_attentive():
    sup = make_supervisor({1, 2})
    for _ in range(4):
        sup, out = honest_step(sup, [], {1})
        assert out == []
    sup, out = honest_step(sup, [], {1, 2})
    assert out == requests([1, 2])


def test_disconnected_reports_retry():
    sup = make_supervisor({1, 2, 3})
    sup, _ = honest_step(sup, [], {1, 2, 3})
    bad = neighborhood_reports({1: {2}, 2: {1}, 3: set()})
    sup, out = honest_step(sup, bad, {1, 2, 3})
    assert sup.advice_rounds == []
    # no advice, and it immediately re-requests
    assert out == requests([1, 2, 3])


def test_singleton_membership_never_advises():
    sup = make_supervisor({1})
    for _ in range(3):
        sup, out = honest_step(sup, [(1, Neighborhood(()))], {1})
        assert out == []
    assert sup.advice_rounds == []


def test_reports_nobody_asked_for_are_advised_on():
    sup = make_supervisor({1, 2, 3})
    sup, out = honest_step(sup, neighborhood_reports(PATH3), set())
    assert out == sorted(compute_advice(PATH3).items())
    assert sup.advice_rounds == [0]


def test_round_that_advises_nobody_is_no_advice_round():
    # the reports are complete and connected, but split finds no half with
    # two connected members, so its advice map is empty
    sup = make_supervisor({0, 1, 2, 3}, "malicious", "split")
    reports = neighborhood_reports({0: {2, 3}, 1: {3}, 2: {0}, 3: {0, 1}})
    sup, out = honest_step(sup, reports, set())
    assert out == []
    assert sup.advice_rounds == []


def test_the_advice_step_holds_one_copy_of_the_snapshot():
    # a dense snapshot: 200 members, each pair an edge with probability 1/2,
    # every member reporting all its neighbours. The advice step's traced
    # peak is measured in units of one adjacency of sets built from the
    # reports. It reads about 1.13 units on CPython 3.10-3.13, where a
    # frozenset copy of the reports, an out-set dict and the undirected
    # union held at once read 2.87.
    rng = random.Random(7)
    adj = {u: set() for u in range(200)}
    for u, v in combinations(adj, 2):
        if rng.random() < 0.5:
            adj[u].add(v)
            adj[v].add(u)
    inbound = [(u, Neighborhood(tuple(sorted(vs)))) for u, vs in adj.items()]
    del adj
    sup = make_supervisor(range(200))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reference = {u: set(msg.members) for u, msg in inbound}
        one = tracemalloc.get_traced_memory()[0] - base
        del reference
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _sup, out = honest_step(sup, inbound, set())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(out) == 200
    assert peak < 1.6 * one, peak / one


@hs.composite
def supervisor_inputs(draw, membership):
    """One round's (inbound, attentive): reports from members and from ids
    8 and 9, which are not members, naming members and non-members; every
    member reports in about half the draws, so complete reports, connected
    or not, are common. An Intro stands for any message that is not a
    report."""
    ids = sorted(membership)
    wire = ids + [8, 9]
    senders = draw(hs.just(ids) | hs.lists(hs.sampled_from(wire), max_size=8))
    inbound = [(u, Neighborhood(tuple(sorted(draw(hs.sets(hs.sampled_from(wire),
                                                          max_size=4))))))
               for u in senders]
    if draw(hs.booleans()):
        inbound.insert(draw(hs.integers(0, len(inbound))),
                       (draw(hs.sampled_from(wire)), Intro(ids[0])))
    attentive = draw(hs.just(set(ids)) | hs.sets(hs.sampled_from(wire)))
    return inbound, attentive


@hs.composite
def supervisor_histories(draw):
    membership = draw(hs.sets(hs.integers(0, 7), min_size=2, max_size=6))
    strategy = draw(hs.sampled_from((None,) + STRATEGIES))
    history = draw(hs.lists(supervisor_inputs(membership), max_size=6))
    return membership, strategy, history, draw(supervisor_inputs(membership))


@given(case=supervisor_histories())
@example(case=({1, 2, 3}, None, [([], {1, 2, 3})],
               (neighborhood_reports(PATH3), set())))
def test_supervisor_remembers_nothing_between_rounds(case):
    # a supervisor stepped through any history answers one more round
    # exactly as a fresh one does
    membership, strategy, history, last = case
    mode = "honest" if strategy is None else "malicious"
    stepped = make_supervisor(membership, mode, strategy)
    for inbound, attentive in history:
        stepped, _ = honest_step(stepped, inbound, attentive)
    fresh = make_supervisor(membership, mode, strategy)
    assert honest_step(stepped, *last)[1] == honest_step(fresh, *last)[1]


# --- malicious strategies ---------------------------------------------------

FULL4 = {u: {v for v in range(4) if v != u} for u in range(4)}


def test_split_advises_two_disjoint_paths():
    adv = malicious_step("split", set(range(4)), FULL4)
    assert set(adv) == {0, 1, 2, 3}
    left = {u: adv[u] for u in (0, 1)}
    right = {u: adv[u] for u in (2, 3)}
    for half in (left, right):
        assert sorted(a.vid for a in half.values()) == [1, 2]
    assert adv[1].par == 0 and adv[3].par == 2


def test_split_leaves_a_one_node_half_unadvised():
    adv = malicious_step("split", set(PATH3), PATH3)
    assert set(adv) == {2, 3}
    assert adv[2].vid == 1 and adv[3].par == 2


def test_sybil_names_a_phantom():
    adv = malicious_step("sybil", {1, 2}, {1: {2}, 2: {1}})
    assert all(a.par not in {1, 2} for a in adv.values())


def test_wrong_vids_breaks_the_bijection():
    adv = malicious_step("wrong_vids", set(PATH3), PATH3)
    vids = sorted(a.vid for a in adv.values())
    assert vids != [1, 2, 3]


def test_cycle_strategy_loops_parents():
    snap = {u: set() for u in range(5)}
    for u in range(4):
        snap[u].add(u + 1)
        snap[u + 1].add(u)
    adv = malicious_step("cycle", set(range(5)), snap)
    by_vid = {a.vid: u for u, a in adv.items()}
    # following certificate parents from the largest ids loops instead of
    # descending to the root
    start = 4
    seen = [start]
    cur = start
    for _ in range(3):
        cur = by_vid[adv[cur].c_par]
        if cur == start:
            break
        seen.append(cur)
    assert cur == start and len(seen) == 3


def test_partial_skips_a_node():
    adv = malicious_step("partial", set(PATH3), PATH3)
    assert set(adv) == {1, 2}


def test_stale_uses_a_perturbed_snapshot():
    snap = {u: set() for u in range(4)}
    for u in range(3):
        snap[u].add(u + 1)
        snap[u + 1].add(u)
    adv = malicious_step("stale", set(range(4)), snap)
    honest = compute_advice(snap)
    assert adv != honest


def test_unknown_strategy_raises():
    with pytest.raises(ValueError):
        malicious_step("nope", {1, 2}, None)


def test_malicious_step_needs_a_snapshot():
    with pytest.raises(TypeError):
        malicious_step("sybil", {1, 2})


def test_all_strategies_emit_advice_objects():
    snap = {u: set() for u in range(6)}
    for u in range(5):
        snap[u].add(u + 1)
        snap[u + 1].add(u)
    for strat in STRATEGIES:
        adv = malicious_step(strat, set(range(6)), snap)
        assert all(isinstance(a, Advice) for a in adv.values())
