"""Advice computation, the supervisor's round, and adversaries."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from linfly.core import Advice, Intro, Neighborhood, RequestSnapshot
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
