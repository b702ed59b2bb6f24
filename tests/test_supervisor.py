"""Advice computation, the supervisor phase machine, and adversaries."""

import pytest

from linfly.core import Advice, Neighborhood, RequestSnapshot
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
    adv = compute_advice(PATH3, 1)
    # advised path runs 1, 3, 2
    assert adv[1] == Advice(vid=1, c_par=0, c_dist=0, par=None, dist=0)
    assert adv[2] == Advice(vid=3, c_par=1, c_dist=1, par=1, dist=1)
    assert adv[3] == Advice(vid=2, c_par=3, c_dist=2, par=2, dist=2)


def test_two_node_advice():
    adv = compute_advice({1: {2}, 2: {1}}, 1)
    assert adv[2] == Advice(vid=2, c_par=1, c_dist=1, par=1, dist=1)


def test_advice_is_well_formed_for_recipients():
    adv = compute_advice(PATH3, 1)
    for u, a in adv.items():
        assert well_formed_advice(a, PATH3[u])


def test_advice_vids_are_a_bijection():
    snap = {u: set() for u in range(6)}
    for u in range(5):
        snap[u].add(u + 1)
        snap[u + 1].add(u)
    snap[0].add(5)
    snap[5].add(0)
    adv = compute_advice(snap, 0)
    assert sorted(a.vid for a in adv.values()) == list(range(1, 7))
    # certificate distances count positions along the sorted path
    assert [adv[u].c_dist for u in range(6)] == list(range(6))


def test_advice_refuses_disconnected():
    with pytest.raises(ValueError):
        compute_advice({1: {2}, 2: {1}, 3: set()}, 1)


def test_advice_refuses_singleton():
    with pytest.raises(ValueError):
        compute_advice({1: set()}, 1)


def test_snapshot_union_is_undirected():
    snap = snapshot_graph({1: frozenset({2}), 2: frozenset()}, {1, 2})
    assert snap == {1: {2}, 2: {1}}


def test_snapshot_ignores_foreign_ids():
    snap = snapshot_graph({1: frozenset({2, 99})}, {1, 2})
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


# --- phase machine ----------------------------------------------------------

def neighborhood_reports(adj):
    return [(u, Neighborhood(tuple(sorted(vs)))) for u, vs in adj.items()]


def test_honest_cycle_requests_then_advises():
    sup = make_supervisor({1, 2, 3})
    sup, out = honest_step(sup, [], {1, 2, 3})
    assert sup.phase == "collecting"
    assert {d for d, _ in out} == {1, 2, 3}
    assert all(isinstance(m, RequestSnapshot) for _, m in out)

    sup, out = honest_step(sup, neighborhood_reports(PATH3), {1, 2, 3})
    advice = {d: m for d, m in out if isinstance(m, Advice)}
    assert set(advice) == {1, 2, 3}
    assert advice[2].vid == 3
    assert sup.advice_rounds == [1]


def test_waiting_until_all_attentive():
    sup = make_supervisor({1, 2})
    for _ in range(4):
        sup, out = honest_step(sup, [], {1})
        assert out == []
    assert sup.phase == "waiting"


def test_disconnected_reports_retry():
    sup = make_supervisor({1, 2, 3})
    sup, _ = honest_step(sup, [], {1, 2, 3})
    bad = neighborhood_reports({1: {2}, 2: {1}, 3: set()})
    sup, out = honest_step(sup, bad, {1, 2, 3})
    assert sup.advice_rounds == []
    # falls back to waiting and immediately re-requests
    assert any(isinstance(m, RequestSnapshot) for _, m in out)


def test_singleton_membership_never_advises():
    sup = make_supervisor({1})
    for _ in range(3):
        sup, out = honest_step(sup, [], {1})
        assert out == []
    assert sup.phase == "idle"


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
    honest = compute_advice(snap, 0)
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
