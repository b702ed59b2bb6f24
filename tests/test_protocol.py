"""Node round transition: checks, teardown, construction, advice pipeline."""

import pytest

from linfly.core import (
    Advice,
    FlyConstL,
    FlyConstR,
    Intro,
    IntroCert,
    NodeState,
    PathMinus,
    PathPlus,
    RejFlyover,
    RequestSnapshot,
    TestAdvice,
    TestCert,
    TestFlyID,
    TestLineL,
    TestLineR,
    TestVID,
    Verified,
)
from linfly.protocol import next_stop, node_round, well_formed_advice


def run_node(st, delivered=()):
    return node_round(st.clone(), list(delivered))


# --- routing ----------------------------------------------------------------

def test_next_stop_exact_level():
    # vid 4, right shortcuts at levels 1..3 point to positions 5, 6, 8
    st = NodeState(id=40, vid=4, R=[50, 60, 80])
    assert next_stop(st, 8) == 80


def test_next_stop_prefers_lower_level_on_tie():
    st = NodeState(id=40, vid=4, R=[50, 60, 80])
    # positions 6 and 8 are both one off from 7; level 2 wins
    assert next_stop(st, 7) == 60


def test_next_stop_left_side():
    st = NodeState(id=40, vid=4, L=[30, 20])
    assert next_stop(st, 2) == 20


def test_next_stop_empty_cases():
    assert next_stop(NodeState(id=1, vid=4), 2) is None
    assert next_stop(NodeState(id=1, vid=4, R=[5]), 4) is None
    assert next_stop(NodeState(id=1, vid=4, R=[5]), 0) is None
    assert next_stop(NodeState(id=1, vid=0, R=[5]), 2) is None
    assert next_stop(NodeState(id=1, vid=4, L=[3]), 6) is None


# --- advice well-formedness -------------------------------------------------

def test_well_formed_root_advice():
    assert well_formed_advice(Advice(1, 0, 0, None, 0), set())
    assert not well_formed_advice(Advice(2, 0, 0, None, 0), set())
    assert not well_formed_advice(Advice(1, 0, 1, None, 0), set())


def test_well_formed_inner_advice_needs_known_parent():
    adv = Advice(vid=2, c_par=1, c_dist=1, par=7, dist=1)
    assert well_formed_advice(adv, {7})
    assert not well_formed_advice(adv, {8})


def test_well_formed_rejects_bad_ranges():
    assert not well_formed_advice(Advice(0, 1, 1, 7, 1), {7})
    assert not well_formed_advice(Advice(2, -1, 1, 7, 1), {7})
    assert not well_formed_advice(Advice(2, 1, 0, 7, 1), {7})
    assert not well_formed_advice(Advice(2, 1, 1, 7, 0), {7})
    assert not well_formed_advice(Advice("2", 1, 1, 7, 1), {7})


# --- basic checks and teardown ----------------------------------------------

def test_default_node_is_inert():
    st = NodeState(id=3)
    new, out = run_node(st)
    assert not out.sends and not out.to_supervisor and not out.did_reject
    assert new.to_record() == st.to_record()


def test_leftmost_node_passes_checks():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    new, out = run_node(st)
    assert not out.did_reject
    assert new.exit == 0


def test_positive_vid_needs_positive_cert_distance():
    st = NodeState(id=2, L=[1], vid=3, c_par=2, c_dist=0)
    _, out = run_node(st)
    assert out.did_reject


def test_certificate_sandwich_violation():
    st = NodeState(id=9, R=[10], vid=2, c_par=1, c_dist=1)
    st.L = [8]
    st.c_ids = {7, 8}  # 9 > max would be fine; try self above both
    st.c_ids = {6, 7}
    _, out = run_node(st)
    assert out.did_reject


def test_empty_shortcuts_with_leftovers():
    st = NodeState(id=4)
    st.c_ids = {2}
    _, out = run_node(st)
    assert out.did_reject
    st2 = NodeState(id=4)
    st2.flyid = 1
    _, out2 = run_node(st2)
    assert out2.did_reject


def test_left_shortcut_forces_vid_above_one():
    st = NodeState(id=4, L=[3], vid=1, c_dist=0)
    _, out = run_node(st)
    assert out.did_reject


def test_right_only_node_must_be_position_one():
    st = NodeState(id=4, R=[5], vid=2, c_par=1, c_dist=1)
    _, out = run_node(st)
    assert out.did_reject


def test_unroutable_certificate_parent():
    # vid 2 with only a level-1 left shortcut cannot route toward vid 9
    st = NodeState(id=4, L=[3], vid=2, c_par=9, c_dist=1)
    st.flyid = 3
    _, out = run_node(st)
    assert out.did_reject


def test_delivered_rejection_triggers_teardown():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    _, out = run_node(st, [RejFlyover()])
    assert out.did_reject


def test_teardown_notifies_and_flushes():
    st = NodeState(id=4, L=[3], R=[5], vid=2, c_par=1, c_dist=1, exit=1)
    st.flyid = 3
    st.c_ids = {3, 5}
    new, out = run_node(st)
    assert out.did_reject
    rejected_to = {d for d, m in out.sends if isinstance(m, RejFlyover)}
    assert rejected_to == {3, 5}
    assert {3, 5} <= new.base_mem
    assert new.L == [] and new.R == [] and new.vid == 0
    assert new.flyid == 4 and new.exit == 0
    assert new.c_par == 0 and new.c_dist == -1 and new.c_ids == set()


# --- flyover construction ---------------------------------------------------

def test_line_tests_go_to_level_one():
    st = NodeState(id=4, L=[3], R=[5], vid=2, c_par=1, c_dist=1)
    st.flyid = 3
    _, out = run_node(st)
    dests = {(d, type(m).__name__) for d, m in out.sends}
    assert (5, "TestLineR") in dests
    assert (3, "TestLineL") in dests
    assert (5, "FlyConstR") in dests
    assert (3, "FlyConstL") in dests


def test_probe_emission_order_is_pinned():
    # dumps() shows only per-channel order, so the golden digests cannot
    # see the order of sends to different peers; pin it here: line tests
    # R then L, FlyConst R then L per level, certificate, TestVID R side
    # before L side, then the flyid broadcast
    st = NodeState(id=50, vid=5, R=[60, 70], L=[40, 30], c_par=1, c_dist=4)
    st.flyid = 10
    new, out = run_node(st)
    assert new.exit == 0
    assert out.sends == [
        (60, TestLineR(50)),
        (40, TestLineL(50)),
        (60, FlyConstR(w=40, level=1, sender=50)),
        (40, FlyConstL(w=60, level=1, sender=50)),
        (70, FlyConstR(w=30, level=2, sender=50)),
        (30, FlyConstL(w=70, level=2, sender=50)),
        (30, TestCert(50, 1, 4)),
        (60, TestVID(6)),
        (70, TestVID(7)),
        (40, TestVID(4)),
        (30, TestVID(3)),
        (30, TestFlyID(10)),
        (40, TestFlyID(10)),
        (60, TestFlyID(10)),
        (70, TestFlyID(10)),
    ]


def test_attentive_node_rejects_line_test():
    st = NodeState(id=4)
    new, out = run_node(st, [TestLineR(9)])
    assert (9, RejFlyover()) in out.sends
    assert 9 in new.base_mem
    assert new.exit == 1


def test_wrong_level_one_sender_exits():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    new, _ = run_node(st, [TestLineR(3)])
    # sender claims to sit right of us but our level-1 left is nobody
    assert new.exit == 1


def test_construction_appends_next_level():
    # FlyConstL travels leftward and grows the receiver's right side
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    new, _ = run_node(st, [FlyConstL(w=3, level=1, sender=2)])
    assert new.R == [2, 3]


def test_construction_grows_left_side_symmetrically():
    st = NodeState(id=5, L=[4], vid=5, c_par=4, c_dist=4)
    st.flyid = 1
    new, _ = run_node(st, [FlyConstR(w=3, level=1, sender=4)])
    assert new.L == [4, 3]


def test_construction_rejects_wrong_witness():
    st = NodeState(id=1, R=[2, 3], vid=1, c_dist=0)
    new, _ = run_node(st, [FlyConstL(w=9, level=1, sender=2)])
    # level 2 already holds 3, a conflicting witness is a fault
    assert new.exit == 1


def test_construction_rejects_unknown_sender():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    new, _ = run_node(st, [FlyConstL(w=3, level=1, sender=7)])
    assert new.exit == 1



def _fly_receiver(msg_type, levels):
    """A settled node whose side facing a FlyConst sender holds `levels`
    levels: FlyConstR grows the receiver's left side, FlyConstL its right."""
    if msg_type is FlyConstR:
        return NodeState(id=5, L=[4, 3][:levels], vid=5, c_par=4, c_dist=4,
                         flyid=1)
    return NodeState(id=5, R=[6, 7][:levels], vid=1, c_dist=0)


@pytest.mark.parametrize("msg_type", [FlyConstR, FlyConstL])
def test_construction_next_level_must_match_witness(msg_type):
    near, far = (4, 3) if msg_type is FlyConstR else (6, 7)
    st = _fly_receiver(msg_type, 2)
    ok, out = run_node(st, [msg_type(w=far, level=1, sender=near)])
    assert ok.exit == 0 and RejFlyover() not in (m for _, m in out.sends)
    new, out = run_node(st, [msg_type(w=9, level=1, sender=near)])
    assert new.exit == 1
    assert {d for d, m in out.sends if m == RejFlyover()} == {near, 9}


@pytest.mark.parametrize("msg_type", [FlyConstR, FlyConstL])
def test_construction_beyond_known_levels_keeps_ids(msg_type):
    msg = msg_type(w=2, level=3, sender=9)
    st = _fly_receiver(msg_type, 2)
    new, out = run_node(st, [msg])
    # two levels known, level 3 announced: no fault, the ids go to base memory
    assert new.exit == 0 and RejFlyover() not in (m for _, m in out.sends)
    assert new.base_mem == {2, 9}
    assert (new.L, new.R) == (st.L, st.R)
    # with a single level the announcement is simply ignored
    new1, _ = run_node(_fly_receiver(msg_type, 1), [msg])
    assert new1.exit == 0 and new1.base_mem == set()

# --- metadata ---------------------------------------------------------------

def test_vid_probe_mismatch_exits():
    st = NodeState(id=5, L=[4], vid=5, c_par=4, c_dist=4)
    st.flyid = 1
    new, _ = run_node(st, [TestVID(4)])
    assert new.exit == 1


def test_vid_probe_match_passes():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    new, _ = run_node(st, [TestVID(1)])
    assert new.exit == 0


def test_attentive_node_rejects_flyid_probe():
    st = NodeState(id=4)
    new, out = run_node(st, [TestFlyID(1)])
    assert new.exit == 1
    assert (1, RejFlyover()) in out.sends


def test_dual_node_adopts_flyid():
    st = NodeState(id=4, L=[3], vid=2, c_par=1, c_dist=1)
    new, _ = run_node(st, [TestFlyID(1)])
    assert new.flyid == 1
    assert new.exit == 0


def test_flyid_conflict_exits():
    st = NodeState(id=4, L=[3], vid=2, c_par=1, c_dist=1)
    st.flyid = 2
    new, _ = run_node(st, [TestFlyID(1)])
    assert new.exit == 1


def test_reset_node_broadcasts_empty_flyid():
    st = NodeState(id=4)
    st.base_mem = {2, 7}
    _, out = run_node(st)
    probes = {d for d, m in out.sends if m == TestFlyID(None)}
    assert probes == {2, 7}


# --- connectivity certificate -----------------------------------------------

def test_certificate_verified_at_target():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    new, out = run_node(st, [TestCert(origin=5, target_vid=1, dist=1)])
    assert 5 in new.c_ids
    assert (5, IntroCert(1)) in out.sends


def test_certificate_distance_mismatch_rejects():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    new, out = run_node(st, [TestCert(origin=5, target_vid=1, dist=3)])
    assert new.exit == 1
    assert (5, RejFlyover()) in out.sends


def test_certificate_forwarded_toward_target():
    st = NodeState(id=4, L=[3], R=[5], vid=2, c_par=1, c_dist=1)
    st.flyid = 3
    _, out = run_node(st, [TestCert(origin=9, target_vid=1, dist=2)])
    assert (3, TestCert(origin=9, target_vid=1, dist=2)) in out.sends


def test_certificate_unroutable_rejects():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    new, out = run_node(st, [TestCert(origin=9, target_vid=0, dist=2)])
    assert new.exit == 1
    assert (9, RejFlyover()) in out.sends


def test_certificate_greedy_forwarding_from_endpoint():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    _, out = run_node(st, [TestCert(origin=9, target_vid=5, dist=2)])
    assert (2, TestCert(origin=9, target_vid=5, dist=2)) in out.sends


def test_intro_cert_registers_edge():
    st = NodeState(id=4, L=[3], vid=2, c_par=1, c_dist=1)
    st.flyid = 3
    new, _ = run_node(st, [IntroCert(sender=3)])
    assert 3 in new.c_ids


# --- advice pipeline --------------------------------------------------------

def test_snapshot_request_sets_timer_and_reports():
    st = NodeState(id=4)
    st.base_mem = {2, 7}
    new, out = run_node(st, [RequestSnapshot()])
    # the timer ticks before the request handler runs, so the fresh value
    # survives this round and the advice window opens next round at t=4
    assert new.t == 5
    intro_dests = [(d, m.id) for d, m in out.sends if isinstance(m, Intro)]
    assert (2, 4) in intro_dests and (7, 4) in intro_dests
    assert (4, 2) in intro_dests and (4, 7) in intro_dests
    assert len(out.to_supervisor) == 1
    assert out.to_supervisor[0].members == (2, 7)


def test_snapshot_request_ignored_when_busy():
    st = NodeState(id=4, t=3)
    _, out = run_node(st, [RequestSnapshot()])
    assert not out.to_supervisor


def test_advice_accepted_in_window():
    st = NodeState(id=4, t=5)
    st.base_mem = {2, 7}
    adv = Advice(vid=2, c_par=1, c_dist=1, par=7, dist=1)
    new, out = run_node(st, [adv, Intro(2), Intro(7)])
    assert new.vid == 2 and new.c_par == 1 and new.c_dist == 1 and new.dist == 1
    assert (7, TestAdvice(1, 4)) in out.sends


def test_advice_with_unknown_parent_ignored():
    st = NodeState(id=4, t=5)
    st.base_mem = {2}
    adv = Advice(vid=2, c_par=1, c_dist=1, par=999, dist=1)
    new, out = run_node(st, [adv, Intro(2)])
    assert new.vid == 0
    assert not any(isinstance(m, TestAdvice) for _, m in out.sends)
    # the fabricated id is never stored anywhere
    assert 999 not in new.address_ids()


def test_advice_outside_window_ignored():
    st = NodeState(id=4, t=3)
    adv = Advice(vid=2, c_par=1, c_dist=1, par=7, dist=1)
    new, _ = run_node(st, [adv, Intro(7)])
    assert new.vid == 0


def test_certify_tree_orders_children():
    st = NodeState(id=4, t=4, dist=1)
    new, out = run_node(st, [TestAdvice(2, 6), TestAdvice(2, 2)])
    kinds = [(d, m.kind, m.id) for d, m in out.sends if isinstance(m, Verified)]
    assert (2, "parent", 4) in kinds and (6, "parent", 4) in kinds
    assert (2, "sib+", 6) in kinds and (6, "sib-", 2) in kinds
    assert (4, "child", 2) in kinds and (4, "child", 6) in kinds
    assert {2, 6} <= new.base_mem


def test_certify_tree_rejects_distance_gap():
    st = NodeState(id=4, t=4, dist=1)
    _, out = run_node(st, [TestAdvice(3, 6)])
    assert not any(isinstance(m, Verified) for _, m in out.sends)


def test_transform_root_with_parent_claim_ignored():
    st = NodeState(id=4, t=3, dist=0)
    _, out = run_node(st, [Verified("parent", 9)])
    assert not any(isinstance(m, (PathPlus, PathMinus)) for _, m in out.sends)


def test_transform_duplicate_parent_ignored():
    st = NodeState(id=4, t=3, dist=1)
    _, out = run_node(st, [Verified("parent", 9), Verified("parent", 8)])
    assert not any(isinstance(m, (PathPlus, PathMinus)) for _, m in out.sends)


def test_transform_odd_leaf_points_right():
    st = NodeState(id=4, t=3, dist=1)
    _, out = run_node(st, [Verified("parent", 9)])
    assert (9, PathPlus(4)) in out.sends
    assert (4, PathMinus(9)) in out.sends


def test_transform_even_node_routes_through_min_child():
    st = NodeState(id=4, t=3, dist=2)
    msgs = [Verified("parent", 9), Verified("sib-", 3), Verified("child", 6)]
    _, out = run_node(st, msgs)
    assert (3, PathMinus(6)) in out.sends
    assert (6, PathPlus(3)) in out.sends


def test_join_path_installs_level_one():
    st = NodeState(id=4, t=2, vid=2, c_par=1, c_dist=1, dist=1)
    new, _ = run_node(st, [PathPlus(5), PathMinus(3)])
    assert new.R == [5] and new.L == [3]


def test_join_path_leftmost_refuses_left_edge():
    st = NodeState(id=4, t=2, vid=1, c_dist=0, dist=0)
    new, _ = run_node(st, [PathMinus(3)])
    assert new.L == []


def test_join_path_duplicate_refused():
    st = NodeState(id=4, t=2, vid=2, c_par=1, c_dist=1, dist=1)
    new, _ = run_node(st, [PathPlus(5), PathPlus(6)])
    assert new.R == []


def test_advised_neighbors_copied_to_base():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    st.c_ids = {2}
    new, _ = run_node(st)
    assert 2 in new.base_mem
    assert 2 in new.c_ids  # copied, not moved


def test_timer_clamps_and_counts_down():
    st = NodeState(id=4, t=99)
    new, _ = run_node(st)
    assert new.t == 4
    st2 = NodeState(id=4, t=-3)
    new2, _ = run_node(st2)
    assert new2.t == 0


def test_own_id_scrubbed_from_registers():
    st = NodeState(id=4, t=2)
    st.base_mem = {4, 5}
    st.c_ids = {4}
    new, _ = run_node(st)
    assert 4 not in new.base_mem and 4 not in new.c_ids


def test_channel_cleared_after_round():
    st = NodeState(id=4)
    st.channel = [RejFlyover()]
    new, _ = run_node(st, [])
    assert new.channel == []
