"""Node round transition: checks, teardown, construction, advice pipeline."""

import inspect
import itertools
import re
from collections import defaultdict

import pytest

from linfly.core import (
    Advice,
    Base,
    FlyConstL,
    FlyConstR,
    Intro,
    IntroCert,
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
    Verified,
)
from linfly import protocol
from linfly.baseline import base_step, flush
from linfly.protocol import next_stop, node_round, well_formed_advice


def run_node(st, delivered=()):
    return node_round(st.clone(), list(delivered))


def run_to_base_step(st, delivered, monkeypatch):
    """Run a node-round; return the base memory base_step was handed (what
    the round kept, before the base algorithm delegates), the new state and
    the round's output."""
    handed = []

    def spy(self_id, mem, msgs):
        handed.append(set(mem))
        return base_step(self_id, mem, msgs)

    monkeypatch.setattr(protocol, "base_step", spy)
    new, out = run_node(st, delivered)
    return handed[0], new, out


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


def _next_stop_by_scan(st, val):
    """next_stop as its definition reads: the shortcut on val's side whose
    target position lies closest to val, the lowest level on ties."""
    if val < 1 or val == st.vid or st.vid < 1:
        return None
    side, sign = (st.R, 1) if val > st.vid else (st.L, -1)
    best, gap = None, None
    for i, v in enumerate(side):
        d = abs(st.vid + sign * 2 ** i - val)
        if gap is None or d < gap:
            best, gap = v, d
    return best


def test_next_stop_matches_the_scan_exhaustively():
    for n_left, n_right in itertools.product(range(8), repeat=2):
        st = NodeState(id=1000, L=list(range(100, 100 + n_left)),
                       R=list(range(200, 200 + n_right)))
        for st.vid in range(-1, 41):
            for val in range(-2, 141):
                assert next_stop(st, val) == _next_stop_by_scan(st, val), (
                    n_left, n_right, st.vid, val)


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


def test_teardown_without_a_flyid_refuses_the_rest():
    # the constructor turns a None flyid into the own id, an assignment
    # does not, so the round runs on the state itself, not a clone
    st = NodeState(id=4, L=[3], R=[5], vid=2, c_par=1, c_dist=1, exit=1)
    st.flyid = None
    new, out = node_round(st, [])
    assert out.did_reject and new.flyid == 4
    assert {d for d, m in out.sends if isinstance(m, RejFlyover)} == {3, 5}


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
        (30, TestCert(target_vid=1, dist=4, origin=50)),
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
    # with a single level the announcement is no fault either, and the
    # ids it hands over are kept all the same
    new1, _ = run_node(_fly_receiver(msg_type, 1), [msg])
    assert new1.exit == 0 and new1.base_mem == {2, 9}


# --- response handlers against their definitions ----------------------------
# The two handlers below are the response handlers as first written, reading
# dual, vid and each level through the NodeState accessors on every message.
# The tables run both on every level from -1 to two past the known ones, and
# with None, a shortcut, a stranger or the node itself as an id, whether or
# not the node is dual or has exited, singly and in pairs: the handlers must
# leave equal registers and equal outputs.

def _construction_by_levels(st, by_type, out):
    for kind, near in ((TestLineR, st.L), (TestLineL, st.R)):
        for m in by_type.get(kind, ()):
            sen = m.sender
            if not near or near[0] != sen:
                protocol._reject(st, "line_sender", out)
            if not st.dual or st.exit == 1:
                protocol._refuse(st, (sen,), out)
    for kind, near, level in ((FlyConstR, st.L, st.s_l), (FlyConstL, st.R, st.s_r)):
        for m in by_type.get(kind, ()):
            w, i, sen = m.w, m.level, m.sender
            if (len(near) >= i and level(i) != sen) or not near:
                protocol._reject(st, "const_sender", out)
            if len(near) >= i + 1 and level(i + 1) != w:
                protocol._reject(st, "const_next", out)
            if st.exit == 0 and len(near) < i:
                flush(st.base_mem, (sen, w), st.id)
            if st.exit == 0 and len(near) == i and level(i) == sen:
                if w != st.id:
                    near.append(w)
            if not st.dual or st.exit == 1:
                protocol._refuse(st, (sen, w), out)


def _metadata_by_registers(st, by_type, out):
    for m in by_type.get(TestVID, ()):
        if not st.dual or st.vid != m.vid:
            protocol._reject(st, "vid", out)
    for m in by_type.get(TestFlyID, ()):
        f = m.flyid
        if st.L and st.exit == 0 and st.flyid == st.id and f is not None:
            st.flyid = f
        if (st.flyid != f) if st.dual else (f is not None):
            protocol._reject(st, "flyid", out)
        if st.exit == 1 and f is not None:
            protocol._refuse(st, (f,), out)


def _handlers_agree(handler, definition, st, msgs):
    results = []
    for fn in (handler, definition):
        by_type = defaultdict(list)
        for m in msgs:
            by_type[type(m)].append(m)
        node, out = st.clone(), protocol.RoundOutput()
        fn(node, by_type, out)
        results.append((node, out))
    assert results[0] == results[1], (st, msgs)


ME, STRANGER = 50, 99
NEAR_IDS, FAR_IDS = [40, 30, 20], [60, 70]


def _facing(kind, n_near, n_far, exit_):
    """A node with n_near levels on the side kind's messages are checked
    against (L for the R kinds) and n_far on the other."""
    near, far = NEAR_IDS[:n_near], FAR_IDS[:n_far]
    left, right = (near, far) if kind in (TestLineR, FlyConstR) else (far, near)
    return NodeState(id=ME, L=list(left), R=list(right), exit=exit_, vid=3)


def test_construction_handler_matches_its_definition_on_one_message():
    for kind in (TestLineR, TestLineL, FlyConstR, FlyConstL):
        for n_near, n_far, exit_ in itertools.product(range(4), range(3), (0, 1)):
            st = _facing(kind, n_near, n_far, exit_)
            peers = [None, STRANGER, *NEAR_IDS[:n_near], *FAR_IDS[:n_far]]
            if kind in (TestLineR, TestLineL):
                msgs = [kind(sen) for sen in peers + [ME]]
            else:
                msgs = [kind(i, sen, w) for i, sen, w in itertools.product(
                    range(-1, n_near + 3), peers, peers + [ME])]
            for msg in msgs:
                _handlers_agree(protocol._r_test_flyover_construction,
                                _construction_by_levels, st, [msg])


def test_construction_handler_matches_its_definition_on_pairs():
    # the first message may grow the side the second one is checked against
    for kind in (FlyConstR, FlyConstL):
        for n_near, n_far in itertools.product((1, 2), (0, 1)):
            st = _facing(kind, n_near, n_far, 0)
            ids = [STRANGER, *NEAR_IDS]
            msgs = [kind(i, sen, w) for i, sen, w in itertools.product(
                range(n_near + 2), ids, ids)]
            for pair in itertools.product(msgs, repeat=2):
                _handlers_agree(protocol._r_test_flyover_construction,
                                _construction_by_levels, st, list(pair))


def test_metadata_handler_matches_its_definition():
    flyids = [None, ME, 40, STRANGER]
    probes = ([TestVID(v) for v in range(-1, 5)]
              + [TestFlyID(f) for f in flyids])
    for left, right, vid, exit_, flyid in itertools.product(
            ([], [40]), ([], [60]), range(-1, 5), (0, 1), (ME, 40, STRANGER)):
        st = NodeState(id=ME, L=list(left), R=list(right), vid=vid,
                       exit=exit_, flyid=flyid)
        for pair in itertools.product(probes, repeat=2):
            _handlers_agree(protocol._r_test_flyover_metadata,
                            _metadata_by_registers, st, list(pair))

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
    assert (7, TestAdvice(sender=4, dist=1)) in out.sends


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
    new, out = run_node(st, [TestAdvice(sender=6, dist=2), TestAdvice(sender=2, dist=2)])
    kinds = [(d, m.kind, m.id) for d, m in out.sends if isinstance(m, Verified)]
    assert (2, "parent", 4) in kinds and (6, "parent", 4) in kinds
    assert (2, "sib+", 6) in kinds and (6, "sib-", 2) in kinds
    assert (4, "child", 2) in kinds and (4, "child", 6) in kinds
    assert {2, 6} <= new.base_mem


def test_certify_tree_rejects_distance_gap():
    st = NodeState(id=4, t=4, dist=1)
    _, out = run_node(st, [TestAdvice(sender=6, dist=3)])
    assert not any(isinstance(m, Verified) for _, m in out.sends)


def test_transform_root_with_parent_claim_ignored():
    st = NodeState(id=4, t=3, dist=0)
    _, out = run_node(st, [Verified("parent", 9)])
    assert not any(isinstance(m, (PathPlus, PathMinus)) for _, m in out.sends)


def test_transform_duplicate_parent_ignored():
    st = NodeState(id=4, t=3, dist=1)
    _, out = run_node(st, [Verified("parent", 9), Verified("parent", 8)])
    assert not any(isinstance(m, (PathPlus, PathMinus)) for _, m in out.sends)


@pytest.mark.parametrize("kind", ["parent", "sib+", "sib-"])
def test_transform_duplicate_claim_ignores_and_keeps_every_id(kind, monkeypatch):
    # the first claim fills its slot, the second sets ignore; every id
    # claimed goes to base memory and no path edge is emitted
    st = NodeState(id=4, t=3, dist=1)
    claims = [Verified("parent", 9), Verified(kind, 5), Verified(kind, 6)]
    mem, _, out = run_to_base_step(st, claims, monkeypatch)
    assert not any(isinstance(m, (PathPlus, PathMinus)) for _, m in out.sends)
    assert mem == {9, 5, 6}


@pytest.mark.parametrize("t,kept", [(3, {9}), (0, {9})])
def test_transform_unknown_kind_fills_no_slot(t, kept):
    # a kind outside VERIFIED_KINDS is no claim, but its id is handed over:
    # inside the advice window and outside it, the id is kept
    new, _ = run_node(NodeState(id=4, t=t, dist=1), [Verified("bogus", 9)])
    assert new.base_mem == kept


@pytest.mark.parametrize("bag", [
    [Verified("bogus", 1), Verified("parent", 2)],
    [Verified("parent", 2), Verified("bogus", 1)],
])
def test_transform_unknown_kind_beside_a_claim(bag):
    # messages of one class are sorted before the pipeline reads them, and
    # a kind outside VERIFIED_KINDS sorts like any other string: the claim
    # still fills its slot and emits the path edge, and the unknown kind's
    # id is kept like every handed id, so base_step delegates it toward 2
    new, out = run_node(NodeState(id=5, t=3, dist=1), bag)
    assert out.sends == [(1, TestFlyID(None)), (2, TestFlyID(None)),
                         (2, PathPlus(5)), (5, PathMinus(2)), (2, Base(5)),
                         (1, Rev(2))]
    assert new.base_mem == {2}


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


@pytest.mark.parametrize("kind,side,ids", [(PathPlus, "R", (5, 6)),
                                           (PathMinus, "L", (3, 2))])
def test_join_path_duplicate_claim_keeps_both_ids(kind, side, ids, monkeypatch):
    st = NodeState(id=4, t=2, vid=2, c_par=1, c_dist=1, dist=1)
    mem, new, _ = run_to_base_step(st, [kind(v) for v in ids], monkeypatch)
    assert getattr(new, side) == []
    assert mem == set(ids)


def test_advised_neighbors_copied_to_base():
    st = NodeState(id=1, R=[2], vid=1, c_dist=0)
    st.c_ids = {2}
    new, _ = run_node(st)
    assert 2 in new.base_mem
    assert 2 in new.c_ids  # copied, not moved


# --- when each advice-pipeline stage acts -----------------------------------

# Exhaustive tables over small domains; each expected outcome is derived
# from the stage's rule, not from the code. A node is ready when it is not
# dual and its exit flag is 0, and each stage adds its own timer bound. A
# node may be unready through its timer, its exit flag or a shortcut.
ME = 4
READINESS = [(t, exit_, left) for t in range(6)
             for exit_, left in ((0, ()), (1, ()), (0, (7,)))]


def _stage_node(t, exit_, left, **regs):
    return NodeState(id=ME, t=t, exit=exit_, L=list(left), **regs)


def _run_stage(stage, st, bags):
    by_type = {}
    for msg in bags:
        by_type.setdefault(type(msg), []).append(msg)
    out = protocol.RoundOutput()
    if stage is protocol._join_path:
        stage(st, by_type)
    else:
        stage(st, by_type, out)
    return st.registers(), out.sends


ADVICE_A = Advice(vid=2, c_par=1, c_dist=1, par=7, dist=1)
ADVICE_OWN = Advice(vid=3, c_par=2, c_dist=2, par=ME, dist=2)


def test_get_advice_acts_by_its_rule():
    # acts iff an Advice arrived, the node is ready and t == 4; it then
    # takes the first Advice
    cases = 0
    for (t, exit_, left), vid, dist, advs in itertools.product(
            READINESS, (1, 2), (0, 1, 2),
            ([], [ADVICE_A], [ADVICE_OWN], [ADVICE_A, ADVICE_OWN],
             [ADVICE_OWN, ADVICE_A])):
        st = _stage_node(t, exit_, left, vid=vid, dist=dist)
        want = _stage_node(t, exit_, left, vid=vid, dist=dist)
        sends = []
        if advs and exit_ == 0 and not left and t == 4:
            adv = advs[0]
            want.vid, want.c_par, want.c_dist, want.dist = (
                adv.vid, adv.c_par, adv.c_dist, adv.dist)
            sends = [(adv.par, TestAdvice(ME, adv.dist))]
        got = _run_stage(protocol._get_advice, st, [Intro(7), Intro(ME)] + advs)
        assert got == (want.registers(), sends), (t, exit_, left, vid, dist, advs)
        cases += 1
    assert cases == 540


def test_certify_tree_acts_by_its_rule():
    # acts iff a TestAdvice arrived, the node is ready with t > 1 and every
    # TestAdvice reports dist == st.dist + 1; the children are the distinct
    # senders, in id order
    reports = [(s, g) for c in range(3)
               for s in itertools.product((6, 2, ME), repeat=c)
               for g in itertools.product((1, 2), repeat=c)]
    cases = 0
    for (t, exit_, left), dist, (senders, gaps) in itertools.product(
            READINESS, (0, 1, 2), reports):
        st = _stage_node(t, exit_, left, dist=dist)
        msgs = [TestAdvice(s, dist + g) for s, g in zip(senders, gaps)]
        sends = []
        if (msgs and exit_ == 0 and not left and t > 1
                and all(g == 1 for g in gaps)):
            kids = sorted(set(senders))
            sends += [(c, Verified("parent", ME)) for c in kids]
            sends += [(a, Verified("sib+", b)) for a, b in zip(kids, kids[1:])]
            sends += [(b, Verified("sib-", a)) for a, b in zip(kids, kids[1:])]
            sends += [(ME, Verified("child", c)) for c in kids]
        want = _stage_node(t, exit_, left, dist=dist).registers()
        got = _run_stage(protocol._certify_tree, st, msgs)
        assert got == (want, sends), (t, exit_, left, dist, msgs)
        cases += 1
    assert cases == 18 * 3 * 43


# the ids each claim kind names, first to last; OWN_CLAIM makes the first
# claim of one kind name the node itself
CLAIM_IDS = {"parent": (9, 8), "sib+": (5, 6), "sib-": (3, 2)}
CHILD_IDS = ((), (7,), (7, 1), (7, 7))
OWN_CLAIM = (None, "parent", "sib+", "sib-", "child")


def _claims(kind, count, own):
    ids = list(CLAIM_IDS[kind][:count])
    if ids and own == kind:
        ids[0] = ME
    return ids


def test_local_transform_acts_by_its_rule():
    # acts iff the node is ready with t > 1 and dist >= 1, and it received
    # exactly one parent claim, at most one sib+ and at most one sib-; an
    # unknown kind is no claim, and the children are the distinct child ids.
    # Odd depth points right (to the right sibling, else the parent) through
    # the largest child; even depth mirrors it with the smallest child
    cases = 0
    for (t, exit_, left), dist, n_par, n_rs, n_ls, kids, unknown, own in \
            itertools.product(READINESS, (0, 1, 2), range(3), range(3), range(3),
                              CHILD_IDS, (False, True), OWN_CLAIM):
        par = _claims("parent", n_par, own)
        r_sib = _claims("sib+", n_rs, own)
        l_sib = _claims("sib-", n_ls, own)
        kids = [ME] + list(kids[1:]) if kids and own == "child" else list(kids)
        msgs = ([Verified("parent", v) for v in par]
                + [Verified("sib+", v) for v in r_sib]
                + [Verified("sib-", v) for v in l_sib]
                + [Verified("child", v) for v in kids]
                + [Verified("bogus", 11)] * unknown)
        sends = []
        if (exit_ == 0 and not left and t > 1 and dist >= 1
                and len(par) == 1 and len(r_sib) <= 1 and len(l_sib) <= 1):
            if dist % 2:
                target = (r_sib or par)[0]
                via = max(kids, default=ME)
                sends = [(target, PathPlus(via)), (via, PathMinus(target))]
            else:
                target = (l_sib or par)[0]
                via = min(kids, default=ME)
                sends = [(target, PathMinus(via)), (via, PathPlus(target))]
        st = _stage_node(t, exit_, left, dist=dist)
        want = _stage_node(t, exit_, left, dist=dist).registers()
        got = _run_stage(protocol._local_transform, st, msgs)
        assert got == (want, sends), (t, exit_, left, dist, msgs)
        cases += 1
    assert cases == 18 * 3 * 27 * 4 * 2 * 5


def test_join_path_acts_by_its_rule():
    # acts iff the node is ready with t >= 1, at most one PathPlus and at
    # most one PathMinus arrived, and no PathMinus arrived at vid 1; each
    # side then takes its claim unless the claim is the node's own id
    cases = 0
    for (t, exit_, left), vid, n_plus, n_minus, own in itertools.product(
            READINESS, (1, 2), range(3), range(3), (None, "plus", "minus")):
        plus = [5, 6][:n_plus]
        minus = [3, 2][:n_minus]
        if own == "plus" and plus:
            plus[0] = ME
        if own == "minus" and minus:
            minus[0] = ME
        want = _stage_node(t, exit_, left, vid=vid)
        if (exit_ == 0 and not left and t >= 1 and len(plus) <= 1
                and len(minus) <= 1 and not (minus and vid == 1)):
            if plus and plus[0] != ME:
                want.R = list(plus)
            if minus and minus[0] != ME:
                want.L = list(minus)
        st = _stage_node(t, exit_, left, vid=vid)
        msgs = [PathPlus(v) for v in plus] + [PathMinus(v) for v in minus]
        got = _run_stage(protocol._join_path, st, msgs)
        assert got == (want.registers(), []), (t, exit_, left, vid, msgs)
        cases += 1
    assert cases == 18 * 2 * 9 * 3


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


# --- rejection causes -------------------------------------------------------

# One state and delivery per check, failing that check alone. Some of
# these fire in no run: cert_ids_count in none at all, cert_dist,
# cert_ids_span and const_next only under corruption.
CAUSE_CASES = {
    "refused": (NodeState(id=1, R=[2], vid=1, c_dist=0), [RejFlyover()]),
    "stray_certificate": (NodeState(id=4, c_ids={2}), []),
    "false_head": (NodeState(id=4, R=[5], vid=1, c_dist=0, flyid=3), []),
    "left_of_head": (NodeState(id=4, L=[3], vid=1, c_dist=0), []),
    "cert_dist": (NodeState(id=2, L=[1], vid=3, c_par=2, c_dist=0), []),
    "cert_parent_unreachable": (
        NodeState(id=4, L=[3], vid=2, c_par=9, c_dist=1, flyid=3), []),
    "cert_ids_count": (NodeState(id=1, R=[2], vid=1, c_dist=0, c_ids={5, 6, 7}), []),
    "cert_ids_span": (NodeState(id=9, R=[10], vid=1, c_dist=0, c_ids={6, 7}), []),
    "line_sender": (NodeState(id=1, R=[2], vid=1, c_dist=0), [TestLineR(3)]),
    "const_sender": (NodeState(id=1, R=[2], vid=1, c_dist=0),
                     [FlyConstL(w=3, level=1, sender=7)]),
    "const_next": (NodeState(id=1, R=[2, 3], vid=1, c_dist=0),
                   [FlyConstL(w=9, level=1, sender=2)]),
    "cert_target_dist": (NodeState(id=1, R=[2], vid=1, c_dist=0),
                         [TestCert(origin=5, target_vid=1, dist=3)]),
    "cert_route": (NodeState(id=1, R=[2], vid=1, c_dist=0),
                   [TestCert(origin=9, target_vid=0, dist=2)]),
    "vid": (NodeState(id=5, L=[4], vid=5, c_par=4, c_dist=4, flyid=1), [TestVID(4)]),
    "flyid": (NodeState(id=4), [TestFlyID(1)]),
}


def test_every_cause_in_protocol_has_a_case():
    src = inspect.getsource(protocol)
    named = set(re.findall(r'_reject\(st, "(\w+)"', src))
    named |= set(re.findall(r'\("(\w+)",', inspect.getsource(protocol._basic_checks)))
    assert named == set(CAUSE_CASES)


@pytest.mark.parametrize("cause", CAUSE_CASES)
def test_failed_check_records_its_cause(cause):
    st, delivered = CAUSE_CASES[cause]
    new, out = run_node(st, delivered)
    assert out.causes == [cause]
    # a basic check tears the flyover down this round, a handler next round
    assert out.did_reject or new.exit == 1
