"""Per-node round transition: flyover maintenance, advice pipeline, base step.

Each round a node runs, in order: sanity checks and flyover teardown,
response handlers for last round's flyover traffic, flyover test senders,
the advice pipeline (timer, snapshot, advice intake, tree certification,
local transform, path join), the advised-neighbor transfer, and finally the
base algorithm. Response handlers run before the test senders so that a
shortcut level learned from this round's deliveries is propagated in this
round's sends; that keeps construction at one level per round. An exit flag
raised by a response handler still takes effect (teardown) only next round.

A node-round costs what its inputs ask for: each response handler, and the
advice pipeline as one block, runs only when a message kind it reads (the
*_KINDS sets) was delivered, since it changes nothing otherwise, and only
dual nodes send construction probes; every other step runs every round.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Collection, Optional

from .baseline import Send, base_step, flush
from .core import (
    Advice,
    Base,
    FlyConstL,
    FlyConstR,
    Intro,
    IntroCert,
    Message,
    Neighborhood,
    NodeId,
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
    VERIFIED_KINDS,
    vouched_ids,
)

# The order in which a node processes the messages of one class, the only
# place it is defined. Handlers read one class at a time, so no order
# between classes is needed; classes without fields need no sort.
SORT_KEYS = {
    TestLineR: attrgetter("sender"),
    TestLineL: attrgetter("sender"),
    FlyConstR: attrgetter("level", "sender", "w"),
    FlyConstL: attrgetter("level", "sender", "w"),
    TestVID: attrgetter("vid"),
    TestFlyID: lambda m: -1 if m.flyid is None else m.flyid,
    TestCert: attrgetter("target_vid", "dist", "origin"),
    IntroCert: attrgetter("sender"),
    Intro: attrgetter("id"),
    Neighborhood: attrgetter("members"),
    Advice: lambda m: (m.vid, m.c_par, m.c_dist,
                       -1 if m.par is None else m.par, m.dist),
    TestAdvice: attrgetter("sender", "dist"),
    Verified: lambda m: (VERIFIED_KINDS.index(m.kind), m.id),
    PathPlus: attrgetter("id"),
    PathMinus: attrgetter("id"),
    Rev: attrgetter("dest", "payload"),
    Base: attrgetter("payload"),
}

# The kinds each guarded step reads; without them it must change nothing.
CONSTRUCTION_KINDS = frozenset({TestLineR, TestLineL, FlyConstR, FlyConstL})
CERTIFICATE_KINDS = frozenset({TestCert, IntroCert})
METADATA_KINDS = frozenset({TestVID, TestFlyID})
ADVICE_KINDS = frozenset({RequestSnapshot, Intro, Advice, TestAdvice, Verified,
                          PathPlus, PathMinus})


@dataclass
class RoundOutput:
    sends: list[Send] = field(default_factory=list)
    to_supervisor: list[Message] = field(default_factory=list)
    did_reject: bool = False


def next_stop(st: NodeState, val: int) -> Optional[NodeId]:
    """Greedy routing hop toward the node at path position val.

    Picks the shortcut whose target position is closest to val, preferring
    the lower level on ties. Empty when val is unreachable from here.
    """
    if val < 1 or val == st.vid or st.vid < 1:
        return None
    side, sign = (st.R, 1) if val > st.vid else (st.L, -1)
    best, gap = None, None
    for i, v in enumerate(side):
        d = abs(st.vid + sign * 2 ** i - val)
        if gap is None or d < gap:
            best, gap = v, d
    return best


def well_formed_advice(adv: Advice, snap: set[NodeId]) -> bool:
    if not (isinstance(adv.vid, int) and isinstance(adv.c_par, int)):
        return False
    if adv.vid < 0 or adv.c_par < 0:
        return False
    if adv.par is None:
        return adv.dist == 0 and adv.vid == 1 and adv.c_dist == 0
    return adv.par in snap and adv.dist > 0 and adv.vid > 1 and adv.c_dist > 0


def _scrub_self(st: NodeState) -> None:
    # own id must never sit in a mutable address variable
    if st.id in st.L:
        st.L = [x for x in st.L if x != st.id]
    if st.id in st.R:
        st.R = [x for x in st.R if x != st.id]
    st.c_ids.discard(st.id)
    st.base_mem.discard(st.id)


def _basic_checks(st: NodeState, rejected: bool) -> None:
    dual = st.dual
    if rejected:
        st.exit = 1
    if not dual and (st.c_ids or st.flyid != st.id):
        st.exit = 1
    if (not st.L and st.R) and (st.vid != 1 or st.flyid != st.id):
        st.exit = 1
    if st.L and st.vid <= 1:
        st.exit = 1
    if (st.vid == 1 and st.c_dist != 0) or (st.vid > 1 and st.c_dist <= 0):
        st.exit = 1
    if dual and st.vid > 1 and next_stop(st, st.c_par) is None:
        st.exit = 1
    if len(st.c_ids) > 2:
        st.exit = 1
    if len(st.c_ids) == 2 and (st.id > max(st.c_ids) or st.id < min(st.c_ids)):
        st.exit = 1


def _reject_flyover(st: NodeState, out: RoundOutput) -> None:
    if st.exit != 1:
        return
    _refuse(st, st.S | {st.flyid} | st.c_ids, out)
    st.L = []
    st.R = []
    st.vid = 0
    st.flyid = st.id
    st.exit = 0
    st.c_par = 0
    st.c_dist = -1
    st.c_ids = set()
    out.did_reject = True


def _refuse(st: NodeState, ids: Collection[NodeId], out: RoundOutput) -> None:
    # tell every named peer its flyover traffic is refused, keep the ids
    for v in sorted(set(ids) - {st.id}):
        out.sends.append((v, RejFlyover()))
    flush(st.base_mem, ids, st.id)


def _r_test_flyover_construction(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    # R-kind traffic comes from the left and is checked against the left
    # side; L-kind traffic mirrors it
    for kind, near in ((TestLineR, st.L), (TestLineL, st.R)):
        for m in by_type.get(kind, ()):
            sen = m.sender
            if not near or near[0] != sen:
                st.exit = 1
            if not st.dual or st.exit == 1:
                _refuse(st, (sen,), out)
    for kind, near, level in ((FlyConstR, st.L, st.s_l), (FlyConstL, st.R, st.s_r)):
        for m in by_type.get(kind, ()):
            w, i, sen = m.w, m.level, m.sender
            if (len(near) >= i and level(i) != sen) or not near:
                st.exit = 1
            if len(near) >= i + 1 and level(i + 1) != w:
                st.exit = 1
            if st.exit == 0 and 1 < len(near) < i:
                flush(st.base_mem, (sen, w), st.id)
            if st.exit == 0 and len(near) == i and level(i) == sen:
                if w != st.id:
                    near.append(w)
            if not st.dual or st.exit == 1:
                _refuse(st, (sen, w), out)


def _r_test_conn_certificate(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    for m in by_type.get(TestCert, ()):
        w, tvid, d = m.origin, m.target_vid, m.dist
        prop = (st.vid == 1) or (st.vid > 1 and st.flyid != st.id)
        if st.vid == tvid and d - 1 != st.c_dist:
            st.exit = 1
        if st.vid != tvid and next_stop(st, tvid) is None:
            st.exit = 1
        if not st.dual or st.exit == 1:
            _refuse(st, (w,), out)
        elif st.vid != tvid:
            if not prop:
                flush(st.base_mem, (w,), st.id)
            else:
                out.sends.append((next_stop(st, tvid), m))
        else:
            if w != st.id:
                st.c_ids.add(w)
                out.sends.append((w, IntroCert(st.id)))
    for m in by_type.get(IntroCert, ()):
        if m.sender != st.id:
            st.c_ids.add(m.sender)


def _r_test_flyover_metadata(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    for m in by_type.get(TestVID, ()):
        if not st.dual or st.vid != m.vid:
            st.exit = 1
    for m in by_type.get(TestFlyID, ()):
        f = m.flyid
        if st.L and st.exit == 0 and st.flyid == st.id and f is not None:
            st.flyid = f
        if (st.flyid != f) if st.dual else (f is not None):
            st.exit = 1
        if st.exit == 1 and f is not None:
            _refuse(st, (f,), out)


def _test_flyover_construction(st: NodeState, out: RoundOutput) -> None:
    sides = ((st.R, st.L, TestLineR, FlyConstR), (st.L, st.R, TestLineL, FlyConstL))
    for far, _near, line, _const in sides:
        if far:
            out.sends.append((far[0], line(st.id)))
    for i in range(1, min(len(st.R), len(st.L)) + 1):
        for far, near, _line, const in sides:
            out.sends.append((far[i - 1], const(near[i - 1], i, st.id)))


def _test_conn_certificate(st: NodeState, out: RoundOutput) -> None:
    if st.vid > 1 and st.flyid != st.id:
        dest = next_stop(st, st.c_par)
        if dest is not None:
            out.sends.append((dest, TestCert(st.id, st.c_par, st.c_dist)))


def _test_flyover_metadata(st: NodeState, out: RoundOutput,
                           delivered: list) -> None:
    # a node advertises its flyover id only once it actually sits in one:
    # the leftmost member (vid 1) must hold shortcuts, any other member must
    # already have adopted a foreign flyid
    prop = (st.vid == 1 and st.dual) or (st.vid > 1 and st.flyid != st.id)
    for side, sign in ((st.R, 1), (st.L, -1)):
        for i, v in enumerate(side):
            out.sends.append((v, TestVID(st.vid + sign * 2 ** i)))
    # messages are immutable, so one instance serves every receiver
    if not st.dual and st.vid == 0:
        msg = TestFlyID(None)
        out.sends += [(v, msg) for v in
                      sorted((st.address_ids() | vouched_ids(delivered)) - {st.id})]
    if prop:
        msg = TestFlyID(st.flyid)
        out.sends += [(v, msg) for v in sorted(st.address_ids() - {st.id, st.flyid})]


def _basic_checks2(st: NodeState) -> None:
    if st.t > 5:
        st.t = 5
    if st.t < 0:
        st.t = 0
    if st.t > 0:
        st.t -= 1
    # reset the path position only once the advice window is over, so a
    # mid-pipeline node keeps the position it was advised
    if st.t == 0 and (not st.dual or st.exit == 1):
        st.vid = 0


def _snapshot_req(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    if not (st.attentive and RequestSnapshot in by_type):
        return
    st.t = 5
    snap = sorted(st.base_mem)
    for v in snap:
        out.sends.append((v, Intro(st.id)))
    for v in snap:
        out.sends.append((st.id, Intro(v)))
    out.to_supervisor.append(Neighborhood(tuple(snap)))


def _get_advice(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    busy = not (not st.dual and st.exit == 0 and st.t > 1)
    snap = {m.id for m in by_type.get(Intro, ())}
    advs = by_type.get(Advice, ())
    if advs and not busy and st.t == 4:
        adv = advs[0]
        if well_formed_advice(adv, snap):
            st.vid = adv.vid
            st.c_par = adv.c_par
            st.c_dist = adv.c_dist
            st.dist = adv.dist
            if adv.par is not None:
                out.sends.append((adv.par, TestAdvice(st.dist, st.id)))
    flush(st.base_mem, snap, st.id)


def _certify_tree(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    ignore = not (not st.dual and st.exit == 0 and st.t > 1)
    children: set[NodeId] = set()
    for m in by_type.get(TestAdvice, ()):
        children.add(m.sender)
        if st.dist != m.dist - 1:
            ignore = True
    if not ignore and children:
        _setup_local_transform(st, sorted(children), out)
    flush(st.base_mem, children, st.id)


def _setup_local_transform(st: NodeState, children: list[NodeId],
                           out: RoundOutput) -> None:
    q = len(children)
    for c in children:
        out.sends.append((c, Verified("parent", st.id)))
    for j in range(1, q):
        out.sends.append((children[j - 1], Verified("sib+", children[j])))
    for j in range(q - 1):
        out.sends.append((children[j + 1], Verified("sib-", children[j])))
    for c in children:
        out.sends.append((st.id, Verified("child", c)))


def _claim(slots: dict, key, v: NodeId, ignore: bool) -> bool:
    """The claim rule of the advice pipeline's single-id slots: the first
    claim fills its slot; a second claim, or any claim made once ignoring,
    leaves the slot as it is and sets ignore. Returns ignore."""
    if slots[key] is not None:
        ignore = True
    if not ignore:
        slots[key] = v
    return ignore


def _local_transform(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    ignore = not (not st.dual and st.exit == 0 and st.t > 1)
    slots = dict.fromkeys(("parent", "sib+", "sib-"))
    children: set[NodeId] = set()
    for m in by_type.get(Verified, ()):
        if m.kind in slots:
            ignore = _claim(slots, m.kind, m.id, ignore)
        if m.kind == "child" or ignore:
            children.add(m.id)
    parent, r_sib, l_sib = slots.values()
    if (parent is None and st.dist != 0) or (parent is not None and st.dist < 1):
        ignore = True
    if not ignore and parent is not None:
        _execute_transform(st, parent, r_sib, l_sib, sorted(children), out)
    flush(st.base_mem, {parent, r_sib, l_sib} | children, st.id)


def _execute_transform(st: NodeState, parent: NodeId, r_sib: Optional[NodeId],
                       l_sib: Optional[NodeId], children: list[NodeId],
                       out: RoundOutput) -> None:
    """Emit the one advised-path edge this node is responsible for.

    Odd depth points right (to parent or right sibling, possibly through the
    largest child); even depth mirrors to the left with the smallest child.
    """
    if st.dist % 2 == 1:
        toward, back, sib, end = PathPlus, PathMinus, r_sib, -1
    else:
        toward, back, sib, end = PathMinus, PathPlus, l_sib, 0
    target = parent if sib is None else sib
    via = children[end] if children else st.id
    out.sends.append((target, toward(via)))
    out.sends.append((via, back(target)))


def _join_path(st: NodeState, by_type: dict) -> None:
    ignore = not (not st.dual and st.exit == 0 and st.t >= 1)
    slots = {PathPlus: None, PathMinus: None}
    # the leftmost path position takes no left neighbour
    for kind, barred in ((PathPlus, False), (PathMinus, st.vid == 1)):
        for m in by_type.get(kind, ()):
            ignore = _claim(slots, kind, m.id, ignore or barred)
            if ignore:
                flush(st.base_mem, (m.id,), st.id)
    fly_r, fly_l = slots.values()
    if not ignore:
        if fly_l is not None and fly_l != st.id:
            st.L = [fly_l]
        if fly_r is not None and fly_r != st.id:
            st.R = [fly_r]
    flush(st.base_mem, (fly_l, fly_r), st.id)


def _transfer_advised(st: NodeState) -> None:
    flush(st.base_mem, st.c_ids, st.id)


def node_round(state: NodeState, delivered: list[Message]) -> tuple[NodeState, RoundOutput]:
    """Run one full round for a single node, mutating and returning state."""
    st = state
    _scrub_self(st)
    by_type: dict[type, list] = defaultdict(list)
    for m in delivered:
        by_type[type(m)].append(m)
    for cls, group in by_type.items():
        if len(group) > 1 and cls in SORT_KEYS:
            group.sort(key=SORT_KEYS[cls])

    out = RoundOutput()
    _basic_checks(st, RejFlyover in by_type)
    _reject_flyover(st, out)
    if not CONSTRUCTION_KINDS.isdisjoint(by_type):
        _r_test_flyover_construction(st, by_type, out)
    if not CERTIFICATE_KINDS.isdisjoint(by_type):
        _r_test_conn_certificate(st, by_type, out)
    if not METADATA_KINDS.isdisjoint(by_type):
        _r_test_flyover_metadata(st, by_type, out)
    if st.dual:
        _test_flyover_construction(st, out)
    _test_conn_certificate(st, out)
    _test_flyover_metadata(st, out, delivered)
    _basic_checks2(st)
    if not ADVICE_KINDS.isdisjoint(by_type):
        _snapshot_req(st, by_type, out)
        _get_advice(st, by_type, out)
        _certify_tree(st, by_type, out)
        _local_transform(st, by_type, out)
        _join_path(st, by_type)
    _transfer_advised(st)

    base_msgs = list(by_type.get(Base, ())) + list(by_type.get(Rev, ()))
    st.base_mem, base_sends = base_step(st.id, st.base_mem, base_msgs)
    out.sends.extend(base_sends)

    st.channel = []
    return st, out
