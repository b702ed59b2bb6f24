"""Per-node round transition: flyover maintenance, advice pipeline, base step.

Each round a node runs, in order: sanity checks and flyover teardown,
response handlers for last round's flyover traffic, flyover test senders,
the advice pipeline (timer, snapshot, advice intake, tree certification,
local transform, path join), the keep step, and finally the base algorithm.
The keep step is the one rule for handed ids: every id a delivered message
of KEPT_KINDS carries, and every certificate id, goes to base memory, so
an advice stage decides only whether it acts, by one predicate over the
node's registers and the claims it received (stated in its docstring).
Response handlers run before the test senders so that a shortcut level
learned from this round's deliveries is propagated in this round's sends;
that keeps construction at one level per round. An exit flag raised by a
response handler still takes effect (teardown) only next round.

A node-round costs what its inputs ask for: each response handler, and the
advice pipeline as one block, runs only when a message kind it reads (the
*_KINDS sets) was delivered, since it changes nothing otherwise, and only
dual nodes send construction probes; every other step runs every round.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
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
    vouched_ids,
)

# The kinds each guarded step reads; without them it must change nothing.
CONSTRUCTION_KINDS = frozenset({TestLineR, TestLineL, FlyConstR, FlyConstL})
CERTIFICATE_KINDS = frozenset({TestCert, IntroCert})
METADATA_KINDS = frozenset({TestVID, TestFlyID})
ADVICE_KINDS = frozenset({RequestSnapshot, Intro, Advice, TestAdvice, Verified,
                          PathPlus, PathMinus})
# The kinds whose every id the keep step puts into base memory.
KEPT_KINDS = ADVICE_KINDS - {RequestSnapshot, Advice} | {Neighborhood}


@dataclass
class RoundOutput:
    sends: list[Send] = field(default_factory=list)
    to_supervisor: list[Message] = field(default_factory=list)
    did_reject: bool = False
    # the checks that failed, one entry per firing, in firing order
    causes: list[str] = field(default_factory=list)


def next_stop(st: NodeState, val: int) -> Optional[NodeId]:
    """Greedy routing hop toward the node at path position val.

    Picks the shortcut whose target position is closest to val, preferring
    the lower level on ties. Empty when val is unreachable from here. The
    shortcut at index i reaches distance 2**i, so the best one sits at the
    power of two nearest to the distance, capped at the highest index.
    """
    if val < 1 or val == st.vid or st.vid < 1:
        return None
    side = st.R if val > st.vid else st.L
    d = abs(val - st.vid)
    i = d.bit_length() - 1  # 2**i <= d < 2**(i + 1); a tie keeps i
    if 2 * d > 3 << i:
        i += 1
    return side[min(i, len(side) - 1)] if side else None


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


def _reject(st: NodeState, cause: str, out: RoundOutput) -> None:
    """A check failed: raise the exit flag and record which check."""
    st.exit = 1
    out.causes.append(cause)


def _basic_checks(st: NodeState, refused: bool, out: RoundOutput) -> None:
    L, vid, c_dist, c_ids, dual = st.L, st.vid, st.c_dist, st.c_ids, st.dual
    for cause, failed in (
            ("refused", refused),
            ("stray_certificate", not dual and (c_ids or st.flyid != st.id)),
            ("false_head", not L and st.R and (vid != 1 or st.flyid != st.id)),
            ("left_of_head", L and vid <= 1),
            ("cert_dist", (vid == 1 and c_dist != 0) or (vid > 1 and c_dist <= 0)),
            ("cert_parent_unreachable",
             dual and vid > 1 and next_stop(st, st.c_par) is None),
            ("cert_ids_count", len(c_ids) > 2),
            ("cert_ids_span",
             len(c_ids) == 2 and not min(c_ids) <= st.id <= max(c_ids))):
        if failed:
            _reject(st, cause, out)


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
    for v in sorted(set(ids) - {st.id, None}):
        out.sends.append((v, RejFlyover()))
    flush(st.base_mem, ids, st.id)


def _r_test_flyover_construction(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    # R-kind traffic comes from the left and is checked against the left
    # side, L-kind mirrors it; a side grows only if non-empty, so dual holds
    dual = st.dual
    for kind, near in ((TestLineR, st.L), (TestLineL, st.R)):
        for m in by_type.get(kind, ()):
            sen = m.sender
            if not near or near[0] != sen:
                _reject(st, "line_sender", out)
            if not dual or st.exit == 1:
                _refuse(st, (sen,), out)
    for kind, near in ((FlyConstR, st.L), (FlyConstL, st.R)):
        for m in by_type.get(kind, ()):
            w, i, sen, n = m.w, m.level, m.sender, len(near)
            at = near[i - 1] if 0 < i <= n else None
            if not near or (i <= n and at != sen):
                _reject(st, "const_sender", out)
            if i < n and (near[i] if i >= 0 else None) != w:
                _reject(st, "const_next", out)
            if st.exit == 0 and n < i:
                flush(st.base_mem, (sen, w), st.id)
            if st.exit == 0 and n == i and at == sen and w != st.id:
                near.append(w)
            if not dual or st.exit == 1:
                _refuse(st, (sen, w), out)


def _r_test_conn_certificate(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    for m in by_type.get(TestCert, ()):
        w, tvid, d = m.origin, m.target_vid, m.dist
        prop = (st.vid == 1) or (st.vid > 1 and st.flyid != st.id)
        if st.vid == tvid and d - 1 != st.c_dist:
            _reject(st, "cert_target_dist", out)
        if st.vid != tvid and next_stop(st, tvid) is None:
            _reject(st, "cert_route", out)
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
    dual, vid = st.dual, st.vid  # no step here changes them
    for m in by_type.get(TestVID, ()):
        if not dual or vid != m.vid:
            _reject(st, "vid", out)
    for m in by_type.get(TestFlyID, ()):
        f = m.flyid
        if st.L and st.exit == 0 and st.flyid == st.id and f is not None:
            st.flyid = f
        if (st.flyid != f) if dual else (f is not None):
            _reject(st, "flyid", out)
        if st.exit == 1 and f is not None:
            _refuse(st, (f,), out)


def _test_flyover_construction(st: NodeState, out: RoundOutput) -> None:
    sides = ((st.R, st.L, TestLineR, FlyConstR), (st.L, st.R, TestLineL, FlyConstL))
    for far, _near, line, _const in sides:
        if far:
            out.sends.append((far[0], line(st.id)))
    for i in range(1, min(len(st.R), len(st.L)) + 1):
        for far, near, _line, const in sides:
            out.sends.append((far[i - 1], const(i, st.id, near[i - 1])))


def _test_conn_certificate(st: NodeState, out: RoundOutput) -> None:
    if st.vid > 1 and st.flyid != st.id:
        dest = next_stop(st, st.c_par)
        if dest is not None:
            out.sends.append((dest, TestCert(st.c_par, st.c_dist, st.id)))


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


def _ready(st: NodeState) -> bool:
    """What every advice stage asks of a node, besides its timer bound."""
    return not st.dual and st.exit == 0


def _get_advice(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    """Acts iff an Advice arrived, the node is ready and t == 4: it takes
    the first Advice if it is well formed against this round's Intros."""
    advs = by_type.get(Advice)
    if advs and _ready(st) and st.t == 4:
        adv = advs[0]
        if well_formed_advice(adv, {m.id for m in by_type.get(Intro, ())}):
            st.vid, st.c_par, st.c_dist = adv.vid, adv.c_par, adv.c_dist
            st.dist = adv.dist
            if adv.par is not None:
                out.sends.append((adv.par, TestAdvice(st.id, st.dist)))


def _certify_tree(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    """Acts iff a TestAdvice arrived, the node is ready with t > 1 and every
    TestAdvice reports dist == st.dist + 1. The distinct senders, in id
    order, are its children: each learns its parent and its neighbouring
    siblings, and the node tells itself who its children are."""
    tests = by_type.get(TestAdvice)
    if not (tests and _ready(st) and st.t > 1
            and all(m.dist == st.dist + 1 for m in tests)):
        return
    kids = sorted({m.sender for m in tests})
    out.sends += [(c, Verified("parent", st.id)) for c in kids]
    out.sends += [(a, Verified("sib+", b)) for a, b in zip(kids, kids[1:])]
    out.sends += [(b, Verified("sib-", a)) for a, b in zip(kids, kids[1:])]
    out.sends += [(st.id, Verified("child", c)) for c in kids]


def _local_transform(st: NodeState, by_type: dict, out: RoundOutput) -> None:
    """Acts iff the node is ready with t > 1 and dist >= 1, and it received
    exactly one parent claim, at most one sib+ and at most one sib-; a kind
    other than these and child is ignored. It then emits the one
    advised-path edge it is responsible for: odd depth points right (to the
    right sibling, else the parent) through its largest child, even depth
    mirrors that to the left through its smallest child."""
    claims = defaultdict(list)
    for m in by_type.get(Verified, ()):
        claims[m.kind].append(m.id)
    par, r_sib, l_sib = claims["parent"], claims["sib+"], claims["sib-"]
    kids = claims["child"]
    if not (_ready(st) and st.t > 1 and st.dist >= 1
            and len(par) == 1 and len(r_sib) <= 1 and len(l_sib) <= 1):
        return
    odd = st.dist % 2 == 1
    toward, back = (PathPlus, PathMinus) if odd else (PathMinus, PathPlus)
    target = ((r_sib if odd else l_sib) or par)[0]
    via = (max if odd else min)(kids, default=st.id)
    out.sends.append((target, toward(via)))
    out.sends.append((via, back(target)))


def _join_path(st: NodeState, by_type: dict) -> None:
    """Acts iff the node is ready with t >= 1, at most one PathPlus and at
    most one PathMinus arrived, and no PathMinus at vid 1: the leftmost path
    position takes no left neighbour. Each side then takes its claim as its
    level-one shortcut unless the claim is the node's own id."""
    plus, minus = by_type.get(PathPlus, ()), by_type.get(PathMinus, ())
    if not (_ready(st) and st.t >= 1 and len(plus) <= 1 and len(minus) <= 1
            and not (minus and st.vid == 1)):
        return
    if minus and minus[0].id != st.id:
        st.L = [minus[0].id]
    if plus and plus[0].id != st.id:
        st.R = [plus[0].id]


def node_round(state: NodeState, delivered: list[Message]) -> tuple[NodeState, RoundOutput]:
    """Run one full round for a single node, mutating and returning state."""
    st = state
    _scrub_self(st)
    by_type: dict[type, list] = defaultdict(list)
    for m in delivered:
        by_type[type(m)].append(m)
    # one fixed order per class (core's key), so the round does not depend
    # on delivery order; handlers read one class at a time
    for cls, group in by_type.items():
        if len(group) > 1 and cls.key is not None:
            group.sort(key=cls.key)

    out = RoundOutput()
    _basic_checks(st, RejFlyover in by_type, out)
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
    # the keep step
    for kind, group in by_type.items():
        if kind in KEPT_KINDS:
            for m in group:
                flush(st.base_mem, m.ids(), st.id)
    flush(st.base_mem, st.c_ids, st.id)

    base_msgs = list(by_type.get(Base, ())) + list(by_type.get(Rev, ()))
    st.base_mem, base_sends = base_step(st.id, st.base_mem, base_msgs)
    out.sends.extend(base_sends)

    st.channel = []
    return st, out
