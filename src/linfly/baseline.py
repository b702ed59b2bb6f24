"""Base linearization algorithm and the two-round delegation primitive.

Every node runs this every round, independent of the flyover machinery.
A node keeps only its closest known neighbour on each side and delegates
every other known id one hop toward its sorted position. Delegation is
indirect: the sender asks the delegated node to introduce itself to the
target, so the sender never fabricates an edge on the target's behalf.

`flush` updates the base memory it is given in place and returns that
same set; a configuration clone copies every node's sets, so stepping a
clone never changes its original.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable

from .core import Base, Message, NodeId, Rev

Send = tuple[NodeId, Message]


def flush(mem: set[NodeId], ids: Iterable[NodeId | None], self_id: NodeId) -> set[NodeId]:
    """Fold ids into base memory, dropping empty slots and the own id.

    Mutates mem and returns it.
    """
    for v in ids:
        if v is not None and v != self_id:
            mem.add(v)
    return mem


def dr_delegate(self_id: NodeId, w: NodeId, v: NodeId) -> Send:
    """First half of delegating the edge (self, w) to v.

    Sends a reversal request to w; on receipt w introduces itself to v and
    the id w can then be dropped here.
    """
    return (w, Rev(dest=v, payload=(w,)))


def handle_rev(self_id: NodeId, msg: Rev) -> list[Send]:
    """Second half of delegation: introduce on behalf of the requester.

    The named head of the payload forwards the whole payload; any other
    receiver introduces only itself. Nothing is stored locally.
    """
    if msg.dest == self_id:
        return []
    if msg.payload and msg.payload[0] == self_id:
        return [(msg.dest, Base(payload=msg.payload))]
    return [(msg.dest, Base(payload=(self_id,)))]


def base_step(self_id: NodeId, mem: set[NodeId],
              delivered: list[Message]) -> tuple[set[NodeId], list[Send]]:
    """One round of the base algorithm.

    Merges delivered introductions, answers reversal requests, then keeps
    only the closest id on each side and delegates the rest toward their
    sorted positions. The kept neighbours receive the node's own id, so a
    surviving edge becomes known at both ends; without this a crossing
    edge whose holder sees nothing closer would never shorten. Returns
    the new memory and the outgoing sends.
    """
    sends: list[Send] = []
    mem = set(mem)
    for msg in delivered:
        if isinstance(msg, Base):
            for v in msg.payload:
                if v != self_id:
                    mem.add(v)
        elif isinstance(msg, Rev):
            sends.extend(handle_rev(self_id, msg))

    ordered = sorted(mem)
    lset = ordered[:bisect_left(ordered, self_id)]
    rset = ordered[bisect_right(ordered, self_id):]
    new_mem = set()
    if lset:
        new_mem.add(lset[-1])
        sends.append((lset[-1], Base(payload=(self_id,))))
        for i in range(len(lset) - 1):
            sends.append(dr_delegate(self_id, lset[i], lset[i + 1]))
    if rset:
        new_mem.add(rset[0])
        sends.append((rset[0], Base(payload=(self_id,))))
        for i in range(1, len(rset)):
            sends.append(dr_delegate(self_id, rset[i], rset[i - 1]))
    return new_mem, sends
