"""Base linearization algorithm: delegation by reversal.

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


def base_step(self_id: NodeId, mem: set[NodeId],
              delivered: list[Message]) -> tuple[set[NodeId], list[Send]]:
    """One round of the base algorithm.

    Merges delivered introductions and answers each reversal request
    Rev(v) by introducing itself to v, unless v is the node itself. Then
    keeps only the closest id on each side and delegates the rest toward
    their sorted positions: each dropped id w gets Rev(v) for the next id
    v on its way, and its answer hands v the edge. The kept neighbours
    receive the node's own id, so a surviving edge becomes known at both
    ends; without this a crossing edge whose holder sees nothing closer
    would never shorten. The own id sits on neither side, so it is never
    kept. Returns the new memory and the outgoing sends.
    """
    sends: list[Send] = []
    mem = set(mem)
    me = Base(self_id)  # immutable, so one object serves every receiver
    for msg in delivered:
        if isinstance(msg, Base):
            mem.add(msg.id)
        elif isinstance(msg, Rev) and msg.dest != self_id:
            sends.append((msg.dest, me))

    ordered = sorted(mem)
    lset = ordered[:bisect_left(ordered, self_id)]
    rset = ordered[bisect_right(ordered, self_id):]
    new_mem = set()
    if lset:
        new_mem.add(lset[-1])
        sends.append((lset[-1], me))
        for i in range(len(lset) - 1):
            sends.append((lset[i], Rev(lset[i + 1])))
    if rset:
        new_mem.add(rset[0])
        sends.append((rset[0], me))
        for i in range(1, len(rset)):
            sends.append((rset[i], Rev(rset[i - 1])))
    return new_mem, sends
