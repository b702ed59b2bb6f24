"""Advice computation and the supervisor round machine.

The honest supervisor waits for every node to become attentive, broadcasts a
snapshot request, rebuilds the union graph from the Neighborhood reports, and
answers with per-node advice: a position on a spanning-tree linearization
plus a certificate of the sorted-path tree. Malicious strategies reuse the
same request/collect machinery but distort the advice payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .core import (
    Advice,
    Message,
    Neighborhood,
    NodeId,
    RequestSnapshot,
    bfs_distances,
    orient,
    undirected,
)
from .ttp import LabelledRootedTree, tree_to_path


@dataclass
class SupervisorState:
    membership: set[NodeId]
    strategy: Optional[str] = None  # None: honest
    phase: str = "idle"  # idle | waiting | collecting
    collected: dict[NodeId, frozenset] = field(default_factory=dict)
    advice_rounds: list[int] = field(default_factory=list)
    round_no: int = 0


def make_supervisor(membership, mode: str = "honest",
                    strategy: Optional[str] = None) -> SupervisorState:
    if strategy is not None and strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if mode not in ("honest", "malicious"):
        raise ValueError(f"unknown supervisor mode {mode!r}")
    if mode == "malicious" and strategy is None:
        raise ValueError("malicious mode needs a strategy")
    if mode == "honest" and strategy is not None:
        raise ValueError("honest mode takes no strategy")
    return SupervisorState(membership=set(membership), strategy=strategy)


def snapshot_graph(collected: dict[NodeId, frozenset],
                   membership: set[NodeId]) -> dict[NodeId, set[NodeId]]:
    """Union the reported memberships into an undirected graph; ids
    outside the membership, as reporter or as reported, are ignored."""
    return undirected({u: {v for v in collected.get(u, ())
                           if v in membership and v != u}
                       for u in sorted(membership)})


def compute_advice(snapshot: dict[NodeId, set[NodeId]]) -> dict[NodeId, Advice]:
    """Honest advice: spanning-tree path positions plus sorted-path
    certificate, both rooted at the least id."""
    ids = sorted(snapshot)
    if len(ids) < 2:
        raise ValueError("advice needs at least two nodes")
    root = ids[0]
    parent, depth = orient({u: sorted(vs) for u, vs in snapshot.items()}, root)
    if len(depth) != len(ids):
        raise ValueError("snapshot is disconnected")
    path = tree_to_path(LabelledRootedTree(root, parent, {v: d & 1 for v, d in depth.items()}))
    vid = {v: i + 1 for i, v in enumerate(path)}
    out = {root: Advice(vid=vid[root], c_par=0, c_dist=0, par=None, dist=0)}
    for r, v in enumerate(ids[1:], 1):
        out[v] = Advice(vid=vid[v], c_par=vid[ids[r - 1]], c_dist=r,
                        par=parent[v], dist=depth[v])
    return out


def _strategy_split(snapshot, membership) -> dict[NodeId, Advice]:
    """Advise two disjoint paths over the id halves, without any cross edge."""
    ids = sorted(membership)
    halves = [ids[: len(ids) // 2], ids[len(ids) // 2:]]
    out: dict[NodeId, Advice] = {}
    for half in halves:
        if len(half) < 2:
            continue
        sub = {u: snapshot[u] & set(half) for u in half}
        comp = set(bfs_distances(sub, half[0]))
        if len(comp) < 2:
            continue
        part = {u: snapshot[u] & comp for u in sorted(comp)}
        out.update(compute_advice(part))
    return out


def _strategy_sybil(snapshot, membership) -> dict[NodeId, Advice]:
    phantom = max(membership) + 10 ** 6
    return {u: Advice(vid=2, c_par=1, c_dist=1, par=phantom, dist=1)
            for u in sorted(membership)}


def _strategy_wrong_vids(snapshot, membership) -> dict[NodeId, Advice]:
    out = compute_advice(snapshot)
    victim = max(out, key=lambda u: out[u].vid)
    out[victim] = replace(out[victim], vid=2 if out[victim].vid >= 3 else 3)
    return out


def _strategy_cycle(snapshot, membership) -> dict[NodeId, Advice]:
    out = compute_advice(snapshot)
    # the three largest non-root ids; only the root is advised no parent
    ring = sorted(u for u in out if out[u].par is not None)[-3:]
    vids = [out[u].vid for u in ring]
    shared = max(out[u].c_dist for u in ring)
    for i, u in enumerate(ring):
        out[u] = replace(out[u], c_par=vids[(i - 1) % len(ring)], c_dist=shared)
    return out


def _strategy_partial(snapshot, membership) -> dict[NodeId, Advice]:
    out = compute_advice(snapshot)
    out.pop(max(out))
    return out


def _strategy_stale(snapshot, membership) -> dict[NodeId, Advice]:
    """Advise on a perturbed snapshot: one edge dropped, or added if the
    drop would disconnect the graph."""
    adj = {u: set(vs) for u, vs in snapshot.items()}
    edges = sorted({(min(u, v), max(u, v))
                    for u, vs in adj.items() for v in vs})
    if edges:
        a, b = edges[-1]
        adj[a].discard(b)
        adj[b].discard(a)
        if len(bfs_distances(adj, a)) < len(adj):
            adj[a].add(b)
            adj[b].add(a)
            ids = sorted(adj)
            for u in ids:
                w = next((v for v in ids if v != u and v not in adj[u]), None)
                if w is not None:
                    adj[u].add(w)
                    adj[w].add(u)
                    break
    return compute_advice(adj)


_STRATEGY_FNS = {
    "split": _strategy_split,
    "sybil": _strategy_sybil,
    "wrong_vids": _strategy_wrong_vids,
    "cycle": _strategy_cycle,
    "partial": _strategy_partial,
    "stale": _strategy_stale,
}

STRATEGIES = tuple(_STRATEGY_FNS)


def malicious_step(strategy: str, membership: set[NodeId],
                   snapshot: dict[NodeId, set[NodeId]]) -> dict[NodeId, Advice]:
    """Advice payloads for one adversarial strategy at the advising moment."""
    if strategy not in _STRATEGY_FNS:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _STRATEGY_FNS[strategy](snapshot, membership)


def honest_step(state: SupervisorState,
                inbound: list[tuple[NodeId, Message]],
                attentive: set[NodeId],
                ) -> tuple[SupervisorState, list[tuple[NodeId, Message]]]:
    """One supervisor round: collect reports, advise, or wait.

    Also drives the malicious modes; they differ only in the advice payload.
    Supervisor-to-node messages returned here reach the nodes this round.
    """
    out: list[tuple[NodeId, Message]] = []
    if state.phase == "collecting":
        for sender, msg in inbound:
            if isinstance(msg, Neighborhood) and sender in state.membership:
                state.collected[sender] = frozenset(msg.members)
        snap = snapshot_graph(state.collected, state.membership)
        if (set(state.collected) == state.membership
                and len(bfs_distances(snap, min(snap))) == len(snap)):
            if state.strategy is None:
                advice = compute_advice(snap)
            else:
                advice = malicious_step(state.strategy, state.membership, snap)
            for u in sorted(advice):
                out.append((u, advice[u]))
            state.advice_rounds.append(state.round_no)
            state.phase = "idle"
        else:
            state.phase = "waiting"
        state.collected = {}
    if state.phase == "idle" and len(state.membership) >= 2 and attentive:
        state.phase = "waiting"
    if state.phase == "waiting":
        if attentive >= state.membership:
            for u in sorted(state.membership):
                out.append((u, RequestSnapshot()))
            state.phase = "collecting"
    state.round_no += 1
    return state, out
