"""Tree labelling and the sequential tree-to-path transformation.

Turns a labelled rooted tree into a directed Hamiltonian path whose
endpoints are determined by the root's label. The supervisor uses this to
lay out an advised path over a network snapshot; the exhaustive driver
checks the transformation against a brute-force validity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Sequence

NodeId = int


@dataclass
class LabelledRootedTree:
    root: NodeId
    parent: dict[NodeId, NodeId]  # vertex -> parent, root absent
    label: dict[NodeId, int]  # vertex -> 0 or 1


def _children_map(root: NodeId, parent: Mapping[NodeId, NodeId]) -> dict[NodeId, list[NodeId]]:
    children: dict[NodeId, list[NodeId]] = {root: []}
    for v in parent:
        children.setdefault(v, [])
    for v, p in parent.items():
        if p not in children:
            raise ValueError("parent %r of %r is not a vertex" % (p, v))
        children[p].append(v)
    for c in children.values():
        c.sort()
    return children


def orient(adj: Sequence[Sequence[NodeId]] | Mapping[NodeId, Sequence[NodeId]],
           root: NodeId) -> tuple[dict[NodeId, NodeId], dict[NodeId, int]]:
    """Parent and depth maps of a breadth-first search from root that
    visits each vertex's neighbours in the order adj[v] lists them."""
    parent: dict[NodeId, NodeId] = {}
    depth = {root: 0}
    queue = [root]
    for v in queue:
        d = depth[v] + 1
        for w in adj[v]:
            if w not in depth:
                depth[w] = d
                parent[w] = v
                queue.append(w)
    return parent, depth


def label_tree(root: NodeId, parent: Mapping[NodeId, NodeId], root_label: int) -> LabelledRootedTree:
    """Label every vertex with its depth parity relative to root_label."""
    if root_label not in (0, 1):
        raise ValueError("root_label must be 0 or 1")
    if root in parent:
        raise ValueError("root must not have a parent entry")
    children = _children_map(root, parent)
    _parent, depth = orient(children, root)
    if len(depth) != len(children):
        raise ValueError("input is not a tree: some vertices unreachable from root")
    label = {v: root_label ^ (d & 1) for v, d in depth.items()}
    return LabelledRootedTree(root=root, parent=dict(parent), label=label)


def tree_to_path(tree: LabelledRootedTree) -> list[NodeId]:
    """Transform a labelled rooted tree into a directed path of all vertices.

    Each non-root vertex contributes exactly one directed edge, chosen from
    four cases by its label, its same-side siblings and its children. For a
    root labelled 0 the path runs root .. min(children(root)); for a root
    labelled 1 it runs max(children(root)) .. root.
    """
    root = tree.root
    parent = tree.parent
    label = tree.label
    n = len(label)
    if n < 2:
        raise ValueError("transformation needs at least 2 vertices")
    children = _children_map(root, parent)
    for v, p in parent.items():
        if label[v] != 1 - label[p]:
            raise ValueError("labels do not alternate at %r" % (v,))

    succ: dict[NodeId, NodeId] = {}
    for v in label:
        if v == root:
            continue
        p = parent[v]
        sibs = children[p]
        i = sibs.index(v)
        cv = children[v]
        if label[v] == 1:
            # nearest right sibling if any, else the parent, points at v or
            # at v's largest child
            a = sibs[i + 1] if i + 1 < len(sibs) else p
            b = v if not cv else cv[-1]
        else:
            # v or v's smallest child points at the nearest left sibling,
            # else at the parent
            b = sibs[i - 1] if i > 0 else p
            a = v if not cv else cv[0]
        succ[a] = b

    beg = root if label[root] == 0 else children[root][-1]
    path = [beg]
    cur = beg
    for _ in range(n - 1):
        cur = succ[cur]
        path.append(cur)
    return path


def oracle_is_valid_output(tree: LabelledRootedTree, path: list[NodeId]) -> bool:
    """Judge a candidate path independently of how it was produced.

    Valid means: a directed Hamiltonian path over the tree's vertex set
    whose endpoints match the root-label rule (begin at root and end at the
    root's smallest child for label 0; begin at the root's largest child and
    end at the root for label 1).
    """
    verts = tree.label
    if len(path) != len(verts):
        return False
    seen = set(path)
    if len(seen) != len(path) or seen != set(verts):
        return False
    croot = sorted(c for c, p in tree.parent.items() if p == tree.root)
    if not croot:
        return False
    if tree.label[tree.root] == 0:
        return path[0] == tree.root and path[-1] == croot[0]
    return path[0] == croot[-1] and path[-1] == tree.root


def decode_pruefer(seq: Sequence[int], n: int) -> list[list[int]]:
    """Decode a Pruefer sequence of length n - 2 (n >= 2) into an adjacency
    list on vertices 0..n-1; each step joins the smallest remaining leaf."""
    adj: list[list[int]] = [[] for _ in range(n)]
    deg = [1] * n
    for a in seq:
        deg[a] += 1
    ptr = 0
    leaf = -1
    for a in seq:
        if leaf == -1:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        adj[leaf].append(a)
        adj[a].append(leaf)
        deg[leaf] = 0
        deg[a] -= 1
        if deg[a] == 1 and a < ptr:
            leaf = a
        else:
            leaf = -1
    u = deg.index(1)
    v = deg.index(1, u + 1)
    adj[u].append(v)
    adj[v].append(u)
    return adj


def enumerate_labelled_trees(max_n: int) -> Iterator[LabelledRootedTree]:
    """Yield every rooted labelled tree on 2..max_n vertices, both root labels.

    Unrooted trees come from Pruefer sequences (n^(n-2) of them); each is
    rooted at every vertex and labelled with root_label 0 and 1.
    """
    if max_n > 9:
        raise ValueError("refusing to enumerate beyond 9 vertices")
    for n in range(2, max_n + 1):
        for seq in product(range(n), repeat=n - 2):
            adj = decode_pruefer(seq, n)
            for root in range(n):
                parent, depth = orient(adj, root)
                yield LabelledRootedTree(root, parent, {v: d & 1 for v, d in depth.items()})
                yield LabelledRootedTree(root, parent, {v: 1 - (d & 1) for v, d in depth.items()})


def verify_all_trees(max_n: int) -> int:
    """Run the transformation on every enumerated tree, oracle-checking each.

    Returns the number of instances checked; raises on the first failure.
    """
    count = 0
    for tree in enumerate_labelled_trees(max_n):
        path = tree_to_path(tree)
        if not oracle_is_valid_output(tree, path):
            raise AssertionError(
                "invalid path %r for root=%r parent=%r label=%r"
                % (path, tree.root, tree.parent, tree.label)
            )
        count += 1
    return count
