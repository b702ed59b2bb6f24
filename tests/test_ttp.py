"""Pruefer decoding, breadth-first orientation, the tree-to-path
transformation, and its oracle."""

from itertools import product

import pytest

from linfly import ttp
from linfly.ttp import (
    LabelledRootedTree,
    decode_pruefer,
    enumerate_labelled_trees,
    oracle_is_valid_output,
    orient,
    tree_to_path,
    verify_all_trees,
)


# trees with their depth-parity labels written out
STAR = ({1: 0, 2: 0, 3: 0}, {0: 0, 1: 1, 2: 1, 3: 1})


def test_star_path_descends_children():
    t = LabelledRootedTree(0, *STAR)
    assert tree_to_path(t) == [0, 3, 2, 1]


def test_single_child():
    t = LabelledRootedTree(0, {1: 0}, {0: 0, 1: 1})
    assert tree_to_path(t) == [0, 1]


def test_two_level_tree_ends_at_min_child():
    # 0 -> 1 -> {2, 3}: the path must end at min(children(0)) = 1
    t = LabelledRootedTree(0, {1: 0, 2: 1, 3: 1}, {0: 0, 1: 1, 2: 0, 3: 0})
    assert tree_to_path(t) == [0, 3, 2, 1]


def test_root_label_one_runs_into_root():
    t = LabelledRootedTree(0, {1: 0, 2: 0, 3: 0}, {0: 1, 1: 0, 2: 0, 3: 0})
    p = tree_to_path(t)
    assert p[0] == 3 and p[-1] == 0
    assert oracle_is_valid_output(t, p)


def test_singleton_rejected():
    with pytest.raises(ValueError):
        tree_to_path(LabelledRootedTree(0, {}, {0: 0}))


def test_inconsistent_labels_rejected():
    with pytest.raises(ValueError):
        tree_to_path(LabelledRootedTree(0, {1: 0}, {0: 0, 1: 0}))


def test_unknown_parent_rejected():
    with pytest.raises(ValueError, match="parent 5 of 1 is not a vertex"):
        tree_to_path(LabelledRootedTree(0, {1: 5}, {0: 0, 1: 1}))


def test_path_is_deterministic():
    t = LabelledRootedTree(0, {1: 0, 2: 1, 3: 1, 4: 0}, {0: 0, 1: 1, 2: 0, 3: 0, 4: 1})
    assert tree_to_path(t) == tree_to_path(t)


def test_oracle_accepts_star_path():
    t = LabelledRootedTree(0, *STAR)
    assert oracle_is_valid_output(t, [0, 3, 2, 1])


def test_oracle_rejects_wrong_endpoint():
    t = LabelledRootedTree(0, *STAR)
    assert not oracle_is_valid_output(t, [0, 1, 2, 3])


def test_oracle_rejects_missing_vertex():
    t = LabelledRootedTree(0, *STAR)
    assert not oracle_is_valid_output(t, [0, 3, 2])


def test_oracle_rejects_duplicates():
    t = LabelledRootedTree(0, *STAR)
    assert not oracle_is_valid_output(t, [0, 3, 3, 1])


def test_oracle_rejects_a_root_without_children():
    assert not oracle_is_valid_output(LabelledRootedTree(0, {}, {0: 0}), [0])


def test_enumeration_counts():
    trees = list(enumerate_labelled_trees(3))
    # 2 vertices: one shape, two roots, two labellings
    assert sum(1 for t in trees if len(t.label) == 2) == 4
    # 3 vertices: 3^(3-2) * 3 roots = 9 rooted trees per root label
    big = [t for t in trees if len(t.label) == 3]
    assert sum(1 for t in big if t.label[t.root] == 0) == 9
    assert sum(1 for t in big if t.label[t.root] == 1) == 9


def test_enumeration_empty_below_two():
    assert list(enumerate_labelled_trees(1)) == []


def test_enumeration_caps_at_nine():
    with pytest.raises(ValueError):
        next(enumerate_labelled_trees(10))


def test_exhaustive_up_to_five():
    # instances: 4 + 18 + 128 + 1250; the full <= 8 sweep runs in acceptance
    assert verify_all_trees(5) == 1400


def test_verify_all_trees_raises_on_a_wrong_path(monkeypatch):
    # criterion 01's negative control: a reversed path breaks the endpoint
    # rule on every tree, so the sweep must stop at the first one
    real = ttp.tree_to_path
    monkeypatch.setattr(ttp, "tree_to_path", lambda tree: real(tree)[::-1])
    with pytest.raises(AssertionError, match="invalid path"):
        verify_all_trees(3)


# --- Pruefer decoding --------------------------------------------------------


def _pruefer_encode(adj: list[list[int]]) -> tuple[int, ...]:
    """Pruefer sequence of a tree: strip the smallest leaf n - 2 times,
    recording its neighbour each time."""
    nbrs = [set(vs) for vs in adj]
    seq = []
    for _ in range(len(adj) - 2):
        leaf = min(v for v, vs in enumerate(nbrs) if len(vs) == 1)
        (p,) = nbrs[leaf]
        seq.append(p)
        nbrs[p].discard(leaf)
        nbrs[leaf].clear()
    return tuple(seq)


def test_decode_pruefer_inverts_the_encoding():
    count = 0
    for n in range(2, 8):
        for seq in product(range(n), repeat=n - 2):
            adj = decode_pruefer(seq, n)
            edges = {(min(u, v), max(u, v)) for u, vs in enumerate(adj) for v in vs}
            assert len(edges) == n - 1 and all(u != v for u, v in edges)
            assert sum(map(len, adj)) == 2 * (n - 1)
            assert _pruefer_encode(adj) == seq
            count += 1
    assert count == 18248


# --- rooting -----------------------------------------------------------------


def _dfs_orient(adj, root):
    """Parent and depth maps by a depth-first search that keeps its
    frontier on a stack."""
    parent, depth = {}, {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in depth:
                parent[w], depth[w] = v, depth[v] + 1
                stack.append(w)
    return parent, depth


def test_orient_is_breadth_first_on_a_cycle():
    # 0-1-2-3-0 with sorted neighbours: breadth-first reaches 2 through 1,
    # the depth-first search through 3, which it pops first
    cycle = [[1, 3], [0, 2], [1, 3], [0, 2]]
    parent, depth = orient(cycle, 0)
    assert parent == {1: 0, 3: 0, 2: 1}
    assert depth == {0: 0, 1: 1, 3: 1, 2: 2}
    assert _dfs_orient(cycle, 0)[0][2] == 3


def test_orient_matches_depth_first_on_every_small_tree():
    count = 0
    for n in range(2, 7):
        for seq in product(range(n), repeat=n - 2):
            adj = decode_pruefer(seq, n)
            for root in range(n):
                assert orient(adj, root) == _dfs_orient(adj, root), (seq, root)
                count += 1
    assert count == sum(n ** (n - 1) for n in range(2, 7))
