"""Pruefer decoding, tree labelling, the tree-to-path transformation, and
its oracle."""

from itertools import product

import pytest

from linfly.ttp import (
    LabelledRootedTree,
    decode_pruefer,
    enumerate_labelled_trees,
    label_tree,
    oracle_is_valid_output,
    tree_to_path,
    verify_all_trees,
)


def test_label_path_alternates():
    t = label_tree(0, {1: 0, 2: 1}, 0)
    assert t.label == {0: 0, 1: 1, 2: 0}


def test_label_star_children_flip():
    t = label_tree(0, {1: 0, 2: 0, 3: 0}, 0)
    assert t.label[0] == 0
    assert all(t.label[c] == 1 for c in (1, 2, 3))


def test_label_single_edge_root_one():
    t = label_tree(0, {1: 0}, 1)
    assert t.label == {0: 1, 1: 0}


def test_label_rejects_bad_root_label():
    with pytest.raises(ValueError):
        label_tree(0, {1: 0}, 2)


def test_label_rejects_unreachable_vertices():
    # 2 and 3 point at each other, never reaching the root
    with pytest.raises(ValueError):
        label_tree(0, {1: 0, 2: 3, 3: 2}, 0)


def test_star_path_descends_children():
    t = label_tree(0, {1: 0, 2: 0, 3: 0}, 0)
    assert tree_to_path(t) == [0, 3, 2, 1]


def test_single_child():
    t = label_tree(0, {1: 0}, 0)
    assert tree_to_path(t) == [0, 1]


def test_two_level_tree_ends_at_min_child():
    # 0 -> 1 -> {2, 3}: the path must end at min(children(0)) = 1
    t = label_tree(0, {1: 0, 2: 1, 3: 1}, 0)
    assert tree_to_path(t) == [0, 3, 2, 1]


def test_root_label_one_runs_into_root():
    t = label_tree(0, {1: 0, 2: 0, 3: 0}, 1)
    p = tree_to_path(t)
    assert p[0] == 3 and p[-1] == 0
    assert oracle_is_valid_output(t, p)


def test_singleton_rejected():
    with pytest.raises(ValueError):
        tree_to_path(LabelledRootedTree(0, {}, {0: 0}))


def test_inconsistent_labels_rejected():
    with pytest.raises(ValueError):
        tree_to_path(LabelledRootedTree(0, {1: 0}, {0: 0, 1: 0}))


def test_path_is_deterministic():
    t = label_tree(0, {1: 0, 2: 1, 3: 1, 4: 0}, 0)
    assert tree_to_path(t) == tree_to_path(t)


def test_oracle_accepts_star_path():
    t = label_tree(0, {1: 0, 2: 0, 3: 0}, 0)
    assert oracle_is_valid_output(t, [0, 3, 2, 1])


def test_oracle_rejects_wrong_endpoint():
    t = label_tree(0, {1: 0, 2: 0, 3: 0}, 0)
    assert not oracle_is_valid_output(t, [0, 1, 2, 3])


def test_oracle_rejects_missing_vertex():
    t = label_tree(0, {1: 0, 2: 0, 3: 0}, 0)
    assert not oracle_is_valid_output(t, [0, 3, 2])


def test_oracle_rejects_duplicates():
    t = label_tree(0, {1: 0, 2: 0, 3: 0}, 0)
    assert not oracle_is_valid_output(t, [0, 3, 3, 1])


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
