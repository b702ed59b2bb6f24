"""Base linearization rule and its two-round delegation by reversal."""

from linfly.baseline import base_step, flush
from linfly.core import Base, Rev


def test_flush_adds():
    assert flush(set(), {3}, 1) == {3}


def test_flush_idempotent():
    assert flush({3}, {3}, 1) == {3}


def test_flush_drops_self_and_none():
    assert flush({2}, {1, None, 4}, 1) == {2, 4}


def test_delegate_shape():
    # node 5 hands its edge to 1 over to 2: a reversal request to 1 naming
    # 2, after the introduction to the kept 2
    _, sends = base_step(5, {1, 2}, [])
    assert sends == [(2, Base(id=5)), (1, Rev(dest=2))]


# a reversal request Rev(dest) asks its receiver to introduce itself to dest
def test_handle_rev_other_receiver_introduces_self():
    assert base_step(4, set(), [Rev(dest=2)]) == (set(), [(2, Base(id=4))])


def test_handle_rev_self_destination_suppressed():
    assert base_step(2, set(), [Rev(dest=2)]) == (set(), [])


def test_base_step_left_delegation():
    # neighbors {1, 2} at node 5: keep 2, delegate 1 toward 2
    mem, sends = base_step(5, {1, 2}, [])
    assert mem == {2}
    assert (1, Rev(dest=2)) in sends
    assert (2, Base(id=5)) in sends
    assert len(sends) == 2


def test_base_step_right_delegation_mirrors():
    mem, sends = base_step(5, {7, 9}, [])
    assert mem == {7}
    assert (9, Rev(dest=7)) in sends
    assert (7, Base(id=5)) in sends


def test_base_step_single_neighbor_keeps_and_introduces():
    mem, sends = base_step(5, {6}, [])
    assert mem == {6}
    # no delegation; only the introduction that keeps the edge mutual
    assert sends == [(6, Base(id=5))]


def test_base_step_empty_is_noop():
    assert base_step(5, set(), []) == (set(), [])


def test_base_step_merges_delivered_intros():
    mem, _ = base_step(5, set(), [Base(id=3), Base(id=8)])
    assert mem == {3, 8}


def test_base_step_answers_rev():
    # the answer goes out before the node's own keep and delegate sends
    mem, sends = base_step(4, {1, 3}, [Rev(dest=2)])
    assert mem == {3}
    assert sends == [(2, Base(id=4)), (3, Base(id=4)), (1, Rev(dest=3))]


def test_delegation_net_effect_two_rounds():
    # 5 knows {1, 2}; after delegation and the forwarded introduction, 2
    # learns 1 and the long edge (5, 1) is gone
    mem5, sends5 = base_step(5, {1, 2}, [])
    to_1 = [m for d, m in sends5 if d == 1]
    mem1, sends1 = base_step(1, set(), to_1)
    to_2 = [m for d, m in sends1 if d == 2]
    mem2, _ = base_step(2, set(), to_2)
    assert 1 not in mem5
    assert 1 in mem2


def test_sorted_pair_is_stable():
    mem, sends = base_step(2, {1, 3}, [])
    assert mem == {1, 3}
    assert all(isinstance(m, Base) for _, m in sends)
