from qkdsim.dv import INFINITE_METRIC, DvNode, DvRoute


def test_higher_sequence_replaces():
    n = DvNode(0)
    n.process_update(1, [(5, 0, 2)])
    assert n.table[5] == DvRoute(1, 1, 2)
    n.process_update(2, [(5, 3, 4)])
    assert n.table[5] == DvRoute(2, 4, 4)


def test_lower_sequence_ignored():
    n = DvNode(0)
    n.process_update(1, [(5, 0, 4)])
    n.process_update(2, [(5, 0, 2)])
    assert n.table[5].next_hop == 1


def test_equal_sequence_prefers_fewer_hops():
    n = DvNode(0)
    n.process_update(1, [(5, 3, 2)])
    n.process_update(2, [(5, 1, 2)])
    assert n.table[5] == DvRoute(2, 2, 2)
    n.process_update(3, [(5, 2, 2)])
    assert n.table[5].next_hop == 2


def test_two_node_exchange():
    a, b = DvNode(0), DvNode(1)
    b_changed = b.process_update(0, a.full_dump())
    a_changed = a.process_update(1, b.full_dump())
    assert b.table[0] == DvRoute(0, 1, 0)
    assert a.table[1] == DvRoute(1, 1, 0)
    assert b_changed == [0] and a_changed == [1]


def test_poisoning_uses_odd_sequence():
    n = DvNode(0)
    n.process_update(1, [(5, 0, 2)])
    changed = n.mark_link_dead(1)
    assert changed == [5]
    assert n.table[5].metric == INFINITE_METRIC
    assert n.table[5].seq == 3
    assert n.next_hop(5) is None
    assert n.pending_dump() == [(5, INFINITE_METRIC, 3)]  # the poisoned route, not the first


def test_poison_propagates_then_heals():
    n = DvNode(0)
    n.process_update(1, [(5, 0, 2)])
    n.process_update(2, [(5, INFINITE_METRIC, 3)])
    assert n.next_hop(5) is None
    # Destination's next even sequence restores the route.
    n.process_update(2, [(5, 0, 4)])
    assert n.next_hop(5) == 2


def test_own_sequence_bumps_by_two():
    n = DvNode(0)
    n.bump_own_sequence()
    n.bump_own_sequence()
    assert n.table[0] == DvRoute(0, 0, 4)
    assert n.full_dump() == [(0, 0, 4)]


def test_no_change_no_pending():
    n = DvNode(0)
    n.process_update(1, [(5, 0, 2)])
    n.pending.clear()
    n.process_update(2, [(5, 5, 2)])  # worse metric, same seq
    assert n.pending == set()
    assert n.pending_dump() == []


def test_pending_tracks_changes():
    n = DvNode(0)
    n.process_update(1, [(5, 0, 2), (6, 1, 2)])
    assert set(n.pending) == {5, 6}
    assert n.pending_dump() == [(5, 1, 2), (6, 2, 2)]


def test_update_from_current_next_hop_same_state_not_rechanged():
    n = DvNode(0)
    n.process_update(1, [(5, 0, 2)])
    n.pending.clear()
    changed = n.process_update(1, [(5, 0, 2)])
    assert changed == []
