from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdvote.population import Partition
from oracles import check_partition, live_groups


def test_singletons_smallest():
    p = Partition.singletons(1)
    g, size = p.group_of(0)
    assert size == 1
    assert p.size_histogram() == {1: 1}


def test_singletons_histogram():
    p = Partition.singletons(5)
    assert p.size_histogram() == {1: 5}
    assert len(live_groups(p)) == 5


def test_singletons_at_scale():
    p = Partition.singletons(100_000)
    hist = p.size_histogram()
    assert hist == {1: 100_000}
    assert sum(s * c for s, c in hist.items()) == 100_000


def test_zero_agents_rejected():
    with pytest.raises(ValueError):
        Partition.singletons(0)


def test_group_of_after_merge():
    p = Partition.singletons(10)
    # build groups of sizes 2 and 3, then merge them
    a = p.merge(p.group_of(0)[0], p.group_of(1)[0])
    b = p.merge(p.group_of(2)[0], p.group_of(3)[0])
    b = p.merge(b, p.group_of(4)[0])
    assert p.size_of(a) == 2 and p.size_of(b) == 3
    merged = p.merge(a, b)
    for agent in range(5):
        g, size = p.group_of(agent)
        assert g == merged
        assert size == 5


def test_group_of_stable_without_mutation():
    p = Partition.singletons(4)
    g1, _ = p.group_of(2)
    g2, _ = p.group_of(2)
    assert g1 == g2


def test_merge_sizes_and_conservation():
    p = Partition.singletons(11)
    g1 = p.group_of(0)[0]
    for agent in range(1, 4):
        g1 = p.merge(g1, p.group_of(agent)[0])
    g2 = p.group_of(4)[0]
    for agent in range(5, 11):
        g2 = p.merge(g2, p.group_of(agent)[0])
    assert p.size_of(g1) == 4 and p.size_of(g2) == 7
    g = p.merge(g1, g2)
    assert p.size_of(g) == 11
    assert sum(s * c for s, c in p.size_histogram().items()) == 11
    check_partition(p)


def test_merge_self_rejected():
    p = Partition.singletons(2)
    g = p.merge(p.group_of(0)[0], p.group_of(1)[0])
    with pytest.raises(ValueError):
        p.merge(g, g)


def test_merge_commutative_in_effect():
    def build():
        p = Partition.singletons(6)
        a = p.merge(p.group_of(0)[0], p.group_of(1)[0])
        b = p.merge(p.group_of(2)[0], p.group_of(3)[0])
        b = p.merge(b, p.group_of(4)[0])
        return p, a, b

    p1, a1, b1 = build()
    g1 = p1.merge(a1, b1)
    p2, a2, b2 = build()
    g2 = p2.merge(b2, a2)
    assert sorted(p1.members(g1)) == sorted(p2.members(g2))


def test_fragment_singleton_is_identity():
    p = Partition.singletons(3)
    g, _ = p.group_of(0)
    assert p.fragment(g) == 1
    assert p.size_histogram() == {1: 3}


def test_fragment_returns_size_and_updates_histogram():
    p = Partition.singletons(10)
    g = p.group_of(0)[0]
    for agent in range(1, 6):
        g = p.merge(g, p.group_of(agent)[0])
    assert p.size_histogram() == {6: 1, 1: 4}
    assert p.fragment(g) == 6
    assert p.size_histogram() == {1: 10}
    check_partition(p)


def test_fragment_then_remerge_conserves():
    p = Partition.singletons(8)
    g = p.group_of(0)[0]
    for agent in range(1, 8):
        g = p.merge(g, p.group_of(agent)[0])
        assert sum(s * c for s, c in p.size_histogram().items()) == 8
    p.fragment(g)
    assert sum(s * c for s, c in p.size_histogram().items()) == 8
    pairs = [(p.group_of(2 * i)[0], p.group_of(2 * i + 1)[0]) for i in range(4)]
    for a, b in pairs:
        p.merge(a, b)
        assert sum(s * c for s, c in p.size_histogram().items()) == 8
    assert p.size_histogram() == {2: 4}


def test_random_mutation_sequence_keeps_invariants():
    """Merge/fragment fuzzing: every agent stays in exactly one group."""
    rng = np.random.default_rng(123)
    p = Partition.singletons(60)
    for _ in range(2000):
        agent = int(rng.integers(0, 60))
        g, size = p.group_of(agent)
        if rng.random() < 0.35 and size > 1:
            p.fragment(g)
        else:
            other = int(rng.integers(0, 60))
            g2, _ = p.group_of(other)
            if g2 != g:
                p.merge(g, g2)
        assert sum(s * c for s, c in p.size_histogram().items()) == 60
    check_partition(p)


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(1, 40),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 39), st.integers(0, 39)), max_size=150),
)
def test_random_merge_fragment_sequences_match_a_set_model(n, ops):
    """After every operation the invariants hold (each live handle is one of
    its own members) and the groups, their sizes, the group count and the
    size histogram equal those of a plain set model."""
    p = Partition.singletons(n)
    model = {a: frozenset((a,)) for a in range(n)}
    for is_merge, a, b in ops:
        a, b = a % n, b % n
        g, _ = p.group_of(a)
        if is_merge:
            g2, _ = p.group_of(b)
            if g2 == g:
                continue
            survivor = p.merge(g, g2)
            union = model[a] | model[b]
            assert survivor in union
            for agent in union:
                model[agent] = union
        else:
            group = model[a]
            assert p.fragment(g) == len(group)
            for agent in group:
                model[agent] = frozenset((agent,))
                assert p.group_of(agent) == (agent, 1)  # a singleton is named by its agent
        check_partition(p)
        for agent in range(n):
            assert frozenset(p.members(p.group_of(agent)[0])) == model[agent]
        groups = set(model.values())
        handles = live_groups(p)
        assert sorted(sorted(p.members(h)) for h in handles) == sorted(map(sorted, groups))
        for h in handles:
            assert p.size_of(h) == len(p.members(h))
        assert len(groups) == len(handles)
        assert p.size_histogram() == dict(Counter(map(len, groups)))
    assert len(live_groups(p)) == len(set(model.values()))


def test_check_invariants_catches_a_foreign_handle():
    p = Partition.singletons(3)
    p.merge(0, 1)  # the pair {0, 1} under handle 0, the singleton 2
    # file the pair under handle 2 and point its members there: each listed
    # agent points to its list, but the handle is not one of its members
    p._members = {2: p._members.pop(0)}
    p._group_of[:] = [2, 2, 2]
    p._size[2] = 2
    p._n_single = 0
    with pytest.raises(AssertionError, match="own members"):
        check_partition(p)


def test_check_invariants_catches_a_stale_size():
    p = Partition.singletons(5)
    g = p.merge(p.merge(0, 1), 2)
    check_partition(p)
    p._size[g] = 2  # a group of three that says two
    with pytest.raises(AssertionError, match="its size says 2"):
        check_partition(p)
    p._size[g] = 3
    p._size[4] = 3  # a singleton with the size of a trio
    with pytest.raises(AssertionError, match="singleton 4 has size 3"):
        check_partition(p)
    p._size[4] = 1
    check_partition(p)
    p._size[1] = 7  # a non-handle's entry is never read
    check_partition(p)


def test_check_invariants_catches_a_wrong_singleton_count():
    p = Partition.singletons(4)
    p.merge(0, 1)
    p._n_single += 1
    with pytest.raises(AssertionError, match="2 singletons, the count says 3"):
        check_partition(p)


def test_check_invariants_catches_a_singleton_with_a_member_list():
    p = Partition.singletons(4)
    p._members[3] = [3]
    with pytest.raises(AssertionError, match="holds a member list"):
        check_partition(p)


def test_handles_that_are_not_live_are_refused():
    p = Partition.singletons(4)
    g = p.merge(0, 1)
    dead = 1 - g
    for op in (p.size_of, p.members, p.fragment):
        with pytest.raises(KeyError):
            op(dead)
    with pytest.raises(KeyError):
        p.merge(dead, 2)
    check_partition(p)
