import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdvote.population import Partition
from oracles import check_partition, named_cases


def assert_matches_set_model(n, ops):
    """Apply `ops` to a fresh partition of n agents and to a plain set model.

    `(True, a, b)` merges the groups of agents a and b, and a merge of a
    group with itself is refused and changes nothing; `(False, a, _)`
    fragments the group of a.  Agents are taken mod n.  On the fresh
    partition and after every operation the invariants hold (each live
    handle is one of its own members), a merge returns the union's handle
    and a fragment the group's size, and the groups, their sizes, the group
    count and the size histogram equal those of the model.  A singleton is
    named by its agent, and a handle a merge retires is refused.
    """
    p = Partition.singletons(n)
    model = {a: frozenset((a,)) for a in range(n)}
    for op in (None, *ops):  # None: the fresh partition
        if op is not None:
            is_merge, a, b = op
            a, b = a % n, b % n
            g, g2 = p.group_of(a)[0], p.group_of(b)[0]
            if not is_merge:
                group = model[a]
                assert p.fragment(g) == len(group)
                for agent in group:
                    model[agent] = frozenset((agent,))
            elif g2 == g:
                with pytest.raises(ValueError):
                    p.merge(g, g)
            else:
                survivor = p.merge(g, g2)
                union = model[a] | model[b]
                assert survivor in union and p.group_of(a)[0] == survivor
                for refused in (p.size_of, p.members, p.fragment, lambda h: p.merge(h, survivor)):
                    with pytest.raises(KeyError):
                        refused(g + g2 - survivor)  # the retired handle
                for agent in union:
                    model[agent] = union
        check_partition(p)
        for agent in range(n):
            g, size = p.group_of(agent)
            assert frozenset(p.members(g)) == model[agent]
            assert size == p.size_of(g) == len(model[agent]) and (size > 1 or g == agent)
        groups = set(model.values())
        handles = [a for a in range(n) if p.group_of(a)[0] == a]
        assert {frozenset(p.members(h)) for h in handles} == groups
        assert len(handles) == len(groups)
        assert p.size_histogram() == dict(Counter(map(len, groups)))


@settings(max_examples=200)
@given(
    n=st.integers(1, 40),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 39), st.integers(0, 39)), max_size=150),
)
def test_random_merge_fragment_sequences_match_a_set_model(n, ops):
    assert_matches_set_model(n, ops)


def fuzz_ops(seed, n, count):
    """A merge/fragment fuzz sequence: pick an agent; with probability 0.35,
    if its group has two or more agents, fragment that group, else merge it
    with the group of another random agent.  The sizes come from groups
    kept as sets alongside."""
    rng = np.random.default_rng(seed)
    group = {a: {a} for a in range(n)}
    ops = []
    for _ in range(count):
        a = int(rng.integers(0, n))
        fragment = rng.random() < 0.35 and len(group[a]) > 1
        b = a if fragment else int(rng.integers(0, n))
        ops.append((not fragment, a, b))
        members = group[a] | group[b]
        for agent in members:
            group[agent] = {agent} if fragment else members
    return ops


# Named cases of the set model, each collected under the name of the test it
# replaces: a population size and its operations, as `assert_matches_set_model`
# reads them.
SET_MODEL_CASES = {
    "test_singletons_smallest": (1, []),
    "test_singletons_histogram": (5, []),
    "test_singletons_at_scale": (100_000, []),
    "test_group_of_stable_without_mutation": (4, [(True, 2, 2)]),
    # groups of sizes 2 and 3, then their union
    "test_group_of_after_merge": (10, [(True, 0, 1), (True, 2, 3), (True, 2, 4), (True, 0, 2)]),
    # groups of sizes 4 and 7, then their union
    "test_merge_sizes_and_conservation": (
        11, [*((True, 0, a) for a in range(1, 4)), *((True, 4, a) for a in range(5, 11)),
             (True, 0, 4)]),
    "test_merge_self_rejected": (2, [(True, 0, 1), (True, 1, 0)]),
    # the pair merged with the trio, then, rebuilt, the trio with the pair
    "test_merge_commutative_in_effect": (
        6, [(True, 0, 1), (True, 2, 3), (True, 2, 4), (True, 0, 2), (False, 0, 0),
            (True, 0, 1), (True, 2, 3), (True, 2, 4), (True, 2, 0)]),
    "test_fragment_singleton_is_identity": (3, [(False, 0, 0)]),
    "test_fragment_returns_size_and_updates_histogram": (
        10, [*((True, 0, a) for a in range(1, 6)), (False, 0, 0)]),
    # one group of all eight, its fragments, then four pairs
    "test_fragment_then_remerge_conserves": (
        8, [*((True, 0, a) for a in range(1, 8)), (False, 0, 0),
            *((True, 2 * i, 2 * i + 1) for i in range(4))]),
    "test_random_mutation_sequence_keeps_invariants": (60, fuzz_ops(123, 60, 2000)),
    "test_handles_that_are_not_live_are_refused": (4, [(True, 0, 1), (True, 2, 0)]),
}


named_cases(globals(), assert_matches_set_model, SET_MODEL_CASES)


def test_zero_agents_rejected():
    with pytest.raises(ValueError):
        Partition.singletons(0)


# Damaged partitions `check_partition` must refuse, each collected under the
# name of the test it replaces.  A row sets fields of the partition of five
# agents whose group {0, 1, 2} has handle 0, and gives the message the check
# raises (None: the partition passes).
CORRUPTIONS = {
    # the trio filed under handle 3 with its members pointing there: each
    # listed agent points to its list, but the handle is not one of its members
    "test_check_invariants_catches_a_foreign_handle": [
        (dict(_members={3: [0, 1, 2]}, _group_of=[3, 3, 3, 3, 4], _size=[3, 1, 1, 3, 1],
              _n_single=1), "handle 3 is not one of its own members [0, 1, 2]")],
    "test_check_invariants_catches_a_stale_size": [
        (dict(_size=[2, 1, 1, 1, 1]), "group 0 has 3 members, its size says 2"),
        (dict(_size=[3, 1, 1, 1, 3]), "singleton 4 has size 3"),
        (dict(_size=[3, 7, 1, 1, 1]), None)],  # a non-handle's entry is never read
    "test_check_invariants_catches_a_wrong_singleton_count": [
        (dict(_n_single=3), "2 singletons, the count says 3")],
    "test_check_invariants_catches_a_singleton_with_a_member_list": [
        (dict(_members={0: [0, 1, 2], 3: [3]}), "group 3 of size 1 holds a member list")],
}


def assert_check_refuses(fields, message):
    p = Partition.singletons(5)
    p.merge(p.merge(0, 1), 2)
    check_partition(p)
    for name, value in fields.items():
        setattr(p, name, value)
    if message is None:
        check_partition(p)
    else:
        with pytest.raises(AssertionError, match=re.escape(message)):
            check_partition(p)


named_cases(globals(), assert_check_refuses, CORRUPTIONS)
