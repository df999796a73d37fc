"""Dynamic partition of agents into groups.

The simulation's hot data structure: N agents, each in exactly one group.
Groups merge (two groups become one) and fragment (one group becomes
singletons) millions of times per run, and a uniformly random agent must be
drawn cheaply at every step.  A union-find structure cannot support
fragmentation (there is no de-union), so the partition is kept as a
per-agent group-handle array plus dense per-group member lists:

    * group lookup for an agent:    O(1)
    * merge of groups (s1, s2):     O(min(s1, s2))   (smaller list moves)
    * fragment of a group of s:     O(s)
    * uniform random agent:         O(1)

A group's handle is one of its own members, so a singleton's handle is its
agent id and no handle is ever allocated: a merge keeps the handle of the
larger group, and a fragment turns every member into its own handle.  The
handle of a group changes only when the group does; callers must not keep
one across a merge or fragment.
A Partition is single-writer: mutate it from one thread only.

The simulation loop (`engine.advance`) applies merges to `_group_of` and
`_members` inline, by the rules of `merge` below, and calls `fragment`.
`merge` remains the reference: the per-step oracles (`engine.step`,
`ez.ez_step`) call it, and tests hold the loop to it.
"""

from __future__ import annotations

from collections import Counter


class Partition:
    """Mutable partition of agents 0..n-1 into groups of size >= 1."""

    __slots__ = ("n_agents", "_group_of", "_members")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one agent, got n={n}")
        self.n_agents = n
        self._group_of = list(range(n))
        self._members = {g: [g] for g in self._group_of}  # shares the int objects

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        """Fresh partition with every agent alone in its own group."""
        return cls(n)

    # -- queries ---------------------------------------------------------

    @property
    def n_groups(self) -> int:
        return len(self._members)

    def group_ids(self):
        """Live group handles (iteration order is insertion order)."""
        return self._members.keys()

    def group_of(self, agent: int) -> tuple[int, int]:
        """Return (group handle, group size) for an agent."""
        g = self._group_of[agent]
        return g, len(self._members[g])

    def members(self, group: int) -> list[int]:
        """Member list of a live group.  Do not mutate the returned list."""
        return self._members[group]

    def size_of(self, group: int) -> int:
        return len(self._members[group])

    def pick_random_agent(self, rng) -> int:
        """Uniformly random agent id, O(1)."""
        return int(rng.integers(0, self.n_agents))

    def size_histogram(self) -> dict[int, int]:
        """Map group size -> number of groups of that size."""
        return dict(Counter(len(m) for m in self._members.values()))

    # -- mutations -------------------------------------------------------

    def merge(self, g1: int, g2: int) -> int:
        """Merge two distinct live groups; returns the handle of the union.

        The smaller member list is moved into the larger, so the cost is
        O(min(s1, s2)).  The union keeps the larger group's handle; the
        other handle is retired.
        """
        if g1 == g2:
            raise ValueError("cannot merge a group with itself")
        m1 = self._members[g1]
        m2 = self._members[g2]
        if len(m1) < len(m2):
            g1, g2, m1, m2 = g2, g1, m2, m1
        group_of = self._group_of
        for a in m2:
            group_of[a] = g1
        m1.extend(m2)
        del self._members[g2]
        return g1

    def fragment(self, group: int) -> int:
        """Break a live group into singletons; returns its former size."""
        mem = self._members[group]
        group_of = self._group_of
        members = self._members
        # the handle is a member, so its own entry is overwritten, not leaked
        for a in mem:
            group_of[a] = a
            members[a] = [a]
        return len(mem)

    # -- debug -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Full-scan consistency check (test/debug use; O(N)).

        Every agent is listed in exactly one group, points to that group,
        and every live handle is one of its own members.
        """
        group_of = self._group_of
        listed = bytearray(self.n_agents)
        for g, mem in self._members.items():
            if g not in mem:
                raise AssertionError(f"handle {g} is not one of its own members {mem[:8]}")
            for a in mem:
                if listed[a]:
                    raise AssertionError(f"agent {a} is listed twice")
                listed[a] = 1
                if group_of[a] != g:
                    raise AssertionError(f"agent {a} points to {group_of[a]}, listed in {g}")
        if not all(listed):
            raise AssertionError(f"groups cover {sum(listed)} agents, expected {self.n_agents}")
