"""Dynamic partition of agents into groups.

The simulation's hot data structure: N agents, each in exactly one group.
Groups merge (two groups become one) and fragment (one group becomes
singletons) millions of times per run, and every step looks up the group
of a uniformly random agent.  A union-find structure cannot support
fragmentation (there is no de-union), so the partition is kept as three
flat pieces:

    * `_group_of[a]`: the handle of agent a's group;
    * `_size[g]`: the size of the live group with handle g (entries of
      agents that are not handles are stale and never read);
    * `_members[g]`: the member list of a group of two or more agents.  A
      singleton has no list: it is an agent a with `_group_of[a] == a` and
      `_size[a] == 1`.  `_n_single` counts the singletons.

Costs:

    * group and size lookup for an agent:  O(1)
    * merge of groups (s1, s2):            O(min(s1, s2))   (smaller side moves)
    * fragment of a group of s:            O(s), allocating nothing
    * group count, size histogram:         O(groups of two or more)

A group's handle is one of its own members, so a singleton's handle is its
agent id and no handle is ever allocated: a merge keeps the handle of the
larger group (on a tie, the first one's), and a fragment turns every member
into its own handle.  The handle of a group changes only when the group
does; callers must not keep one across a merge or fragment.
A Partition is single-writer: mutate it from one thread only.

The simulation loop (`engine.advance`) applies merges and fragments to these
pieces inline, by the rules of `merge` and `fragment` below.  Those remain
the reference: the per-step oracle `engine.step` (`ez.ez_step` is the same
function) changes a partition through them alone, for every model, and
tests hold the loop to it.  A partition holds sizes and members only: the
strategy groups' packed vote tallies are the loop's own (`engine.SimState`).
"""

from __future__ import annotations

from collections import Counter


class Partition:
    """Mutable partition of agents 0..n-1 into groups of size >= 1."""

    __slots__ = ("n_agents", "_group_of", "_size", "_members", "_n_single")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one agent, got n={n}")
        self.n_agents = n
        self._group_of = list(range(n))
        self._size = [1] * n
        self._members: dict[int, list[int]] = {}  # groups of two or more only
        self._n_single = n

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        """Fresh partition with every agent alone in its own group."""
        return cls(n)

    # -- queries ---------------------------------------------------------

    @property
    def n_groups(self) -> int:
        return self._n_single + len(self._members)

    def group_ids(self) -> list[int]:
        """Live group handles in increasing order (an O(N) scan)."""
        return [a for a, g in enumerate(self._group_of) if a == g]

    def group_of(self, agent: int) -> tuple[int, int]:
        """Return (group handle, group size) for an agent."""
        g = self._group_of[agent]
        return g, self._size[g]

    def _live(self, group: int) -> int:
        if self._group_of[group] != group:
            raise KeyError(f"{group} is not a live group handle")
        return group

    def members(self, group: int) -> list[int]:
        """Member list of a live group.  Do not mutate the returned list."""
        return self._members.get(self._live(group)) or [group]

    def size_of(self, group: int) -> int:
        return self._size[self._live(group)]

    def size_histogram(self) -> dict[int, int]:
        """Map group size -> number of groups of that size."""
        hist = {1: self._n_single} if self._n_single else {}
        hist.update(Counter(map(self._size.__getitem__, self._members)))
        return hist

    # -- mutations -------------------------------------------------------

    def merge(self, g1: int, g2: int) -> int:
        """Merge two distinct live groups; returns the handle of the union.

        The smaller side moves into the larger, so the cost is
        O(min(s1, s2)).  The union keeps the larger group's handle (g1's on
        a tie); the other handle is retired.
        """
        if self._live(g1) == self._live(g2):
            raise ValueError("cannot merge a group with itself")
        size = self._size
        s1, s2 = size[g1], size[g2]
        if s1 < s2:
            g1, g2, s1, s2 = g2, g1, s2, s1
        group_of = self._group_of
        members = self._members
        if s2 == 1:
            group_of[g2] = g1
            if s1 == 1:
                members[g1] = [g1, g2]
                self._n_single -= 2
            else:
                members[g1].append(g2)
                self._n_single -= 1
        else:
            m2 = members.pop(g2)
            for a in m2:
                group_of[a] = g1
            members[g1].extend(m2)
        size[g1] = s1 + s2
        return g1

    def fragment(self, group: int) -> int:
        """Break a live group into singletons; returns its former size."""
        s = self._size[self._live(group)]
        if s > 1:
            group_of = self._group_of
            size = self._size
            for a in self._members.pop(group):
                group_of[a] = a
                size[a] = 1
            self._n_single += s
        return s

    # -- debug -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Full-scan consistency check (test/debug use; O(N)).

        Every agent is listed in exactly one member list or is a singleton
        named by itself; listed agents point to their group, every live
        handle is one of its own members, every live handle's size is its
        group's, and the singleton count is the number of singletons.
        """
        group_of = self._group_of
        size = self._size
        listed = bytearray(self.n_agents)
        for g, mem in self._members.items():
            if len(mem) < 2:
                raise AssertionError(f"group {g} of size {len(mem)} holds a member list")
            if g not in mem:
                raise AssertionError(f"handle {g} is not one of its own members {mem[:8]}")
            if size[g] != len(mem):
                raise AssertionError(f"group {g} has {len(mem)} members, its size says {size[g]}")
            for a in mem:
                if listed[a]:
                    raise AssertionError(f"agent {a} is listed twice")
                listed[a] = 1
                if group_of[a] != g:
                    raise AssertionError(f"agent {a} points to {group_of[a]}, listed in {g}")
        singles = 0
        for a in range(self.n_agents):
            if listed[a]:
                continue
            if group_of[a] != a:
                raise AssertionError(f"unlisted agent {a} points to {group_of[a]}")
            if size[a] != 1:
                raise AssertionError(f"singleton {a} has size {size[a]}")
            singles += 1
        if singles != self._n_single:
            raise AssertionError(f"{singles} singletons, the count says {self._n_single}")
