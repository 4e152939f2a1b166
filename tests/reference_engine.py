"""Reference frontier searches for the differential tests.

These are the two frontier loops that `engine.bounded_explore` replaced:
`exact_prefix_reach` ran its own copy of the loop for real-time machines
and returned `PrefixReach`, and `bounded_explore` keyed its frontiers on
(configuration, lambda-steps used since the last letter) and returned
`ExploreEvidence`, whose visited cap therefore counted those pairs.  They
must keep behaving as they do here; the one-loop version is tested
against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from omegacount.engine import DEFAULT_VISITED_CAP
from omegacount.errors import MachineError
from omegacount.machines import (BuchiAutomaton, Configuration, is_real_time,
                                 step)


@dataclass(frozen=True)
class PrefixReach:
    """frontiers[i]: configurations reachable after i letters, mapped to the
    maximum accepting-visit count (start included) over runs reaching them.
    Real-time machines only, so the closure is exact."""

    frontiers: tuple[dict, ...]
    capped: bool

    def sizes(self) -> list[int]:
        return [len(f) for f in self.frontiers]

    def max_visits(self, pos: int) -> int | None:
        f = self.frontiers[pos]
        return max(f.values()) if f else None

    def first_empty_position(self) -> int | None:
        for i, f in enumerate(self.frontiers):
            if not f:
                return i
        return None


def exact_prefix_reach(b: BuchiAutomaton, prefix: list[str] | tuple[str, ...],
                       visited_cap: int = DEFAULT_VISITED_CAP) -> PrefixReach:
    m = b.machine
    if not is_real_time(m):
        raise MachineError("exact_prefix_reach needs a real-time machine; use bounded_explore")
    start = Configuration(m.initial, (0,) * m.k)
    cur = {start: 1 if m.initial in b.accepting else 0}
    frontiers = [dict(cur)]
    total = len(cur)
    capped = False
    for a in prefix:
        nxt: dict[Configuration, int] = {}
        for cfg, visits in cur.items():
            for _, nc in step(m, cfg, a):
                nv = visits + (1 if nc.state in b.accepting else 0)
                old = nxt.get(nc)
                if old is None or nv > old:
                    nxt[nc] = nv
        total += len(nxt)
        if total > visited_cap:
            capped = True
            frontiers.append(nxt)
            break
        frontiers.append(nxt)
        cur = nxt
        if not cur:
            break
    # pad with empty frontiers for stable indexing when the search died early
    while len(frontiers) < len(prefix) + 1 and not capped:
        frontiers.append({})
    return PrefixReach(tuple(frontiers), capped)


@dataclass(frozen=True)
class ExploreEvidence:
    """Budgeted closure: frontiers[i] maps (configuration, lambda-steps used
    since the last letter) to max accepting visits.  exhausted means the
    closure completed under the visited cap, making negative results exact
    for the stated budget."""

    frontiers: tuple[dict, ...]
    exhausted: bool

    def configs_at(self, pos: int) -> set[Configuration]:
        return {cfg for (cfg, _l) in self.frontiers[pos]}

    def max_visits(self, pos: int | None = None) -> int | None:
        f = self.frontiers[-1 if pos is None else pos]
        return max(f.values()) if f else None

    def sizes(self) -> list[int]:
        return [len(f) for f in self.frontiers]


def bounded_explore(b: BuchiAutomaton, prefix: list[str] | tuple[str, ...],
                    lambda_budget: int,
                    visited_cap: int = DEFAULT_VISITED_CAP) -> ExploreEvidence:
    """Explore runs that take at most lambda_budget lambda-steps between
    consecutive letters (also before the first and after the last)."""
    m = b.machine

    def visit(state: str) -> int:
        return 1 if state in b.accepting else 0

    def close(level0: dict) -> dict:
        # lambda-closure: lam strictly increases, so levels form a DAG and a
        # single pass per level computes exact max visits
        out = dict(level0)
        level = level0
        for lam in range(1, lambda_budget + 1):
            nxt_level: dict = {}
            for (cfg, l), visits in level.items():
                for _, nc in step(m, cfg, None):
                    key = (nc, lam)
                    nv = visits + visit(nc.state)
                    old = out.get(key)
                    if old is None or nv > old:
                        nxt_level[key] = max(nv, nxt_level.get(key, nv))
                        out[key] = max(nv, out.get(key, nv))
            if not nxt_level:
                break
            level = nxt_level
        return out

    start = Configuration(m.initial, (0,) * m.k)
    cur = close({(start, 0): visit(m.initial)})
    frontiers = [cur]
    total = len(cur)
    exhausted = True
    for a in prefix:
        base: dict = {}
        for (cfg, _l), visits in cur.items():
            for _, nc in step(m, cfg, a):
                nv = visits + visit(nc.state)
                key = (nc, 0)
                old = base.get(key)
                if old is None or nv > old:
                    base[key] = nv
        cur = close(base)
        total += len(cur)
        frontiers.append(cur)
        if total > visited_cap:
            exhausted = False
            break
        if not cur:
            break
    while len(frontiers) < len(prefix) + 1 and exhausted:
        frontiers.append({})
    return ExploreEvidence(tuple(frontiers), exhausted)

