"""Verification machinery over prefixes and lassos.

Positive evidence on non-periodic coded words is always a certificate or an
exact prefix closure; negative evidence is prefix-exact and tail-open,
except on 0-counter machines where lasso membership is decided exactly.
Prefix evidence comes from one frontier search, `bounded_explore`, whose
visited cap counts configurations summed over the frontiers.

Both searches take their successors from `machines.enabled`, which resolves
the choices once per (state, token, sign pattern) on the machine.  That is
sound because a guard depends only on which counters are positive, so every
configuration with the same state and sign pattern has the same enabled
transitions; a miss goes through `step`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from operator import add

from .errors import MachineError
# step is not called here, but engine.step stays bound for code that reads
# the kernel from this module
from .machines import (BuchiAutomaton, Configuration, CounterMachine, Run,
                       Walker, enabled, is_real_time, step)
from .words import A, B, ZERO, LassoWord, lasso_prefix

DEFAULT_VISITED_CAP = 10 ** 7


@dataclass(frozen=True)
class PrefixReach:
    """frontiers[i]: configurations reachable after i letters, each mapped to
    the maximum accepting-visit count (start included) over runs reaching
    it.  capped means the configurations summed over the frontiers passed
    the visited cap and the search stopped there; otherwise every frontier
    is exact for the lambda budget searched."""

    frontiers: tuple[dict, ...]
    capped: bool

    def sizes(self) -> list[int]:
        return [len(f) for f in self.frontiers]

    def max_visits(self, pos: int = -1) -> int | None:
        f = self.frontiers[pos]
        return max(f.values()) if f else None

    def first_empty_position(self) -> int | None:
        for i, f in enumerate(self.frontiers):
            if not f:
                return i
        return None


def _advance(m: CounterMachine, accepting: frozenset, cur: dict,
             token: str | None) -> dict:
    """Configurations one `token` step (a letter, or None for lambda) from
    the frontier `cur`, each with its best visit count."""
    nxt: dict[Configuration, int] = {}
    for cfg, visits in cur.items():
        counters = cfg.counters
        for _, dest, delta in enabled(m, cfg.state, token, counters):
            nc = Configuration(dest, tuple(map(add, counters, delta)))
            nv = visits + (1 if dest in accepting else 0)
            old = nxt.get(nc)
            if old is None or nv > old:
                nxt[nc] = nv
    return nxt


def bounded_explore(b: BuchiAutomaton, prefix: list[str] | tuple[str, ...],
                    lambda_budget: int,
                    visited_cap: int = DEFAULT_VISITED_CAP) -> PrefixReach:
    """Explore runs that take at most lambda_budget lambda-steps between
    consecutive letters (also before the first and after the last).

    The frontiers are dicts of configurations and make no reference
    cycles, so the cyclic garbage collector is paused while they grow, and
    the caller's setting is restored however the search ends."""
    if lambda_budget < 0:
        raise ValueError(f"lambda budget must be >= 0, got {lambda_budget}")
    m, accepting = b.machine, b.accepting

    def close(level: dict) -> dict:
        # level j holds what exactly j lambda-steps reach, so the levels
        # form a DAG and one pass per level gives exact best counts; the
        # step count is dropped once every level is merged
        if not lambda_budget:
            return level
        out = dict(level)
        for _ in range(lambda_budget):
            nxt = _advance(m, accepting, level, None)
            # an empty level stays empty and a repeated one repeats forever,
            # so no later level can add anything
            if not nxt or nxt == level:
                break
            level = nxt
            for cfg, visits in level.items():
                old = out.get(cfg)
                if old is None or visits > old:
                    out[cfg] = visits
        return out

    start = Configuration(m.initial, (0,) * m.k)
    capped = False
    collecting = gc.isenabled()
    gc.disable()
    try:
        cur = close({start: 1 if m.initial in accepting else 0})
        frontiers = [cur]
        total = len(cur)
        for a in prefix:
            cur = close(_advance(m, accepting, cur, a))
            total += len(cur)
            frontiers.append(cur)
            if total > visited_cap:
                capped = True
                break
            if not cur:
                break
    finally:
        if collecting:
            gc.enable()
    # pad with empty frontiers for stable indexing when the search died early
    while len(frontiers) < len(prefix) + 1 and not capped:
        frontiers.append({})
    return PrefixReach(tuple(frontiers), capped)


def exact_prefix_reach(b: BuchiAutomaton, prefix: list[str] | tuple[str, ...],
                       visited_cap: int = DEFAULT_VISITED_CAP) -> PrefixReach:
    """bounded_explore without lambda-steps, for real-time machines, where
    the closure is exact."""
    if not is_real_time(b.machine):
        raise MachineError("exact_prefix_reach needs a real-time machine; use bounded_explore")
    return bounded_explore(b, prefix, 0, visited_cap)


def deterministic_run(b: BuchiAutomaton, prefix: list[str] | tuple[str, ...]) -> Run:
    """Walk a prefix through a machine that is deterministic on it: exactly
    one transition may be enabled per letter.  Raises on 0 or >1 choices."""
    m = b.machine
    walker = Walker(m, Configuration(m.initial, (0,) * m.k))
    for a in prefix:
        walker.to(a)
    return walker.run()


def nba_lasso_member(b: BuchiAutomaton, w: LassoWord) -> bool:
    """Exact Buchi membership of spoke.cycle^omega for 0-counter automata.

    Product graph: (state, word position), positions wrapping into the
    cycle.  Accepting iff some reachable strongly connected component
    contains an accepting state and an internal letter edge (a cycle made
    only of lambda edges consumes no input, so it never accepts).  One
    iterative Tarjan search from the start node computes each node's
    successors once and judges each component as it closes."""
    m = b.machine
    if m.k != 0:
        raise MachineError("lasso membership is exact only for k = 0")
    real_time = is_real_time(m)
    sp = len(w.spoke)
    letters = list(w.spoke) + list(w.cycle)
    index: dict = {}
    low: dict = {}
    by_letter: dict = {}  # node -> its letter successors
    stack: list = []
    on_stack: set = set()
    work: list = []

    def enter(node) -> None:
        q, pos = node
        nxt = pos + 1 if pos + 1 < len(letters) else sp
        moved = by_letter[node] = [(dest, nxt)
                                   for _, dest, _ in enabled(m, q, letters[pos], ())]
        lam = [] if real_time else [(dest, pos)
                                    for _, dest, _ in enabled(m, q, None, ())]
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(moved + lam)))

    enter((m.initial, 0))
    while work:
        node, it = work[-1]
        for n2 in it:
            if n2 not in index:
                enter(n2)
                break
            if n2 in on_stack:
                low[node] = min(low[node], index[n2])
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while node not in comp:
                    comp.add(stack.pop())
                on_stack -= comp
                # a singleton has an internal letter edge only on a self-loop
                if (any(q in b.accepting for q, _ in comp)
                        and any(n2 in comp for n in comp for n2 in by_letter[n])):
                    return True
    return False


@dataclass(frozen=True, slots=True)
class Witness:
    cls: str       # D3 | D4
    position: int  # 1-based start of the segment (its B or A)
    n: int
    m: int
    end: int       # 1-based position of the closing letter


def d34_witness_scan(w: LassoWord, Q: int,
                     span: int | None = None) -> Witness | None:
    """First D3 (B.0^n.A.0^m.sigma, n != m) or D4 (A.0^n.sigma.B.0^m.A,
    m != Q n) segment, earliest completion first.  A, B and 0 are the h
    letters of `words`; any other letter stands for sigma.

    With span=None the scan covers 3|spoke| + 5|cycle| + 8 letters, enough
    to host any witness: the first witness starts before |spoke| + |cycle|
    and 0-runs that ever close are shorter than |spoke| + 2|cycle|.  Pass a
    span to restrict the scan to a fixed prefix.
    """
    if span is None:
        span = 3 * len(w.spoke) + 5 * len(w.cycle) + 8
    y = lasso_prefix(w, span)
    reserved = {A, B, ZERO}

    def run_of_zeros(i: int) -> tuple[int, int]:
        n = 0
        while i < len(y) and y[i] == ZERO:
            n += 1
            i += 1
        return n, i

    best: Witness | None = None
    for p in range(len(y)):
        if y[p] == B:
            n, i = run_of_zeros(p + 1)
            if n >= 1 and i < len(y) and y[i] == A:
                m, i2 = run_of_zeros(i + 1)
                if m >= 1 and i2 < len(y) and y[i2] not in reserved:
                    if n != m:
                        cand = Witness("D3", p + 1, n, m, i2 + 1)
                        if best is None or cand.end < best.end:
                            best = cand
        elif y[p] == A:
            n, i = run_of_zeros(p + 1)
            if n >= 1 and i < len(y) and y[i] not in reserved:
                if i + 1 < len(y) and y[i + 1] == B:
                    m, i2 = run_of_zeros(i + 2)
                    if m >= 1 and i2 < len(y) and y[i2] == A:
                        if m != Q * n:
                            cand = Witness("D4", p + 1, n, m, i2 + 1)
                            if best is None or cand.end < best.end:
                                best = cand
    return best
