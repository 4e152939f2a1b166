"""Reference graph searches for the differential tests.

These are the multi-pass versions that `engine.nba_lasso_member`,
`machines.lambda_burst_bound` and `machines.muller_to_buchi` replaced: the
lasso search walks the reachable product graph three times (reachability,
Tarjan from every node, a viability re-scan), the burst bound runs a DFS
with an on-stack sentinel and then a second loop per node, and the Muller
construction over-approximates its masks by a fixpoint, builds every
(state, mask) pair and then deletes duplicate transitions.  They must keep
behaving as they do here; the one-pass versions are tested against them.
"""

import math

from omegacount.errors import MachineError
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 MullerAutomaton, Transition, step)
from omegacount.words import LassoWord


def nba_lasso_member(b: BuchiAutomaton, w: LassoWord) -> bool:
    """Exact Buchi membership of spoke.cycle^omega for 0-counter automata.

    Product graph: (state, word position), positions wrapping into the
    cycle.  Accepting iff some reachable strongly connected component
    contains an accepting state and an internal letter edge (a cycle made
    only of lambda edges consumes no input, so it never accepts)."""
    m = b.machine
    if m.k != 0:
        raise MachineError("lasso membership is exact only for k = 0")
    sp, cy = len(w.spoke), len(w.cycle)
    letters = list(w.spoke) + list(w.cycle)

    def succ(node):
        q, pos = node
        out = []
        a = letters[pos]
        nxt = pos + 1 if pos + 1 < sp + cy else sp
        for _, nc in step(m, Configuration(q, ()), a):
            out.append(((nc.state, nxt), True))
        for _, nc in step(m, Configuration(q, ()), None):
            out.append(((nc.state, pos), False))
        return out

    root = (m.initial, 0)
    # reachable node set
    seen = {root}
    stack = [root]
    while stack:
        n = stack.pop()
        for n2, _ in succ(n):
            if n2 not in seen:
                seen.add(n2)
                stack.append(n2)
    # iterative Tarjan over the reachable subgraph
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    scc_of: dict = {}
    tarjan_stack: list = []
    counter = [0]
    scc_id = [0]
    for start_node in seen:
        if start_node in index:
            continue
        work = [(start_node, iter(succ(start_node)))]
        index[start_node] = low[start_node] = counter[0]
        counter[0] += 1
        tarjan_stack.append(start_node)
        on_stack.add(start_node)
        while work:
            node, it = work[-1]
            advanced = False
            for n2, _ in it:
                if n2 not in index:
                    index[n2] = low[n2] = counter[0]
                    counter[0] += 1
                    tarjan_stack.append(n2)
                    on_stack.add(n2)
                    work.append((n2, iter(succ(n2))))
                    advanced = True
                    break
                elif n2 in on_stack:
                    low[node] = min(low[node], index[n2])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        n2 = tarjan_stack.pop()
                        on_stack.discard(n2)
                        scc_of[n2] = scc_id[0]
                        if n2 == node:
                            break
                    scc_id[0] += 1
    # an SCC is viable if it has an internal letter edge; accept if such an
    # SCC also holds an accepting state
    viable = set()
    for n in seen:
        for n2, is_letter in succ(n):
            # n2 in the same SCC means a cycle through this letter edge
            # exists (a singleton SCC only qualifies via a self-loop)
            if is_letter and scc_of[n] == scc_of[n2]:
                viable.add(scc_of[n])
    for (q, _pos) in seen:
        if q in b.accepting and scc_of[(q, _pos)] in viable:
            return True
    return False


def lambda_burst_bound(machine: CounterMachine) -> int | float:
    """Longest chain of consecutive lambda-transitions in the transition
    graph, counters ignored (over-approximation); math.inf on a lambda cycle.
    """
    lam = {}
    for t in machine.transitions:
        if t.input is None:
            lam.setdefault(t.source, []).append(t.destination)
    if not lam:
        return 0
    depth: dict[str, int | float] = {}
    ON_STACK = -1
    for root in lam:
        if root in depth:
            continue
        # iterative DFS: chains can be as long as a coding block
        stack = [(root, iter(lam.get(root, ())))]
        depth[root] = ON_STACK
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                d = depth.get(nxt)
                if d == ON_STACK:
                    return math.inf
                if d is None:
                    depth[nxt] = ON_STACK
                    stack.append((nxt, iter(lam.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                best = 0
                for nxt in lam.get(node, ()):
                    d = depth[nxt]
                    if d is math.inf:
                        return math.inf
                    best = max(best, d + 1)
                depth[node] = best if node in lam else 0
    return max(d for d in depth.values())


def muller_to_buchi(m: MullerAutomaton) -> BuchiAutomaton:
    """Guess-the-entry construction.

    Copy mode mirrors the machine.  On any transition whose destination lies
    in table entry F_i the run may commit to F_i; committed mode only allows
    destinations inside F_i and accumulates them, resetting (through an
    accepting state) whenever the accumulated subset completes F_i.
    Real-time inputs give real-time outputs: every added transition consumes
    exactly what its underlying transition consumes.
    """
    mm = m.machine

    def copy_state(q: str) -> str:
        return f"c&{q}"

    def mem_state(q: str, fi: int, mask: frozenset[str]) -> str:
        return f"m&{q}&{fi}&" + ",".join(sorted(mask))

    states = {copy_state(q) for q in mm.states}
    trans: list[Transition] = []
    for t in mm.transitions:
        trans.append(Transition(copy_state(t.source), t.input, t.guard,
                                copy_state(t.destination), t.delta))
    accepting: set[str] = set()

    # enumerate committed states reachable through the subset dynamics
    for fi, entry in enumerate(m.table):
        masks: set[frozenset[str]] = set()
        seed: set[frozenset[str]] = set()
        for t in mm.transitions:
            if t.destination in entry:
                nm = frozenset({t.destination}) if frozenset({t.destination}) != entry else frozenset()
                seed.add(nm)
                trans.append(Transition(copy_state(t.source), t.input, t.guard,
                                        mem_state(t.destination, fi, nm), t.delta))
                states.add(mem_state(t.destination, fi, nm))
                if nm == frozenset():
                    accepting.add(mem_state(t.destination, fi, nm))
        frontier = set(seed)
        masks.update(seed)
        while frontier:
            nxt: set[frozenset[str]] = set()
            for mask in frontier:
                for t in mm.transitions:
                    if t.destination not in entry:
                        continue
                    nm = mask | {t.destination}
                    if nm == entry:
                        nm = frozenset()
                    if nm not in masks:
                        nxt.add(nm)
            masks.update(nxt)
            frontier = nxt
        for mask in sorted(masks, key=lambda fs: tuple(sorted(fs))):
            for t in mm.transitions:
                if t.source not in entry or t.destination not in entry:
                    continue
                src = mem_state(t.source, fi, mask)
                nm = mask | {t.destination}
                if nm == entry:
                    nm = frozenset()
                dst = mem_state(t.destination, fi, nm)
                states.add(src)
                states.add(dst)
                if nm == frozenset():
                    accepting.add(dst)
                trans.append(Transition(src, t.input, t.guard, dst, t.delta))
    # deduplicate transitions introduced by overlapping mask enumeration
    seen = set()
    unique: list[Transition] = []
    for t in trans:
        key = (t.source, t.input, t.guard, t.destination, t.delta)
        if key not in seen:
            seen.add(key)
            unique.append(t)
    machine = CounterMachine(mm.k, mm.alphabet, frozenset(states),
                             copy_state(mm.initial), tuple(unique))
    return BuchiAutomaton(machine, frozenset(accepting))
