"""Reference graph searches for the differential tests.

These are the multi-pass versions that `engine.nba_lasso_member` and
`machines.lambda_burst_bound` replaced: the lasso search walks the
reachable product graph three times (reachability, Tarjan from every node,
a viability re-scan), and the burst bound runs a DFS with an on-stack
sentinel and then a second loop per node.  They must keep
behaving as they do here; the one-pass versions are tested against them.
"""

import math

from omegacount.errors import MachineError
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 step)
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
