"""Brute-force lasso membership for 0-counter real-time Buchi automata.

This is the reference the benchmark checks `engine.nba_lasso_member`
against.  It shares no code with the engine: the spoke is read by subset
simulation, and acceptance on the cycle is the greatest fixpoint of
"can reach an accepting node of the set in one or more steps" over the
product of states with cycle positions.
"""

from __future__ import annotations


def lasso_member_k0(b, spoke, cycle) -> bool:
    """True iff spoke.cycle^omega has an accepting run in b."""
    m = b.machine
    if m.k != 0:
        raise ValueError("the oracle handles 0-counter automata only")
    if any(t.input is None for t in m.transitions):
        raise ValueError("the oracle handles real-time automata only")
    if not cycle:
        raise ValueError("the cycle must be nonempty")
    succ: dict = {}
    for t in m.transitions:
        succ.setdefault((t.source, t.input), set()).add(t.destination)

    states = {m.initial}
    for letter in spoke:
        states = {d for s in states for d in succ.get((s, letter), ())}
    n = len(cycle)

    def after(node):
        state, pos = node
        return {(d, (pos + 1) % n) for d in succ.get((state, cycle[pos]), ())}

    # product nodes reachable from the end of the spoke, with predecessors
    nodes = {(s, 0) for s in states}
    preds: dict = {v: set() for v in nodes}
    todo = list(nodes)
    while todo:
        u = todo.pop()
        for v in after(u):
            if v not in nodes:
                nodes.add(v)
                preds[v] = set()
                todo.append(v)
            preds[v].add(u)

    alive = set(nodes)
    while True:
        targets = {v for v in alive if v[0] in b.accepting}
        # nodes of `alive` with a path of length >= 1 inside `alive` to a target
        back = set()
        todo = list(targets)
        while todo:
            v = todo.pop()
            for u in preds[v]:
                if u in alive and u not in back:
                    back.add(u)
                    todo.append(u)
        if back == alive:
            return bool(alive)
        alive = back
