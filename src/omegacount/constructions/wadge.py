"""Sum of two omega-languages: keep playing the first, or opt out once.

A run either stays inside the copy of bL on the small alphabet forever, or
after any finite prefix of small-alphabet letters reads a single switch
letter: a plus letter hands the rest of the word to bLp, a minus letter to
its caller-supplied complement.  Complementation is not effective here, so
the complement automaton is an argument, not a derived object.
"""

from __future__ import annotations

from ..machines import BuchiAutomaton, MachineError, _reach, pad_counters

_INIT = "i0"


def wadge_sum(bL: BuchiAutomaton, bLp: BuchiAutomaton, bLpComp: BuchiAutomaton,
              plus: frozenset[str] | set[str],
              minus: frozenset[str] | set[str]) -> BuchiAutomaton:
    """Sum automaton over the large alphabet.

    bL runs on alphabet X, bLp and bLpComp on Y with X a proper subset;
    plus and minus must partition Y - X and both be nonempty.  States
    ("i0",) and ("L", q), ("P", q), ("C", q) for the states q of bL, bLp
    and bLpComp, named i0, L.q, P.q and C.q, are built by `_reach`: only
    those i0 reaches.  i0 moves as bL's initial state does, idles on X,
    then switches on plus or minus; every other state has its side's moves
    in its side's order.
    """
    x = bL.machine.alphabet
    y = bLp.machine.alphabet
    plus = frozenset(plus)
    minus = frozenset(minus)
    if bLpComp.machine.alphabet != y:
        raise MachineError("the pair automaton and its complement must share an alphabet")
    if not x <= y:
        raise MachineError("the kept language's alphabet must embed in the large one")
    if not plus or not minus:
        raise MachineError("both switch classes must be nonempty")
    if plus & minus or (plus | minus) != y - x:
        raise MachineError("switch classes must partition the fresh letters")

    k = max(bL.machine.k, bLp.machine.k, bLpComp.machine.k)
    zeros = (0,) * k
    sides = {"L": bL, "P": bLp, "C": bLpComp}
    padded = {tag: pad_counters(b.machine, k) for tag, b in sides.items()}

    def moves(src: tuple):
        # i0 enters the kept copy on its own first moves
        tag, q = ("L", bL.machine.initial) if src == (_INIT,) else src
        for _, inp, guard, dst, delta in padded[tag].leaving(q):
            yield inp, guard, (tag, dst), delta, None
        if src == (_INIT,):
            # or idles through any finite small-alphabet prefix, then
            # switches once
            for a in sorted(x):
                yield a, zeros, src, zeros, None
            for a in sorted(plus):
                yield a, zeros, ("P", bLp.machine.initial), zeros, None
            for a in sorted(minus):
                yield a, zeros, ("C", bLpComp.machine.initial), zeros, None

    machine, table, _, _ = _reach(k, y, (_INIT,), moves, ".".join)
    accepting = frozenset(n for n, state in table.items()
                          if len(state) == 2 and state[1] in sides[state[0]].accepting)
    return BuchiAutomaton(machine, accepting)
