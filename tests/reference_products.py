"""Reference products for the differential tests.

These are the versions of `machines.intersect_det_buchi` and
`constructions.phi.build_phi_wrapper` that the reachable-state worklist
replaced: each builds the full cross product, every (state, guard state,
flag) or (state, filler position, pulse) triple, reachable or not.  The
worklist builds must equal the part of these that their initial state
reaches.  The Muller conversion they replaced is in `reference_graph.py`.
"""

import itertools

from omegacount.errors import BuildScaleError, FreshLetterError
from omegacount.machines import (BuchiAutomaton, Built, CounterMachine,
                                 MachineError, Transition, _det_table,
                                 lambda_burst_bound)
from omegacount.words import F

PHI_STATE_CAP = 250_000


def _pair(q: str, s: str, flag: int) -> str:
    return f"{q}&{s}&{flag}"


def _next_flag(b: BuchiAutomaton, d: BuchiAutomaton, q: str, s: str, flag: int) -> int:
    if flag == 1:
        return 2 if q in b.accepting else 1
    return 1 if s in d.accepting else 2


def intersect_det_buchi(b: BuchiAutomaton, d: BuchiAutomaton) -> Built:
    """Two-flag Buchi product over every (q, s, flag) triple."""
    mb, md = b.machine, d.machine
    if mb.alphabet != md.alphabet:
        raise MachineError("intersection requires equal alphabets")
    dtable = _det_table(d)

    table = {_pair(q, s, flag): (q, s, flag)
             for q in mb.states for s in md.states for flag in (1, 2)}
    if len(table) < len(mb.states) * len(md.states) * 2:
        raise MachineError("product state names collide: a state name of "
                           "one factor contains '&'")
    trans: list[Transition] = []
    for t in mb.transitions:
        for s in sorted(md.states):
            for flag in (1, 2):
                nf = _next_flag(b, d, t.source, s, flag)
                s2 = s if t.input is None else dtable[(s, t.input)][1].destination
                trans.append(Transition(_pair(t.source, s, flag), t.input, t.guard,
                                        _pair(t.destination, s2, nf), t.delta))
    machine = CounterMachine(mb.k, mb.alphabet, frozenset(table),
                             _pair(mb.initial, md.initial, 1), tuple(trans))
    accepting = frozenset(_pair(q, s, 2) for q in mb.states for s in d.accepting)
    return Built(machine, accepting, source=(b, d), table=table)


def _wrap(q: str, f: int, p: int) -> str:
    return f"{q}&{f}&{p}"


def build_phi_wrapper(b: BuchiAutomaton, filler_count: int) -> Built:
    """Filler-cadence wrapper over every (q, f, p) triple."""
    m = b.machine
    if F in m.alphabet:
        raise FreshLetterError(f"filler letter {F!r} is already in the alphabet")
    if filler_count < 0:
        raise MachineError("filler count must be nonnegative")
    burst = lambda_burst_bound(m)
    if burst > filler_count:
        raise MachineError(
            f"lambda bursts reach {burst}, filler window is {filler_count}")
    est = len(m.states) * (filler_count + 1) * 2
    if est > PHI_STATE_CAP:
        raise BuildScaleError("wrapper would exceed the state cap",
                              est, PHI_STATE_CAP)

    lam = [t for t in m.transitions if t.input is None]
    letters = [t for t in m.transitions if t.input is not None]
    guard_combos = list(itertools.product((0, 1), repeat=m.k))
    zeros = (0,) * m.k
    trans: list[Transition] = []
    table: dict[str, tuple[str, int, int]] = {}
    accepting: list[str] = []
    for q in sorted(m.states):
        for f in range(filler_count + 1):
            for p in (0, 1):
                here = _wrap(q, f, p)
                table[here] = (q, f, p)
                if p:
                    accepting.append(here)
                if f < filler_count:
                    for t in lam:
                        if t.source != q:
                            continue
                        pulse = 1 if t.destination in b.accepting else 0
                        trans.append(Transition(
                            here, F, t.guard,
                            _wrap(t.destination, f + 1, pulse), t.delta))
                    for g in guard_combos:
                        trans.append(Transition(
                            here, F, g, _wrap(q, f + 1, 0), zeros))
                else:
                    for t in letters:
                        if t.source != q:
                            continue
                        pulse = 1 if t.destination in b.accepting else 0
                        trans.append(Transition(
                            here, t.input, t.guard,
                            _wrap(t.destination, 0, pulse), t.delta))
    machine = CounterMachine(k=m.k, alphabet=m.alphabet | {F},
                             states=frozenset(table),
                             initial=_wrap(m.initial, 0, 0),
                             transitions=tuple(trans))
    return Built(machine, frozenset(accepting), source=b,
                 params={"filler_count": filler_count},
                 table=table)
