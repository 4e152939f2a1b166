"""Reference products for the differential tests.

These are the versions of `machines.intersect_det_buchi` and
`constructions.phi.build_phi_wrapper` that the reachable-state worklist
replaced: each builds the full cross product, every (state, guard state,
flag) or (state, filler position, pulse) triple, reachable or not.  The
worklist builds must equal the part of these that their initial state
reaches.

The builders that laid their transitions out by hand are here too: the
script-L block protocol (`build_raw`, every raw state, then the two-flag
product with its guard), `union`, whose lifts retag a side run
(`lift_run_union`) and re-route its first step through the fresh initial
state (`from_union_initial`), and `wadge_sum`.
"""

import itertools
import math

from omegacount import machines
from omegacount.constructions.script_l import (_consistent, _name, _ratio,
                                               build_script_l_guard)
from omegacount.errors import ArityError, BuildScaleError, FreshLetterError
from omegacount.machines import (BuchiAutomaton, Built, Configuration,
                                 CounterMachine, MachineError, Run, Transition,
                                 is_real_time, lambda_burst_bound, pad_counters)
from omegacount.words import A, B, F, ZERO, HCoding, coded_alphabet

PHI_STATE_CAP = 250_000


def _pair(q: str, s: str, flag: int) -> str:
    return f"{q}&{s}&{flag}"


def _next_flag(b: BuchiAutomaton, d: BuchiAutomaton, q: str, s: str, flag: int) -> int:
    if flag == 1:
        return 2 if q in b.accepting else 1
    return 1 if s in d.accepting else 2


def _det_table(d: BuchiAutomaton) -> dict[tuple[str, str], str]:
    """d's (state, letter) -> destination map, read from its transition
    records; d must be a deterministic complete real-time guard, k = 0."""
    m = d.machine
    if m.k != 0:
        raise MachineError("intersection guard must have k = 0")
    if not is_real_time(m):
        raise MachineError("intersection guard must be real-time")
    table: dict[tuple[str, str], str] = {}
    for t in m.transitions:
        key = (t.source, t.input)
        if key in table:
            raise MachineError(f"guard automaton nondeterministic at {key}")
        table[key] = t.destination
    for q in m.states:
        for a in m.alphabet:
            if (q, a) not in table:
                raise MachineError(f"guard automaton incomplete at ({q!r}, {a!r})")
    return table


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
                s2 = s if t.input is None else dtable[(s, t.input)]
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


def build_raw(a: BuchiAutomaton, coding: HCoding,
              full: frozenset[str]) -> Built:
    """The block protocol's raw machine over every raw state."""
    m = a.machine
    primes, big_q = coding.primes, coding.q
    ones = tuple(1 % p for p in primes)
    trans: list[Transition] = []
    table: dict[str, tuple] = {}

    def emit(src, inp, g, dst, d):
        src_name, dst_name = _name(src), _name(dst)
        table[src_name], table[dst_name] = src, dst
        trans.append(Transition(src_name, inp, (g,), dst_name, (d,)))

    emit(("init",), A, 0, ("u1", 0), 0)
    for c in range(big_q - 1):
        emit(("u1", c), ZERO, 0, ("u1", c + 1), 0)
    emit(("u1", big_q - 1), ZERO, 0, ("v", m.initial, ones), 1)

    combos = list(itertools.product(*(range(p) for p in primes)))
    for q in sorted(m.states):
        for res in combos:
            nxt = tuple((r + 1) % p for r, p in zip(res, primes))
            emit(("v", q, res), ZERO, 1, ("v", q, nxt), 1)
        # guesses: any source transition whose guard matches the residues
        for res in combos:
            for t in m.transitions:
                if t.source == q and _consistent(t.guard, res):
                    emit(("v", q, res), t.input, 1,
                         ("x", t.destination, t.delta), 0)

    seen: set[tuple[str, tuple[int, ...]]] = set()
    for t in m.transitions:
        key = (t.destination, t.delta)
        if key in seen:
            continue
        seen.add(key)
        q = t.destination
        ratio = _ratio(primes, t.delta)
        mul, div = ratio
        boundary = ("w", q, ratio, 0)
        emit(("x", *key), B, 1, boundary, 0)
        after_first = ("wl", q, ratio, 1) if div >= 2 \
            else ("w", q, ratio, 1 % mul)
        emit(boundary, ZERO, 1, after_first, -1)
        for l in range(1, div):
            dst = ("wl", q, ratio, l + 1) if l + 1 < div \
                else ("w", q, ratio, 1 % mul)
            emit(("wl", q, ratio, l), None, 1, dst, -1)
        for g in range(1, mul):
            for gv in (0, 1):
                emit(("w", q, ratio, g), ZERO, gv,
                     ("w", q, ratio, (g + 1) % mul), 0)
        emit(boundary, ZERO, 0, ("z", q), 1)
        emit(boundary, A, 0, ("a", q), 0)

    for q in sorted(m.states):
        emit(("z", q), ZERO, 1, ("z", q), 1)
        emit(("z", q), A, 1, ("a", q), 0)
        emit(("a", q), ZERO, 1, ("a", q), -1)
        emit(("a", q), ZERO, 0, ("v", q, ones), 1)

    accepting = frozenset(_name(("x", t.destination, t.delta))
                          for t in m.transitions
                          if t.destination in a.accepting)
    machine = CounterMachine(k=1, alphabet=full, states=frozenset(table),
                             initial="init", transitions=tuple(trans))
    return Built(machine, accepting, table=table)


def build_script_L(a: BuchiAutomaton, primes: tuple[int, ...]) -> Built:
    """The raw machine in the two-flag product with its guard, built by the
    library's `intersect_det_buchi`: the triples the initial one reaches."""
    primes = tuple(primes)
    coding = HCoding(primes=primes)
    m = a.machine
    if m.k != len(primes):
        raise ArityError(f"machine has k={m.k} but {len(primes)} primes given")
    if not is_real_time(m):
        raise MachineError("block protocol needs a real-time source machine")
    raw = build_raw(a, coding, coded_alphabet(coding, m.alphabet))
    prod = machines.intersect_det_buchi(raw, build_script_l_guard(m.alphabet))
    table = {n: (raw.table[q], s, flag) for n, (q, s, flag) in prod.table.items()}
    return Built(prod.machine, prod.accepting, source=a,
                 params={"coding": coding}, table=table)


def estimate_states(a: BuchiAutomaton, primes: tuple[int, ...]) -> int:
    """The up-front bound the script-L build used to refuse on: the raw
    states of every kind, times two flags and five guard states."""
    q = math.prod(primes)
    n_states = len(a.machine.states)
    # u1 chain + v residue grid + guess/z/a states + ratio programs
    est = 1 + q + n_states * q + 3 * n_states
    for t in a.machine.transitions:
        mul, div = _ratio(primes, t.delta)
        est += 1 + mul + div
    return est * 5 * 2


def script_l_floor(primes: tuple[int, ...]) -> int:
    """States every script-L build reaches: init, the u1 chain and the
    initial state's v row."""
    return 2 * math.prod(primes) + 1


def _tag(side: str, state: str) -> str:
    return f"{side}.{state}"


def union(b1: BuchiAutomaton, b2: BuchiAutomaton) -> Built:
    """Disjoint union behind a fresh initial state u0, over every state.

    Transition layout: b1's transitions tagged L, then b2's tagged R, then
    branch copies of each side's initial-outgoing transitions re-sourced to
    u0."""
    m1, m2 = b1.machine, b2.machine
    if m1.alphabet != m2.alphabet:
        raise MachineError("union requires equal alphabets")
    if m1.k != m2.k:
        raise MachineError("union requires equal k; use pad_counters first")
    states = {"u0"}
    states.update(_tag("L", s) for s in m1.states)
    states.update(_tag("R", s) for s in m2.states)
    trans: list[Transition] = []
    for t in m1.transitions:
        trans.append(Transition(_tag("L", t.source), t.input, t.guard, _tag("L", t.destination), t.delta))
    for t in m2.transitions:
        trans.append(Transition(_tag("R", t.source), t.input, t.guard, _tag("R", t.destination), t.delta))
    for t in m1.transitions:
        if t.source == m1.initial:
            trans.append(Transition("u0", t.input, t.guard, _tag("L", t.destination), t.delta))
    for t in m2.transitions:
        if t.source == m2.initial:
            trans.append(Transition("u0", t.input, t.guard, _tag("R", t.destination), t.delta))
    machine = CounterMachine(m1.k, m1.alphabet, frozenset(states), "u0", tuple(trans))
    accepting = {_tag("L", s) for s in b1.accepting} | {_tag("R", s) for s in b2.accepting}
    return Built(machine, frozenset(accepting), source=(b1, b2))


def lift_run_union(b1: BuchiAutomaton, b2: BuchiAutomaton, run: Run, side: str) -> Run:
    """Retag a run of b1 (side="left") or b2 ("right") into union(b1, b2),
    from the tagged copy of its start state."""
    tag = "L" if side == "left" else "R"
    offset = 0 if side == "left" else len(b1.machine.transitions)
    return Run.from_columns(Configuration(_tag(tag, run.start.state), run.start.counters),
                            run.consumed, [i + offset for i in run.indices],
                            [_tag(tag, q) for q in run.states], run.counters)


def from_union_initial(b1: BuchiAutomaton, b2: BuchiAutomaton,
                       run: Run, side: str) -> Run:
    """Re-route a retagged side run so it starts at u0, using the branch
    copy of its first transition."""
    m1, m2 = b1.machine, b2.machine
    tag, mach, before = ("L", m1, 0) if side == "left" else ("R", m2, 1)
    if run.start.state != f"{tag}.{mach.initial}":
        raise MachineError("side run must start at its machine's initial state")
    start = Configuration("u0", run.start.counters)
    if not run.indices:
        return Run(start, ())
    base = len(m1.transitions) + len(m2.transitions)
    if before:
        base += sum(1 for t in m1.transitions if t.source == m1.initial)
    orig = run.indices[0] - (0 if side == "left" else len(m1.transitions))
    rank = sum(1 for t in mach.transitions[:orig] if t.source == mach.initial)
    return Run.from_columns(start, run.consumed, (base + rank,) + run.indices[1:],
                            run.states, run.counters)


def _tagged(tag: str, b: BuchiAutomaton, k: int) -> tuple[list[Transition], set[str], set[str]]:
    m = pad_counters(b.machine, k)
    trans = [Transition(f"{tag}.{t.source}", t.input, t.guard,
                        f"{tag}.{t.destination}", t.delta)
             for t in m.transitions]
    states = {f"{tag}.{s}" for s in m.states}
    acc = {f"{tag}.{s}" for s in b.accepting}
    return trans, states, acc


def wadge_sum(bL: BuchiAutomaton, bLp: BuchiAutomaton, bLpComp: BuchiAutomaton,
              plus: frozenset[str] | set[str],
              minus: frozenset[str] | set[str]) -> BuchiAutomaton:
    """Sum automaton over every tagged state: the three tagged copies, then
    i0's moves (bL's initial moves, idles on X, switches)."""
    x = bL.machine.alphabet
    y = bLp.machine.alphabet
    k = max(bL.machine.k, bLp.machine.k, bLpComp.machine.k)
    zeros = (0,) * k
    tl, sl, al = _tagged("L", bL, k)
    tp, sp, ap = _tagged("P", bLp, k)
    tc, sc, ac = _tagged("C", bLpComp, k)

    trans = tl + tp + tc
    ml = pad_counters(bL.machine, k)
    for t in ml.transitions:
        if t.source == ml.initial:
            trans.append(Transition("i0", t.input, t.guard,
                                    f"L.{t.destination}", t.delta))
    for a in sorted(x):
        trans.append(Transition("i0", a, zeros, "i0", zeros))
    for a in sorted(plus):
        trans.append(Transition("i0", a, zeros, f"P.{bLp.machine.initial}", zeros))
    for a in sorted(minus):
        trans.append(Transition("i0", a, zeros, f"C.{bLpComp.machine.initial}", zeros))

    states = frozenset({"i0"} | sl | sp | sc)
    machine = CounterMachine(k, y, states, "i0", tuple(trans))
    return BuchiAutomaton(machine, frozenset(al | ap | ac))
