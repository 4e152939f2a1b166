"""Differential test of the machine check.

`CounterMachine` checks a machine over all its parts at once and falls back
to the check one token and one transition at a time only when that fails;
its per-state index is built on the first `leaving`.  It is held to
the check it replaced (`reference_machine.py`) on seeded valid machines with
up to two counters, and on those machines with one or two parts corrupted:
an unknown source or destination, a letter outside the alphabet, a wrong
guard or delta arity, a guard or delta of 2, a -1 under a zero guard, and a
state or letter that is empty, not a str, has whitespace (a non-breaking
space too) inside or at an edge, holds '#' or is '-'.  Guards and deltas
are drawn as tuples of ints, the only values a machine takes (the refusal
of any other is tested in test_machines).  Both must accept or refuse
alike, with the same error text; an accepted machine must agree on
`is_real_time` and on `leaving` for every state.

`leaving` fills its index one state at a time from that state's span of
transitions when the transitions come grouped by source, and builds it
whole otherwise.  Both are held to an eager index of the transition
records, asked in any order, on grouped and interleaved layouts, on the
realtime8 acceptor (grouped) and on the theta acceptor (interleaved).
"""

from hypothesis import given, settings, strategies as st

import reference_machine as ref
from omegacount.constructions import build_realtime8, build_theta_acceptor
from omegacount.errors import MachineError
from omegacount.machines import CounterMachine, Transition, is_real_time

from conftest import m1_aomega

SIGMA = ("a", "b")
STATES = ("s0", "s1", "s2")
BAD_TOKENS = ("", 3, None, ("s0",), "s 0", " s0", "s0 ", "s0\n", "\ts0",
              "s0\u00a0", "s#0", "#", "-")
PARTS = ("states", "alphabet", "source", "destination", "input", "guard arity",
         "delta arity", "guard 2", "delta 2", "-1 under zero")


@st.composite
def transitions(draw, k: int, states: tuple) -> Transition:
    guard = tuple(draw(st.sampled_from((0, 1))) for _ in range(k))
    delta = tuple(draw(st.sampled_from((-1, 0, 1) if g else (0, 1))) for g in guard)
    return Transition(draw(st.sampled_from(states)),
                      draw(st.sampled_from(SIGMA + (None,))), guard,
                      draw(st.sampled_from(states)), delta)


def _corrupt(draw, part: str, m: dict) -> None:
    """Break one part of the machine described by m, in place."""
    trans = m["transitions"]
    if part in ("states", "alphabet"):
        m[part] = m[part] + (draw(st.sampled_from(BAD_TOKENS)),)
        return
    if not trans:
        trans.append(Transition("s0", "a", (0,) * m["k"], "s0", (0,) * m["k"]))
    j = draw(st.integers(0, len(trans) - 1))
    t = trans[j]
    guard, delta = list(t.guard), list(t.delta)
    c = draw(st.integers(0, max(m["k"] - 1, 0)))
    if part == "source":
        t = Transition("zz", t.input, t.guard, t.destination, t.delta)
    elif part == "destination":
        t = Transition(t.source, t.input, t.guard, "zz", t.delta)
    elif part == "input":
        t = Transition(t.source, "c", t.guard, t.destination, t.delta)
    elif part == "guard arity":
        guard = guard[:-1] if guard and draw(st.booleans()) else guard + [0]
    elif part == "delta arity":
        delta = delta[:-1] if delta and draw(st.booleans()) else delta + [0]
    elif part == "guard 2":
        guard[c:c + 1] = [2]
    elif part == "delta 2":
        delta[c:c + 1] = [2]
    elif part == "-1 under zero":
        guard[c:c + 1], delta[c:c + 1] = [0], [-1]
    if part not in ("source", "destination", "input"):
        t = Transition(t.source, t.input, tuple(guard), t.destination, tuple(delta))
    trans[j] = t


@st.composite
def machines(draw) -> dict:
    k = draw(st.integers(0, 2))
    states = STATES[:draw(st.integers(1, 3))]
    m = {"k": k, "alphabet": SIGMA, "states": states,
         "initial": draw(st.sampled_from(states)),
         "transitions": draw(st.lists(transitions(k, states), max_size=8))}
    for part in draw(st.lists(st.sampled_from(PARTS), max_size=2)):
        _corrupt(draw, part, m)
    return m


def _verdict(make):
    try:
        return "ok", make()
    except MachineError as e:
        return "refused", str(e)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(machines())
def test_batched_check_matches_the_reference(m):
    parts = (m["k"], frozenset(m["alphabet"]), m["states"], m["initial"],
             tuple(m["transitions"]))
    want = _verdict(lambda: ref.check_machine(*parts))
    got = _verdict(lambda: CounterMachine(*parts))
    assert got[0] == want[0], (got, want)
    if got[0] == "refused":
        assert got[1] == want[1]
        return
    machine, (real_time, adj) = got[1], want[1]
    assert is_real_time(machine) is real_time
    for q in machine.states:
        assert machine.leaving(q) == rows_of(adj, q)


def rows_of(adj: dict, q: str) -> tuple:
    """q's (index, input, guard, destination, delta) rows, in index order,
    from a (source, input) -> indexed records index."""
    return tuple(sorted((i, t.input, t.guard, t.destination, t.delta)
                        for (source, _), out in adj.items() if source == q
                        for i, t in out))


def eager_rows(transitions) -> dict:
    """source -> its (index, input, guard, destination, delta) rows, in
    index order, from the transition records."""
    rows = {}
    for i, t in enumerate(transitions):
        rows.setdefault(t.source, []).append((i, t.input, t.guard, t.destination,
                                              t.delta))
    return rows


def grouped(transitions) -> bool:
    """Whether each source's transitions form one span."""
    seen = []
    for t in transitions:
        if not seen or seen[-1] != t.source:
            if t.source in seen:
                return False
            seen.append(t.source)
    return True


def assert_leaving_is_the_eager_index(m: CounterMachine, states) -> None:
    rows = eager_rows(m.transitions)
    for q in states:
        assert m.leaving(q) == tuple(rows.get(q, ())), q
        # one shared tuple per state
        assert m.leaving(q) is m.leaving(q)


@st.composite
def layouts(draw) -> tuple[CounterMachine, list]:
    """A valid machine whose transitions are grouped by source, or left in
    the order drawn (mostly interleaved), and an order to ask its states
    in, with repeats and a name that is not a state."""
    k = draw(st.integers(0, 2))
    states = STATES[:draw(st.integers(1, 3))]
    trans = draw(st.lists(transitions(k, states), max_size=12))
    if draw(st.booleans()):
        rank = draw(st.permutations(states))
        trans.sort(key=lambda t: rank.index(t.source))
    ask = draw(st.lists(st.sampled_from(states + ("zz",)), max_size=8))
    m = CounterMachine(k, frozenset(SIGMA), frozenset(states), states[0], tuple(trans))
    return m, ask + list(states)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(layouts())
def test_outgoing_matches_the_eager_index_on_any_layout(case):
    m, ask = case
    assert_leaving_is_the_eager_index(m, ask)


def test_outgoing_matches_the_eager_index_on_big_acceptors():
    b8 = build_realtime8(m1_aomega(), S_override=72).machine
    theta = build_theta_acceptor(frozenset("ab"), 5).machine
    assert grouped(b8.transitions) and not grouped(theta.transitions)
    for m in (b8, theta):
        assert_leaving_is_the_eager_index(m, sorted(m.states, reverse=True))


def test_a_grouped_machine_indexes_only_the_states_asked_about():
    m = build_realtime8(m1_aomega(), S_override=72).machine
    m.leaving(m.initial)
    assert set(m._rows) == {m.initial}
    assert m.initial not in m._spans and len(m._spans) == len(set(m.sources)) - 1
