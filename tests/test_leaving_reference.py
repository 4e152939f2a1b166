"""Differential test of the one transition index.

`CounterMachine.leaving`, `step` and `enabled` are held to a brute-force
scan of `machine.transitions`, the record view, on both layouts the index
knows:
- spans, one per source: realtime8 of m1 at S = 72 and a `union`;
- interleaved sources: D2, and a loaded file whose trans lines were
  shuffled;
and on a small machine with lambda moves and a state with no
transitions.  Every state is asked about every letter, the lambda input
and a token outside the alphabet, under several counter vectors; a name
that is no state has no rows.
"""

import random

from omegacount.constructions import build_d2, build_d4, build_realtime8
from omegacount.fileio import dump_automaton, load_automaton
from omegacount.machines import (Configuration, CounterMachine, Transition, enabled,
                                 step, union)

from conftest import m1_aomega, m2_two_counters, m3_alternator

SIGMA = frozenset("ab")
PRIMES = (2, 3)


def by_source(m: CounterMachine) -> dict:
    """source -> its indexed records, one scan of the record view."""
    out: dict[str, list] = {}
    for i, t in enumerate(m.transitions):
        out.setdefault(t.source, []).append((i, t))
    return out


def assert_index_is_the_scan(m: CounterMachine, states, rng: random.Random) -> None:
    scan = by_source(m)
    tokens = (*sorted(m.alphabet), None, "not-a-letter")
    for q in states:
        records = scan.get(q, [])
        rows = m.leaving(q)
        assert rows == tuple((i, t.input, t.guard, t.destination, t.delta)
                             for i, t in records), q
        assert m.leaving(q) is rows
        vectors = {(0,) * m.k, (1,) * m.k,
                   *(tuple(rng.randint(0, 2) for _ in range(m.k)) for _ in range(3))}
        for counters in vectors:
            cfg = Configuration(q, counters)
            for token in tokens:
                want = [(i, Configuration(t.destination,
                                          tuple(c + d for c, d in zip(counters, t.delta))))
                        for i, t in records
                        if t.input == token and t.matches(counters)]
                assert step(m, cfg, token) == want, (q, counters, token)
                choices = tuple((i, c.state, m.transitions[i].delta) for i, c in want)
                # a miss asks step; the second call reads the memo
                assert enabled(m, q, token, counters) == choices
                assert enabled(m, q, token, counters) == choices
    assert m.leaving("no-such-state") == ()


def test_span_layouts_match_the_scan():
    rng = random.Random(1)
    b8 = build_realtime8(m1_aomega(), S_override=72).machine
    u = union(("L", m2_two_counters()), ("R", m3_alternator())).machine
    for m in (b8, u):
        assert m._span_starts() is not None
    asked = [*rng.sample(sorted(b8.states), 300), b8.initial]
    assert_index_is_the_scan(b8, asked, rng)
    # only the states asked about were indexed
    assert set(b8._rows) == {q for q in asked if b8.leaving(q)}
    assert len(b8._spans) == len(set(b8.sources)) - len(b8._rows)
    assert_index_is_the_scan(u, sorted(u.states), rng)


def test_interleaved_layouts_match_the_scan():
    rng = random.Random(2)
    d2 = build_d2(SIGMA, PRIMES).machine
    lines = dump_automaton(build_d4(SIGMA, PRIMES)).splitlines()
    trans = [line for line in lines if line.startswith("trans ")]
    rng.shuffle(trans)
    loaded = load_automaton("\n".join(
        [line for line in lines if not line.startswith("trans ")] + trans) + "\n").machine
    for m in (d2, loaded):
        assert m._span_starts() is None
        assert_index_is_the_scan(m, sorted(m.states), rng)


def test_lambda_moves_and_a_dead_state_match_the_scan():
    trans = (Transition("p", "a", (0,), "q", (1,)),
             Transition("q", None, (1,), "p", (-1,)),
             Transition("p", None, (0,), "p", (0,)),
             Transition("q", "b", (1,), "q", (0,)),
             Transition("p", "a", (1,), "dead", (0,)),
             Transition("p", "a", (1,), "q", (0,)))
    rng = random.Random(3)
    for layout in (trans, sorted(trans, key=lambda t: t.source)):
        m = CounterMachine(1, SIGMA, frozenset({"p", "q", "dead"}), "p", layout)
        assert_index_is_the_scan(m, ["dead", "q", "p", "q"], rng)
        assert m.leaving("dead") == ()
