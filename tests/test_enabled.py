"""The machine's memo of `step`'s choices.

`machines.enabled` keeps, per (state, token, counter sign pattern), the
transitions `step` takes.  It must answer exactly what `step` answers on
every configuration: random machines with up to two counters, duplicate
transitions and lambda edges, asked about configurations whose
counters differ but share a sign pattern.  `is_real_time` reads a flag
recorded at construction, held to a scan of the transitions.  The engine's
searches read the memo, so however often they are called on one machine
they ask `step` at most once per (state, token, sign pattern).
"""

import random
from collections import Counter
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import omegacount.engine as engine
import omegacount.machines as machines
from omegacount.constructions import build_d1, build_d3
from omegacount.errors import ArityError
from omegacount.machines import (Configuration, CounterMachine, Transition,
                                 enabled, is_real_time, step)
from omegacount.words import A, B, ZERO, LassoWord, lasso_prefix

SIGMA = ("a", "b")
INPUTS = SIGMA + (None,)
STATES = ("s0", "s1", "s2")


def _as_step(counters: tuple, choices) -> list:
    """enabled's answer spelled the way step answers."""
    return [(i, Configuration(dest, tuple(map(add, counters, delta))))
            for i, dest, delta in choices]


@st.composite
def _machines(draw) -> CounterMachine:
    k = draw(st.integers(0, 2))
    bits = st.lists(st.integers(0, 1), min_size=k, max_size=k)
    trans = []
    for guard in draw(st.lists(bits, min_size=1, max_size=10)):
        delta = tuple(draw(st.sampled_from((0, 1) if g == 0 else (-1, 0, 1)))
                      for g in guard)
        t = Transition(draw(st.sampled_from(STATES)), draw(st.sampled_from(INPUTS)),
                       tuple(guard),
                       draw(st.sampled_from(STATES)), delta)
        trans.append(t)
        if draw(st.integers(0, 4)) == 0:
            trans.append(t)
    return CounterMachine(k=k, alphabet=frozenset(SIGMA), states=STATES,
                          initial="s0", transitions=tuple(trans))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_memo_equals_step(data):
    m = data.draw(_machines())
    # the flag recorded at construction, against a scan of the transitions
    assert is_real_time(m) is all(t.input is not None for t in m.transitions)
    values = st.tuples(*[st.integers(0, 3)] * m.k)
    asked = data.draw(st.lists(
        st.tuples(st.sampled_from(STATES), st.sampled_from(INPUTS), values),
        min_size=1, max_size=25))
    for state, token, counters in asked:
        # a twin with other positive values shares the sign pattern, so it
        # is answered from the entry the first query filled
        twin = tuple(c + data.draw(st.integers(0, 5)) if c else 0 for c in counters)
        for cs in (counters, twin):
            want = step(m, Configuration(state, cs), token)
            assert _as_step(cs, enabled(m, state, token, cs)) == want


def test_memo_is_per_machine():
    # same state names, token and sign pattern; different transitions
    go = CounterMachine(k=1, alphabet=frozenset(SIGMA), states=("s0", "s1"),
                        initial="s0",
                        transitions=(Transition("s0", "a", (1,), "s1", (-1,)),))
    stay = CounterMachine(k=1, alphabet=frozenset(SIGMA), states=("s0", "s1"),
                          initial="s0",
                          transitions=(Transition("s0", "a", (1,), "s0", (0,)),))
    for m in (go, stay, go, stay):
        assert _as_step((2,), enabled(m, "s0", "a", (2,))) == \
            step(m, Configuration("s0", (2,)), "a")


def test_memo_keeps_the_arity_check():
    m = CounterMachine(k=1, alphabet=frozenset(SIGMA), states=("s0",),
                       initial="s0",
                       transitions=(Transition("s0", "a", (0,), "s0", (1,)),))
    assert enabled(m, "s0", "a", (0,)) == ((0, "s0", (1,)),)
    with pytest.raises(ArityError):
        enabled(m, "s0", "a", (0, 0))
    with pytest.raises(ArityError):
        enabled(m, "s0", "a", ())


def test_searches_ask_step_once_per_choice(monkeypatch):
    real = machines.step
    asked = Counter()

    def counted(machine, config, token):
        signs = tuple(c > 0 for c in config.counters)
        asked[(id(machine), config.state, token, signs)] += 1
        return real(machine, config, token)

    monkeypatch.setattr(machines, "step", counted)
    monkeypatch.setattr(engine, "step", counted)
    sigma, primes = frozenset("a"), (2, 3)
    d1, d3 = build_d1(sigma, primes), build_d3(sigma, primes)
    letters = ("a", A, B, ZERO)
    rng = random.Random(9)
    verdicts = 0
    opening = (A,) + (ZERO,) * 6 + ("a", B)  # what D1 checks, with Q = 6
    for _ in range(40):
        head = opening if rng.random() < 0.5 else ()
        spoke = head + tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        cycle = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        w = LassoWord(spoke, cycle, d1.machine.alphabet)
        verdicts += engine.nba_lasso_member(d1, w)
        engine.exact_prefix_reach(d3, lasso_prefix(w, 12))
    assert 0 < verdicts < 40
    # both machines were searched, and no choice was resolved twice
    assert {key[0] for key in asked} == {id(d1.machine), id(d3.machine)}
    assert max(asked.values()) == 1
