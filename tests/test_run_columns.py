"""Differential tests of runs held as columns.

A `Run` is a start configuration plus four parallel tuples (consumed
tokens, transition indices, result states, result counters), and
`run.steps` is a view that builds `RunStep`s when read.  On seeded random
runs: a run built from RunSteps and the same run built from its columns
are equal, hash alike and print alike; the view acts like the tuple of
RunSteps it replaced; a run file round-trips byte for byte; and
`validate_run`, which checks a step that shares the current counters tuple
by its destination and delta alone, gives the reference's verdict and text
on runs whose steps share counters tuples of ints, floats, bools, inf, NaN
and ints too big for a float.  Last, a held pipeline certificate adds
almost no object to the cyclic garbage collector's lists.
"""

import gc
import math
import random
from operator import add

import pytest

import reference_walk as ref
from omegacount.constructions import compose_pipeline, lift_run_pipeline
from omegacount.fileio import dump_run, load_run
from omegacount.machines import (Configuration, CounterMachine, Run, RunStep,
                                 Transition, validate_run)

from conftest import m2_two_counters, run_of

SIGMA = ("a", "b")
INPUTS = SIGMA + (None,)
STATES = ("s0", "s1", "s2")
# counter values beside small ints: a run made in code may hold any of them
ODD = (0.0, 1.5, True, False, math.inf, math.nan, 2 ** 53 + 1)


def _counters(rng: random.Random, k: int, odd: bool) -> tuple:
    return tuple(rng.choice(ODD) if odd and rng.random() < 0.4
                 else rng.randint(0, 3) for _ in range(k))


def _columns(rng: random.Random, odd: bool = False) -> tuple:
    """A start and four columns, not checked against any machine; most
    steps share the counters tuple of the step before."""
    k = rng.randint(0, 2)
    start = Configuration(rng.choice(STATES), _counters(rng, k, odd))
    consumed, indices, states, counters = [], [], [], []
    last = start.counters
    for _ in range(rng.randint(0, 12)):
        consumed.append(rng.choice(INPUTS))
        indices.append(rng.randint(0, 9))
        states.append(rng.choice(STATES))
        if rng.random() < 0.4:
            last = _counters(rng, k, odd)
        counters.append(last)
    return start, tuple(consumed), tuple(indices), tuple(states), tuple(counters)


def _records(columns: tuple) -> tuple:
    _, consumed, indices, states, counters = columns
    return tuple(RunStep(c, i, Configuration(s, v))
                 for c, i, s, v in zip(consumed, indices, states, counters))


def test_run_from_steps_equals_run_from_columns():
    rng = random.Random(21)
    for _ in range(400):
        columns = _columns(rng, odd=rng.random() < 0.3)
        start, steps = columns[0], _records(columns)
        got, want = Run.from_columns(*columns), Run(start, steps)
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want) == f"Run(start={start!r}, steps={steps!r})"
        assert Run(start, list(steps)) == got
        assert Run(start, got.steps) == got
        # list columns are stored as tuples
        listed = Run.from_columns(start, *map(list, columns[1:]))
        assert listed == got and hash(listed) == hash(got)
        assert {type(c) for c in (listed.consumed, listed.indices, listed.states,
                                  listed.counters)} == {tuple}
        # a change to any one column, the counters included, is seen
        for j, column in enumerate(columns[1:], start=1):
            if not column:
                continue
            i = rng.randrange(len(column))
            changed = list(columns)
            if j == 4:
                new = tuple(c + 1 for c in column[i]) + (0,)
            else:
                new = {1: "c", 2: 10, 3: "s9"}[j]
            changed[j] = column[:i] + (new,) + column[i + 1:]
            assert Run.from_columns(*changed) != got
    with pytest.raises(ValueError, match="length"):
        Run.from_columns(Configuration("s0", ()), ("a",), (0,), (), ())
    # immutable, like the frozen record it replaced
    with pytest.raises(AttributeError):
        got.start = start


def test_steps_view_acts_like_the_tuple_it_replaced():
    rng = random.Random(22)
    for _ in range(300):
        columns = _columns(rng)
        run, old = Run.from_columns(*columns), _records(columns)
        view, n = run.steps, len(old)
        assert len(view) == n and bool(view) == bool(old)
        assert list(view) == list(old) and tuple(view) == old
        assert view == old and old == view and not view != old
        assert view != list(old)
        assert hash(view) == hash(old) and repr(view) == repr(old)
        for j in range(-n, n):
            assert view[j] == old[j]
        for j in (n, -n - 1):
            with pytest.raises(IndexError):
                view[j]
        for _ in range(5):
            a, b = rng.randint(-n - 1, n + 1), rng.randint(-n - 1, n + 1)
            c = rng.choice((None, 1, 2, -1, -3))
            assert type(view[a:b:c]) is tuple and view[a:b:c] == old[a:b:c]
        if n:
            j = rng.randrange(n)
            new = RunStep("c", 99, Configuration("s9", ()))
            assert (view[:j] + (new,) + view[j + 1:]
                    == old[:j] + (new,) + old[j + 1:])
            assert view != old[:j] + (new,) + old[j + 1:]
            assert old[j] in view and view.index(old[j]) == old.index(old[j])
            assert view.count(old[j]) == old.count(old[j])
        assert list(reversed(view)) == list(reversed(old))
        assert view == Run(columns[0], old).steps


def test_run_files_round_trip_byte_for_byte():
    rng = random.Random(23)
    for _ in range(300):
        start, consumed, indices, states, counters = _columns(rng)
        # run files spell integers only, negative ones too
        counters = tuple(tuple(c - 1 for c in v) if rng.random() < 0.2 else v
                         for v in counters)
        run = Run.from_columns(start, consumed, indices, states, counters)
        text = dump_run(run)
        back = load_run(text)
        assert back == run and dump_run(back) == text
        # a line whose counter tokens repeat the line before shares its tuple
        previous = back.start.counters
        for v, spelled in zip(back.counters, text.splitlines()[1:]):
            assert (v is previous) == (spelled.split()[4:] == [str(c) for c in previous])
            previous = v
    # equal values spelled apart still load as equal values
    text = "start p 1\nstep a 0 p 01\nstep a 0 p 1\nstep a 0 p 2\nstep a 0 p 2\n"
    assert load_run(text).counters == ((1,), (1,), (2,), (2,))


def _machine(rng: random.Random) -> CounterMachine:
    k = rng.randint(0, 2)
    states = STATES[:rng.randint(1, 3)]
    trans = []
    for _ in range(rng.randint(1, 8)):
        guard = tuple(rng.randint(0, 1) for _ in range(k))
        # mostly still transitions, whose zero delta may be spelled False or 0.0
        delta = tuple(rng.choice((-1, 0, 1) if g else (0, 1))
                      if rng.random() < 0.3 else rng.choice((0, 0, False, 0.0))
                      for g in guard)
        trans.append(Transition(rng.choice(states), rng.choice(INPUTS), guard,
                                rng.choice(states), delta))
    return CounterMachine(k=k, alphabet=frozenset(SIGMA), states=states,
                          initial="s0", transitions=tuple(trans))


def _shared_run(rng: random.Random, m: CounterMachine) -> Run:
    """A run that takes random transitions out of its state (guards
    ignored) and keeps the counters tuple when the delta is zero."""
    start = Configuration(rng.choice(sorted(m.states)), _counters(rng, m.k, True))
    state, counters = start.state, start.counters
    consumed, indices, states, column = [], [], [], []
    for _ in range(rng.randint(0, 12)):
        out = [i for i, t in enumerate(m.transitions) if t.source == state]
        if not out:
            break
        i = rng.choice(out)
        t = m.transitions[i]
        if any(t.delta) or rng.random() < 0.2:
            counters = tuple(map(add, counters, t.delta))
        state = t.destination
        consumed.append(t.input)
        indices.append(i)
        states.append(state)
        column.append(counters)
    return Run.from_columns(start, tuple(consumed), tuple(indices), tuple(states),
                            tuple(column))


def _corruptions(rng: random.Random, m: CounterMachine, run: Run, word: list):
    yield word, run
    yield word + [rng.choice(SIGMA)], run
    if word:
        yield word[:-1], run
    n = len(run.indices)
    if not n:
        return
    start, consumed, indices, states, counters = (
        run.start, run.consumed, run.indices, run.states, run.counters)
    j = rng.randrange(n)
    before = counters[j - 1] if j else start.counters

    def at_j(column, value):
        return column[:j] + (value,) + column[j + 1:]

    yield word, Run.from_columns(start, consumed, indices,
                                 at_j(states, rng.choice(STATES)), counters)
    yield word, Run.from_columns(start, consumed, at_j(indices, rng.randrange(
        len(m.transitions))), states, counters)
    yield word, Run.from_columns(start, at_j(consumed, rng.choice(INPUTS)),
                                 indices, states, counters)
    # the step shares the counters before it, whatever its delta
    yield word, Run.from_columns(start, consumed, indices, states,
                                 at_j(counters, before))
    if m.k:
        c = rng.randrange(m.k)
        bumped = tuple(v + rng.choice((-2, -1, 1)) if i == c else v
                       for i, v in enumerate(counters[j]))
        yield word, Run.from_columns(start, consumed, indices, states,
                                     at_j(counters, bumped))
    if m.k == 2:
        # a NaN ahead of a negative entry
        yield word, Run.from_columns(start, consumed, indices, states,
                                     at_j(counters, (math.nan, -1)))


def test_validate_run_matches_the_reference_on_shared_counters():
    rng = random.Random(24)
    seen = {}
    for _ in range(3000):
        m = _machine(rng)
        run = _shared_run(rng, m)
        word = [tok for tok in run.consumed if tok is not None]
        for w, r in _corruptions(rng, m, run, word):
            got = validate_run(m, w, r)
            assert got == ref.validate_run(m, w, r), (m, w, r)
            # what the verdict rests on: a step that shares the counters
            # before it, and what those counters hold
            if got is None or 0 <= got.step < len(r.indices):
                j = len(r.indices) - 1 if got is None else got.step
                before = r.counters[j - 1] if j > 0 else r.start.counters
                if got is not None and any(v != v for v in r.counters[j]):
                    key = ("nan result", got.reason)
                    seen[key] = seen.get(key, 0) + 1
                if j >= 0 and r.counters[j] is before:
                    kind = ("nan" if any(v != v for v in before) else
                            "inf" if math.inf in before else
                            "float" if any(type(v) is float for v in before) else
                            "bool" if any(type(v) is bool for v in before) else
                            "big" if any(v > 2 ** 53 for v in before) else "int")
                    key = (kind, None if got is None else got.reason)
                    seen[key] = seen.get(key, 0) + 1
    for key in (("int", None), ("int", "delta"), ("int", "destination"),
                ("float", None), ("inf", None), ("bool", None), ("nan", "delta"),
                ("big", "delta"), ("big", None),
                ("nan result", "negative-counter")):
        assert seen.get(key, 0) > 5, (key, seen)


def test_a_held_certificate_adds_few_gc_tracked_objects():
    a = m2_two_counters()
    out = compose_pipeline(a, primes=(2, 3), skip_realtime8=True)
    run = run_of(a, ["a", "a", "b", "b"])
    # a first lift fills the machines' memos, which later lifts share
    lift_run_pipeline(out, run)
    gc.collect()
    before = len(gc.get_objects())
    cert = lift_run_pipeline(out, run)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(cert.run.steps) == 65_340
    assert added < 1000, added
