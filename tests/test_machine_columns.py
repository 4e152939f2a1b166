"""Differential tests of machines held as columns.

A `CounterMachine` keeps its transitions as five parallel tuples (sources,
inputs, guards, destinations, deltas), and `machine.transitions` is a view
that builds `Transition` records when read.  On the seeded machines of
`test_machine_reference.py`, valid or with one or two parts corrupted (an
unknown source, destination or input, a guard or delta of the wrong arity
or value, list guards, bad state and letter tokens): the machine made from
columns and the machine made from the same records accept or refuse alike,
with the reference check's first error; accepted, they are equal, print
alike and dump alike, and the view acts like the tuple of records it
replaced.  Last, the realtime8 acceptor of m1 at S = 72, built or dumped
and reloaded, adds almost no object to the cyclic garbage collector's
lists.
"""

import gc
from dataclasses import replace

import pytest
from hypothesis import given, settings

import reference_machine as ref
from omegacount.constructions import build_realtime8
from omegacount.fileio import dump_automaton, load_automaton
from omegacount.machines import (BuchiAutomaton, CounterMachine, MachineError,
                                 Transition, Transitions)

from conftest import m1_aomega
from test_machine_reference import machines


def _verdict(make):
    try:
        return "ok", make()
    except MachineError as e:
        return "refused", str(e)


def _columns(records) -> list:
    return [[getattr(t, part) for t in records]
            for part in ("source", "input", "guard", "destination", "delta")]


def assert_view_is_the_tuple(view, records: tuple) -> None:
    assert isinstance(view, Transitions)
    assert len(view) == len(records)
    assert view == records and records == view and not view != records
    assert list(view) == list(records)
    assert repr(view) == repr(records)
    for i in range(-len(records), len(records)):
        assert view[i] == records[i]
    for cut in (slice(None), slice(1, 3), slice(None, None, -2)):
        assert type(view[cut]) is tuple and view[cut] == records[cut]
    with pytest.raises(IndexError):
        view[len(records)]
    try:
        want = hash(records)
    except TypeError:  # a list guard: neither hashes
        with pytest.raises(TypeError):
            hash(view)
    else:
        assert hash(view) == want
    assert view != list(records) or not records


@settings(max_examples=400, derandomize=True, deadline=None)
@given(machines())
def test_columns_and_records_make_the_same_machine(m):
    records = tuple(m["transitions"])
    head = (m["k"], frozenset(m["alphabet"]), m["states"], m["initial"])
    want = _verdict(lambda: ref.check_machine(*head, records))
    by_records = _verdict(lambda: CounterMachine(*head, records))
    by_columns = _verdict(lambda: CounterMachine.from_columns(*head, *_columns(records)))
    assert by_records[0] == by_columns[0] == want[0]
    if want[0] == "refused":
        assert by_records[1] == by_columns[1] == want[1]
        return
    got, other = by_columns[1], by_records[1]
    assert got == other and repr(got) == repr(other)
    assert_view_is_the_tuple(got.transitions, records)
    assert (dump_automaton(BuchiAutomaton(got, frozenset()))
            == dump_automaton(BuchiAutomaton(other, frozenset())))
    # a machine made from another's view shares its columns
    again = CounterMachine(*head, got.transitions)
    assert again == got and again.guards is got.guards


def test_a_machine_equals_and_prints_by_its_records():
    t = Transition("p", "a", (1,), "q", (0,))
    u = Transition("q", None, (0,), "p", (1,))
    m = CounterMachine(1, {"a"}, {"p", "q"}, "p", (t, u))
    assert repr(m) == (f"CounterMachine(k=1, alphabet={m.alphabet!r}, states="
                       f"{m.states!r}, initial='p', transitions=({t!r}, {u!r}))")
    assert m == CounterMachine.from_columns(1, {"a"}, {"p", "q"}, "p", ["p", "q"],
                                            ["a", None], [(1,), (0,)], ["q", "p"],
                                            [(0,), (1,)])
    assert m != CounterMachine(1, {"a"}, {"p", "q"}, "p", (u, t))
    # a change to any one column is seen
    for field, value in (("source", "q"), ("input", None), ("guard", (0,)),
                         ("destination", "p"), ("delta", (1,))):
        other = CounterMachine(1, {"a"}, {"p", "q"}, "p", (replace(t, **{field: value}), u))
        assert m != other and m.transitions != other.transitions
    assert (m.sources, m.inputs, m.destinations) == (("p", "q"), ("a", None), ("q", "p"))
    assert t in m.transitions and m.transitions.index(u) == 1
    assert list(reversed(m.transitions)) == [u, t]
    with pytest.raises(TypeError):
        hash(m)


def test_columns_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        CounterMachine.from_columns(0, {"a"}, {"p"}, "p", ["p"], ["a"], [()], ["p"], [])


def test_a_transition_that_is_no_record_fails_where_it_did():
    good, bad = Transition("p", "a", (), "p", ()), Transition("zz", "a", (), "p", ())
    with pytest.raises(MachineError, match="transition 0: unknown source 'zz'"):
        CounterMachine(0, {"a"}, {"p"}, "p", (bad, object()))
    with pytest.raises(AttributeError):
        CounterMachine(0, {"a"}, {"p"}, "p", (good, object()))


def test_a_big_machine_adds_few_gc_tracked_objects():
    a = m1_aomega()
    # a first build fills whatever the builders cache
    build_realtime8(a, S_override=72)
    gc.collect()
    before = len(gc.get_objects())
    b = build_realtime8(a, S_override=72)
    gc.collect()
    built = len(gc.get_objects()) - before
    assert (len(b.machine.states), len(b.machine.transitions)) == (13_779, 30_800)
    assert built < 1000, built
    text = dump_automaton(b)
    del b
    gc.collect()
    before = len(gc.get_objects())
    back = load_automaton(text)
    gc.collect()
    loaded = len(gc.get_objects()) - before
    assert len(back.machine.transitions) == 30_800
    assert loaded < 1000, loaded
