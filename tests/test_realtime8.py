"""Eight-counter real-time compilation: constants, shape, lifted runs."""

import pytest

import omegacount.constructions.realtime8 as rt8
from omegacount.constructions import (build_realtime8, lift_run_theta,
                                      realtime8_pad_factor)
from omegacount.errors import ArityError, BuildScaleError, FreshLetterError
from omegacount.fileio import dump_automaton, load_automaton
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 MachineError, Run, Transition, is_real_time,
                                 validate_run)
from omegacount.words import LassoWord, theta_prefix

from conftest import m1_aomega, m2_two_counters, run_of

# smallest pad factor the queue schedule tolerates for a 1-letter alphabet
S_SMALL = 72


def test_pad_factor_formula():
    assert realtime8_pad_factor(1) == 729
    assert realtime8_pad_factor(2) == 1728
    for n in range(1, 5):
        assert realtime8_pad_factor(n) == (3 * (n + 2)) ** 3


def test_build_shape_small_override():
    b = build_realtime8(m1_aomega(), S_override=S_SMALL)
    assert b.params["S"] == S_SMALL
    assert b.machine.k == 8
    assert is_real_time(b.machine)
    assert b.machine.alphabet == {"a", "E"}


def test_edge_labels_and_loaded_state_names_are_shared():
    # one object per distinct guard, delta or state name, however many
    # edges carry it: the built machine's labels, the loaded one's names
    b = build_realtime8(m1_aomega(), S_override=S_SMALL)
    loaded = load_automaton(dump_automaton(b)).machine
    for m, parts in ((b.machine, ("guard", "delta")),
                     (loaded, ("source", "destination"))):
        for part in parts:
            values = [getattr(t, part) for t in m.transitions]
            assert len({id(v) for v in values}) == len(set(values)), part


def test_override_below_schedule_bound():
    with pytest.raises(MachineError):
        build_realtime8(m1_aomega(), S_override=S_SMALL - 1)


def test_simulated_machine_must_have_two_counters():
    m = CounterMachine(
        k=1, alphabet=frozenset({"a"}), states=("p",), initial="p",
        transitions=(Transition("p", "a", (0,), "p", (1,)),))
    with pytest.raises(ArityError):
        build_realtime8(BuchiAutomaton(m, frozenset({"p"})), S_override=100)


def test_pad_letter_must_be_fresh():
    m = CounterMachine(
        k=2, alphabet=frozenset({"E"}), states=("p",), initial="p",
        transitions=(Transition("p", "E", (0, 0), "p", (0, 0)),))
    with pytest.raises(FreshLetterError):
        build_realtime8(BuchiAutomaton(m, frozenset({"p"})),
                        S_override=S_SMALL)


def test_state_cap_enforced(monkeypatch):
    monkeypatch.setattr(rt8, "STATE_CAP", 50)
    with pytest.raises(BuildScaleError) as exc:
        build_realtime8(m1_aomega(), S_override=S_SMALL)
    assert exc.value.cap == 50


def test_lift_two_blocks():
    a = m1_aomega()
    b = build_realtime8(a, S_override=S_SMALL)
    run = run_of(a, ["a", "a"])
    cert = lift_run_theta(b, run)
    coded = [st.consumed for st in cert.run.steps]
    assert validate_run(b.machine, coded, cert.run) is None
    assert coded == theta_prefix(LassoWord((), ("a",), {"a"}), S_SMALL,
                                 len(coded))
    assert [(st.index, st.start, st.end) for st in cert.blocks] == \
        [(1, 0, 1 + S_SMALL), (2, 1 + S_SMALL, 2 + S_SMALL + S_SMALL ** 2)]
    assert cert.block_visits(b.accepting) == {1: 1, 2: 1}


def test_lift_prefix_extension_into_next_block():
    a = m1_aomega()
    b = build_realtime8(a, S_override=S_SMALL)
    run = run_of(a, ["a"])
    needed = 1 + S_SMALL
    cert = lift_run_theta(b, run, prefix_len=needed + 3)
    coded = [st.consumed for st in cert.run.steps]
    assert len(coded) == needed + 3
    assert validate_run(b.machine, coded, cert.run) is None
    with pytest.raises(MachineError):
        lift_run_theta(b, run, prefix_len=needed - 1)


def test_lift_two_letter_alphabet():
    a = m2_two_counters()
    s_small = 8 * 4 * 4
    b = build_realtime8(a, S_override=s_small)
    assert b.machine.k == 8 and is_real_time(b.machine)
    run = run_of(a, ["a"])
    cert = lift_run_theta(b, run)
    coded = [st.consumed for st in cert.run.steps]
    assert validate_run(b.machine, coded, cert.run) is None
    # blocks past the run's word need their letters spelled out
    with pytest.raises(MachineError):
        lift_run_theta(b, run, prefix_len=len(coded) + 2)
    ext = lift_run_theta(b, run, prefix_len=len(coded) + 2, letters=["a"])
    coded2 = [st.consumed for st in ext.run.steps]
    assert validate_run(b.machine, coded2, ext.run) is None


def test_lift_rejects_bad_sources():
    a = m1_aomega()
    b = build_realtime8(a, S_override=S_SMALL)
    good = run_of(a, ["a"])
    shifted = Run(Configuration("p", (1, 0)), good.steps)
    with pytest.raises(MachineError):
        lift_run_theta(b, shifted)
    with pytest.raises(MachineError):
        lift_run_theta(b, good, letters=["z"])
