"""Eight-counter real-time compilation: constants, shape, lifted runs."""

import pytest

import omegacount.constructions.realtime8 as rt8
from omegacount.constructions import (build_realtime8, lift_run_theta,
                                      realtime8_pad_factor, theta_walk_length)
from omegacount.errors import ArityError, BuildScaleError, FreshLetterError
from omegacount.fileio import dump_automaton, dump_run, load_automaton
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 MachineError, Run, Transition, is_real_time,
                                 validate_run)
from omegacount.words import LassoWord, ThetaCoding, coded_prefix, coded_runs

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
    assert coded == coded_prefix(LassoWord((), ("a",), {"a"}),
                                 (ThetaCoding(S_SMALL),), len(coded))
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
    # the walk reaches the end of the next block's pad run, and a longer
    # prefix is refused by arithmetic, however long
    last = needed + 1 + S_SMALL ** 2
    assert len(lift_run_theta(b, run, prefix_len=last).run.indices) == last
    for n in (last + 1, 10 ** 11):
        with pytest.raises(MachineError, match=f"^run pins 1 blocks; prefix of {n} "
                           f"letters passes the next letter point at {last}$"):
            lift_run_theta(b, run, prefix_len=n)


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


def test_an_oversized_theta_acceptor_is_refused_before_the_build(monkeypatch):
    # the theta acceptor for S has 3S + 4 states, and is made whole first
    with pytest.raises(BuildScaleError, match="theta acceptor of 400003 states") as exc:
        build_realtime8(m1_aomega(), S_override=133_333)
    assert (exc.value.estimated_states, exc.value.cap) == (400_003, rt8.STATE_CAP)
    monkeypatch.setattr(rt8, "STATE_CAP", 3 * S_SMALL + 3)
    with pytest.raises(BuildScaleError) as exc:
        build_realtime8(m1_aomega(), S_override=S_SMALL)
    assert exc.value.estimated_states == 3 * S_SMALL + 4
    # a theta acceptor at the cap passes, and the product's worklist refuses
    monkeypatch.setattr(rt8, "STATE_CAP", 3 * S_SMALL + 4)
    with pytest.raises(BuildScaleError, match="passed 220 states") as exc:
        build_realtime8(m1_aomega(), S_override=S_SMALL)
    assert exc.value.estimated_states == 3 * S_SMALL + 5


def _lifted(cert) -> tuple:
    return dump_run(cert.run), cert.blocks


def test_a_build_that_runs_out_of_states_before_its_depth_is_the_full_build():
    """A depth past the deepest state expands every state: the build records
    no depth, equals the full build and lifts a walk of any length."""
    a = m1_aomega()
    full = build_realtime8(a, S_override=S_SMALL)
    deep = build_realtime8(a, S_override=S_SMALL, depth=10 ** 6)
    assert deep.params == {"S": S_SMALL} and len(deep.machine.states) == 13_779
    assert deep.machine == full.machine and deep.origin == full.origin
    run = run_of(a, ["a"] * 5)
    cert = lift_run_theta(deep, run)
    assert cert.run._pieces == lift_run_theta(full, run).run._pieces
    n = len(cert.run.steps)
    assert n == 1_962_169_997
    runs = coded_runs(LassoWord((), ("a",), {"a"}), (ThetaCoding(S_SMALL),), n)
    assert validate_run(full.machine, runs, cert.run) is None


def test_a_lift_on_the_build_as_deep_as_its_walk_is_the_full_lift():
    a = m1_aomega()
    full = build_realtime8(a, S_override=S_SMALL)
    one = 1 + S_SMALL
    last = one + 1 + S_SMALL ** 2
    cases = [(["a"], None), (["a"], one), (["a"], one + 1), (["a"], one + 3),
             (["a"], one + 1 + S_SMALL), (["a"], last),
             (["a", "a"], None), (["a", "a"], last + 1), (["a", "a"], last + 2 * S_SMALL + 5)]
    for letters, prefix_len in cases:
        run = run_of(a, letters)
        walk = theta_walk_length(S_SMALL, len(letters), prefix_len)
        assert walk == (prefix_len or (one if len(letters) == 1 else last))
        part = build_realtime8(a, S_override=S_SMALL, depth=walk)
        # a build that ran out of states before its depth records none, and
        # is the full build
        stopped = part.machine != full.machine
        assert part.params == ({"S": S_SMALL, "depth": walk} if stopped else {"S": S_SMALL})
        assert len(part.machine.states) <= len(full.machine.states)
        cert = lift_run_theta(part, run, prefix_len=prefix_len)
        assert _lifted(cert) == _lifted(lift_run_theta(full, run, prefix_len=prefix_len))
        coded = [st.consumed for st in cert.run.steps]
        assert len(coded) == walk
        assert validate_run(full.machine, coded, cert.run) is None
    # the count refuses what the lift refuses, with the lift's messages
    run = run_of(a, ["a"])
    for n in (last + 1, 10 ** 11):
        msg = (f"^run pins 1 blocks; prefix of {n} letters passes the next "
               f"letter point at {last}$")
        with pytest.raises(MachineError, match=msg):
            theta_walk_length(S_SMALL, 1, n)
        with pytest.raises(MachineError, match=msg):
            lift_run_theta(build_realtime8(a, S_override=S_SMALL, depth=last), run,
                           prefix_len=n)
    with pytest.raises(MachineError, match=f"^prefix too short to host the lift: "
                       f"need {one} letters$"):
        lift_run_theta(full, run, prefix_len=one - 1)
    # a build shallower than the walk is refused, not walked until it breaks
    with pytest.raises(MachineError, match=f"^acceptor built {one - 1} letters deep; "
                       f"the lift walks {one}$"):
        lift_run_theta(build_realtime8(a, S_override=S_SMALL, depth=one - 1), run)
