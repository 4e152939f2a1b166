"""Filler-cadence wrapper: real-time output, pulse-bit visit transfer."""

import pytest

import reference_walk as ref
from omegacount.constructions import (BlockSpan, build_phi_wrapper,
                                      build_script_L, lift_run_phi,
                                      lift_run_script_L)
from omegacount.errors import FreshLetterError
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 MachineError, Run, RunStep, Transition,
                                 is_real_time, lambda_burst_bound,
                                 validate_run)
from omegacount.words import F, LassoWord, PhiCoding, coded_prefix

from conftest import m1_aomega, m2_two_counters, run_of


def lam2_machine() -> BuchiAutomaton:
    """Reads a, then drains through two silent hops back to p."""
    m = CounterMachine(
        k=1, alphabet=frozenset({"a"}), states=("p", "d1", "d2"), initial="p",
        transitions=(
            Transition("p", "a", (0,), "d1", (1,)),
            Transition("p", "a", (1,), "d1", (1,)),
            Transition("d1", None, (1,), "d2", (0,)),
            Transition("d2", None, (1,), "p", (0,)),
        ))
    return BuchiAutomaton(m, frozenset({"p"}))


def lam2_run(word_len: int) -> Run:
    cfg = Configuration("p", (0,))
    steps = []
    c = 0
    for i in range(word_len):
        c += 1
        steps.append(RunStep("a", 0 if i == 0 else 1,
                             Configuration("d1", (c,))))
        steps.append(RunStep(None, 2, Configuration("d2", (c,))))
        steps.append(RunStep(None, 3, Configuration("p", (c,))))
    return Run(cfg, tuple(steps))


def test_wrapper_shape():
    b = m1_aomega()
    w = build_phi_wrapper(b, 3)
    assert is_real_time(w.machine)
    assert w.machine.k == 2
    assert w.machine.alphabet == {"a", "F"}
    assert w.machine.initial == "p&0&0"
    # only the reachable states: (p, f, 0) for f = 0..3, and (p, 0, 1)
    # after each letter
    assert w.table == {f"p&{f}&{p}": ("p", f, p)
                       for f, p in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1))}
    assert all(s.endswith("&1") for s in w.accepting)


def test_burst_must_fit_window():
    b = lam2_machine()
    assert lambda_burst_bound(b.machine) == 2
    build_phi_wrapper(b, 2)
    with pytest.raises(MachineError):
        build_phi_wrapper(b, 1)


def test_lambda_cycle_never_fits():
    m = CounterMachine(
        k=1, alphabet=frozenset({"a"}), states=("p",), initial="p",
        transitions=(Transition("p", "a", (0,), "p", (1,)),
                     Transition("p", None, (1,), "p", (0,))))
    b = BuchiAutomaton(m, frozenset({"p"}))
    assert lambda_burst_bound(m) == float("inf")
    with pytest.raises(MachineError):
        build_phi_wrapper(b, 100)


def test_filler_letter_must_be_fresh():
    m = CounterMachine(
        k=1, alphabet=frozenset({"F"}), states=("p",), initial="p",
        transitions=(Transition("p", "F", (0,), "p", (0,)),))
    with pytest.raises(FreshLetterError):
        build_phi_wrapper(BuchiAutomaton(m, frozenset({"p"})), 2)
    b = m1_aomega()
    # a filler count is the L of a PhiCoding, so at least 1
    for filler in (-1, 0):
        with pytest.raises(MachineError, match=f"^filler count must be at least 1, "
                           f"got {filler}$"):
            build_phi_wrapper(b, filler)
    assert len(build_phi_wrapper(b, 1).machine.states) == 3


def test_lift_hides_lambda_steps():
    b = lam2_machine()
    w = build_phi_wrapper(b, 2)
    run = lam2_run(2)
    cert = lift_run_phi(w, run)
    coded = [s.consumed for s in cert.run.steps]
    assert None not in coded
    assert validate_run(w.machine, coded, cert.run) is None
    assert coded == coded_prefix(LassoWord((), ("a",), {"a"}), (PhiCoding(2),), len(coded))
    # two entries into p in the source, two pulses in the wrapper
    assert cert.visits(w.accepting) == 2
    assert sum(1 for s in run.steps if s.result.state in b.accepting) == 2


def test_lift_real_time_source():
    b = m1_aomega()
    w = build_phi_wrapper(b, 3)
    run = run_of(b, ["a", "a"])
    cert = lift_run_phi(w, run)
    coded = [s.consumed for s in cert.run.steps]
    assert coded == ["F", "F", "F", "a", "F", "F", "F", "a"]
    assert validate_run(w.machine, coded, cert.run) is None
    assert cert.visits(w.accepting) == 2
    assert [s.index for s in cert.blocks] == [1, 2]
    assert [(s.start, s.end) for s in cert.blocks] == [(0, 4), (4, 8)]


def test_prefix_extension_limits():
    b = m1_aomega()
    w = build_phi_wrapper(b, 3)
    run = run_of(b, ["a"])
    cert = lift_run_phi(w, run, prefix_len=6)
    assert len(cert.run.steps) == 6
    with pytest.raises(MachineError):
        lift_run_phi(w, run, prefix_len=3)
    # a 4th extra filler would overrun the window before the next letter
    with pytest.raises(MachineError):
        lift_run_phi(w, run, prefix_len=8)


def test_lift_rejects_shifted_start():
    b = m1_aomega()
    w = build_phi_wrapper(b, 3)
    run = run_of(b, ["a"])
    shifted = Run(Configuration("p", (1, 0)), run.steps)
    with pytest.raises(MachineError):
        lift_run_phi(w, shifted)


def test_block_translation():
    b = lam2_machine()
    run = lam2_run(2)
    spans = (BlockSpan(1, 0, 3), BlockSpan(2, 3, 6))
    cert = lift_run_phi(build_phi_wrapper(b, 2), run, blocks=spans)
    # letter + both silent hops of each round land in one wrapper block
    assert [(s.start, s.end) for s in cert.blocks] == [(0, 5), (5, 8)]
    assert cert.block_visits(build_phi_wrapper(b, 2).accepting) == {1: 1, 2: 1}


def test_wraps_block_acceptor_with_visits_preserved():
    a = m2_two_counters()
    primes = (2, 3)
    bl = build_script_L(a, primes)
    assert lambda_burst_bound(bl.machine) <= 5
    w = build_phi_wrapper(bl, 5)
    assert is_real_time(w.machine)
    cert = lift_run_script_L(bl, run_of(a, ["a", "b", "a", "a"]))
    wrapped = lift_run_phi(w, cert.run, blocks=cert.blocks)
    coded = [s.consumed for s in wrapped.run.steps]
    assert validate_run(w.machine, coded, wrapped.run) is None
    assert wrapped.block_visits(w.accepting) == cert.block_visits(bl.accepting)
    assert wrapped.visits(w.accepting) == sum(
        1 for s in cert.run.steps if s.result.state in bl.accepting)


def _step_by_step_lift(w, run: Run, prefix_len: int) -> tuple[Run, list[int]]:
    """The phi lift walked one step at a time on the reference walker: a
    lambda step reads one filler, a letter first tops its window up with
    idle fillers, and idle fillers extend the walk to prefix_len.  Also
    gives, for each source step and the end, the wrapper steps before it."""
    b, table, filler_count = w.source, w.table, w.params["filler_count"]
    m = b.machine

    def want(index: int):
        def pred(u) -> bool:
            q, f, _ = table[u.source]
            if index < 0:
                return not any(u.delta) and table[u.destination] == (q, f + 1, 0)
            t = m.transitions[index]
            dest = (t.destination, 0 if t.input is not None else f + 1,
                    int(t.destination in b.accepting))
            return u.delta == t.delta and table[u.destination] == dest
        return pred

    walker = ref.Walker(w.machine, Configuration(w.machine.initial, run.start.counters))
    f = 0
    marks = []
    for token, index in zip(run.consumed, run.indices):
        marks.append(len(walker.steps))
        if token is None:
            walker.to(F, want(index))
            f += 1
        else:
            for _ in range(filler_count - f):
                walker.to(F, want(-1))
            walker.to(token, want(index))
            f = 0
    marks.append(len(walker.steps))
    while len(walker.steps) < prefix_len:
        walker.to(F, want(-1))
    return walker.run(), marks


def test_lift_with_lambda_steps_matches_step_by_step_walk():
    """Windows partly filled by lambda moves and a prefix that ends at the
    last filler before the next letter point: the block-replayed lift equals
    the step-by-step walk, with and without source blocks, and validates."""
    lam2 = lam2_machine()
    m2 = m2_two_counters()
    bl = build_script_L(m2, (2, 3))
    cases = [(build_phi_wrapper(lam2, 3), lam2_run(3),
              tuple(BlockSpan(i + 1, 3 * i, 3 * i + 3) for i in range(3)))]
    for word in (["a", "b", "a"], ["a", "a", "b", "b"]):
        lifted = lift_run_script_L(bl, run_of(m2, word))
        cases.append((build_phi_wrapper(bl, 5), lifted.run, lifted.blocks))
    for w, run, blocks in cases:
        filler_count = w.params["filler_count"]
        tail = len(run.consumed) - 1 - max(
            j for j, x in enumerate(run.consumed) if x is not None)
        # lam2's run ends in two silent hops; script-L's end at a letter
        assert None in run.consumed and tail < filler_count
        needed = len(lift_run_phi(w, run).run.steps)
        prefix_len = needed + filler_count - tail
        expected, marks = _step_by_step_lift(w, run, prefix_len)
        ends = [marks[j + 1] for j, x in enumerate(run.consumed) if x is not None]
        letter_spans = tuple(BlockSpan(i + 1, ([0] + ends)[i], end)
                             for i, end in enumerate(ends))
        for given in (None, blocks):
            cert = lift_run_phi(w, run, prefix_len=prefix_len, blocks=given)
            assert cert.run == expected
            assert repr(cert.run) == repr(expected)
            coded = [x for x in cert.run.consumed if x is not None]
            assert validate_run(w.machine, coded, cert.run) is None
            assert cert.blocks == (letter_spans if given is None else tuple(
                BlockSpan(bs.index, marks[bs.start], marks[bs.end]) for bs in given))
        # the refusal counts the blocks it is given, else the letters
        with pytest.raises(MachineError, match=f"run pins {len(blocks)} blocks"):
            lift_run_phi(w, run, prefix_len=prefix_len + 1, blocks=blocks)
        with pytest.raises(MachineError, match=f"run pins {len(ends)} blocks"):
            lift_run_phi(w, run, prefix_len=prefix_len + 1)
