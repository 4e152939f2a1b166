"""The library builds no Transition and no RunStep.

A machine keeps its transitions as columns and a run its steps as pieces;
the two records are made only for a reader of the `transitions` and
`steps` views.  With both constructors made to raise, every builder, lift,
check, search and file round trip below must still run.  The source
machines and runs are made first, since the test fixtures spell them as
records.
"""

import pytest

from omegacount.constructions import (build_d1, build_d2, build_d3, build_d4,
                                      build_h_complement, build_realtime8,
                                      compose_pipeline, lift_run_pipeline,
                                      lift_run_theta, wadge_sum)
from omegacount.engine import bounded_explore, nba_lasso_member
from omegacount.fileio import dump_automaton, load_automaton
from omegacount.machines import (BuchiAutomaton, CounterMachine, MullerAutomaton,
                                 RunStep, Transition, muller_to_buchi, validate_run)
from omegacount.words import A, B, ZERO, LassoWord

from conftest import m1_aomega, m2_two_counters, m3_alternator, run_of

SIGMA = frozenset("ab")
PRIMES = (2, 3)


def _k0(alphabet, states, accepting, edges) -> BuchiAutomaton:
    m = CounterMachine(0, frozenset(alphabet), tuple(states), states[0],
                       tuple(Transition(s, x, (), d, ()) for s, x, d in edges))
    return BuchiAutomaton(m, frozenset(accepting))


def test_the_library_makes_no_transition_and_no_runstep(monkeypatch):
    m1, m2, m3 = m1_aomega(), m2_two_counters(), m3_alternator()
    runs = {"m1": run_of(m1, ["a"]), "m2": run_of(m2, ["a", "b"]),
            "m3": run_of(m3, ["a", "b"])}
    y = ("a", "p", "m")
    kept = _k0("a", ["l0"], ["l0"], [("l0", "a", "l0")])
    pair = _k0(y, ["s0", "s1"], ["s1"], [(s, x, "s1" if x == "p" else "s0")
                                         for s in ("s0", "s1") for x in y])
    muller = MullerAutomaton(
        _k0("ab", ["n", "y"], [], [("n", "a", "y"), ("n", "b", "n"),
                                   ("y", "a", "y"), ("y", "b", "n")]).machine,
        (frozenset({"n"}),))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"the library built a {type(self).__name__}")

    monkeypatch.setattr(Transition, "__init__", refuse)
    monkeypatch.setattr(RunStep, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a Transition"):
        Transition("p", "a", (), "p", ())

    d = [build(SIGMA, PRIMES) for build in (build_d1, build_d2, build_d3, build_d4)]
    h = build_h_complement(SIGMA, PRIMES)
    lasso = LassoWord((A, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, "a", B), (ZERO,),
                      h.machine.alphabet)
    assert [nba_lasso_member(b, lasso) for b in d[:2]] == [False, True]

    for name, m in (("m2", m2), ("m3", m3)):
        out = compose_pipeline(m, PRIMES)
        cert = lift_run_pipeline(out, runs[name])
        word = [tok for tok in cert.run.consumed if tok is not None]
        assert validate_run(out.automaton.machine, word, cert.run) is None
        assert bounded_explore(out.automaton, word[:200], 1).frontiers[-1]
        text = dump_automaton(out.automaton)
        assert dump_automaton(load_automaton(text)) == text

    b8 = build_realtime8(m1, S_override=72)
    cert = lift_run_theta(b8, runs["m1"])
    word = [tok for tok in cert.run.consumed if tok is not None]
    assert validate_run(b8.machine, word, cert.run) is None

    wadge_sum(kept, pair, pair, plus={"p"}, minus={"m"})
    muller_to_buchi(muller)
