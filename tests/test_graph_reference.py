"""Differential tests of the one-pass graph searches.

`nba_lasso_member` and `lambda_burst_bound` are each held to the
multi-pass version they replaced (`reference_graph.py`) on seeded random
machines with lambda edges: equal lasso verdicts and equal burst bounds
(self-loops and math.inf included).
Lasso verdicts are asked several times of each machine object, so they run
on the machine's warm memo of `step`'s choices, and a share of the machines
is real-time, where the search never asks for lambda successors.
"""

import math
import random

import reference_graph as ref
from omegacount.engine import nba_lasso_member
from omegacount.machines import (BuchiAutomaton, CounterMachine, Transition,
                                 is_real_time, lambda_burst_bound)
from omegacount.words import LassoWord

SIGMA = ("a", "b")


def _k0_machine(rng: random.Random, n: int, density: float,
                lambdas: bool = True) -> CounterMachine:
    states = [f"s{i}" for i in range(n)]
    inputs = SIGMA + ((None,) if lambdas else ())
    trans = [Transition(p, a, (), q, ())
             for p in states for a in inputs for q in states
             if rng.random() < density]
    return CounterMachine(k=0, alphabet=frozenset(SIGMA), states=states,
                          initial="s0", transitions=tuple(trans))


def _lasso(rng: random.Random) -> LassoWord:
    spoke = tuple(rng.choice(SIGMA) for _ in range(rng.randint(0, 3)))
    cycle = tuple(rng.choice(SIGMA) for _ in range(rng.randint(1, 4)))
    return LassoWord(spoke, cycle, frozenset(SIGMA))


def test_lambda_only_cycle_never_accepts():
    # p may loop on lambda forever, but every run that reads the word
    # leaves p for r, which is not accepting
    m = CounterMachine(k=0, alphabet=frozenset(SIGMA), states=("p", "r"),
                       initial="p",
                       transitions=(Transition("p", None, (), "p", ()),
                                    Transition("p", "a", (), "r", ()),
                                    Transition("r", "a", (), "r", ())))
    b = BuchiAutomaton(m, frozenset({"p"}))
    w = LassoWord((), ("a",), frozenset(SIGMA))
    assert nba_lasso_member(b, w) is False
    assert ref.nba_lasso_member(b, w) is False
    # a letter edge back into p closes an accepting cycle that reads input
    m2 = CounterMachine(k=0, alphabet=frozenset(SIGMA), states=("p", "r"),
                        initial="p",
                        transitions=tuple(m.transitions) + (Transition("r", "a", (), "p", ()),))
    assert nba_lasso_member(BuchiAutomaton(m2, frozenset({"p"})), w) is True


def test_lambda_edge_into_the_accepting_cycle():
    # only a lambda edge reaches the accepting loop on r, so a search that
    # skipped lambda successors here would reject
    m = CounterMachine(k=0, alphabet=frozenset(SIGMA), states=("p", "r"),
                       initial="p",
                       transitions=(Transition("p", "a", (), "p", ()),
                                    Transition("p", None, (), "r", ()),
                                    Transition("r", "a", (), "r", ())))
    b = BuchiAutomaton(m, frozenset({"r"}))
    w = LassoWord(("a",), ("a",), frozenset(SIGMA))
    assert not is_real_time(m)
    assert nba_lasso_member(b, w) is True
    assert ref.nba_lasso_member(b, w) is True


def test_lasso_verdicts_match_the_reference():
    rng = random.Random(5)
    accepted = real_time = 0
    for _ in range(1000):
        lambdas = rng.random() < 0.6
        m = _k0_machine(rng, rng.randint(1, 4), rng.choice((0.1, 0.2, 0.35)),
                        lambdas)
        acc = frozenset(s for s in sorted(m.states) if rng.random() < 0.4)
        b = BuchiAutomaton(m, acc)
        real_time += is_real_time(m)
        for _ in range(4):
            w = _lasso(rng)
            want = ref.nba_lasso_member(b, w)
            assert nba_lasso_member(b, w) is want, (m, acc, w)
            accepted += want
    # both verdicts occur often enough to mean something, on both kinds
    assert 400 < accepted < 3600
    assert 300 < real_time < 700


def test_burst_bound_edge_cases():
    def lam(*edges):
        states = sorted({s for e in edges for s in e} | {"p"})
        trans = [Transition(p, None, (), q, ()) for p, q in edges]
        trans.append(Transition("p", "a", (), "p", ()))
        return CounterMachine(k=0, alphabet=frozenset({"a"}), states=states,
                              initial="p", transitions=tuple(trans))

    assert lambda_burst_bound(lam()) == 0
    assert lambda_burst_bound(lam(("p", "p"))) == math.inf
    # a self-loop behind a chain, and one beside a finite chain
    assert lambda_burst_bound(lam(("p", "q"), ("q", "q"))) == math.inf
    assert lambda_burst_bound(lam(("p", "q"), ("r", "r"))) == math.inf
    # parallel edges count once per chain step; diamonds take the longer side
    assert lambda_burst_bound(lam(("p", "q"), ("p", "q"), ("q", "r"))) == 2
    assert lambda_burst_bound(lam(("p", "q"), ("q", "r"), ("p", "r"))) == 2


def test_burst_bounds_match_the_reference():
    rng = random.Random(7)
    finite = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        states = [f"s{i}" for i in range(n)]
        acyclic = rng.random() < 0.6
        edges = [(states[i], states[j]) for i in range(n) for j in range(n)
                 if (i < j or not acyclic) and rng.random() < 0.25]
        if acyclic and rng.random() < 0.2:
            q = rng.choice(states)
            edges.append((q, q))
        trans = [Transition(p, None, (), q, ()) for p, q in edges]
        m = CounterMachine(k=0, alphabet=frozenset({"a"}), states=states,
                           initial="s0", transitions=tuple(trans))
        want = ref.lambda_burst_bound(m)
        assert lambda_burst_bound(m) == want, edges
        finite += want != math.inf
    assert 800 < finite < 2500
