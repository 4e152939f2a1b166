"""Differential tests of the one frontier routine.

`engine.bounded_explore` and `engine.exact_prefix_reach` are held to the two
loops they replaced (`reference_engine.py`) on seeded random machines with up
to two counters and lambda edges.  The reference `bounded_explore` keys its
frontiers on (configuration, lambda-steps used since the last letter), so
its frontiers are compared after projecting that count out, keeping the
best visit count over it; its cap counts those pairs, so under a small cap
it may stop earlier, never later.  On real-time machines `exact_prefix_reach`
must return exactly what the reference returned, `capped` included.  Each
machine object is asked several words, so all but its first search run on
the machine's warm memo of `step`'s choices.
"""

import random

import reference_engine as ref
from omegacount.engine import bounded_explore, exact_prefix_reach
from omegacount.machines import BuchiAutomaton, CounterMachine, Transition

SIGMA = ("a", "b")


def _machine(rng: random.Random, lambdas: bool) -> BuchiAutomaton:
    k = rng.randint(0, 2)
    states = [f"s{i}" for i in range(rng.randint(1, 3))]
    inputs = SIGMA + ((None,) if lambdas else ())
    trans = []
    for _ in range(rng.randint(1, 9)):
        guard = tuple(rng.randint(0, 1) for _ in range(k))
        delta = tuple(rng.choice((0, 1) if g == 0 else (-1, 0, 1)) for g in guard)
        trans.append(Transition(rng.choice(states), rng.choice(inputs), guard,
                                rng.choice(states), delta))
    m = CounterMachine(k=k, alphabet=frozenset(SIGMA), states=states,
                       initial="s0", transitions=tuple(trans))
    return BuchiAutomaton(m, frozenset(s for s in states if rng.random() < 0.5))


def _word(rng: random.Random) -> list[str]:
    return [rng.choice(SIGMA) for _ in range(rng.randint(0, 6))]


def _project(frontier: dict) -> dict:
    out: dict = {}
    for (cfg, _lam), visits in frontier.items():
        out[cfg] = max(visits, out.get(cfg, visits))
    return out


def test_bounded_explore_matches_the_reference():
    rng = random.Random(11)
    alive = merged = capped = 0
    for _ in range(1000):
        b = _machine(rng, lambdas=True)
        for _ in range(4):
            word = _word(rng)
            budget = rng.randint(0, 3)
            cap = rng.choice((3, 8, 20, 10 ** 7))
            got = bounded_explore(b, word, budget, cap)
            want = ref.bounded_explore(b, word, budget, cap)
            case = (b, word, budget, cap)
            if not got.capped and want.exhausted:
                assert got.frontiers == tuple(map(_project, want.frontiers)), case
            else:
                # pairs outnumber configurations, so the reference stops first
                assert not want.exhausted, case
                assert len(want.frontiers) <= len(got.frontiers), case
                for mine, theirs in zip(got.frontiers, want.frontiers):
                    assert mine == _project(theirs), case
            alive += bool(got.sizes()[-1])
            merged += sum(want.sizes()) > sum(got.sizes())
            capped += got.capped
    # live runs, merged lambda-step counts and caps all occur often
    assert alive > 1000 and merged > 500 and capped > 150


def test_exact_prefix_reach_matches_the_reference():
    rng = random.Random(12)
    alive = capped = 0
    for _ in range(1000):
        b = _machine(rng, lambdas=False)
        for _ in range(4):
            word = _word(rng)
            cap = rng.choice((1, 2, 4, 6, 10 ** 7))
            got = exact_prefix_reach(b, word, cap)
            want = ref.exact_prefix_reach(b, word, cap)
            assert got.frontiers == want.frontiers, (b, word, cap)
            assert got.capped is want.capped, (b, word, cap)
            alive += bool(got.sizes()[-1])
            capped += got.capped
    assert alive > 1000 and capped > 500
