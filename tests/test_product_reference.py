"""Differential tests of the reachable-state product builders.

`intersect_det_buchi`, `build_phi_wrapper` and `muller_to_buchi` build only
the states their initial state reaches.  Each is held to the full-product
version it replaced (`reference_products.py`, and `reference_graph.py` for
the Muller conversion) on seeded k <= 1 machines with lambda edges:

- the new build is exactly the graph-reachable part of the reference's
  (counters ignored): the same states, table entries and accepting states,
  and from each state the same transitions in the same order;
- k = 0 lasso verdicts of `nba_lasso_member` agree;
- k = 1 `exact_prefix_reach` frontiers agree on seeded prefixes.

A subprocess test checks that the builds do not depend on the hash seed.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import reference_graph
import reference_products as ref
from omegacount.constructions import build_phi_wrapper
from omegacount.engine import exact_prefix_reach, nba_lasso_member
from omegacount.machines import (BuchiAutomaton, CounterMachine, MullerAutomaton,
                                 Transition, intersect_det_buchi, is_real_time,
                                 lambda_burst_bound, muller_to_buchi)
from omegacount.words import F, LassoWord

SIGMA = ("a", "b")


def _machine(rng: random.Random, k: int, lambdas: bool) -> BuchiAutomaton:
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    inputs = SIGMA + ((None,) if lambdas else ())
    trans = []
    for _ in range(rng.randint(1, 10)):
        guard = tuple(rng.randint(0, 1) for _ in range(k))
        delta = tuple(rng.choice((0, 1) if g == 0 else (-1, 0, 1)) for g in guard)
        trans.append(Transition(rng.choice(states), rng.choice(inputs), guard,
                                rng.choice(states), delta))
    m = CounterMachine(k=k, alphabet=frozenset(SIGMA), states=states,
                       initial="s0", transitions=tuple(trans))
    return BuchiAutomaton(m, frozenset(s for s in states if rng.random() < 0.5))


def _guard(rng: random.Random) -> BuchiAutomaton:
    """Deterministic complete real-time k = 0 automaton over SIGMA."""
    states = [f"g{i}" for i in range(rng.randint(1, 3))]
    trans = [Transition(s, a, (), rng.choice(states), ())
             for s in states for a in SIGMA]
    m = CounterMachine(k=0, alphabet=frozenset(SIGMA), states=states,
                       initial="g0", transitions=tuple(trans))
    return BuchiAutomaton(m, frozenset(s for s in states if rng.random() < 0.6))


def _edges(m: CounterMachine) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for t in m.transitions:
        out.setdefault(t.source, []).append((t.input, t.guard, t.destination, t.delta))
    return out


def _reachable(m: CounterMachine) -> set[str]:
    edges = _edges(m)
    seen, todo = {m.initial}, [m.initial]
    while todo:
        for _, _, dst, _ in edges.get(todo.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def _assert_reachable_part(new, old) -> None:
    """new is the part of old that old's initial state reaches."""
    keep = _reachable(old.machine)
    assert new.machine.initial == old.machine.initial
    assert new.machine.states == keep
    assert new.accepting == old.accepting & keep
    old_edges = _edges(old.machine)
    assert _edges(new.machine) == {q: old_edges[q] for q in keep if q in old_edges}
    if hasattr(old, "table"):
        assert new.table == {q: old.table[q] for q in keep}


def _letters(rng: random.Random, least: int) -> tuple[str, ...]:
    return tuple(rng.choice(SIGMA) for _ in range(rng.randint(least, 4)))


def _blocks(filler: int):
    """Draws words of phi blocks: mostly a full filler window, then a letter."""
    def draw(rng: random.Random, least: int) -> tuple[str, ...]:
        out: tuple[str, ...] = ()
        for _ in range(rng.randint(least, 2)):
            n = filler if rng.random() < 0.8 else rng.randint(0, filler + 1)
            out += (F,) * n + (rng.choice(SIGMA),)
        return out
    return draw


def _agree(rng: random.Random, new, old, draw=_letters) -> int:
    """Ask both builds the same questions on words from `draw`; the number
    of yes answers."""
    yes = 0
    for _ in range(4):
        if new.machine.k == 0:
            w = LassoWord(draw(rng, 0), draw(rng, 1), new.machine.alphabet)
            want = nba_lasso_member(old, w)
            assert nba_lasso_member(new, w) is want, w
        else:
            prefix = draw(rng, 0) + draw(rng, 0)
            want = exact_prefix_reach(old, prefix)
            assert exact_prefix_reach(new, prefix) == want, prefix
            want = bool(want.frontiers[-1])
        yes += want
    return yes


def test_intersection_is_the_reachable_part_of_the_reference():
    rng = random.Random(21)
    built = reference = yes = 0
    for i in range(600):
        k = i % 2
        # k = 1 products are asked prefix questions, which need real time
        b, d = _machine(rng, k, lambdas=k == 0), _guard(rng)
        new, old = intersect_det_buchi(b, d), ref.intersect_det_buchi(b, d)
        _assert_reachable_part(new, old)
        yes += _agree(rng, new, old)
        built += len(new.machine.states)
        reference += len(old.machine.states)
    assert 300 < yes < 2100
    assert built < reference / 2


def test_phi_wrapper_is_the_reachable_part_of_the_reference():
    rng = random.Random(22)
    built = reference = yes = wrappers = lambdas = 0
    while wrappers < 500:
        b = _machine(rng, wrappers % 2, lambdas=True)
        burst = lambda_burst_bound(b.machine)
        if burst == float("inf"):
            continue
        filler = burst + rng.randint(0, 2)
        new, old = build_phi_wrapper(b, filler), ref.build_phi_wrapper(b, filler)
        _assert_reachable_part(new, old)
        assert is_real_time(new.machine)
        yes += _agree(rng, new, old, _blocks(filler))
        built += len(new.machine.states)
        reference += len(old.machine.states)
        wrappers += 1
        lambdas += burst > 0
    assert 150 < lambdas and 150 < yes < 1800
    assert built < reference


def test_muller_conversion_is_the_reachable_part_of_the_reference():
    rng = random.Random(23)
    yes = 0
    for _ in range(300):
        b = _machine(rng, 0, lambdas=True)
        states = sorted(b.machine.states)
        table = [frozenset(s for s in states if rng.random() < 0.5)
                 or frozenset({rng.choice(states)})
                 for _ in range(rng.randint(1, 3))]
        # the reference drops repeated transitions, so draw none
        m = b.machine
        m = CounterMachine(0, m.alphabet, m.states, m.initial,
                           tuple(dict.fromkeys(m.transitions)))
        mu = MullerAutomaton(m, tuple(table))
        new, old = muller_to_buchi(mu), reference_graph.muller_to_buchi(mu)
        _assert_reachable_part(new, old)
        yes += _agree(rng, new, old)
    assert 100 < yes < 1100


_DUMPS = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from conftest import m2_two_counters
from omegacount.constructions import build_script_L, compose_pipeline
from omegacount.fileio import dump_automaton
from omegacount.machines import (CounterMachine, MullerAutomaton, Transition,
                                 muller_to_buchi)

a = m2_two_counters()
edges = ("nan", "nby", "nbz", "yay", "ybn", "zaz", "zbn", "zby")
m = CounterMachine(k=0, alphabet={{"a", "b"}}, states=("n", "y", "z"), initial="n",
                   transitions=tuple(Transition(p, x, (), q, ()) for p, x, q in edges))
for aut in (build_script_L(a, (2, 3)),
            compose_pipeline(a, primes=(2, 3), skip_realtime8=True).automaton,
            muller_to_buchi(MullerAutomaton(m, ({{"n", "y"}}, {{"z"}})))):
    sys.stdout.write(dump_automaton(aut))
"""


def test_builds_do_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    code = _DUMPS.format(src=str(here.parent / "src"), tests=str(here))
    dumps = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        dumps.append(subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True,
                                    check=True).stdout)
    assert dumps[0] and dumps[0] == dumps[1]
