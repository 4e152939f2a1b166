"""Differential tests of the eight-counter product.

`realtime8._build` works out each state's edges once per (suffix, theta
label row) and reuses them for every state that shares the pair.  It is
held to the build that worked out every edge afresh
(`reference_realtime8.py`): the same five machine columns, table, origin
column and accepting set, on

- m1 at S = 72 and m3 at S = 128;
- seeded random 2-counter sources with 1-3 letters, lambda moves, mixed
  guards and deltas and varied accepting sets, at S = 8k^2.  A source whose
  product passes a small state cap is held to the same refusal instead.

m1 at S = 288, the size the command-line chain builds, is pinned to its
dump's digest.

A build bounded at depth d is held to the full build on the same sources:
its expanded states (fewer than d steps from the initial one, counted on
the full build) keep their `leaving` rows and `table` entries, its columns
and origin are the first entries of the full build's, and its other states
are the full build's states d steps away, with their entries and no
transitions.
"""

import hashlib
import random
from collections import deque

import pytest

import omegacount.constructions.realtime8 as rt8
import reference_realtime8 as ref
from conftest import m1_aomega, m3_alternator
from omegacount.errors import BuildScaleError
from omegacount.fileio import dump_automaton
from omegacount.machines import BuchiAutomaton, CounterMachine, Transition

LETTERS = ("a", "b", "c")

# past this cap a random source is held to the reference's refusal: the
# smallest 2-letter product has 10,787 states, the smallest 3-letter one
# 51,777
RANDOM_CAP = 11_000


def _source(rng: random.Random) -> BuchiAutomaton:
    sigma = LETTERS[:rng.randint(1, 3)]
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    trans = []
    for _ in range(rng.randint(1, 6)):
        guard = (rng.randint(0, 1), rng.randint(0, 1))
        delta = tuple(rng.choice((0, 1) if g == 0 else (-1, 0, 1)) for g in guard)
        inp = None if rng.random() < 0.2 else rng.choice(sigma)
        trans.append(Transition(rng.choice(states), inp, guard, rng.choice(states),
                                delta))
    m = CounterMachine(k=2, alphabet=frozenset(sigma), states=states, initial="q0",
                       transitions=tuple(trans))
    return BuchiAutomaton(m, frozenset(s for s in states if rng.random() < 0.5))


def _parts(b) -> tuple:
    m = b.machine
    return (m.states, m.initial, m.sources, m.inputs, m.guards, m.destinations,
            m.deltas, b.table, b.origin, b.accepting, b.params)


def _outcome(build, a, s_eff: int) -> tuple:
    try:
        return "built", _parts(build(a, s_eff))
    except BuildScaleError as e:
        return "refused", str(e), e.estimated_states, e.cap


@pytest.mark.parametrize("make, s_eff", [(m1_aomega, 72), (m3_alternator, 128)])
def test_fixture_products_equal_the_reference(make, s_eff):
    a = make()
    assert _parts(rt8.build_realtime8(a, s_eff)) == _parts(ref.build(a, s_eff))


def test_random_products_equal_the_reference(monkeypatch):
    monkeypatch.setattr(rt8, "STATE_CAP", RANDOM_CAP)
    built = 0
    for seed in range(20):
        a = _source(random.Random(seed))
        k = len(a.machine.alphabet) + 2
        got = _outcome(rt8._build, a, 8 * k * k)
        assert got == _outcome(ref.build, a, 8 * k * k), seed
        built += got[0] == "built"
    # about half the sources are compared whole, not just on the refusal
    assert built >= 8


def test_m1_at_the_chain_size_is_pinned():
    text = dump_automaton(rt8.build_realtime8(m1_aomega(), 288))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "184ffac0de4578c2"


def _distances(b) -> dict:
    """Each state's breadth-first distance from the initial one."""
    m = b.machine
    dist = {m.initial: 0}
    todo = deque([m.initial])
    while todo:
        q = todo.popleft()
        for _, _, _, dst, _ in m.leaving(q):
            if dst not in dist:
                dist[dst] = dist[q] + 1
                todo.append(dst)
    return dist


def _check_prefix(full, dist: dict, depth: int) -> None:
    part = rt8._build(full.source, full.params["S"], depth)
    pm, fm = part.machine, full.machine
    # the depth is recorded when states at that depth were left unexpanded
    assert part.params == ({"S": full.params["S"], "depth": depth}
                           if depth <= max(dist.values()) else {"S": full.params["S"]})
    assert pm.initial == fm.initial and pm.alphabet == fm.alphabet
    assert pm.states == {q for q, d in dist.items() if d <= depth}
    n = len(pm.sources)
    assert n == sum(len(fm.leaving(q)) for q, d in dist.items() if d < depth)
    for column in ("sources", "inputs", "guards", "destinations", "deltas"):
        assert getattr(pm, column) == getattr(fm, column)[:n], column
    assert part.origin == full.origin[:n]
    for q in pm.states:
        assert part.table[q] == full.table[q]
        assert pm.leaving(q) == (fm.leaving(q) if dist[q] < depth else ())
    assert part.accepting == full.accepting & pm.states


def _depths(dist: dict, s_eff: int) -> list:
    deepest = max(dist.values())
    # a depth far past the deepest state, as a many-block lift asks for,
    # stops with the last level
    return sorted({0, 1, 2, 7, s_eff, s_eff + 1, 2 * s_eff + 3, deepest, deepest + 5,
                   10 ** 15})


@pytest.mark.parametrize("make, s_eff", [(m1_aomega, 72), (m3_alternator, 128)])
def test_fixture_prefix_builds_are_prefixes_of_the_full_build(make, s_eff):
    full = rt8.build_realtime8(make(), s_eff)
    dist = _distances(full)
    assert set(dist) <= full.machine.states
    for depth in _depths(dist, s_eff):
        _check_prefix(full, dist, depth)


def test_random_prefix_builds_are_prefixes_of_the_full_build(monkeypatch):
    monkeypatch.setattr(rt8, "STATE_CAP", RANDOM_CAP)
    checked = 0
    for seed in range(12):
        a = _source(random.Random(seed))
        k = len(a.machine.alphabet) + 2
        try:
            full = rt8._build(a, 8 * k * k)
        except BuildScaleError:
            continue
        dist = _distances(full)
        for depth in _depths(dist, 8 * k * k)[::2]:
            _check_prefix(full, dist, depth)
        checked += 1
    assert checked >= 4
