"""Differential tests of the reachable-state product builders.

`intersect_det_buchi`, `build_phi_wrapper`, `union` and `wadge_sum` build
only the states their initial state reaches.  Each is held to the version
it replaced (`reference_products.py`) on seeded k <= 1 machines with lambda
edges:

- the new build is exactly the graph-reachable part of the reference's
  (counters ignored): the same states, table entries and accepting states,
  and from each state the same transitions in the same order;
- k = 0 lasso verdicts of `nba_lasso_member` agree;
- k = 1 `exact_prefix_reach` frontiers agree on seeded prefixes.

`build_script_L` dumps to the same bytes as the raw block protocol laid
out by hand and intersected with its guard.  A flat union of two, three or
four sides is held to nested binary reference unions whose tags match
(`build_h_complement` and the pipeline's union stage among them), and
`lift_run_union` lifts random side runs, and script-L certificates, to the
runs the retagging route through every nested level gave, step for step.
A depth-first search finds every state of each builder's output, and the
m2 desk pipeline's unions are pinned at the sizes of the reachable parts of
the hand-laid ones.  A subprocess test checks that the builds do not depend
on the hash seed.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import reference_products as ref
import pytest

from conftest import m1_aomega, m2_two_counters, m2_word, m3_alternator, run_of
from omegacount.constructions import (build_h_complement, build_phi_wrapper,
                                      build_realtime8, build_script_L,
                                      compose_pipeline, lift_run_phi,
                                      lift_run_script_L,
                                      wadge_sum)
from omegacount.constructions.complement import (build_d1, build_d2, build_d3,
                                                 build_d4)
from omegacount.engine import exact_prefix_reach, nba_lasso_member
from omegacount.fileio import dump_automaton
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 Run, RunStep, Transition, intersect_det_buchi,
                                 is_real_time, lambda_burst_bound,
                                 lift_run_union, pad_counters, step, union,
                                 validate_run)
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
    if getattr(old, "table", None):
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
        filler = max(burst, 1) + rng.randint(0, 2)
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


def _walk(rng: random.Random, b: BuchiAutomaton, n: int) -> Run:
    """A random run of b from its initial configuration, up to n steps."""
    m = b.machine
    start = cfg = Configuration(m.initial, (0,) * m.k)
    steps = []
    for _ in range(n):
        cands = [(tok, i, nxt) for tok in (*sorted(m.alphabet), None)
                 for i, nxt in step(m, cfg, tok)]
        if not cands:
            break
        tok, i, cfg = rng.choice(cands)
        steps.append(RunStep(tok, i, cfg))
    return Run(start, steps)


def _same_route(new_u, new_run: Run, old_u, old_run: Run) -> None:
    """Two lifted runs agree step for step: the same configurations and
    letters, each through a transition with the same fields."""
    assert new_run.start == old_run.start
    assert new_run.consumed == old_run.consumed
    assert new_run.states == old_run.states
    assert new_run.counters == old_run.counters
    assert ([new_u.machine.transitions[i] for i in new_run.indices]
            == [old_u.machine.transitions[i] for i in old_run.indices])
    word = [tok for tok in new_run.consumed if tok is not None]
    assert validate_run(new_u.machine, word, new_run) is None
    assert validate_run(old_u.machine, word, old_run) is None


def _old_lift(old_u, run: Run, side: str) -> Run:
    b1, b2 = old_u.source
    return ref.from_union_initial(b1, b2, ref.lift_run_union(b1, b2, run, side), side)


def _nested(tree):
    """The reference union of a binary tree of automata (a leaf, or a pair
    of trees), nested as `reference_products.union` calls, and its leaves
    in order as (tag, automaton, lift): the tag the nesting puts on the
    leaf's states, and a lift of a leaf run through every level to a run
    of the whole from u0."""
    if isinstance(tree, BuchiAutomaton):
        return tree, [("", tree, lambda run: run)]
    (b1, below1), (b2, below2) = map(_nested, tree)
    old = ref.union(b1, b2)
    leaves = []
    for side, tag, below in (("left", "L", below1), ("right", "R", below2)):
        for inner, b, lift in below:
            leaves.append((f"{tag}.{inner}" if inner else tag, b,
                           lambda run, lift=lift, side=side:
                           _old_lift(old, lift(run), side)))
    return old, leaves


def _union_agrees(rng: random.Random, tree) -> tuple[int, int]:
    """The flat union of a tree's leaves, tagged as the nesting tags them,
    is the reachable part of the nested reference, and a random walk of
    each leaf lifts by its position as the reference lifts it through every
    level; the yes answers and the lifted steps."""
    old, leaves = _nested(tree)
    new = union(*((tag, b) for tag, b, _ in leaves))
    _assert_reachable_part(new, old)
    yes, lifted = _agree(rng, new, old), 0
    for side, (_, b, lift) in enumerate(leaves):
        run = _walk(rng, b, rng.randint(0, 6))
        _same_route(new, lift_run_union(new, run, side), old, lift(run))
        lifted += len(run.indices)
    return yes, lifted


def _tree(shape, draw):
    """A tree of the shape's nesting whose leaves are drawn left to right."""
    return (draw() if isinstance(shape, int)
            else tuple(_tree(part, draw) for part in shape))


# three and four sides, nested to the left, to the right and both ways
NARY = (((0, 1), 2), (0, (1, 2)), (((0, 1), 2), 3), ((0, 1), (2, 3)), (0, ((1, 2), 3)))


def test_union_is_the_reachable_part_of_the_reference():
    rng = random.Random(24)
    yes = lifted = 0
    for i in range(400):
        k = i % 2
        b1, b2 = (_machine(rng, k, lambdas=k == 0) for _ in range(2))
        y, n = _union_agrees(rng, (b1, b2))
        yes, lifted = yes + y, lifted + n
    assert 300 < yes < 1300 and lifted > 1500
    yes = lifted = 0
    for i in range(200):
        k, shape = i % 2, NARY[i // 2 % len(NARY)]
        tree = _tree(shape, lambda: _machine(rng, k, lambdas=k == 0))
        y, n = _union_agrees(rng, tree)
        yes, lifted = yes + y, lifted + n
    assert 150 < yes < 700 and lifted > 1000


def test_wadge_sum_is_the_reachable_part_of_the_reference():
    rng = random.Random(25)
    yes = 0
    for i in range(300):
        k = i % 2
        small = frozenset({"a"})
        kept = _machine(rng, k, lambdas=k == 0)
        m = kept.machine
        kept = BuchiAutomaton(CounterMachine(
            m.k, small, m.states, m.initial,
            tuple(t for t in m.transitions if t.input in (None, "a"))), kept.accepting)
        # the pair's alphabet grows by a plus letter b and a minus letter c
        big = frozenset({"a", "b", "c"})
        pair, comp = (BuchiAutomaton(CounterMachine(
            x.machine.k, big, x.machine.states, x.machine.initial,
            x.machine.transitions), x.accepting)
            for x in (_machine(rng, k, lambdas=k == 0) for _ in range(2)))
        new = wadge_sum(kept, pair, comp, plus={"b"}, minus={"c"})
        old = ref.wadge_sum(kept, pair, comp, plus={"b"}, minus={"c"})
        _assert_reachable_part(new, old)
        yes += _agree(rng, new, old)
    assert 100 < yes < 1100


SCRIPT_L_CASES = [(make, primes) for make in (m1_aomega, m2_two_counters, m3_alternator)
                  for primes in ((2, 3), (2, 5), (3, 5), (29, 31))]


@pytest.mark.parametrize("make, primes", SCRIPT_L_CASES,
                         ids=[f"{make.__name__}-{p}" for make, p in SCRIPT_L_CASES])
def test_script_l_dumps_as_the_reference(make, primes):
    a = make()
    new, old = build_script_L(a, primes), ref.build_script_L(a, primes)
    assert dump_automaton(new) == dump_automaton(old)
    assert new.table == old.table
    assert new.accepting == old.accepting


def _defects(primes: tuple[int, ...]):
    """D1-D4 with one counter each, nested so that their tags are L.L.L,
    L.L.R, L.R and R."""
    d1, d2 = (BuchiAutomaton(pad_counters(d.machine, 1), d.accepting)
              for d in (build_d1(SIGMA, primes), build_d2(SIGMA, primes)))
    return ((d1, d2), build_d3(SIGMA, primes)), build_d4(SIGMA, primes)


@pytest.mark.parametrize("primes", [(2, 3), (2, 5), (3, 5)])
def test_h_complement_is_the_reachable_part_of_the_nested_reference(primes):
    old, leaves = _nested(_defects(primes))
    new = build_h_complement(SIGMA, primes)
    _assert_reachable_part(new, old)
    assert new.params["tags"] == tuple(tag for tag, _, _ in leaves)


def test_union_route_agrees_with_the_reference_on_script_l_certificates():
    rng = random.Random(26)
    for a in (m2_two_counters(), m3_alternator()):
        out = compose_pipeline(a, primes=(2, 3))
        new = out.automaton.source
        main, *defects = new.source
        old, leaves = _nested((main, (((defects[0], defects[1]), defects[2]), defects[3])))
        assert new.params["tags"] == tuple(tag for tag, _, _ in leaves)
        _assert_reachable_part(new, old)
        for _ in range(6):
            word = (m2_word(rng, 1)[:4] if a.machine.states == {"p", "q"}
                    else ["a", "b"] * rng.randint(1, 2))
            cert = lift_run_script_L(main, run_of(a, word))
            _same_route(new, lift_run_union(new, cert.run, 0), old, leaves[0][2](cert.run))
        # and each defect side, on random walks of D1-D4
        for side in range(1, 5):
            for _ in range(6):
                run = _walk(rng, new.source[side], rng.randint(1, 12))
                _same_route(new, lift_run_union(new, run, side), old, leaves[side][2](run))


@pytest.mark.parametrize("make", [m2_two_counters, m3_alternator])
def test_every_defect_side_lifts_through_the_pipeline(make):
    """Random walks of each of D1-D4 go through the union lift by side
    position and then the filler lift, and validate on the final automaton:
    the route a certificate of the defect side takes."""
    rng = random.Random(27)
    out = compose_pipeline(make(), primes=(2, 3))
    u, final = out.automaton.source, out.automaton.machine
    steps = 0
    for side in range(1, 5):
        for _ in range(20):
            run = _walk(rng, u.source[side], rng.randint(1, 16))
            cert = lift_run_phi(out.automaton, lift_run_union(u, run, side))
            word = [tok for tok in cert.run.consumed if tok is not None]
            assert validate_run(final, word, cert.run) is None
            assert cert.run.start.state == final.initial
            steps += len(run.indices)
    assert steps > 400


def _k0(alphabet, states, initial, accepting, edges) -> BuchiAutomaton:
    m = CounterMachine(
        k=0, alphabet=frozenset(alphabet), states=tuple(states), initial=initial,
        transitions=tuple(Transition(s, x, (), d, ()) for s, x, d in edges))
    return BuchiAutomaton(m, frozenset(accepting))


def _last_letter() -> BuchiAutomaton:
    # deterministic complete guard: accepting after each b
    return _k0(SIGMA, ("n", "y"), "n", ("y",),
               [("n", "a", "n"), ("n", "b", "y"), ("y", "a", "n"), ("y", "b", "y")])


def _wadge():
    y = {"a", "p", "m"}
    kept = _k0({"a"}, ("l0",), "l0", ("l0",), [("l0", "a", "l0")])
    pair = _k0(y, ("s0", "s1"), "s0", ("s1",),
               [("s0", "p", "s1"), ("s0", "a", "s0"), ("s0", "m", "s0"),
                ("s1", "p", "s1"), ("s1", "a", "s0"), ("s1", "m", "s0")])
    comp = _k0(y, ("g0", "g1"), "g0", ("g1",),
               [("g0", "p", "g0"), ("g0", "a", "g1"), ("g1", "a", "g1"),
                ("g1", "m", "g1")])
    return wadge_sum(kept, pair, comp, plus={"p"}, minus={"m"})


BUILDS = {
    "union": lambda: union(("L", m2_two_counters()), ("R", m3_alternator())),
    "wadge_sum": _wadge,
    "build_h_complement": lambda: build_h_complement(SIGMA, (2, 3)),
    "build_script_L": lambda: build_script_L(m2_two_counters(), (2, 3)),
    "build_phi_wrapper": lambda: build_phi_wrapper(
        build_script_L(m3_alternator(), (2, 3)), 5),
    "intersect_det_buchi": lambda: intersect_det_buchi(
        _k0(SIGMA, ("p", "q"), "p", ("q",),
            [("p", "a", "p"), ("p", "b", "q"), ("q", "a", "p")]),
        _last_letter()),
    "build_realtime8": lambda: build_realtime8(m1_aomega(), S_override=72),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_builder_holds_only_reachable_states(name):
    m = BUILDS[name]().machine
    assert _reachable(m) == m.states


def test_m2_desk_pipeline_unions_drop_their_unreachable_states():
    a = m2_two_counters()
    out = compose_pipeline(a, primes=(2, 3))
    b_main = out.stage("script-l")[2]
    defect, top = build_h_complement(a.machine.alphabet, (2, 3)), out.stage("union")[2]
    assert a.machine.alphabet == set(SIGMA)
    ((d1, d2), d3), d4 = _defects((2, 3))
    old_defect = ref.union(ref.union(ref.union(d1, d2), d3), d4)
    old_top = ref.union(b_main, old_defect)
    assert (len(old_defect.machine.states), len(defect.machine.states)) == (41, 37)
    assert (len(old_top.machine.states), len(top.machine.states)) == (83, 77)
    assert defect.machine.states == _reachable(old_defect.machine)
    assert top.machine.states == _reachable(old_top.machine)


_DUMPS = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from conftest import m2_two_counters
from omegacount.constructions import build_script_L, compose_pipeline
from omegacount.fileio import dump_automaton

a = m2_two_counters()
for aut in (build_script_L(a, (2, 3)),
            compose_pipeline(a, primes=(2, 3)).automaton):
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
