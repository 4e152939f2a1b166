"""The jumped frontier search over (pattern, count) runs.

`words.coded_runs` must expand to `coded_prefix`.  `exact_prefix_reach`
over runs walks a repeated pattern only until its frontier repeats up to a
shift, and then extends it across the remaining repeats by arithmetic; it
must equal the letter-by-letter search over the expanded word frontier by
frontier: sizes, visits at several positions, first empty position and
`capped`.  The hand-built machines pin the cases the jump's conditions
exist for; the seeded ones, D1-D4 and the pipelines cover the rest.
"""

import itertools
import random

import pytest

import reference_engine as ref
from omegacount import engine
from omegacount.constructions import (build_d1, build_d2, build_d3, build_d4,
                                      build_realtime8, compose_pipeline)
from omegacount.engine import (PrefixReach, _Stretch, bounded_explore,
                               exact_prefix_reach)
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 Transition)
from omegacount.words import (HCoding, LassoWord, PhiCoding, ThetaCoding,
                              coded_prefix, coded_runs)

from conftest import m1_aomega, m2_two_counters, m3_alternator

PRIMES = (2, 3)


def _letters(runs) -> list[str]:
    return [a for pattern, count in runs for _ in range(count) for a in pattern]


def _jumps(r: PrefixReach) -> int:
    return sum(isinstance(p, _Stretch) and len(p.period[0]) > 0
               for p in getattr(r.frontiers, "_pieces", ()))


def _same(b: BuchiAutomaton, runs, cap: int = 10 ** 7) -> PrefixReach:
    """The jumped search over runs, asserted equal to the letter-by-letter
    search over their letters."""
    got = exact_prefix_reach(b, runs, cap)
    want = exact_prefix_reach(b, _letters(runs), cap)
    assert got.capped is want.capped
    assert got.sizes() == want.sizes()
    assert got.first_empty_position() == want.first_empty_position()
    n = len(want.frontiers)
    for pos in sorted({0, 1, n // 3, n // 2, n - 2, n - 1, -1}):
        if -n <= pos < n:
            assert got.max_visits(pos) == want.max_visits(pos), pos
    assert got.frontiers == want.frontiers
    assert len(got.frontiers[-1]) == len(want.frontiers[-1])
    return got


def _machine(k: int, accepting, *rows) -> BuchiAutomaton:
    states = sorted({r[0] for r in rows} | {r[3] for r in rows})
    letters = frozenset(r[1] for r in rows)
    m = CounterMachine(k=k, alphabet=letters, states=states, initial=rows[0][0],
                       transitions=tuple(Transition(*r) for r in rows))
    return BuchiAutomaton(m, frozenset(accepting))


# -- runs ----------------------------------------------------------------

CODINGS = (ThetaCoding(2), ThetaCoding(3), HCoding((2, 3)), HCoding((2,)),
           PhiCoding(1), PhiCoding(5))


def test_coded_runs_expand_to_coded_prefix():
    rng = random.Random(24)
    chains = [()] + [(c,) for c in CODINGS] + [
        (c, d) for c, d in itertools.product(CODINGS, repeat=2) if type(c) is not type(d)]
    for chain in chains:
        for _ in range(6):
            spoke = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            cycle = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            x = LassoWord(spoke, cycle, frozenset("ab"))
            for n in (0, 1, 2, 5, 6, 7, 13, 40, 41, 100, 300, 1297):
                runs = coded_runs(x, chain, n)
                assert _letters(runs) == coded_prefix(x, chain, n), (x, chain, n)
                assert all(pattern and count >= 1 for pattern, count in runs)


def test_coded_runs_keep_the_repeats():
    x = LassoWord(("a",), ("b", "a"), frozenset("ab"))
    assert coded_runs(x, (), 6) == ((("a",), 1), (("b", "a"), 2), (("b",), 1))
    h = coded_runs(x, (HCoding(PRIMES), PhiCoding(2)), 60)
    assert h[:3] == ((("F", "F", "A"), 1), (("F", "F", "0"), 6), (("F", "F", "a"), 1))
    # 60 letters are 20 phi blocks, so the 0^36 run is cut after 11
    assert h[3:] == ((("F", "F", "B"), 1), (("F", "F", "0"), 11))
    assert coded_runs(x, (ThetaCoding(2),), 9) == (
        (("a",), 1), (("E",), 2), (("b",), 1), (("E",), 4), (("a",), 1))


# -- hand-built soundness cases -------------------------------------------

def test_a_merge_whose_winner_changes_is_not_jumped_early():
    # X keeps 10 visits and Y gains one per (a, b): at iteration i their
    # merges into M read 10 + 0*i and 5 + 1*i, so M's winner switches at
    # i = 5, after the frontier has repeated up to a shift
    b = _machine(0, {"s", "Y"},
                 ("i", "c", (), "s", ()), ("i", "c", (), "u", ()),
                 ("s", "c", (), "s", ()), ("u", "c", (), "u", ()),
                 ("s", "d", (), "X", ()), ("u", "d", (), "Y", ()),
                 ("X", "e", (), "X", ()), ("Y", "e", (), "Y", ()),
                 ("X", "a", (), "X1", ()), ("X1", "b", (), "X", ()), ("X1", "b", (), "M", ()),
                 ("Y", "a", (), "Y1", ()), ("Y1", "b", (), "Y", ()), ("Y1", "b", (), "M", ()))
    runs = ((("c",), 10), (("d",), 1), (("e",), 4), (("a", "b"), 30))
    r = _same(b, runs)
    assert _jumps(r) >= 1
    visits = {cfg.state: v for cfg, v in r.frontiers[-1].items()}
    assert visits == {"X": 10, "M": 34, "Y": 35}


def test_a_counter_that_reaches_zero_mid_stretch():
    # p counts up on u, then pays one per a and moves to z on zero
    b = _machine(1, {"p"},
                 ("p", "u", (0,), "p", (1,)), ("p", "u", (1,), "p", (1,)),
                 ("p", "a", (1,), "p", (-1,)), ("p", "a", (0,), "z", (0,)),
                 ("z", "a", (0,), "z", (0,)))
    for up in (3, 9, 40):
        r = _same(b, ((("u",), up), (("a",), 60)))
        assert _jumps(r) >= 1
    # the same with a two-letter pattern and a second counter at rest
    b = _machine(2, {"q"},
                 ("p", "u", (0, 0), "p", (1, 0)), ("p", "u", (1, 0), "p", (1, 0)),
                 ("p", "a", (1, 0), "q", (-1, 0)), ("q", "b", (1, 0), "p", (0, 0)),
                 ("q", "b", (0, 0), "z", (0, 1)), ("p", "a", (0, 0), "z", (0, 1)),
                 ("z", "a", (0, 1), "z", (0, 1)), ("z", "b", (0, 1), "z", (0, 0)))
    _same(b, ((("u",), 11), (("a", "b"), 50)))


def test_states_that_swap_roles_each_period_are_not_jumped():
    # p and r trade places every four letters and only p's path visits an
    # accepting state, so over one period p's visits move by 10 and r's by
    # -9, and back the next: the shifts at the period's end differ from
    # those at its start
    b = _machine(0, {"x", "p1"},
                 ("i", "c", (), "x", ()), ("i", "c", (), "y", ()),
                 ("x", "c", (), "x", ()), ("y", "c", (), "y", ()),
                 ("x", "d", (), "r", ()), ("y", "d", (), "p", ()),
                 ("p", "a", (), "p1", ()), ("p1", "a", (), "p2", ()),
                 ("p2", "a", (), "p3", ()), ("p3", "a", (), "r", ()),
                 ("r", "a", (), "r1", ()), ("r1", "a", (), "r2", ()),
                 ("r2", "a", (), "r3", ()), ("r3", "a", (), "p", ()))
    r = _same(b, ((("c",), 10), (("d",), 1), (("a",), 40)))
    assert {cfg.state: v for cfg, v in r.frontiers[-1].items()} == {"p": 5, "r": 15}


def test_two_configurations_in_one_state_are_walked():
    # p either counts an a or not, so every count up to i is in state p
    b = _machine(1, {"p"},
                 ("p", "a", (0,), "p", (1,)), ("p", "a", (1,), "p", (1,)),
                 ("p", "a", (0,), "p", (0,)), ("p", "a", (1,), "p", (0,)))
    r = _same(b, ((("a",), 40),))
    assert _jumps(r) == 0 and r.sizes()[-1] == 41


def test_a_frontier_that_dies_inside_a_stretch():
    # the counter runs out at an a, mid-pattern, and nothing reads a at 0
    b = _machine(1, {"p"},
                 ("p", "u", (0,), "p", (1,)), ("p", "u", (1,), "p", (1,)),
                 ("p", "a", (1,), "q", (0,)), ("q", "b", (1,), "p", (-1,)))
    r = _same(b, ((("u",), 25), (("a", "b"), 100), (("u",), 3)))
    assert _jumps(r) >= 1
    assert r.first_empty_position() == 25 + 2 * 25 + 1
    assert len(r.frontiers) == 25 + 200 + 3 + 1


def test_a_visited_cap_crossed_inside_a_jump():
    # two configurations per position after the first, p counting and r, s
    # taking turns, so the frontier repeats every two letters
    b = _machine(1, {"p"},
                 ("i", "u", (0,), "p", (1,)), ("i", "u", (0,), "r", (0,)),
                 ("p", "u", (1,), "p", (1,)), ("r", "u", (0,), "s", (0,)),
                 ("s", "u", (0,), "r", (0,)))
    runs = ((("u",), 500),)
    assert _jumps(_same(b, runs)) >= 1
    for cap in (5, 37, 100, 641, 1000, 1001):
        r = _same(b, runs, cap)
        assert r.capped is (cap < 1001)


# -- differential --------------------------------------------------------

def _random_machine(rng: random.Random) -> BuchiAutomaton:
    k = rng.randint(0, 2)
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    trans = []
    for _ in range(rng.randint(1, 10)):
        guard = tuple(rng.randint(0, 1) for _ in range(k))
        delta = tuple(rng.choice((0, 1) if g == 0 else (-1, 0, 1)) for g in guard)
        trans.append(Transition(rng.choice(states), rng.choice("ab"), guard,
                                rng.choice(states), delta))
    m = CounterMachine(k=k, alphabet=frozenset("ab"), states=states,
                       initial="s0", transitions=tuple(trans))
    return BuchiAutomaton(m, frozenset(s for s in states if rng.random() < 0.5))


def test_seeded_machines_over_run_length_words():
    rng = random.Random(2024)
    jumped = capped = 0
    for _ in range(300):
        b = _random_machine(rng)
        for _ in range(3):
            runs = tuple((tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))),
                          rng.randint(1, 60)) for _ in range(rng.randint(1, 3)))
            cap = rng.choice((10, 60, 300, 10 ** 7))
            r = _same(b, runs, cap)
            jumped += _jumps(r) > 0
            capped += r.capped
    assert jumped > 100 and capped > 50


def test_d1_to_d4_over_coded_lassos():
    sigma = frozenset("ab")
    ds = [build(sigma, PRIMES) for build in (build_d1, build_d2, build_d3, build_d4)]
    rng = random.Random(7)
    jumped = 0
    for _ in range(12):
        spoke = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
        cycle = tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
        coded = LassoWord(spoke, cycle, sigma)
        plain = LassoWord(tuple(rng.choice("AB0a") for _ in range(rng.randint(0, 4))),
                          tuple(rng.choice("AB0a") for _ in range(rng.randint(1, 4))),
                          frozenset("AB0a"))
        for d in ds:
            for runs in (coded_runs(coded, (HCoding(PRIMES),), 500),
                         coded_runs(plain, (), 60)):
                jumped += _jumps(_same(d, runs)) > 0
    assert jumped > 40


@pytest.mark.parametrize("source", [m2_two_counters, m3_alternator])
def test_pipelines_over_phi_h_words(source):
    b = compose_pipeline(source(), primes=PRIMES).automaton
    chain = (HCoding(PRIMES), PhiCoding(5))
    x = LassoWord(("a", "a", "b"), ("a", "a", "a", "b"), frozenset("ab"))
    r = _same(b, coded_runs(x, chain, 20000))
    assert _jumps(r) >= 5 and r.sizes()[-1] > 0
    for n in (0, 1, 5, 6, 7, 1296):
        _same(b, coded_runs(x, chain, n))
    _same(b, coded_runs(LassoWord((), ("a",), frozenset("ab")), chain, 3000))


def test_realtime8_over_a_theta_word(monkeypatch):
    # the acceptor's frontier repeats every S = 72 letters of an E-run, and
    # twelve keys 6 letters apart span it, so eight counters are jumped
    monkeypatch.setattr(engine, "_KEYED_LETTERS", 6)
    b = build_realtime8(m1_aomega(), S_override=72)
    runs = coded_runs(LassoWord((), ("a",), frozenset("a")), (ThetaCoding(72),), 6000)
    assert _jumps(_same(b, runs)) == 2
    for cap in (50, 3000, 5300):
        assert _same(b, runs, cap).capped


# -- the frontiers view --------------------------------------------------

def test_a_walked_search_equals_the_reference_and_keeps_its_dicts():
    rng = random.Random(31)
    died = 0
    for _ in range(200):
        b = _random_machine(rng)
        word = [rng.choice("ab") for _ in range(rng.randint(0, 8))]
        cap = rng.choice((2, 6, 10 ** 7))
        got = exact_prefix_reach(b, word, cap)
        want = ref.exact_prefix_reach(b, word, cap)
        assert got.frontiers == want.frontiers and got.capped is want.capped
        if isinstance(got.frontiers, tuple):
            continue
        # an early death: the walked dicts, then one empty tail
        walked, tail = got.frontiers._pieces
        assert isinstance(walked, list) and tail.period == ({},)
        assert all(a is s for a, s in zip(got.frontiers, walked))
        assert all(got.frontiers[i] is walked[i] for i in range(len(walked)))
        died += 1
    assert died > 20


def test_the_view_reads_like_a_tuple_of_dicts():
    b = _machine(1, {"p"},
                 ("p", "u", (0,), "p", (1,)), ("p", "u", (1,), "p", (1,)))
    r = exact_prefix_reach(b, ((("u",), 30),))
    want = exact_prefix_reach(b, ["u"] * 30)
    assert _jumps(r) == 1
    assert r == want and r.frontiers == tuple(want.frontiers)
    assert r.frontiers[3:9] == tuple(want.frontiers)[3:9]
    assert r.frontiers[-1] == want.frontiers[30] == {Configuration("p", (30,)): 31}
    with pytest.raises(IndexError):
        r.frontiers[31]
    # the constructor still takes a tuple of dicts
    assert PrefixReach(tuple(want.frontiers), False) == r


def test_the_lambda_path_walks_every_letter():
    b = _machine(1, {"p"},
                 ("p", "u", (0,), "p", (1,)), ("p", "u", (1,), "p", (1,)))
    r = bounded_explore(b, ((("u",), 30),), 1)
    assert _jumps(r) == 0 and r == bounded_explore(b, ["u"] * 30, 1)


# -- the refusals inside _jump --------------------------------------------

def _as_the_letter_walk(b: BuchiAutomaton, runs) -> PrefixReach:
    """The jumped search over runs, asserted equal frontier by frontier to
    the reference letter walk over their letters."""
    got = exact_prefix_reach(b, runs)
    want = ref.exact_prefix_reach(b, _letters(runs))
    assert got.capped is want.capped
    assert len(got.frontiers) == len(want.frontiers)
    for i, (g, w) in enumerate(zip(got.frontiers, want.frontiers)):
        assert g == w, i
    return got



def test_two_configurations_in_one_state_inside_a_period():
    # the keyed frontiers are {Q, P}, one configuration each, with both
    # counters falling by one per a b c d; inside the period Q's path
    # through Y and P's through PY meet in X, Q's two below its own count,
    # and X goes on to W only at zero.  Sized by P's copy in X alone, a
    # jump would run on past the period where Q's copy reaches zero
    rows = [("I", "u", (0,), "I", (1,)), ("I", "u", (1,), "I", (1,)),
            ("I", "v", (1,), "Q", (0,)), ("I", "v", (1,), "P", (0,)),
            ("Q", "u", (1,), "Q", (0,)), ("P", "u", (1,), "P", (1,)),
            ("Q", "a", (1,), "Q1", (0,)), ("Q", "a", (1,), "Y", (-1,)),
            ("P", "a", (1,), "P1", (0,)), ("P", "a", (1,), "PY", (0,)),
            ("Y", "b", (1,), "X", (-1,)), ("PY", "b", (1,), "X", (0,)),
            ("X", "c", (0,), "W", (0,))]
    for head in ("Q", "P"):
        for g in (0, 1):
            rows += [(f"{head}1", "b", (g,), f"{head}2", (0,)),
                     (f"{head}2", "c", (g,), f"{head}3", (0,))]
        rows.append((f"{head}3", "d", (1,), head, (-1,)))
    b = _machine(1, {"W"}, *rows)
    for m in (3, 5, 9):
        r = _as_the_letter_walk(b, ((("u",), m), (("v",), 1), (("u",), 12),
                                    (("a", "b", "c", "d"), 30)))
        # W is reached once, when Q's copy in X is at zero
        reached = [i for i, f in enumerate(r.frontiers)
                   if any(c.state == "W" for c in f)]
        assert reached == [m + 1 + 12 + 4 * (m - 2) + 3]


def test_a_and_b_holding_different_states_inside_a_period():
    # p's counter falls by one per a b c d through y, until x finds it at
    # zero and the path through z brings it back to two: from then on the
    # keyed frontier is always {p} with a positive counter, while the
    # period's third position alternates between y and z
    rows = [("i", "u", (0,), "i", (1,)), ("i", "u", (1,), "i", (1,)),
            ("i", "v", (1,), "p", (0,)),
            ("p", "a", (1,), "x", (-1,)),
            ("x", "b", (1,), "y", (0,)), ("x", "b", (0,), "z", (1,)),
            ("y", "c", (1,), "w", (0,)), ("z", "c", (1,), "w", (1,)),
            ("w", "d", (1,), "p", (0,))]
    b = _machine(1, {"z"}, *rows)
    for up in (1, 2, 6):
        r = _as_the_letter_walk(b, ((("u",), up), (("v",), 1),
                                    (("a", "b", "c", "d"), 40)))
        assert r.sizes()[-1] == 1


def test_a_merge_whose_winner_has_a_new_move_in_b():
    # S and T run the same counter through two copies of one cycle; S1 is
    # accepting, so S gains a visit per period and T none.  In the first
    # period S1's counter is 0 and only T1 moves into X; from the second
    # S1 moves into X as well and wins, so X's visits grow by two over
    # the pair of periods, faster than any move into X carries them
    rows = [("I", "u", (0,), "S", (1,)), ("I", "u", (0,), "T", (1,)),
            ("S1", "b", (1,), "X", (0,)),
            ("T1", "b", (0,), "X", (0,)), ("T1", "b", (1,), "X", (0,))]
    for head in ("S", "T"):
        rows.append((head, "a", (1,), f"{head}1", (-1,)))
        for g in (0, 1):
            rows += [(f"{head}1", "b", (g,), f"{head}2", (1,)),
                     (f"{head}2", "c", (g,), f"{head}3", (0,)),
                     (f"{head}3", "d", (g,), head, (1,))]
    b = _machine(1, {"S1"}, *rows)
    r = _as_the_letter_walk(b, ((("u",), 1), (("a", "b", "c", "d"), 40)))
    assert _jumps(r) >= 1
    # X after the last b: one more visit than S1 had there
    assert r.max_visits(1 + 4 * 39 + 2) == 40
