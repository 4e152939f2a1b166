"""Reachability, deterministic walks, lasso membership, witness scans."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from omegacount import engine
from omegacount.engine import (bounded_explore, d34_witness_scan,
                               deterministic_run, exact_prefix_reach,
                               nba_lasso_member)
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 MachineError, Transition, step, validate_run)
from omegacount.words import LassoWord
from conftest import lasso_member_oracle, m1_aomega, m2_two_counters


def test_exact_prefix_reach_counts_configurations():
    b = m2_two_counters()
    r = exact_prefix_reach(b, ["a", "a", "b", "b"])
    # deterministic machine: single configuration per position
    assert r.sizes() == [1, 1, 1, 1, 1]
    assert not r.capped
    # two b's at q, accepting; start and a's are not
    assert r.max_visits(4) == 2
    assert r.first_empty_position() is None


def test_exact_prefix_reach_dies_on_impossible_letter():
    b = m2_two_counters()
    r = exact_prefix_reach(b, ["b", "a"])
    assert r.sizes() == [1, 0, 0]
    assert r.first_empty_position() == 1


def test_exact_prefix_reach_rejects_lambda_machines():
    m = CounterMachine(k=1, alphabet=frozenset({"a"}), states=("p",),
                       initial="p",
                       transitions=(Transition("p", None, (0,), "p", (0,)),))
    with pytest.raises(MachineError):
        exact_prefix_reach(BuchiAutomaton(m, frozenset()), ["a"])


def test_exact_prefix_reach_tracks_nondeterministic_branching():
    # two a-successors from the initial state, one accepting
    m = CounterMachine(k=0, alphabet=frozenset({"a"}),
                       states=("p", "q", "r"), initial="p",
                       transitions=(Transition("p", "a", (), "q", ()),
                                    Transition("p", "a", (), "r", ()),
                                    Transition("q", "a", (), "q", ()),
                                    Transition("r", "a", (), "r", ())))
    b = BuchiAutomaton(m, frozenset({"q"}))
    r = exact_prefix_reach(b, ["a", "a"])
    assert r.sizes() == [1, 2, 2]
    assert r.max_visits(2) == 2


def test_bounded_explore_uses_lambda_budget():
    # one lambda hop is needed to reach the state that reads a
    m = CounterMachine(k=0, alphabet=frozenset({"a"}),
                       states=("p", "q"), initial="p",
                       transitions=(Transition("p", None, (), "q", ()),
                                    Transition("q", "a", (), "q", ())))
    b = BuchiAutomaton(m, frozenset({"q"}))
    dead = bounded_explore(b, ["a"], lambda_budget=0)
    assert dead.sizes()[-1] == 0
    live = bounded_explore(b, ["a"], lambda_budget=1)
    assert Configuration("q", ()) in live.frontiers[1]
    assert not live.capped
    assert live.max_visits() == 2  # lambda entry plus the read


def _lambda_loop():
    # accepting q reads a and may idle on a lambda self-loop
    m = CounterMachine(k=0, alphabet=frozenset({"a"}), states=("q",),
                       initial="q",
                       transitions=(Transition("q", None, (), "q", ()),
                                    Transition("q", "a", (), "q", ())))
    return BuchiAutomaton(m, frozenset({"q"}))


def test_bounded_explore_counts_configurations_not_lambda_steps():
    r = bounded_explore(_lambda_loop(), ["a", "a"], lambda_budget=3)
    # one configuration per position, however many lambda-steps reach it
    assert r.sizes() == [1, 1, 1]
    assert r.frontiers[2] == {Configuration("q", ()): 12}
    assert r.max_visits() == 12  # 1 at the start, 3 per closure (x3), 1 per letter (x2)
    assert not r.capped


def test_bounded_explore_stops_when_a_lambda_level_repeats(monkeypatch):
    # q made non-accepting: the first lambda level equals the level it
    # came from, so the closure stops there
    b = BuchiAutomaton(_lambda_loop().machine, frozenset())
    calls = []
    advance = engine._advance
    monkeypatch.setattr(engine, "_advance",
                        lambda *args: calls.append(args[3]) or advance(*args))
    r = bounded_explore(b, ["a"] * 50, lambda_budget=1000)
    assert r.sizes() == [1] * 51 and r.max_visits() == 0
    # one letter step per letter, one lambda step per closure
    assert calls.count("a") == 50 and calls.count(None) == 51
    # levels that keep growing (accepting q) still run the whole budget
    calls.clear()
    assert bounded_explore(_lambda_loop(), ["a", "a"], 3).max_visits() == 12
    assert calls.count(None) == 9


def test_bounded_explore_caps_on_configurations():
    # three configurations in all: one per position
    b = _lambda_loop()
    assert not bounded_explore(b, ["a", "a"], 3, visited_cap=3).capped
    assert bounded_explore(b, ["a", "a"], 3, visited_cap=2).capped


def test_bounded_explore_rejects_negative_budget():
    with pytest.raises(ValueError):
        bounded_explore(_lambda_loop(), ["a"], lambda_budget=-1)


def test_bounded_explore_leaves_the_collector_as_it_found_it(monkeypatch):
    advance, inside = engine._advance, []

    def watched(*args):
        inside.append(gc.isenabled())
        if args[3] == "b":
            raise MachineError("stop")
        return advance(*args)

    monkeypatch.setattr(engine, "_advance", watched)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            inside.clear()
            # off while the frontiers grow, as it was afterwards, also when
            # a step raises
            assert exact_prefix_reach(m2_two_counters(), ["a", "a"]).sizes() == [1, 1, 1]
            assert gc.isenabled() == enabled
            with pytest.raises(MachineError, match="stop"):
                bounded_explore(m2_two_counters(), ["a", "b"], 1)
            assert inside and not any(inside) and gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_deterministic_run_walks_and_rejects_choice():
    b = m2_two_counters()
    run = deterministic_run(b, ["a", "a", "b"])
    assert validate_run(b.machine, ["a", "a", "b"], run) is None
    assert run.steps[-1].result == Configuration("q", (2, 1))
    m = CounterMachine(k=0, alphabet=frozenset({"a"}),
                       states=("p", "q"), initial="p",
                       transitions=(Transition("p", "a", (), "p", ()),
                                    Transition("p", "a", (), "q", ())))
    with pytest.raises(ValueError):
        deterministic_run(BuchiAutomaton(m, frozenset()), ["a"])


def test_deterministic_run_takes_list_guards():
    # the constructor accepts list guards and deltas, as step() does
    m = CounterMachine(1, frozenset("ab"), frozenset("pq"), "p",
                       (Transition("p", "a", [0], "p", [1]),
                        Transition("p", "a", [1], "p", [1]),
                        Transition("p", "b", [1], "q", [-1]),
                        Transition("q", "b", [1], "q", [-1]),
                        Transition("q", "a", [0], "p", [0])))
    word = list("aaabbba")
    run = deterministic_run(BuchiAutomaton(m, frozenset()), word)
    cfg, want = Configuration("p", (0,)), []
    for a in word:
        (i, cfg), = step(m, cfg, a)
        want.append((a, i, cfg))
    assert [(s.consumed, s.transition_index, s.result) for s in run.steps] == want
    assert validate_run(m, word, run) is None


def test_nba_lasso_member_requires_k0():
    with pytest.raises(MachineError):
        nba_lasso_member(m1_aomega(), LassoWord((), ("a",), frozenset({"a"})))


@st.composite
def k0_and_lasso(draw):
    n = draw(st.integers(1, 3))
    states = tuple(f"s{i}" for i in range(n))
    trans = []
    for src in states:
        for a in ("a", "b"):
            for dst in states:
                if draw(st.booleans()):
                    trans.append(Transition(src, a, (), dst, ()))
    accepting = frozenset(s for s in states if draw(st.booleans()))
    m = CounterMachine(k=0, alphabet=frozenset({"a", "b"}), states=states,
                       initial="s0", transitions=tuple(trans))
    spoke = tuple(draw(st.lists(st.sampled_from(["a", "b"]), max_size=3)))
    cycle = tuple(draw(st.lists(st.sampled_from(["a", "b"]), min_size=1,
                                max_size=4)))
    return BuchiAutomaton(m, accepting), spoke, cycle


@settings(max_examples=120, deadline=None)
@given(k0_and_lasso())
def test_nba_lasso_member_matches_oracle(case):
    b, spoke, cycle = case
    w = LassoWord(spoke, cycle, frozenset({"a", "b"}))
    assert nba_lasso_member(b, w) is lasso_member_oracle(b, spoke, cycle)


def _lasso(*letters, cycle):
    return LassoWord(tuple(letters), tuple(cycle), frozenset("abAB0"))


def test_d34_scan_finds_d3():
    # ratio of the enclosing block is exact (6 = Q*1), so only D3 fires
    spoke = tuple("A") + ("0",) + ("a", "B") + ("0",) * 6 + ("A",) + ("0",) * 2 + ("b",)
    w = _lasso(*spoke, cycle=("0",))
    hit = d34_witness_scan(w, 6)
    assert hit is not None and hit.cls == "D3"
    assert (hit.n, hit.m) == (6, 2)
    assert hit.position == 4 and hit.end == 14


def test_d34_scan_finds_d4():
    spoke = tuple("A") + ("0",) * 2 + ("a", "B") + ("0",) * 5 + ("A",)
    w = _lasso(*spoke, cycle=("0",))
    hit = d34_witness_scan(w, 6)
    assert hit is not None and hit.cls == "D4"
    assert (hit.n, hit.m) == (2, 5)
    assert hit.end == 11


def test_d34_scan_accepts_exact_ratio():
    # m = Q n is not a D4 witness; equal runs are not D3 witnesses
    spoke = tuple("A") + ("0",) * 1 + ("a", "B") + ("0",) * 6 + ("A",)
    w = _lasso(*spoke, cycle=("0",))
    assert d34_witness_scan(w, 6) is None


def test_d34_scan_sees_witness_inside_cycle_unrolling():
    # the B...A...sigma segment only appears once the cycle wraps
    w = LassoWord(("B",), ("0", "A", "0", "0", "a"), frozenset("aAB0"))
    hit = d34_witness_scan(w, 6)
    assert hit is not None and hit.cls == "D3"
