"""Core machine model: validation, runs, products."""

import pytest
from hypothesis import given, settings, strategies as st

from omegacount.constructions import (build_phi_wrapper, build_realtime8,
                                      build_script_L, lift_run_phi,
                                      lift_run_script_L, lift_run_theta,
                                      project_run_script_L)
from omegacount.machines import (BuchiAutomaton, Built, Configuration, CounterMachine,
                                 MachineError, Run, RunStep, Transition,
                                 buchi_visit_count, intersect_det_buchi,
                                 is_real_time, lambda_burst_bound,
                                 lift_run_intersection, lift_run_union,
                                 pad_counters, pad_run, step, union,
                                 validate_run)
from conftest import lasso_member_oracle, m1_aomega, run_of


def _b(transitions, states=("p",), initial="p", accepting=("p",), k=1,
       alphabet=("a",)):
    m = CounterMachine(k=k, alphabet=frozenset(alphabet), states=states,
                       initial=initial, transitions=tuple(transitions))
    return BuchiAutomaton(machine=m, accepting=frozenset(accepting))


def test_zero_test_consistency_enforced():
    # guard bit 0 means the counter is zero there, so it cannot go down
    with pytest.raises(MachineError):
        _b([Transition("p", "a", (0,), "p", (-1,))])
    _b([Transition("p", "a", (1,), "p", (-1,))])  # fine


def test_machine_validation_rejects_malformed_parts():
    with pytest.raises(MachineError):
        _b([Transition("p", "a", (0, 0), "p", (0,))])  # guard arity
    with pytest.raises(MachineError):
        _b([Transition("p", "a", (0,), "x", (0,))])    # unknown state
    with pytest.raises(MachineError):
        _b([Transition("p", "c", (0,), "p", (0,))])    # unknown letter
    with pytest.raises(MachineError):
        _b([], initial="x")
    with pytest.raises(MachineError):
        _b([Transition("p", "a", (0,), "p", (2,))])    # delta out of range


def test_adjacency_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        CounterMachine(0, {"a"}, {"p"}, "p", (), {"junk": 1})


def test_run_records_compare_and_hash_by_fields():
    # built positionally, as perfbench/bench_gen.py builds them
    a, b = Configuration("p", (1, 0)), Configuration("p", (1, 0))
    s1, s2 = RunStep("a", 3, a), RunStep("a", 3, b)
    assert a == b and a is not b and hash(a) == hash(b)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert a != Configuration("p", (0, 1)) and a != Configuration("q", (1, 0))
    assert s1 != RunStep(None, 3, a) and s1 != RunStep("a", 4, a)
    assert s1 != RunStep("a", 3, Configuration("q", (1, 0)))
    assert {a: 1}[b] == 1 and len({a, b, Configuration("p", (2, 0))}) == 2
    assert {s1: 1}[s2] == 1 and len({s1, s2}) == 1
    assert Run(a, (s1,)) == Run(b, (s2,))
    assert hash(Run(a, (s1,))) == hash(Run(b, (s2,)))
    assert repr(a) == "Configuration(state='p', counters=(1, 0))"
    assert repr(s1) == ("RunStep(consumed='a', transition_index=3, "
                        "result=Configuration(state='p', counters=(1, 0)))")
    assert (s1.consumed, s1.transition_index, s1.result) == ("a", 3, a)


def test_transition_record_compares_and_hashes_by_fields():
    # built positionally, as every builder and loader builds them
    t = Transition("p", "a", (0, 1), "q", (1, 0))
    u = Transition("p", "a", (0, 1), "q", (1, 0))
    assert t == u and t is not u and hash(t) == hash(u)
    for other in (Transition("r", "a", (0, 1), "q", (1, 0)),
                  Transition("p", None, (0, 1), "q", (1, 0)),
                  Transition("p", "a", (1, 1), "q", (1, 0)),
                  Transition("p", "a", (0, 1), "r", (1, 0)),
                  Transition("p", "a", (0, 1), "q", (0, 0))):
        assert t != other
    # a record, not a tuple: it neither equals nor unpacks like one
    assert t != ("p", "a", (0, 1), "q", (1, 0))
    with pytest.raises(TypeError):
        _, _, _, _, _ = t
    assert {t: 1}[u] == 1 and len({t, u, other}) == 2
    assert repr(t) == ("Transition(source='p', input='a', guard=(0, 1), "
                       "destination='q', delta=(1, 0))")
    assert (t.source, t.input, t.guard, t.destination, t.delta) == \
        ("p", "a", (0, 1), "q", (1, 0))
    assert t.matches((0, 2)) and not t.matches((1, 2))


def test_step_filters_by_guard():
    b = _b([Transition("p", "a", (0,), "p", (1,)),
            Transition("p", "a", (1,), "p", (-1,))])
    m = b.machine
    assert [i for i, _ in step(m, Configuration("p", (0,)), "a")] == [0]
    assert [i for i, _ in step(m, Configuration("p", (3,)), "a")] == [1]


def test_validate_run_catches_each_violation_kind():
    b = m1_aomega()
    m = b.machine
    ok = run_of(b, ["a", "a"])
    assert validate_run(m, ["a", "a"], ok) is None
    wrong_word = validate_run(m, ["a"], ok)
    assert wrong_word is not None and wrong_word.reason == "projection"
    bad_delta = Run(ok.start, (ok.steps[0],
                    RunStep("a", 1, Configuration("p", (5, 0)))))
    v = validate_run(m, ["a", "a"], bad_delta)
    assert v is not None and v.reason == "delta"
    bad_idx = Run(ok.start, (RunStep("a", 9, ok.steps[0].result),))
    assert validate_run(m, ["a"], bad_idx).reason == "index"


def test_validate_run_accepts_mid_word_start_but_not_leftover_letters():
    b = m1_aomega()
    # start away from the initial counters is allowed
    run = Run(Configuration("p", (2, 0)),
              (RunStep("a", 1, Configuration("p", (3, 0))),))
    assert validate_run(b.machine, ["a"], run) is None
    assert validate_run(b.machine, ["a", "a"], run).reason == "projection"


def test_real_time_and_burst_bound():
    b = m1_aomega()
    assert is_real_time(b.machine)
    assert lambda_burst_bound(b.machine) == 0
    m = CounterMachine(
        k=1, alphabet=frozenset({"a"}), states=("p", "q"), initial="p",
        transitions=(Transition("p", "a", (0,), "q", (1,)),
                     Transition("q", None, (1,), "p", (-1,))))
    assert not is_real_time(m)
    assert lambda_burst_bound(m) == 1


def test_lambda_cycle_has_unbounded_burst():
    m = CounterMachine(
        k=1, alphabet=frozenset({"a"}), states=("p",), initial="p",
        transitions=(Transition("p", None, (1,), "p", (-1,)),
                     Transition("p", "a", (0,), "p", (1,))))
    assert lambda_burst_bound(m) == float("inf")


def test_buchi_visit_count_includes_start():
    b = m1_aomega()
    run = run_of(b, ["a", "a", "a"])
    assert buchi_visit_count(run, b.accepting) == 4
    assert buchi_visit_count(run, frozenset()) == 0


def test_pad_counters_and_run():
    b = m1_aomega()
    m2 = pad_counters(b.machine, 4)
    assert m2.k == 4
    assert all(t.guard[2:] == (0, 0) and t.delta[2:] == (0, 0)
               for t in m2.transitions)
    run = run_of(b, ["a"])
    r2 = pad_run(run, 4)
    assert r2.start.counters == (0, 0, 0, 0)
    assert validate_run(m2, ["a"], r2) is None
    with pytest.raises(MachineError):
        pad_counters(b.machine, 1)


def test_pad_run_refuses_fewer_counters_as_pad_counters_does():
    b = m1_aomega()
    run = run_of(b, ["a"])
    for pad in (lambda: pad_counters(b.machine, 1), lambda: pad_run(run, 1)):
        with pytest.raises(MachineError, match=r"^cannot pad k=2 down to 1$"):
            pad()
    assert pad_run(run, 2) == run


def _k0(transitions, states, initial, accepting, alphabet):
    m = CounterMachine(k=0, alphabet=frozenset(alphabet), states=states,
                       initial=initial, transitions=tuple(transitions))
    return BuchiAutomaton(machine=m, accepting=frozenset(accepting))


def infinitely_many(letter):
    # two states, accepting exactly on reading `letter`
    other = [a for a in ("a", "b") if a != letter][0]
    return _k0([Transition("n", letter, (), "y", ()),
                Transition("n", other, (), "n", ()),
                Transition("y", letter, (), "y", ()),
                Transition("y", other, (), "n", ())],
               ("n", "y"), "n", ("y",), ("a", "b"))


def test_union_accepts_either_language():
    u = union(("L", infinitely_many("a")), ("R", infinitely_many("b")))
    for cycle, want in ((("a",), True), (("b",), True), (("a", "b"), True)):
        assert lasso_member_oracle(u, (), cycle) is want
    only_niether = _k0([Transition("n", "a", (), "n", ()),
                        Transition("n", "b", (), "n", ())],
                       ("n",), "n", (), ("a", "b"))
    assert lasso_member_oracle(union(("L", only_niether), ("R", only_niether)),
                               (), ("a",)) is False


def test_union_requires_matching_shape():
    with pytest.raises(MachineError):
        union(("L", infinitely_many("a")), ("R", m1_aomega()))  # k differs
    other = _k0([Transition("n", "c", (), "n", ())], ("n",), "n", (), ("c",))
    with pytest.raises(MachineError):
        union(("L", infinitely_many("a")), ("R", other))        # alphabet differs


def test_union_refuses_no_sides_and_a_repeated_tag():
    a = infinitely_many("a")
    with pytest.raises(MachineError, match=r"needs sides with distinct tags, got \[\]"):
        union()
    with pytest.raises(MachineError, match=r"distinct tags, got \['L', 'R', 'L'\]"):
        union(("L", a), ("R", a), ("L", a))
    assert len(union(("L", a)).machine.states) == 3


def test_union_names_the_state_where_two_tags_meet():
    # tag R with state L.q and tag R.L with state q both name R.L.q
    dotted = _k0([Transition("L.q", "a", (), "L.q", ())], ("L.q",), "L.q", (), ("a",))
    plain = _k0([Transition("q", "a", (), "q", ())], ("q",), "q", (), ("a",))
    with pytest.raises(MachineError, match="state names collide: 'R.L.q' names"):
        union(("R", dotted), ("R.L", plain))
    # under tags whose names do not meet, both sides are built
    assert len(union(("R", dotted), ("S", plain)).machine.states) == 3


def test_lift_run_union_retags_and_validates():
    b1, b2 = infinitely_many("a"), infinitely_many("b")
    u = union(("L", b1), ("R", b2), ("X.Y", b1))
    for side, (tag, b) in enumerate((("L.", b1), ("R.", b2), ("X.Y.", b1))):
        src = run_of(b, ["a", "b", "a"])
        lifted = lift_run_union(u, src, side)
        assert validate_run(u.machine, ["a", "b", "a"], lifted) is None
        assert lifted.start.state == "u0"
        assert lifted.states == tuple(tag + q for q in src.states)
        assert u.machine.transitions[lifted.indices[0]].source == "u0"
        # accepting visits carry over one to one
        assert buchi_visit_count(lifted, u.accepting) == \
            buchi_visit_count(src, b.accepting)
    for side in (3, -1):
        with pytest.raises(ValueError, match=f"side {side} is not a position in 0..2"):
            lift_run_union(u, run_of(b1, ["a"]), side)
    with pytest.raises(TypeError):
        lift_run_union(u, run_of(b1, ["a"]), "left")


def test_intersect_det_buchi_language():
    # both infinitely many a and infinitely many b
    prod = intersect_det_buchi(infinitely_many("a"), infinitely_many("b"))
    assert lasso_member_oracle(prod, (), ("a", "b")) is True
    assert lasso_member_oracle(prod, (), ("a",)) is False
    assert lasso_member_oracle(prod, (), ("b",)) is False
    assert lasso_member_oracle(prod, ("b",), ("b", "a")) is True


def test_intersect_requires_deterministic_complete_guard():
    nondet = _k0([Transition("n", "a", (), "n", ()),
                  Transition("n", "a", (), "y", ()),
                  Transition("y", "a", (), "y", ()),
                  Transition("n", "b", (), "n", ()),
                  Transition("y", "b", (), "y", ())],
                 ("n", "y"), "n", ("y",), ("a", "b"))
    with pytest.raises(MachineError):
        intersect_det_buchi(infinitely_many("a"), nondet)
    incomplete = _k0([Transition("n", "a", (), "n", ())],
                     ("n",), "n", ("n",), ("a", "b"))
    with pytest.raises(MachineError):
        intersect_det_buchi(infinitely_many("a"), incomplete)


def test_intersect_refuses_colliding_state_names():
    # ("x&y", "z", 2) and ("x", "y&z", 2) are both reached, and both would
    # be named "x&y&z&2"
    b = _k0([Transition("x", "a", (), "x&y", ()),
             Transition("x&y", "a", (), "x", ()),
             Transition("x", "a", (), "x", ())],
            ("x", "x&y"), "x", ("x",), ("a",))
    d = _k0([Transition("z", "a", (), "y&z", ()),
             Transition("y&z", "a", (), "z", ())],
            ("z", "y&z"), "z", ("z",), ("a",))
    with pytest.raises(MachineError, match="state names collide: 'x&y&z&2' names"):
        intersect_det_buchi(b, d)


def test_lift_run_intersection_validates_in_product():
    b, d = infinitely_many("a"), infinitely_many("b")
    prod = intersect_det_buchi(b, d)
    word = ["a", "b", "a", "b", "a"]
    src = run_of(b, word)
    lifted = lift_run_intersection(prod, src)
    assert validate_run(prod.machine, word, lifted) is None
    assert lifted.start.state == "n&n&1"


def test_lift_run_intersection_refuses_an_off_initial_start():
    b, d = infinitely_many("a"), infinitely_many("b")
    prod = intersect_det_buchi(b, d)
    off = Run(Configuration("y", ()), (RunStep("a", 2, Configuration("y", ())),))
    with pytest.raises(MachineError, match="not at the initial state 'n'"):
        lift_run_intersection(prod, off)


@st.composite
def small_k0(draw):
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
    return BuchiAutomaton(machine=m, accepting=accepting)


@settings(max_examples=40, deadline=None)
@given(small_k0(), small_k0(),
       st.lists(st.sampled_from(["a", "b"]), max_size=3),
       st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3))
def test_union_is_language_or(b1, b2, spoke, cycle):
    got = lasso_member_oracle(union(("L", b1), ("R", b2)), tuple(spoke), tuple(cycle))
    want = (lasso_member_oracle(b1, tuple(spoke), tuple(cycle))
            or lasso_member_oracle(b2, tuple(spoke), tuple(cycle)))
    assert got is want


def test_lifts_take_the_copy_of_two_equal_transitions_the_run_cites():
    """A run citing the second of two equal source transitions lifts
    through the filler wrapper, script-L, the intersection and theta: each
    built transition names the one source index it stands for in the
    build's origin column, and script-L's projection gives back the run's
    own indices."""
    def lifted_origins(b: Built, lifted: Run) -> list:
        word = [tok for tok in lifted.consumed if tok is not None]
        assert validate_run(b.machine, word, lifted) is None
        return [b.origin[i] for i in lifted.indices if b.origin[i] not in (None, -1)]

    t = Transition("p", "a", (0,), "p", (1,))
    b1 = _b([t, t, Transition("p", "a", (1,), "p", (0,))])
    run = Run.from_columns(Configuration("p", (0,)), ("a", "a"), (1, 2),
                           ("p", "p"), ((1,), (1,)))
    w = build_phi_wrapper(b1, 1)
    assert lifted_origins(w, lift_run_phi(w, run).run) == [1, 2]
    bl = build_script_L(b1, (2,))
    cert = lift_run_script_L(bl, run)
    assert lifted_origins(bl, cert.run) == [1, 2]
    assert project_run_script_L(bl, cert) == run
    guard = _b([Transition("s", "a", (), "s", ())], states=("s",), initial="s",
               accepting=("s",), k=0)
    prod = intersect_det_buchi(b1, guard)
    assert lifted_origins(prod, lift_run_intersection(prod, run)) == [1, 2]

    t2 = Transition("p", "a", (0, 0), "p", (1, 0))
    b2 = _b([t2, t2, Transition("p", "a", (1, 0), "p", (0, 0))], k=2)
    run2 = Run.from_columns(Configuration("p", (0, 0)), ("a", "a"), (1, 2),
                            ("p", "p"), ((1, 0), (1, 0)))
    b8 = build_realtime8(b2, S_override=72)
    assert lifted_origins(b8, lift_run_theta(b8, run2).run) == [1, 2]
