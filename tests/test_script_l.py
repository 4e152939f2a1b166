"""Block acceptor over the A/B-marked coding: build, lift, project."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegacount.constructions import (build_script_L, build_script_l_guard,
                                      covered_prefix_length,
                                      lift_run_script_L, project_run_script_L)
from omegacount.engine import deterministic_run
from omegacount.errors import ArityError, BuildScaleError, FreshLetterError
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 MachineError, Run, RunStep, Transition,
                                 is_real_time, lambda_burst_bound,
                                 validate_run)
from omegacount.words import HCoding, LassoWord, coded_prefix, \
    h_block_decompose, h_shape_check

from conftest import (m1_aomega, m2_two_counters, m2_word, m3_alternator,
                      run_of)

PRIMES = (2, 3)


def test_guard_deterministic_complete():
    g = build_script_l_guard({"a", "b"})
    m = g.machine
    assert m.k == 0
    full = {"a", "b", "A", "B", "0"}
    assert m.alphabet == full
    for s in m.states:
        for a in full:
            outs = [t for t in m.transitions if t.source == s and t.input == a]
            assert len(outs) == 1
    assert g.accepting == {"SA", "SS", "SB"}


def test_guard_refuses_coding_letters_in_sigma():
    # a sigma letter equal to the zero would be read as a plain letter
    with pytest.raises(FreshLetterError,
                       match="coding letter '0' collides with the base alphabet"):
        build_script_l_guard({"a", "0"})


def test_guard_classifies_patterns():
    g = build_script_l_guard({"a"})
    ok = deterministic_run(g, list("A00a B000 A0a B0 A".replace(" ", "")))
    assert ok.steps[-1].result.state != "sink"
    # letter repeated inside a block breaks the pattern for good
    bad = deterministic_run(g, list("A0aa"))
    assert bad.steps[-1].result.state == "sink"
    late = deterministic_run(g, list("A0aaB0A0a"))
    assert late.steps[-1].result.state == "sink"


def test_build_shape_m1():
    b = build_script_L(m1_aomega(), PRIMES)
    assert b.machine.k == 1
    assert b.machine.alphabet == {"a", "A", "B", "0"}
    # only multiplications in M1, so no spread-out divisions
    assert is_real_time(b.machine)


def test_build_shape_m2():
    b = build_script_L(m2_two_counters(), PRIMES)
    assert b.machine.k == 1
    # division by 3 costs two silent decrements after the visible one
    assert not is_real_time(b.machine)
    assert lambda_burst_bound(b.machine) <= math.prod(PRIMES) - 1


def test_covered_prefix_length_values():
    q = math.prod(PRIMES)
    assert covered_prefix_length(PRIMES, 1) == 3 + q + q ** 2 == 45
    assert covered_prefix_length(PRIMES, 2) == 300
    assert covered_prefix_length(PRIMES, 3) == 1815


def lift_and_check(a: BuchiAutomaton, word) -> tuple:
    """Lift a greedy run and validate the certificate against the product."""
    b = build_script_L(a, PRIMES)
    run = run_of(a, word)
    cert = lift_run_script_L(b, run)
    coded = [s.consumed for s in cert.run.steps if s.consumed is not None]
    assert validate_run(b.machine, coded, cert.run) is None
    assert cert.run.start.state == b.machine.initial
    assert len(coded) == covered_prefix_length(PRIMES, len(word))
    return b, run, cert, coded


def test_lift_m1_three_blocks():
    b, run, cert, coded = lift_and_check(m1_aomega(), ["a", "a", "a"])
    assert cert.stage == "script-l"
    assert [s.index for s in cert.blocks] == [1, 2, 3]
    # spans tile the whole step sequence
    assert cert.blocks[0].start == 0
    for prev, nxt in zip(cert.blocks, cert.blocks[1:]):
        assert prev.end == nxt.start
    assert cert.blocks[-1].end == len(cert.run.steps)
    assert cert.visits(b.accepting) == 3


def test_lift_word_is_block_shaped():
    a = m1_aomega()
    b = build_script_L(a, PRIMES)
    run = run_of(a, ["a", "a"])
    needed = covered_prefix_length(PRIMES, 2)
    # one extra letter: the next opening marker, which seals block 2
    cert = lift_run_script_L(b, run, prefix_len=needed + 1)
    coded = [s.consumed for s in cert.run.steps if s.consumed is not None]
    assert h_shape_check(coded, {"a"}, PRIMES) is None
    # doubling counter 0 means exponent choice (1, 0) every block
    dec = h_block_decompose(coded, PRIMES, [(1, 0), (1, 0)])
    assert len(dec.blocks) == 2
    assert dec.trailing == 1
    b1, b2 = dec.blocks
    assert (b1.u_len, b1.v_len, b1.w_len, b1.z_len) == (5, 1, 2, 34)
    assert (b2.u_len, b2.v_len, b2.w_len, b2.z_len) == (34, 2, 4, 212)
    assert b2.u_len == b1.z_len


def test_lift_matches_canonical_coding():
    # a machine that bumps both counters per letter walks the ratio-Q coding
    m = CounterMachine(
        k=2, alphabet=frozenset({"c"}), states=("p",), initial="p",
        transitions=(Transition("p", "c", (0, 0), "p", (1, 1)),
                     Transition("p", "c", (1, 1), "p", (1, 1))))
    a = BuchiAutomaton(m, frozenset({"p"}))
    b = build_script_L(a, PRIMES)
    run = run_of(a, ["c", "c"])
    cert = lift_run_script_L(b, run)
    coded = [s.consumed for s in cert.run.steps if s.consumed is not None]
    want = coded_prefix(LassoWord((), ("c",), {"c"}), (HCoding(PRIMES),), len(coded))
    assert coded == want


def test_block_equations_m2():
    a = m2_two_counters()
    word = ["a", "a", "b", "b"]
    run = run_of(a, word)
    needed = covered_prefix_length(PRIMES, len(word))
    b = build_script_L(a, PRIMES)
    cert = lift_run_script_L(b, run, prefix_len=needed + 1)
    coded = [s.consumed for s in cert.run.steps if s.consumed is not None]
    assert validate_run(b.machine, coded, cert.run) is None
    # per-step ratios: x6, x6, /3, /3
    dec = h_block_decompose(coded, PRIMES,
                            [(1, 1), (1, 1), (0, -1), (0, -1)])
    assert len(dec.blocks) == 4
    q = math.prod(PRIMES)
    for i, blk in enumerate(dec.blocks):
        if i == 0:
            assert blk.u_len == q - 1
        else:
            assert blk.u_len == dec.blocks[i - 1].z_len
        assert blk.u_len + blk.v_len == q ** (i + 1)
        assert blk.w_len + blk.z_len == q ** (i + 2)
    assert [blk.v_len for blk in dec.blocks] == [1, 6, 36, 12]
    assert [blk.w_len for blk in dec.blocks] == [6, 36, 12, 4]


def test_project_roundtrip_m1():
    a = m1_aomega()
    b = build_script_L(a, PRIMES)
    run = run_of(a, ["a", "a", "a"])
    cert = lift_run_script_L(b, run)
    assert project_run_script_L(b, cert) == run


def test_project_roundtrip_m2():
    a = m2_two_counters()
    b = build_script_L(a, PRIMES)
    run = run_of(a, ["a", "b", "a", "a"])
    cert = lift_run_script_L(b, run)
    assert project_run_script_L(b, cert) == run


def test_prefix_extension():
    a = m1_aomega()
    bl = build_script_L(a, PRIMES)
    run = run_of(a, ["a", "a"])
    needed = covered_prefix_length(PRIMES, 2)
    # the next marker plus the next block's Q^3 zeros: up to its guess point
    room = 1 + 212 + 4
    for extra in (1, 3, 10, room):
        cert = lift_run_script_L(bl, run, prefix_len=needed + extra)
        coded = [s.consumed for s in cert.run.steps
                 if s.consumed is not None]
        assert len(coded) == needed + extra
        b = build_script_L(a, PRIMES)
        assert validate_run(b.machine, coded, cert.run) is None
        # extension letters never open a new span
        assert cert.blocks[-1].end <= len(cert.run.steps)
    with pytest.raises(MachineError):
        lift_run_script_L(bl, run, prefix_len=needed - 1)
    # past the next guess point the run would need another source step
    with pytest.raises(MachineError):
        lift_run_script_L(bl, run, prefix_len=needed + room + 1)


def test_lift_rejects_bad_sources():
    a = m1_aomega()
    b = build_script_L(a, PRIMES)
    good = run_of(a, ["a"])
    shifted = Run(Configuration("p", (1, 0)), good.steps)
    with pytest.raises(MachineError):
        lift_run_script_L(b, shifted)
    broken = Run(good.start,
                 (RunStep("a", 0, Configuration("p", (2, 2))),))
    with pytest.raises(MachineError):
        lift_run_script_L(b, broken)


def test_marker_clash_rejected():
    m = CounterMachine(
        k=2, alphabet=frozenset({"A"}), states=("p",), initial="p",
        transitions=(Transition("p", "A", (0, 0), "p", (1, 0)),))
    with pytest.raises(FreshLetterError):
        build_script_L(BuchiAutomaton(m, frozenset({"p"})), PRIMES)


def test_arity_mismatch():
    with pytest.raises(ArityError):
        build_script_L(m1_aomega(), (2, 3, 5))


def test_source_must_be_real_time():
    m = CounterMachine(
        k=1, alphabet=frozenset({"a"}), states=("p",), initial="p",
        transitions=(Transition("p", "a", (0,), "p", (1,)),
                     Transition("p", None, (1,), "p", (-1,))))
    with pytest.raises(MachineError):
        build_script_L(BuchiAutomaton(m, frozenset({"p"})), (2,))


def test_eight_primes_overflow_cap():
    primes8 = (2, 3, 5, 7, 11, 13, 17, 19)
    m = CounterMachine(
        k=8, alphabet=frozenset({"a"}), states=("p",), initial="p",
        transitions=(Transition("p", "a", (0,) * 8, "p", (1,) * 8),))
    with pytest.raises(BuildScaleError) as exc:
        build_script_L(BuchiAutomaton(m, frozenset({"p"})), primes8)
    assert exc.value.estimated_states > exc.value.cap


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_lift_project_identity_on_seeded_runs(seed):
    rng = random.Random(seed)
    for a, word in ((m2_two_counters(), m2_word(rng, 1)[:4]),
                    (m3_alternator(), ["a", "b", "a", "b"][:rng.randint(1, 4)])):
        b = build_script_L(a, PRIMES)
        run = run_of(a, word)
        cert = lift_run_script_L(b, run)
        coded = [s.consumed for s in cert.run.steps if s.consumed is not None]
        assert validate_run(b.machine, coded, cert.run) is None
        assert h_shape_check(coded, {"a", "b"}, PRIMES) is None
        lasso = LassoWord((), tuple(word), frozenset({"a", "b"}))
        assert coded == coded_prefix(lasso, (HCoding(PRIMES),), len(coded))
        assert project_run_script_L(b, cert) == run
