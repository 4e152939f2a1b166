"""Composed chain: block coding, defect union, filler wrapper."""

import pytest

from omegacount.constructions import (compose_pipeline, lift_run_pipeline,
                                      PipelineOutput, pipeline)
from omegacount.errors import ArityError, BuildScaleError, FreshLetterError
from omegacount.machines import (BuchiAutomaton, CounterMachine, Transition,
                                 is_real_time, validate_run)
from omegacount.words import HCoding, PhiCoding, h_shape_check

from conftest import m1_aomega, m2_two_counters, run_of

PRIMES = (2, 3)
EIGHT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def desk(a) -> PipelineOutput:
    return compose_pipeline(a, primes=PRIMES)


def test_desk_variant_shape():
    out = desk(m2_two_counters())
    assert out.automaton.machine.k == 1
    assert is_real_time(out.automaton.machine)
    assert out.automaton.machine.alphabet == {"a", "b", "A", "B", "0", "F"}
    names = [e[0] for e in out.provenance]
    assert names == ["input", "script-l", "union", "phi-wrapper"]
    # one flat union: script-L, then D1-D4 under the nested unions' names
    assert out.stage("union")[2].params["tags"] == (
        "L", "R.L.L.L", "R.L.L.R", "R.L.R", "R.R")
    assert out.word_transform == (HCoding(PRIMES), PhiCoding(5))
    assert out.stage("phi-wrapper")[1]["filler_count"] == 5
    with pytest.raises(KeyError):
        out.stage("nope")


def test_default_scale_fails_with_stage_tag():
    # the paper's eight primes: script-L's floor alone, 2Q + 1 states, is
    # refused before anything is built
    with pytest.raises(BuildScaleError) as exc:
        compose_pipeline(m1_aomega(), EIGHT_PRIMES)
    assert str(exc.value.args[0]).startswith("stage script-l:")
    assert exc.value.estimated_states == 2 * 9_699_690 + 1 > exc.value.cap


def test_prime_count_must_match_counters():
    with pytest.raises(ArityError) as exc:
        compose_pipeline(m2_two_counters(), primes=(2, 3, 5))
    assert str(exc.value).startswith("stage script-l:")


def test_stage1_refused_before_any_build(monkeypatch):
    # the chain is stages 2-3; asking for stage 1 is refused at once
    def no_build(*args):
        raise AssertionError("built")
    monkeypatch.setattr(pipeline, "build_script_L", no_build)
    for off in (False, 0, None):
        with pytest.raises(ValueError, match="stage 1 is not built"):
            compose_pipeline(m2_two_counters(), PRIMES, skip_realtime8=off)


def test_reserved_letters_rejected():
    m = CounterMachine(
        k=2, alphabet=frozenset({"F"}), states=("p",), initial="p",
        transitions=(Transition("p", "F", (0, 0), "p", (0, 0)),))
    b = BuchiAutomaton(m, frozenset({"p"}))
    with pytest.raises(FreshLetterError):
        compose_pipeline(b, primes=PRIMES)
    m2 = CounterMachine(
        k=2, alphabet=frozenset({"E", "c"}), states=("p",), initial="p",
        transitions=(Transition("p", "c", (0, 0), "p", (0, 0)),
                     Transition("p", "E", (0, 0), "p", (0, 0)),))
    b2 = BuchiAutomaton(m2, frozenset({"p"}))
    # E is no letter of the returned chain: only the scale refusal stops
    # the paper's eight primes
    with pytest.raises(BuildScaleError):
        compose_pipeline(b2, EIGHT_PRIMES)
    compose_pipeline(b2, primes=PRIMES)
    for letter in ("A", "B", "0"):
        m3 = CounterMachine(
            k=2, alphabet=frozenset({letter}), states=("p",), initial="p",
            transitions=(Transition("p", letter, (0, 0), "p", (0, 0)),))
        with pytest.raises(FreshLetterError):
            compose_pipeline(BuchiAutomaton(m3, frozenset({"p"})),
                             primes=PRIMES)


def test_lift_end_to_end():
    a = m2_two_counters()
    out = desk(a)
    run = run_of(a, ["a", "b", "b"])
    cert = lift_run_pipeline(out, run)
    assert cert.stage == "pipeline"
    coded = [s.consumed for s in cert.run.steps]
    assert None not in coded
    assert validate_run(out.automaton.machine, coded, cert.run) is None
    assert [s.index for s in cert.blocks] == [1, 2, 3]
    for prev, nxt in zip(cert.blocks, cert.blocks[1:]):
        assert prev.end == nxt.start
    # the wrapper interleaves fillers; underneath sits a clean block coding
    inner = [x for x in coded if x != "F"]
    assert h_shape_check(inner, {"a", "b"}, PRIMES) is None
    for i, x in enumerate(coded):
        if x != "F":
            assert coded[max(0, i - 5):i] == ["F"] * 5
    assert cert.visits(out.automaton.accepting) >= 2


def test_lift_prefix_extension():
    a = m2_two_counters()
    out = desk(a)
    run = run_of(a, ["a"])
    base = lift_run_pipeline(out, run)
    n = len(base.run.steps)
    cert = lift_run_pipeline(out, run, prefix_len=n + 4)
    assert len(cert.run.steps) == n + 4
    coded = [s.consumed for s in cert.run.steps]
    assert validate_run(out.automaton.machine, coded, cert.run) is None
