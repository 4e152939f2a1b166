"""Text formats: round trips, canonical output, error positions."""

import pytest
from hypothesis import given, settings, strategies as st

from omegacount.errors import FormatError, MachineError
from omegacount.fileio import (WordSpec, dump_automaton, dump_run, dump_word,
                               load_automaton, load_run, load_word)
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 Run, RunStep, Transition)
from omegacount.words import HCoding, LassoWord, PhiCoding, ThetaCoding
from conftest import m2_two_counters, run_of


def test_automaton_roundtrip_buchi():
    b = m2_two_counters()
    text = dump_automaton(b)
    back = load_automaton(text)
    assert isinstance(back, BuchiAutomaton)
    assert back.machine.k == 2
    assert back.machine.alphabet == b.machine.alphabet
    assert back.machine.initial == b.machine.initial
    assert back.machine.transitions == b.machine.transitions
    assert back.accepting == b.accepting
    # canonical: dumping the loaded automaton reproduces the bytes
    assert dump_automaton(back) == text


def test_automaton_roundtrip_k0():
    m = CounterMachine(k=0, alphabet=frozenset({"a"}), states=("p", "q"),
                       initial="p",
                       transitions=(Transition("p", "a", (), "q", ()),
                                    Transition("q", "a", (), "p", ())))
    b = BuchiAutomaton(machine=m, accepting=frozenset({"p"}))
    text = dump_automaton(b)
    assert load_automaton(text) == b
    # k = 0 guard column is the placeholder
    assert " - " in text


def test_automaton_lambda_transitions_roundtrip():
    m = CounterMachine(k=1, alphabet=frozenset({"a"}), states=("p",),
                       initial="p",
                       transitions=(Transition("p", None, (1,), "p", (-1,)),
                                    Transition("p", "a", (0,), "p", (1,))))
    back = load_automaton(dump_automaton(BuchiAutomaton(m, frozenset({"p"}))))
    assert back.machine.transitions[0].input is None


def test_automaton_int_values_roundtrip_and_bool_or_float_is_refused():
    # guards and deltas are tuples of ints, spelled as they are; True and
    # 1.0 equal 1 but are refused where the machine is made
    rows = (("p", "a", (1, 0), "p", (-1, 1)), ("p", None, (0, 1), "p", (1, -1)),
            ("p", "a", (1, 0), "p", (-1, 1)))
    for bad in (("p", "a", (True, False), "p", (-1, 1)), ("p", "a", (1, 0), "p", (-1.0, 1))):
        with pytest.raises(MachineError, match="^transition 2: guard and delta must be"):
            CounterMachine(2, {"a"}, {"p"}, "p", tuple(Transition(*r) for r in rows[:2] + (bad,)))
    m = CounterMachine(k=2, alphabet=frozenset({"a"}), states=("p",),
                       initial="p", transitions=tuple(Transition(*r) for r in rows))
    b = BuchiAutomaton(m, frozenset({"p"}))
    text = dump_automaton(b)
    assert "trans p a 10 p -1 1\n" in text
    assert "trans p - 01 p 1 -1\n" in text
    back = load_automaton(text)
    assert back == b
    assert dump_automaton(back) == text


def test_automaton_comments_and_blank_lines_ignored():
    text = dump_automaton(m2_two_counters())
    noisy = "# header\n\n" + text.replace("initial", "# note\ninitial", 1)
    assert load_automaton(noisy).machine.initial == "p"


def test_automaton_format_errors_carry_line_numbers():
    with pytest.raises(FormatError) as e:
        load_automaton("kcounters x\n")
    assert e.value.line == 1
    good = dump_automaton(m2_two_counters())
    with pytest.raises(FormatError):
        load_automaton(good + "trans p c 00 p 0 0\n")
    with pytest.raises(FormatError):
        load_automaton("alphabet a\nstates p\ninitial p\naccepting p\n")


@pytest.mark.parametrize("directive", ["kcounters 2", "alphabet a b", "states p q",
                                       "initial p", "accepting q"])
def test_automaton_refuses_a_repeated_directive(directive):
    text = dump_automaton(m2_two_counters())
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(directive.split()[0]))
    lines.insert(at + 1, directive)
    with pytest.raises(FormatError, match=f"duplicate {directive.split()[0]} line") as e:
        load_automaton("\n".join(lines) + "\n")
    assert e.value.line == at + 2


def test_automaton_refuses_a_table_line_and_a_missing_accepting_line():
    lines = dump_automaton(m2_two_counters()).splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("accepting"))
    # the Muller form's table line is an unknown directive, in place of
    # the accepting line or beside it
    for kept in ([], [lines[at]]):
        text = "".join(lines[:at] + kept + ["table p q\n"] + lines[at + 1:])
        with pytest.raises(FormatError) as e:
            load_automaton(text)
        assert (str(e.value), e.value.line) == (
            f"line {at + len(kept) + 1}: unknown directive 'table'", at + len(kept) + 1)
    with pytest.raises(FormatError, match="^missing accepting line$"):
        load_automaton("".join(lines[:at] + lines[at + 1:]))


def test_automaton_refuses_trans_under_negative_kcounters():
    # three fields make a whole trans line for k = -1
    text = "kcounters -1\nstates p\ninitial p\naccepting p\ntrans p a p\n"
    with pytest.raises(FormatError, match="k must be a natural number") as e:
        load_automaton(text)
    assert e.value.line == 5


def test_word_roundtrip_plain_and_coded():
    w = WordSpec(LassoWord(("c",), ("a", "b"), frozenset({"a", "b", "c"})),
                 (), None)
    assert load_word(dump_word(w)) == w
    coded = WordSpec(LassoWord((), ("a",), frozenset({"a"})),
                     (ThetaCoding(3), HCoding((2, 3)), PhiCoding(5)), 40)
    back = load_word(dump_word(coded))
    assert back == coded
    assert back.prefix_runs(12) == coded.prefix_runs(12)


def test_word_chain_is_outermost_first_on_disk():
    coded = WordSpec(LassoWord((), ("a",), frozenset({"a"})),
                     (ThetaCoding(3), PhiCoding(5)), None)
    text = dump_word(coded)
    assert text.index("phi:5") < text.index("theta:3")


def test_word_format_errors():
    with pytest.raises(FormatError):
        load_word("lasso | \n")          # empty cycle
    with pytest.raises(FormatError):
        load_word("coded theta:x\nlasso a | b\n")
    with pytest.raises(FormatError):
        load_word("coded swizzle:3\nlasso a | b\n")


def test_word_refuses_a_negative_prefix_length():
    with pytest.raises(FormatError) as e:
        load_word("lasso a | b\n# no letters before the word\nprefix -5\n")
    assert (str(e.value), e.value.line) == (
        "line 3: prefix length must be nonnegative, got -5", 3)
    assert load_word("lasso a | b\nprefix 0\n").prefix == 0


def test_word_refuses_a_second_prefix_line():
    with pytest.raises(FormatError) as e:
        load_word("lasso a | b\nprefix 3\nprefix 4\n")
    assert (str(e.value), e.value.line) == ("line 3: duplicate prefix line", 3)


def test_run_roundtrip():
    b = m2_two_counters()
    run = run_of(b, ["a", "a", "b"])
    text = dump_run(run)
    back = load_run(text)
    assert back == run
    assert dump_run(back) == text


def test_run_lambda_steps_use_placeholder():
    run = Run(Configuration("p", (0,)),
              (RunStep(None, 0, Configuration("p", (1,))),))
    text = dump_run(run)
    assert "step - 0 p 1" in text
    assert load_run(text) == run


def test_run_format_errors():
    with pytest.raises(FormatError):
        load_run("step a 0 p 1\n")       # no start line
    with pytest.raises(FormatError):
        load_run("start p x\n")          # counter not an integer


names = st.text(alphabet="abcxyz", min_size=1, max_size=3)


@st.composite
def automata(draw):
    k = draw(st.integers(0, 2))
    sts = tuple(sorted(draw(st.sets(names, min_size=1, max_size=3))))
    letters = tuple(sorted(draw(st.sets(st.sampled_from("mn"), min_size=1,
                                        max_size=2))))
    trans = []
    for _ in range(draw(st.integers(0, 5))):
        src = draw(st.sampled_from(sts))
        dst = draw(st.sampled_from(sts))
        letter = draw(st.one_of(st.none(), st.sampled_from(letters)))
        guard = tuple(draw(st.integers(0, 1)) for _ in range(k))
        delta = tuple(draw(st.integers(-1, 1)) if g else draw(st.integers(0, 1))
                      for g in guard)
        trans.append(Transition(src, letter, guard, dst, delta))
    m = CounterMachine(k=k, alphabet=frozenset(letters), states=sts,
                       initial=sts[0], transitions=tuple(trans))
    acc = frozenset(s for s in sts if draw(st.booleans()))
    return BuchiAutomaton(m, acc)


@settings(max_examples=60)
@given(automata())
def test_automaton_roundtrip_random(b):
    text = dump_automaton(b)
    back = load_automaton(text)
    assert back.machine.transitions == b.machine.transitions
    assert back.accepting == b.accepting
    assert dump_automaton(back) == text
