"""Differential tests of the fast loaders, dumper and machine checks.

Each fast path is held to the reference version in `reference_fileio.py`:
the same objects for accepted input and the same error type and message
for refused input.  The loaders' only new refusals are a repeated
kcounters, alphabet, states or initial line, a trans line under a
negative kcounters where the reference indexes past the end of the line,
and a negative prefix length, which the reference loads.
"""

import random
import re
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_fileio as ref
import omegacount.fileio as fileio
from omegacount.constructions import (build_d1, build_phi_wrapper, build_realtime8,
                                      build_script_L, compose_pipeline,
                                      lift_run_script_L, lift_run_theta)
from omegacount.errors import FormatError
from omegacount.fileio import (WordSpec, dump_automaton, dump_run, dump_word,
                               load_automaton, load_run, load_word)
from omegacount.machines import (CounterMachine, MachineError, MullerAutomaton,
                                 Transition, _check_token)
from omegacount.words import HCoding, LassoWord, PhiCoding, ThetaCoding
from conftest import m1_aomega, m2_two_counters, m3_alternator, run_of

NEW_REFUSAL = re.compile(r"^line \d+: duplicate (kcounters|alphabet|states|initial) line$")
NEGATIVE_PREFIX = re.compile(r"^line \d+: prefix length must be nonnegative, got -\d+$")


def outcome(f, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", f(*args)
    except Exception as e:  # the reference may raise more than ValueError
        return type(e), str(e)


def agree(new, old) -> bool:
    if new == old:
        return True
    kind, msg = new
    if kind is FormatError and NEW_REFUSAL.match(msg):
        return True
    if kind is FormatError and NEGATIVE_PREFIX.match(msg):
        return old[0] == "ok" and old[1].prefix < 0
    # the reference reads rest[3] of a trans line that k < 0 made too short
    return old[0] is IndexError and kind is FormatError and msg.endswith(
        ": k must be a natural number")


# -- _check_token ------------------------------------------------------------

def test_check_token_refuses_exactly_the_whitespace_code_points():
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        bad = c.isspace() or c == "#"
        try:
            _check_token("a" + c + "b", "state id")
        except MachineError as e:
            assert bad, f"refused U+{cp:04X}"
            assert str(e).endswith("not serializable (whitespace or '#')")
        else:
            assert not bad, f"accepted U+{cp:04X} inside a name"
        if bad:  # alone and at either end too
            for tok in (c, "a" + c, c + "b"):
                with pytest.raises(MachineError, match="not serializable"):
                    _check_token(tok, "letter")


# -- CounterMachine and load_automaton against the reference -----------------

NAMES = ("p", "q", "r")
BAD_NAMES = ("-", "a b", "x#", "", "a\u3000b", "t\x1c", "u\x85")
LETTERS = ("a", "b")


@st.composite
def raw_machines(draw):
    """Machine fields that are mostly well formed, with every kind of fault
    the constructor checks for drawn now and then."""
    def rare(strategy, usual):
        return draw(strategy) if draw(st.integers(0, 7)) == 0 else usual

    k = rare(st.just(-1), draw(st.integers(0, 3)))
    states = sorted(draw(st.sets(st.sampled_from(NAMES), min_size=1)))
    states += rare(st.lists(st.sampled_from(BAD_NAMES), max_size=1), [])
    letters = sorted(draw(st.sets(st.sampled_from(LETTERS))))
    letters += rare(st.lists(st.sampled_from(BAD_NAMES), max_size=1), [])
    initial = rare(st.just("zz"), draw(st.sampled_from(states)))
    value = st.sampled_from((0, 1, -1, 2))

    def vectors(usual):
        # few distinct vectors, so that guards and deltas pair up in many ways
        out = []
        for _ in range(draw(st.integers(1, 3))):
            arity = max(0, k + rare(st.sampled_from((-1, 1)), 0))
            out.append(tuple(rare(value, draw(usual)) for _ in range(arity)))
        return st.sampled_from(out)

    guards, deltas = vectors(st.integers(0, 1)), vectors(st.integers(-1, 1))
    ends, inputs = st.sampled_from(states), st.sampled_from([None, *letters])
    trans = [Transition(draw(ends), draw(inputs), draw(guards), draw(ends), draw(deltas))
             for _ in range(draw(st.integers(0, 8)))]
    if trans and draw(st.integers(0, 3)) == 0:  # one unknown source, destination or input
        i = draw(st.integers(0, len(trans) - 1))
        field = draw(st.sampled_from(("source", "destination", "input")))
        trans[i] = replace(trans[i], **{field: "zz"})
    accepting = draw(st.sets(st.sampled_from(states)))
    return k, letters, states, initial, trans, sorted(accepting)


def spell(k, letters, states, initial, trans, accepting) -> str:
    lines = [f"kcounters {k}", "alphabet " + " ".join(letters),
             "states " + " ".join(states), f"initial {initial}",
             "accepting " + " ".join(accepting)]
    for t in trans:
        guardbits = "".join(str(g) for g in t.guard) or "-"
        lines.append(" ".join(["trans", t.source, "-" if t.input is None else t.input,
                               guardbits, t.destination, *map(str, t.delta)]))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(raw_machines())
def test_constructor_and_loader_match_the_reference(raw):
    k, letters, states, initial, trans, _ = raw
    new = outcome(CounterMachine, k, frozenset(letters), frozenset(states),
                  initial, tuple(trans))
    old = outcome(ref.check_machine, k, letters, states, initial, trans)
    if old[0] == "ok":
        assert new[0] == "ok", new
        m, adj = new[1], old[1]
        for s in states:
            rows = sorted((i, t.input, t.guard, t.destination, t.delta)
                          for a in [None, *letters] for i, t in adj.get((s, a), []))
            assert m.leaving(s) == tuple(rows)
    else:
        assert new == old

    text = spell(*raw)
    assert agree(outcome(load_automaton, text), outcome(ref.load_automaton, text))


def test_constructor_accepts_list_guards_as_before():
    t = Transition("p", "a", [1], "p", [-1])
    m = CounterMachine(1, frozenset("a"), frozenset("p"), "p", (t, t))
    assert m.leaving("p") == ((0, "a", [1], "p", [-1]), (1, "a", [1], "p", [-1]))
    with pytest.raises(MachineError, match="transition 1: delta -1 under a zero guard"):
        CounterMachine(1, frozenset("a"), frozenset("p"), "p",
                       (t, Transition("p", "a", [0], "p", [-1])))


# -- seeded mutation fuzz of the three loaders --------------------------------

TOKENS = ("-", "#", "0", "1", "2", "-1", "01", "10", "00", "11", "x", "p", "a",
          "|", "kcounters", "alphabet", "states", "initial", "accepting", "table",
          "trans", "start", "step", "coded", "lasso", "prefix", "h:2,3", "h:2,2",
          "theta:3", "phi:5", "phi:x", "theta:", "999", "\xa0", "\u3000")
CHARS = ("#", " ", "\n", "\r", "\x0b", "\x85", "\xa0", "\u2028", "-", "0", "1", "x")


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        lines = text.splitlines()
        op = rng.randrange(7)
        if op == 6 or not lines:
            pos = rng.randrange(len(text) + 1)
            text = text[:pos] + rng.choice(CHARS) + text[pos + rng.randrange(2):]
            continue
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        if op == 0 and toks:
            toks[rng.randrange(len(toks))] = rng.choice(TOKENS)
        elif op == 1 and toks:
            del toks[rng.randrange(len(toks))]
        elif op == 2:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(TOKENS))
        elif op == 3:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 4:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            del lines[i]
        if op <= 2:
            lines[i] = " ".join(toks)
        text = "\n".join(lines) + "\n"
    return text


def fuzz_sources():
    w = build_phi_wrapper(m2_two_counters(), 3)
    bl = build_script_L(m1_aomega(), (2, 3))
    lifted = lift_run_script_L(bl, run_of(m1_aomega(), ["a"])).run
    word = WordSpec(LassoWord(("c",), ("a", "b"), frozenset("abc")),
                    (ThetaCoding(3), HCoding((2, 3)), PhiCoding(5)), 40)
    mu = MullerAutomaton(m1_aomega().machine, (frozenset({"p"}),))
    return [
        *[("automaton", dump_automaton(f())) for f in
          (m1_aomega, m2_two_counters, m3_alternator)],
        ("automaton", dump_automaton(mu)),
        ("automaton", dump_automaton(w)),
        ("run", dump_run(lifted)),
        ("run", dump_run(run_of(m2_two_counters(), ["a", "a", "b"]))),
        ("word", dump_word(word)),
    ]


LOADERS = {"automaton": (load_automaton, ref.load_automaton),
           "run": (load_run, ref.load_run),
           "word": (load_word, ref.load_word)}


def test_loader_fuzz_against_the_reference():
    rng = random.Random(4)
    tally = {"ok": 0, "refused": 0}
    for kind, text in fuzz_sources():
        new, old = LOADERS[kind]
        assert outcome(new, text) == ("ok", old(text))
        for _ in range(300):
            mutant = mutate(rng, text)
            try:
                got = "ok", new(mutant)
            except ValueError as e:  # nothing else may escape
                got = type(e), str(e)
            assert agree(got, outcome(old, mutant)), (kind, mutant)
            tally["ok" if got[0] == "ok" else "refused"] += 1
    assert tally["ok"] > 300 and tally["refused"] > 1000, tally


# -- canonical output ---------------------------------------------------------

def _muller():
    m = CounterMachine(
        k=1, alphabet=frozenset({"a", "b"}), states=("p", "q"), initial="p",
        transitions=(Transition("p", "a", (0,), "q", (1,)),
                     Transition("q", None, (1,), "p", (-1,)),
                     Transition("q", "b", (1,), "q", (0,))))
    return MullerAutomaton(m, (frozenset({"p"}), frozenset({"p", "q"})))


CANONICAL = {
    "realtime8 m1 S=72": lambda: build_realtime8(m1_aomega(), S_override=72),
    "pipeline m2": lambda: compose_pipeline(m2_two_counters(), primes=(2, 3)).automaton,
    "D1 k=0": lambda: build_d1(frozenset("ab"), (2, 3)),
    "Muller": _muller,
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_dump_matches_the_reference_byte_for_byte(name):
    aut = CANONICAL[name]()
    text = dump_automaton(aut)
    assert text == ref.dump_automaton(aut)
    back = load_automaton(text)
    assert back == ref.load_automaton(text)
    assert back.machine == aut.machine
    assert dump_automaton(back) == text


# -- chunked line walk ----------------------------------------------------------

# every line boundary str.splitlines cuts at
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(BREAKS + ("#", " ", "\xa0", "x", "step 0"))).map("".join),
       st.integers(1, 12))
def test_line_walk_keeps_the_lines_of_splitlines(text, chunk):
    with mock.patch.object(fileio, "_CHUNK", chunk):
        assert list(fileio._lines(text)) == ref._lines(text)


def rebreak(text: str, rng: random.Random) -> str:
    """The text with each line break replaced by a random one of BREAKS."""
    return "".join(line + rng.choice(BREAKS) for line in text.splitlines())


def with_faults(text: str, rng: random.Random, bad_line: str) -> list[str]:
    """The text, then the text with a comment line, a trailing comment and a
    blank line spliced in, then that with one malformed line too."""
    lines = text.splitlines()
    for insert in ("# a comment line that is longer than a small chunk", "",
                   lines[-1] + "  # a trailing comment"):
        lines.insert(rng.randrange(1, len(lines)), insert)
    clean = "\n".join(lines) + "\n"
    lines.insert(rng.randrange(2, len(lines)), bad_line)
    return [text, clean, "\n".join(lines) + "\n"]


def chunk_texts():
    """(kind, text) pairs over the three formats, each line break spelled
    by a random splitlines boundary; a malformed line names its kind."""
    rng = random.Random(13)
    bl = build_script_L(m1_aomega(), (2, 3))
    lifted = lift_run_script_L(bl, run_of(m1_aomega(), ["a"])).run
    word = dump_word(WordSpec(LassoWord(("c",), ("a", "b"), frozenset("abc")),
                              (ThetaCoding(3), HCoding((2, 3)), PhiCoding(5)), 40))
    for kind, text, bad in (
            ("automaton", dump_automaton(m2_two_counters()), "trans p a 2x q 0 0"),
            ("run", dump_run(lifted)[:900], "step a x p 0"),
            ("word", "# words are short\n" * 3 + word, "coded theta:")):
        for variant in with_faults(text, rng, bad):
            yield kind, variant
            yield kind, rebreak(variant, rng)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loaders_match_the_reference_at_every_chunk_edge(kind):
    """A chunk as short as one character up to past the whole text puts
    each comment and malformed line across a chunk edge somewhere."""
    new, old = LOADERS[kind]
    for k, text in chunk_texts():
        if k != kind:
            continue
        want = outcome(old, text)
        for chunk in range(1, len(text) + 2):
            with mock.patch.object(fileio, "_CHUNK", chunk):
                assert outcome(new, text) == want, (chunk, text)


def test_loaders_match_the_reference_on_texts_of_many_chunks():
    rng = random.Random(5)
    b8 = build_realtime8(m1_aomega(), S_override=72)
    run = lift_run_theta(b8, run_of(m1_aomega(), ["a", "a"])).run
    # longer than a chunk, so they cross a chunk edge: the states line of
    # the automaton, and this comment behind a malformed line
    comment = " # " + "x" * fileio._CHUNK
    for kind, text, bad in (("automaton", dump_automaton(b8), "trans r0 a 0 r1"),
                            ("run", dump_run(run), "step E 3")):
        assert len(text) > 2 * fileio._CHUNK
        new, old = LOADERS[kind]
        lines = text.splitlines()
        at = rng.randrange(len(lines) // 2, len(lines))
        lines.insert(at, bad + comment)
        faulty = "\n".join(lines) + "\n"
        for variant in (text, rebreak(text, rng), faulty, rebreak(faulty, rng)):
            want = outcome(old, variant)
            assert outcome(new, variant) == want
        assert want[0] is FormatError and want[1].startswith(f"line {at + 1}:")
