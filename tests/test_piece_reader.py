"""Runs read by their pieces, and words checked as runs.

Every reader of a run takes it a batch of iterations at a time
(`machines._batches`).  On seeded runs of flat pieces and segments, with
steps that keep their counters, counters above 2**53 and segments long
enough to span many batches, `run.steps` equals the columns' steps and the
expansion "iteration j is iteration 0 plus j·D", and a step that keeps
its counters shares the tuple before it across batches.  A step or a slice
read by index (`steps[i]`, `steps[a:b:c]`) is that of the expansion, found
through the pieces alone, and accepting visits per block are counted per
piece.

`validate_run` given the word as (pattern, count) runs returns the
violation it returns on the letters, on lifted certificates with the
word cut into runs at random places (so segments straddle runs), too
short or too long, and with a repeat count, index, state or counter
changed inside a segment; test_run_segments does the same on seeded
random machines.  The deep certificates
check against their coded runs without any step of a segment past its
first iteration being made.
"""

import random
import time
import tracemalloc

import pytest

import omegacount.machines as machines
from omegacount.constructions import (build_realtime8, build_script_L,
                                      compose_pipeline, lift_run_pipeline,
                                      lift_run_script_L, lift_run_theta)
from omegacount.machines import (Configuration, CounterMachine, Run, RunStep,
                                 Transition, run_word, validate_run)
from omegacount.words import LassoWord, ThetaCoding, coded_runs

from conftest import chopped, m1_aomega, m2_two_counters, m2_word, run_of


def _random_pieces(rng: random.Random) -> tuple[Configuration, list]:
    """A start and pieces whose steps now and then keep the very counters
    tuple before them; counters above 2**53 in some runs; repeat counts up
    to 5,000 so that a segment spans many batches."""
    k = rng.randint(0, 3)
    high = 2 ** 53 if rng.random() < 0.3 else 0
    entry = tuple(rng.randint(0, 9) + high for _ in range(k))
    start, pieces = Configuration("s", entry), []
    for _ in range(rng.randint(1, 4)):
        column, counters = [], entry
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                counters = tuple(c + rng.choice((-1, 1, 2)) for c in counters)
            column.append(counters)
        p, r = len(column), rng.choice((1, 2, 7, 900, 5000))
        pieces.append((tuple(rng.choice(("a", "b", None)) for _ in range(p)),
                       tuple(rng.randrange(9) for _ in range(p)),
                       tuple(rng.choice(("s", "t")) for _ in range(p)), tuple(column), r))
        entry = tuple(c + (r - 1) * (c - e) for c, e in zip(counters, entry))
    return start, pieces


def _expansion(start: Configuration, pieces: list) -> tuple:
    """Iteration j of each piece: iteration 0 with j·D added."""
    out, entry = [], start.counters
    for tokens, indices, states, column, r in pieces:
        effect = [a - b for a, b in zip(column[-1], entry)]
        for j in range(r):
            out += [RunStep(tok, i, Configuration(q, tuple(x + j * d for x, d in zip(c, effect))))
                    for tok, i, q, c in zip(tokens, indices, states, column)]
        entry = out[-1].result.counters
    return tuple(out)


def test_steps_read_by_batches_equal_the_expansion():
    rng = random.Random(7)
    long = 0
    for _ in range(60):
        start, pieces = _random_pieces(rng)
        run = Run._from_pieces(start, pieces)
        steps = tuple(run.steps)
        assert steps == _expansion(start, pieces)
        assert steps == tuple(map(RunStep, run.consumed, run.indices,
                                  map(Configuration, run.states, run.counters)))
        assert len(steps) == len(run.steps)
        long += any(len(c) * r > 2 * machines._BATCH for *_, c, r in pieces)
        # a step that keeps its counters in iteration 0 shares the tuple
        # before it in every iteration, across batches too
        read, at, entry = run.counters, 0, start.counters
        for *_, column, r in pieces:
            kept = [c == b for c, b in zip(column, (entry, *column))]
            for j in range(r):
                for t in range(len(column)):
                    if j and kept[t]:
                        assert read[at] is read[at - 1]
                        assert steps[at].result.counters is steps[at - 1].result.counters
                    at += 1
            entry = read[at - 1]
    assert long > 10


def _forms(rng: random.Random, letters: list, extra=()) -> list:
    """The word as letters and as runs in several cuts."""
    return [letters, chopped(rng, letters), chopped(rng, letters), *extra]


def _with(pieces: list, j: int, i: int, value) -> list:
    """pieces with field i of piece j replaced by value."""
    return [(*p[:i], value, *p[i + 1:]) if n == j else p for n, p in enumerate(pieces)]


def _corrupted(rng: random.Random, run: Run):
    """(why, run) pairs: the run changed inside its segments."""
    pieces = list(run._pieces)
    segments = [j for j, p in enumerate(pieces) if p[4] > 1]
    for j in rng.sample(segments, min(4, len(segments))):
        _, indices, states, column, r = pieces[j]
        t = rng.randrange(len(indices))
        for why, i, value in (
                ("count + 1", 4, r + 1), ("count - 1", 4, r - 1),
                ("index", 1, indices[:t] + (indices[t] + 1,) + indices[t + 1:]),
                ("state", 2, states[:t] + (states[t] + "x",) + states[t + 1:]),
                ("counter", 3, column[:t] + (tuple(c + 1 for c in column[t]),)
                 + column[t + 1:])):
            yield why, Run._from_pieces(run.start, _with(pieces, j, i, value))


@pytest.fixture(scope="module")
def certificates():
    """(machine, certificate run, coded runs) of lifts with segments."""
    m1, m2 = m1_aomega(), m2_two_counters()
    b8 = build_realtime8(m1, S_override=72)
    out = compose_pipeline(m2, (2, 3))
    bl = build_script_L(m2, (2, 3))
    theta = lift_run_theta(b8, run_of(m1, ["a", "a"]))
    script = lift_run_script_L(bl, run_of(m2, ["a", "b", "a"]))
    pipe = lift_run_pipeline(out, run_of(m2, ["a", "a", "b"]))
    x1 = LassoWord((), ("a",), {"a"})
    x2 = LassoWord(("a", "b"), ("a",), {"a", "b"})
    x3 = LassoWord(("a", "a"), ("b",), {"a", "b"})
    read = sum(len(p) * r for p, r in run_word(script.run))
    return [
        (b8.machine, theta.run, coded_runs(x1, (ThetaCoding(72),), len(theta.run.steps))),
        (bl.machine, script.run, coded_runs(x2, (bl.params["coding"],), read)),
        (out.automaton.machine, pipe.run,
         coded_runs(x3, out.word_transform, len(pipe.run.steps))),
    ]


def test_runs_and_letters_give_one_verdict_on_certificates(certificates):
    rng = random.Random(11)
    seen = {}
    for machine, run, coded in certificates:
        letters = [tok for tok in run.consumed if tok is not None]
        assert validate_run(machine, letters, run) is None
        for word in _forms(rng, letters, (run_word(run), coded)):
            assert validate_run(machine, word, run) is None
        # a word one letter short, one letter long, or with a letter changed
        changed = list(letters)
        changed[rng.randrange(len(letters))] = "zz"
        for words in (letters[:-1], letters + [letters[-1]], changed):
            want = validate_run(machine, words, run)
            assert want is not None and want.reason == "projection"
            for word in _forms(rng, words):
                assert validate_run(machine, word, run) == want
        for why, bad in _corrupted(rng, run):
            want = validate_run(machine, letters, bad)
            seen[why] = seen.get(why, 0) + (want is not None)
            for word in _forms(rng, letters, (run_word(run),)):
                assert validate_run(machine, word, bad) == want, why
    assert all(seen.values()) and len(seen) == 5, seen


def _counting(monkeypatch) -> list:
    """Calls of _later_counters, the maker of a segment's later steps."""
    made = []
    real = machines._later_counters
    monkeypatch.setattr(machines, "_later_counters",
                        lambda *a: (made.append(1), real(*a))[1])
    return made


def test_a_deep_pipeline_certificate_checks_in_the_size_of_its_pieces(monkeypatch):
    m2 = m2_two_counters()
    out = compose_pipeline(m2, (2, 3))
    word = ["a", "a", "b", "a", "b", "b", "b"]
    x = LassoWord(tuple(word), ("b",), {"a", "b"})
    made = _counting(monkeypatch)
    tracemalloc.start()
    try:
        cert = lift_run_pipeline(out, run_of(m2, word))
        n = len(cert.run.steps)
        bad = validate_run(out.automaton.machine, coded_runs(x, out.word_transform, n),
                           cert.run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (n, len(cert.run._pieces), bad, made) == (14_108_850, 34, None, [])
    assert peak < 10_000_000


def test_a_deep_theta_certificate_checks_and_a_wrong_count_fails(monkeypatch):
    m1 = m1_aomega()
    b8 = build_realtime8(m1, S_override=72)
    cert = lift_run_theta(b8, run_of(m1, ["a"] * 8))
    n = len(cert.run.steps)
    assert (n, len(cert.run._pieces)) == (732_376_025_552_528, 15)
    runs = coded_runs(LassoWord((), ("a",), {"a"}), (ThetaCoding(72),), n)
    made = _counting(monkeypatch)
    assert validate_run(b8.machine, runs, cert.run) is None and not made
    pieces = list(cert.run._pieces)
    for j, piece in enumerate(pieces):
        if piece[4] > 1:
            for r in (piece[4] - 1, piece[4] + 1):
                bad = Run._from_pieces(cert.run.start, _with(pieces, j, 4, r))
                assert validate_run(b8.machine, runs, bad) is not None


def test_runs_that_agree_with_a_segment_for_a_while_are_told_apart():
    """Letters of period 3 and a segment of period 2 agree on their first
    3 = max(3, 2) letters but not on the first 4 = 3 + 2 - gcd(3, 2), the
    bound of Fine and Wilf: the check reads that far."""
    m = CounterMachine(0, {"a", "b"}, {"s"}, "s", (
        Transition("s", "a", (), "s", ()), Transition("s", "b", (), "s", ())))
    run = Run._from_pieces(Configuration("s", ()), [(("a", "b"), (0, 1), ("s", "s"), ((), ()), 4)])
    assert validate_run(m, list("abababab"), run) is None
    assert validate_run(m, [(("a", "b"), 4)], run) is None
    letters = list("ab" + "aba" * 2)
    want = validate_run(m, letters, run)
    assert (want.step, want.reason) == (5, "projection")
    for word in ([(("a", "b"), 1), (("a", "b", "a"), 2)], [(tuple(letters), 1)]):
        assert validate_run(m, word, run) == want


def _chopped_run(rng: random.Random) -> Run:
    """A run of m2-like letters cut by `chopped`: each (pattern, count) run
    of the word is one piece of len(pattern) steps repeated count times,
    with seeded indices, states and counters."""
    k = rng.randint(0, 3)
    entry = tuple(rng.randint(0, 9) for _ in range(k))
    start, pieces = Configuration("s", entry), []
    for pattern, count in chopped(rng, m2_word(rng, rng.randint(1, 4))):
        column, counters = [], entry
        for _ in pattern:
            if rng.random() < 0.5:
                counters = tuple(c + rng.choice((-1, 1, 2)) for c in counters)
            column.append(counters)
        pieces.append((pattern, tuple(rng.randrange(9) for _ in pattern),
                       tuple(rng.choice(("s", "t")) for _ in pattern), tuple(column), count))
        entry = tuple(c + (count - 1) * (c - e) for c, e in zip(counters, entry))
    return Run._from_pieces(start, pieces)


def test_one_step_by_its_index_is_the_step_of_the_expansion():
    rng = random.Random(5)
    runs = [_chopped_run(rng) for _ in range(60)]
    runs += [run for run in (Run._from_pieces(*_random_pieces(rng)) for _ in range(30))
             if len(run.steps) <= 20_000]
    runs.append(Run._from_pieces(Configuration("s", (1,)), []))
    assert len(runs) > 70
    cuts = [slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
            slice(None, None, 3), slice(-2, None, -2), slice(5, 2), slice(-10**6, 10**6)]
    for run in runs:
        steps, n = run.steps, len(run.steps)
        flat = tuple(steps)
        for i in range(-n, n):
            assert steps[i] == flat[i], i
        for cut in cuts + [slice(i, i + 3) for i in range(-n, n, max(1, n // 50))]:
            assert steps[cut] == flat[cut], cut
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                steps[i]


def _refuse(*args):
    raise AssertionError("a run's column was expanded")


def test_one_step_of_a_deep_certificate_is_read_in_the_size_of_its_pieces(monkeypatch):
    m1 = m1_aomega()
    cert = lift_run_theta(build_realtime8(m1, S_override=72), run_of(m1, ["a"] * 8))
    steps = cert.run.steps
    first = next(iter(steps))
    monkeypatch.setattr(machines, "_column", _refuse)
    for i in (0, -1, 10**14, slice(None, 1), slice(-2, None), slice(10**14, 10**14 + 3)):
        began = time.perf_counter()
        steps[i]
        assert time.perf_counter() - began < 0.1, i
    assert steps[:1] == (steps[0],) == (first,) and steps[0] == steps[-len(steps)]
    assert steps[-2:] == (steps[-2], steps[-1])
    assert steps[10**14:10**14 + 3] == tuple(steps[10**14 + j] for j in range(3))
    with pytest.raises(IndexError):
        steps[len(steps)]


def _flat_visits(cert, accepting) -> dict:
    states = cert.run.states
    return {b.index: sum(map(accepting.__contains__, states[b.start:b.end]))
            for b in cert.blocks}


def test_block_visits_per_piece_equal_the_flat_count(monkeypatch):
    rng = random.Random(9)
    m1, m2 = m1_aomega(), m2_two_counters()
    b8 = build_realtime8(m1, S_override=72)
    bl = build_script_L(m2, (2, 3))
    out = compose_pipeline(m2, (2, 3))
    cases = [(lift_run_theta(b8, run_of(m1, ["a"] * n)), b8.accepting) for n in (2, 3)]
    for _ in range(4):
        word = m2_word(rng, 1)[:rng.randint(2, 4)]
        cases.append((lift_run_script_L(bl, run_of(m2, word)), bl.accepting))
        cases.append((lift_run_pipeline(out, run_of(m2, word)), out.automaton.accepting))
    for cert, accepting in cases:
        assert len(cert.run._pieces) > 1 and len(cert.blocks) > 1
        assert cert.block_visits(accepting) == _flat_visits(cert, accepting)
    # the 6-letter pipeline certificate, 2,351,520 steps in 30 pieces
    deep = lift_run_pipeline(out, run_of(m2, ["a", "a", "b", "a", "b", "b"]))
    monkeypatch.setattr(Run, "states", property(_refuse))
    monkeypatch.setattr(machines, "_column", _refuse)
    assert len(deep.run.steps) == 2_351_520
    assert deep.block_visits(out.automaton.accepting) == {1: 0, 2: 0, 3: 1, 4: 0, 5: 1, 6: 1}
