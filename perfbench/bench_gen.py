"""Seeded inputs and fixtures for the omegacount benchmark.

Everything here depends only on a `random.Random` built from the
workload seed and on the fixture files beside this module.  Runs are
made by a greedy walk over the transition table written here, so input
generation never calls (or, in a traced run, counts as) library code.
"""

from __future__ import annotations

import os

from omegacount.fileio import dump_automaton, load_automaton
from omegacount.machines import Configuration, Run, RunStep

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
FIXTURES = ("m1", "m2", "m3")
LASSO_SIGMA = ("A", "B", "0", "a")


def fixture_text(name: str) -> str:
    with open(os.path.join(FIXTURE_DIR, f"{name}.aut"), encoding="utf-8") as fh:
        return fh.read()


def load_fixtures() -> tuple[dict, int]:
    """Fixture automata by name, and how many failed the canonical
    round trip dump(load(text)) == text."""
    machines, mismatches = {}, 0
    for name in FIXTURES:
        text = fixture_text(name)
        machines[name] = load_automaton(text)
        mismatches += dump_automaton(machines[name]) != text
    return machines, mismatches


def greedy_run(b, word) -> Run | None:
    """The run taking the first enabled transition on each letter, or
    None when the walk gets stuck."""
    m = b.machine
    state, counters = m.initial, (0,) * m.k
    steps = []
    for letter in word:
        for index, t in enumerate(m.transitions):
            if (t.source == state and t.input == letter and
                    all((c > 0) == (g == 1) for g, c in zip(t.guard, counters))):
                state = t.destination
                counters = tuple(c + d for c, d in zip(counters, t.delta))
                steps.append(RunStep(letter, index, Configuration(state, counters)))
                break
        else:
            return None
    return Run(Configuration(m.initial, (0,) * m.k), tuple(steps))


def source_run(rng, b, length: int) -> tuple[list[str], Run]:
    """A random word of the given length that the machine can read, with
    its greedy run; stuck words are resampled."""
    alphabet = sorted(b.machine.alphabet)
    while True:
        word = [rng.choice(alphabet) for _ in range(length)]
        run = greedy_run(b, word)
        if run is not None:
            return word, run


def lasso(rng, total: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A lasso (spoke, cycle) over LASSO_SIGMA with |spoke| + |cycle| = total."""
    cycle_len = rng.randint(1, total)
    spoke = tuple(rng.choice(LASSO_SIGMA) for _ in range(total - cycle_len))
    cycle = tuple(rng.choice(LASSO_SIGMA) for _ in range(cycle_len))
    return spoke, cycle


def readable_lasso(rng, b, check_len: int = 64) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A lasso a^n1 b^m1 . (a^n2 b^m2)^omega with n2 >= 2 that the machine
    reads without getting stuck for check_len letters."""
    while True:
        spoke = ("a",) * rng.randint(1, 3) + ("b",) * rng.randint(1, 3)
        cycle = ("a",) * rng.randint(2, 4) + ("b",) * rng.randint(1, 3)
        word = list(spoke)
        while len(word) < check_len:
            word += cycle
        if greedy_run(b, word[:check_len]) is not None:
            return spoke, cycle


def word_file(spoke, cycle, chain: tuple[str, ...]) -> str:
    """Word-file text: coded lines outermost first, then the lasso line."""
    lines = [f"coded {c}" for c in chain]
    lines.append(" ".join(("lasso",) + tuple(spoke) + ("|",) + tuple(cycle)))
    return "\n".join(lines) + "\n"
