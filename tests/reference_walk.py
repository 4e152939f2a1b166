"""Reference walker, run check and flat lifts for the differential tests.

These are `machines.Walker` and `machines.validate_run` as they were before
the Walker resolved each choice once per walk and validate_run moved to
tuple-level checks: every `to` searches the candidates afresh and calls
`want` on each, and validate_run walks a `Configuration` per step with
generator expressions.  They must keep behaving as they do here; the
faster versions are tested against them.  One fix is carried into the
reference: a candidate's guard is tested with `Transition.matches`, as
`step` and validate_run test it, so a list guard can be taken (the old
walker compared the guard with a tuple and never took one).

`script_l_walk` and `theta_walk` are the script-L and theta lifts as they
were before run segments: the coded word walked one letter at a time with
`machines.Walker.to`, every step of the run written out.
"""

from __future__ import annotations

import itertools
from operator import add

from omegacount.errors import MachineError
from omegacount.machines import (Built, Configuration, CounterMachine, Run, RunStep,
                                 RunViolation)
from omegacount.machines import Walker as FastWalker
from omegacount.words import A, E, ZERO, _h_runs


def h_letters(src, coding):
    """A.0^Q.x(1).B.0^{Q^2}.A.0^{Q^2}.x(2).B.0^{Q^3}... letter by letter."""
    return itertools.chain.from_iterable(
        itertools.repeat(a, n) for a, n in _h_runs(src, coding.q))


class Walker:
    """Replays a schedule on a machine: each `to` takes the one transition
    out of the current configuration on `token` whose guard holds and that
    satisfies `want`, and records the step."""

    def __init__(self, machine: CounterMachine, start: Configuration):
        self.machine = machine
        # (source, input) -> indexed records, read from `transitions` alone
        self.adj: dict[tuple, list] = {}
        for i, t in enumerate(machine.transitions):
            self.adj.setdefault((t.source, t.input), []).append((i, t))
        self.start = start
        self.cfg = start
        self.steps: list[RunStep] = []

    def to(self, token: str | None, want=None) -> None:
        counters = self.cfg.counters
        cands = [(i, t) for i, t in self.adj.get((self.cfg.state, token), [])
                 if t.matches(counters) and (want is None or want(t))]
        if len(cands) != 1:
            raise MachineError(
                f"walk broke at {self.cfg.state!r} on {token!r} after "
                f"{len(self.steps)} steps: {len(cands)} candidate transitions")
        i, t = cands[0]
        self.cfg = Configuration(t.destination, tuple(map(add, counters, t.delta)))
        self.steps.append(RunStep(token, i, self.cfg))

    def run(self) -> Run:
        return Run(self.start, tuple(self.steps))


def validate_run(machine: CounterMachine, word: list[str] | tuple[str, ...] | str,
                 run: Run) -> RunViolation | None:
    """None iff the run is a legal complete run over exactly `word`."""
    word = list(word)
    if len(run.start.counters) != machine.k:
        return RunViolation(-1, "arity", f"start has {len(run.start.counters)} counters, machine k={machine.k}")
    if any(c < 0 for c in run.start.counters):
        return RunViolation(-1, "negative-counter", "start configuration")
    if run.start.state not in machine.states:
        return RunViolation(-1, "source", f"unknown state {run.start.state!r}")
    cur = run.start
    pos = 0
    for i, s in enumerate(run.steps):
        if not (0 <= s.transition_index < len(machine.transitions)):
            return RunViolation(i, "index", f"transition index {s.transition_index} out of range")
        t = machine.transitions[s.transition_index]
        if t.source != cur.state:
            return RunViolation(i, "source", f"transition {s.transition_index} leaves {t.source!r}, run is at {cur.state!r}")
        if s.consumed != t.input:
            return RunViolation(i, "input", f"recorded {s.consumed!r}, transition reads {t.input!r}")
        if not t.matches(cur.counters):
            return RunViolation(i, "guard", f"guard {t.guard} vs counters {cur.counters}")
        if any(c < 0 for c in s.result.counters):
            return RunViolation(i, "negative-counter", f"result {s.result.counters}")
        expected = tuple(c + d for c, d in zip(cur.counters, t.delta))
        if s.result.state != t.destination:
            return RunViolation(i, "destination", f"recorded {s.result.state!r}, transition enters {t.destination!r}")
        if s.result.counters != expected:
            return RunViolation(i, "delta", f"recorded {s.result.counters}, expected {expected}")
        if s.consumed is not None:
            if pos >= len(word) or word[pos] != s.consumed:
                return RunViolation(i, "projection", f"letter {s.consumed!r} at word position {pos}")
            pos += 1
        cur = s.result
    if pos != len(word):
        return RunViolation(len(run.steps), "projection", f"run consumed {pos} of {len(word)} letters")
    return None


def script_l_walk(bl: Built, run: Run, n: int) -> Run:
    """The first n letters of the run's h coding, then the next block's
    marker and zeros, walked on bl one letter at a time, each followed by
    the lambda steps it leaves; a source letter is keyed by the run's
    transition."""
    m = bl.source.machine
    word = [tok for tok in run.consumed if tok is not None]
    letters = itertools.chain(h_letters(iter(word), bl.params["coding"]),
                              [A], itertools.repeat(ZERO))
    indices = iter(run.indices)
    walker = FastWalker(bl.machine, Configuration(bl.machine.initial, (0,)), bl.origin)
    lam = {t.source for t in bl.machine.transitions if t.input is None}
    for tok in itertools.islice(letters, n):
        walker.to(tok, next(indices) if tok in m.alphabet else None)
        while walker.state in lam:
            walker.to(None)
    return walker.run()


def theta_walk(b8: Built, run: Run, extra: int = 0, letter: str | None = None) -> Run:
    """Block i of the theta lift, its letter and S**i pad letters, walked
    one step at a time, each keyed by the run's transition; then, when
    extra > 0, `letter` and extra - 1 unkeyed pad letters."""
    s_eff = b8.params["S"]
    walker = FastWalker(b8.machine, Configuration(b8.machine.initial, (0,) * 8),
                        b8.origin)
    for i, (tok, at) in enumerate(zip(run.consumed, run.indices), start=1):
        walker.to(tok, at)
        for _ in range(s_eff ** i):
            walker.to(E, at)
    if extra:
        walker.to(letter)
        for _ in range(extra - 1):
            walker.to(E)
    return walker.run()
