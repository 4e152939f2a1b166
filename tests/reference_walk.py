"""Reference walker and run check for the differential tests.

These are `machines.Walker` and `machines.validate_run` as they were before
the Walker resolved each choice once per walk and validate_run moved to
tuple-level checks: every `to` searches the candidates afresh and calls
`want` on each, and validate_run walks a `Configuration` per step with
generator expressions.  They must keep behaving as they do here; the
faster versions are tested against them.  One fix is carried into the
reference: a candidate's guard is tested with `Transition.matches`, as
`step` and validate_run test it, so a list guard can be taken (the old
walker compared the guard with a tuple and never took one).
"""

from __future__ import annotations

from operator import add

from omegacount.errors import MachineError
from omegacount.machines import (Configuration, CounterMachine, Run, RunStep,
                                 RunViolation)


class Walker:
    """Replays a schedule on a machine: each `to` takes the one transition
    out of the current configuration on `token` whose guard holds and that
    satisfies `want`, and records the step."""

    def __init__(self, machine: CounterMachine, start: Configuration):
        self.machine = machine
        self.start = start
        self.cfg = start
        self.steps: list[RunStep] = []

    def to(self, token: str | None, want=None) -> None:
        counters = self.cfg.counters
        cands = [(i, t) for i, t in self.machine.outgoing(self.cfg.state, token)
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
