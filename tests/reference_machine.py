"""Reference machine check for the differential tests.

This is `CounterMachine.__post_init__` as it was before the checks ran over
the whole machine at once: each state and letter token is checked on its
own, then each transition in index order (its source, destination and
input, and its guard and delta once per distinct (guard, delta)), and the
(source, input) index is built in the same pass.  The batched check must
accept exactly what this accepts and raise the same first error.
"""

from __future__ import annotations

from omegacount.errors import MachineError

LAMBDA_TOKEN = "-"


def _check_token(tok: str, what: str) -> None:
    if not isinstance(tok, str) or not tok:
        raise MachineError(f"{what} must be a nonempty string, got {tok!r}")
    if tok == LAMBDA_TOKEN:
        raise MachineError(f"{what} {tok!r} is reserved for the lambda input")
    if tok.split() != [tok] or "#" in tok:
        raise MachineError(f"{what} {tok!r} not serializable (whitespace or '#')")


def _check_guard_delta(i: int, t, k: int) -> None:
    if len(t.guard) != k or len(t.delta) != k:
        raise MachineError(f"transition {i}: guard/delta arity != k={k}")
    for g in t.guard:
        if g not in (0, 1):
            raise MachineError(f"transition {i}: guard values must be 0 or 1")
    for d in t.delta:
        if d not in (-1, 0, 1):
            raise MachineError(f"transition {i}: delta values must be -1, 0 or +1")
    for g, d in zip(t.guard, t.delta):
        if g == 0 and d == -1:
            raise MachineError(f"transition {i}: delta -1 under a zero guard")


def check_machine(k, alphabet, states, initial, transitions) -> tuple[bool, dict]:
    """Raise the first MachineError of the machine, or return whether it is
    real-time and its (source, input) -> [(index, transition)] index."""
    alphabet, states = frozenset(alphabet), frozenset(states)
    transitions = tuple(transitions)
    if k < 0:
        raise MachineError("k must be a natural number")
    if not states:
        raise MachineError("state set must be nonempty")
    for s in states:
        _check_token(s, "state id")
    for a in alphabet:
        _check_token(a, "letter")
    if initial not in states:
        raise MachineError(f"initial state {initial!r} not in states")
    shapes = set()
    adj: dict = {}
    real_time = True
    for i, t in enumerate(transitions):
        if t.source not in states:
            raise MachineError(f"transition {i}: unknown source {t.source!r}")
        if t.destination not in states:
            raise MachineError(f"transition {i}: unknown destination {t.destination!r}")
        if t.input is None:
            real_time = False
        elif t.input not in alphabet:
            raise MachineError(f"transition {i}: input {t.input!r} not in alphabet")
        shape = (tuple(t.guard), tuple(t.delta))
        if shape not in shapes:
            _check_guard_delta(i, t, k)
            shapes.add(shape)
        adj.setdefault((t.source, t.input), []).append((i, t))
    return real_time, adj
