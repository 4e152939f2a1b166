"""Differential tests of the walker and the run check.

`machines.Walker` takes an origin column per walk, one entry per
transition, and a keyed step takes the enabled transition whose entry is
the key or None; it resolves each choice once per (state, token, sign
pattern, key) and replays it, and replays idle blocks whole.
`machines.validate_run` checks each step with tuple-level operations.  Both
are held to the versions they replaced (`reference_walk.py`, whose walker
takes a predicate per step) on seeded random machines with up to two
counters, duplicate transitions, list guards and guard or delta values
spelled True, False, 1.0 or 0.0.  The column is a function of each
transition's value, `_origin`, so the reference's per-step predicate
`_origin(u) in (key, None)` picks what the Walker picks, duplicates
included.  They give the same steps or the same walk error on random keyed
and unkeyed schedules, `idle(token, key, n)` equals n reference steps and
`idle(token, key, n, (last token, last key))` n + 1, and they give the same
verdict on valid runs and on corruptions of them that reach every violation
the check reports.
"""

import random
import re

import pytest

import reference_walk as ref
from omegacount.errors import MachineError
from omegacount.machines import (Configuration, CounterMachine, Run, RunStep,
                                 Transition, Walker, step, validate_run)

SIGMA = ("a", "b")
INPUTS = SIGMA + (None,)
STATES = ("s0", "s1", "s2")

# keys a walk step may pin: "to s1" is in the column of a transition that
# moves a counter on its way to s1
KEYS = ("to s0", "to s1", "to s2")


def _origin(u: Transition) -> str | None:
    """The column entry of u, a function of u's value: None, which every
    key takes, for a transition that moves no counter."""
    return f"to {u.destination}" if any(u.delta) else None


def _pinned(key):
    """The reference walker's predicate for a step keyed `key`."""
    return None if key is None else lambda u: _origin(u) in (key, None)


def _value(rng: random.Random, v: int):
    # the constructor accepts True and 1.0 wherever it accepts 1
    if rng.random() < 0.2:
        return rng.choice({0: (False, 0.0), 1: (True, 1.0), -1: (-1,)}[v])
    return v


def _machine(rng: random.Random) -> CounterMachine:
    k = rng.randint(0, 2)
    states = STATES[:rng.randint(1, 3)]
    trans = []
    for _ in range(rng.randint(1, 10)):
        bits = [rng.randint(0, 1) for _ in range(k)]
        guard = [_value(rng, b) for b in bits]
        delta = tuple(_value(rng, rng.choice((0, 1) if b == 0 else (-1, 0, 1)))
                      for b in bits)
        t = Transition(rng.choice(states), rng.choice(INPUTS),
                       guard if rng.random() < 0.15 else tuple(guard),
                       rng.choice(states), delta)
        trans.append(t)
        if rng.random() < 0.2:
            trans.append(t)
    return CounterMachine(k=k, alphabet=frozenset(SIGMA), states=states,
                          initial="s0", transitions=tuple(trans))


def _start(rng: random.Random, m: CounterMachine) -> Configuration:
    return Configuration(rng.choice(sorted(m.states)),
                         tuple(rng.randint(0, 2) for _ in range(m.k)))


def reads(m: CounterMachine, state: str) -> set:
    """The tokens the state's transitions read."""
    return {token for _, token, *_ in m.leaving(state)}


def _walker(m: CounterMachine, start: Configuration) -> Walker:
    return Walker(m, start, tuple(map(_origin, m.transitions)))


def test_walker_matches_the_reference():
    rng = random.Random(5)
    broke = {}
    replayed = 0
    for _ in range(500):
        m = _machine(rng)
        # later walks of a machine read its memo of step's choices warm
        for _ in range(3):
            start = _start(rng, m)
            got, want = _walker(m, start), ref.Walker(m, start)
            chosen = set()
            for _ in range(rng.randint(1, 40)):
                # mostly tokens the state reads, so walks get somewhere
                live = [x for x in INPUTS if x in reads(m, want.cfg.state)]
                token = rng.choice(live if live and rng.random() < 0.8 else INPUTS)
                key = None if rng.random() < 0.5 else rng.choice(KEYS)
                pred = _pinned(key)
                choice = (want.cfg.state, token,
                          tuple(c > 0 for c in want.cfg.counters), key)
                try:
                    want.to(token, pred)
                except MachineError as exc:
                    with pytest.raises(MachineError) as err:
                        got.to(token, key)
                    assert str(err.value) == str(exc), (m, start)
                    n = int(re.search(r"(\d+) candidate", str(exc)).group(1))
                    broke[n] = broke.get(n, 0) + 1
                    # a failed choice leaves both walkers where they were
                    continue
                got.to(token, key)
                assert got.cfg == want.cfg, (m, start)
                replayed += choice in chosen
                chosen.add(choice)
            assert got.run() == want.run()
    # the schedules hit both refusals and replay many remembered choices
    assert broke.get(0, 0) > 1000 and broke.get(2, 0) > 1000, broke
    assert replayed > 2000, replayed


def test_walker_replays_a_choice_it_resolved():
    # the second lap through s0 reuses the first lap's choice; the error
    # text still counts the steps taken so far
    m = CounterMachine(k=1, alphabet=frozenset(SIGMA), states=("s0", "s1"),
                       initial="s0",
                       transitions=(Transition("s0", "a", (1,), "s1", (1,)),
                                    Transition("s0", "a", (1,), "s0", (1,)),
                                    Transition("s1", "b", (1,), "s0", (-1,))))
    w = _walker(m, Configuration("s0", (1,)))
    for _ in range(3):
        w.to("a", "to s1")
        w.to("b")
    assert [s.transition_index for s in w.run().steps] == [0, 2] * 3
    with pytest.raises(MachineError, match="after 6 steps: 2 candidate"):
        w.to("a")


def test_walker_refuses_a_key_without_an_origin_column():
    m = CounterMachine(k=0, alphabet=frozenset(SIGMA), states=("s0",),
                       initial="s0",
                       transitions=(Transition("s0", "a", (), "s0", ()),))
    w = Walker(m, Configuration("s0", ()))
    with pytest.raises(TypeError, match="origin column"):
        w.to("a", "to s0")
    # even an empty idle segment checks its key
    with pytest.raises(TypeError, match="origin column"):
        w.idle("a", "to s0", 0)
    assert w.run().steps == ()
    w.to("a")
    w.idle("a", None, 2)
    assert len(w.run().steps) == 3
    w = _walker(m, Configuration("s0", ()))
    w.to("a", "to s0")
    w.idle("a", "to s0", 2)
    assert len(w.run().steps) == 3


def _zeros_respelled(rng: random.Random, m: CounterMachine) -> CounterMachine:
    """m with the zero deltas of some transitions spelled False or 0.0."""
    trans = []
    for t in m.transitions:
        if rng.random() < 0.5:
            zero = rng.choice((False, 0.0))
            t = Transition(t.source, t.input, t.guard, t.destination,
                           tuple(zero if d == 0 else d for d in t.delta))
        trans.append(t)
    return CounterMachine(k=m.k, alphabet=m.alphabet, states=m.states,
                          initial=m.initial, transitions=tuple(trans))


def test_idle_matches_reference_steps():
    """Walker.idle(token, key, n) against n reference steps, step for step
    and by repr: segments that move a counter are walked every time, and
    segments that move none are replayed, also at other counter values and
    with zero deltas spelled False or 0.0."""
    rng = random.Random(17)
    seen = dict.fromkeys(("empty", "refused mid-segment", "moving again",
                          "replayed elsewhere", "replayed False delta",
                          "replayed 0.0 delta"), 0)
    for _ in range(600):
        m = _zeros_respelled(rng, _machine(rng))
        # (state, token, signs, key, n) -> counters and deltas of the
        # segment walked there first, for the coverage counts
        walked = {}
        for _ in range(3):
            start = _start(rng, m)
            got, want = _walker(m, start), ref.Walker(m, start)
            walked.clear()
            for _ in range(rng.randint(1, 40)):
                live = [x for x in INPUTS if x in reads(m, want.cfg.state)]
                token = rng.choice(live if live and rng.random() < 0.8 else INPUTS)
                key = None if rng.random() < 0.3 else rng.choice(KEYS)
                pred = _pinned(key)
                n = rng.choice((0, 1, 2, 3, 5))
                counters = want.cfg.counters
                where = (want.cfg.state, token,
                         tuple(c > 0 for c in counters), key, n)
                first = len(want.steps)
                try:
                    for _ in range(n):
                        want.to(token, pred)
                except MachineError as exc:
                    with pytest.raises(MachineError) as err:
                        got.idle(token, key, n)
                    assert str(err.value) == str(exc), (m, start)
                    seen["refused mid-segment"] += 0 < len(want.steps) - first
                else:
                    got.idle(token, key, n)
                    seen["empty"] += n == 0
                    if where not in walked:
                        walked[where] = (counters, [
                            d for s in want.steps[first:]
                            for d in m.transitions[s.transition_index].delta])
                    else:
                        before, deltas = walked[where]
                        if any(deltas):
                            seen["moving again"] += 1
                        else:
                            seen["replayed elsewhere"] += before != counters
                            seen["replayed False delta"] += any(
                                d is False for d in deltas)
                            seen["replayed 0.0 delta"] += any(
                                type(d) is float for d in deltas)
                assert repr(got.run().steps) == repr(tuple(want.steps)), (m, start)
                assert got.cfg == want.cfg
            assert got.run() == want.run()
    assert all(v > 10 for v in seen.values()), seen



def test_block_matches_reference_steps():
    """Walker.idle(token, key, n, (last token, last key)) against n
    reference steps plus one, step for step and by repr, with the same walk
    error at the same step.  A block whose window moves a counter is walked
    by `to` every time; one whose window moves none is replayed without a
    `to`, also from other counters with the same sign pattern, with zero
    deltas spelled False or 0.0 and a last step that moves a counter."""
    rng = random.Random(23)
    seen = dict.fromkeys(("refused in window", "refused at last step",
                          "moving again", "replayed elsewhere",
                          "replayed 0.0 delta", "replayed moving last step",
                          "replayed list guard"), 0)
    for _ in range(600):
        m = _zeros_respelled(rng, _machine(rng))
        for _ in range(3):
            start = _start(rng, m)
            got, want = _walker(m, start), ref.Walker(m, start)
            # every step a block walks goes through `to`; a replay takes none
            walks = []
            walk = got.to
            got.to = lambda token, key=None: (walks.append(token), walk(token, key))
            # (state, token, signs, key, n, last, last key) -> the counters
            # the block was first walked from
            walked = {}
            # a few blocks drawn once and asked for again and again, as a
            # lift does, so that many are replayed
            menu = [(rng.choice(INPUTS), rng.choice((None,) + KEYS),
                     rng.choice((0, 1, 2, 3, 5)), rng.choice(INPUTS),
                     rng.choice((None,) + KEYS)) for _ in range(3)]
            for _ in range(rng.randint(1, 30)):
                token, key, n, last, last_key = rng.choice(menu)
                counters = want.cfg.counters
                where = (want.cfg.state, token, tuple(c > 0 for c in counters),
                         key, n, last, last_key)
                first = len(want.steps)
                walks.clear()
                try:
                    for _ in range(n):
                        want.to(token, _pinned(key))
                    want.to(last, _pinned(last_key))
                except MachineError as exc:
                    with pytest.raises(MachineError) as err:
                        got.idle(token, key, n, (last, last_key))
                    assert str(err.value) == str(exc), (m, start)
                    assert len(got) == len(want.steps)
                    seen["refused in window"] += len(want.steps) - first < n
                    seen["refused at last step"] += len(want.steps) - first == n
                else:
                    got.idle(token, key, n, (last, last_key))
                    used = [m.transitions[s.transition_index]
                            for s in want.steps[first:]]
                    moves = any(d for u in used[:n] for d in u.delta)
                    if where not in walked:
                        walked[where] = counters
                        assert len(walks) == n + 1
                    elif moves:
                        seen["moving again"] += 1
                        assert len(walks) == n + 1
                    else:
                        assert walks == []
                        seen["replayed elsewhere"] += walked[where] != counters
                        seen["replayed 0.0 delta"] += any(
                            type(d) is float for u in used[:n] for d in u.delta)
                        seen["replayed moving last step"] += any(used[n].delta)
                        seen["replayed list guard"] += any(
                            type(u.guard) is list for u in used)
                assert repr(got.run().steps) == repr(tuple(want.steps)), (m, start)
                assert got.cfg == want.cfg
            assert got.run() == want.run()
    assert all(v > 10 for v in seen.values()), seen


def _valid_run(rng: random.Random, m: CounterMachine) -> Run:
    # step() compares guards with Transition.matches, so these runs take
    # list guards too
    cfg = start = _start(rng, m)
    steps = []
    for _ in range(rng.randint(0, 12)):
        succ = [(tok, i, nc) for tok in INPUTS for i, nc in step(m, cfg, tok)]
        if not succ:
            break
        tok, i, cfg = rng.choice(succ)
        steps.append(RunStep(tok, i, cfg))
    return Run(start, tuple(steps))


def _with_step(run: Run, j: int, **change) -> Run:
    s = run.steps[j]
    fields = {"consumed": s.consumed, "transition_index": s.transition_index,
              "state": s.result.state, "counters": s.result.counters, **change}
    new = RunStep(fields["consumed"], fields["transition_index"],
                  Configuration(fields["state"], fields["counters"]))
    return Run(run.start, run.steps[:j] + (new,) + run.steps[j + 1:])


def _bump(counters: tuple, j: int, to) -> tuple:
    return counters[:j] + (to,) + counters[j + 1:]


def _corruptions(rng: random.Random, m: CounterMachine, run: Run, word: list):
    """(word, run) pairs with seeded defects: one defect each, then a few
    pairs with several defects in the same step."""
    n, k, start = len(run.steps), m.k, run.start
    yield word, Run(Configuration(start.state, start.counters + (0,)), run.steps)
    yield word, Run(Configuration("nowhere", start.counters), run.steps)
    if k:
        yield word, Run(Configuration(start.state, _bump(start.counters, rng.randrange(k), -1)),
                        run.steps)
    yield word + [rng.choice(SIGMA)], run
    if word:
        pos = rng.randrange(len(word))
        yield word[:pos] + ["b" if word[pos] == "a" else "a"] + word[pos + 1:], run
        yield word[:-1], run
    if not n:
        return
    j = rng.randrange(n)
    s = run.steps[j]
    before = run.steps[j - 1].result if j else start
    t = m.transitions[s.transition_index]
    yield word, _with_step(run, j, transition_index=rng.choice(
        (-1, len(m.transitions), len(m.transitions) + 3)))
    others = [i for i, u in enumerate(m.transitions) if u.source != before.state]
    if others:
        yield word, _with_step(run, j, transition_index=rng.choice(others))
    yield word, _with_step(run, j, consumed=rng.choice(
        [x for x in INPUTS + ("c",) if x != s.consumed]))
    blocked = [i for i, token, *_ in m.leaving(before.state)
               if token == s.consumed and not m.transitions[i].matches(before.counters)]
    if blocked:
        yield word, _with_step(run, j, transition_index=rng.choice(blocked))
    yield word, _with_step(run, j, state=rng.choice(
        [q for q in STATES + ("nowhere",) if q != t.destination]))
    if k:
        c = rng.randrange(k)
        yield word, _with_step(run, j, counters=_bump(s.result.counters, c, -1))
        yield word, _with_step(run, j, counters=_bump(
            s.result.counters, c, s.result.counters[c] + rng.choice((-1, 1, 2))))
    yield word, _with_step(run, j, counters=s.result.counters + (0,))
    # the order of the checks decides which of these defects is reported
    leaving = [i for i, u in enumerate(m.transitions) if u.source == before.state]
    for _ in range(4):
        change = {}
        if rng.random() < 0.7:
            change["transition_index"] = rng.choice(leaving)
        if rng.random() < 0.5:
            change["consumed"] = rng.choice(INPUTS)
        if rng.random() < 0.5:
            change["state"] = rng.choice(STATES)
        if rng.random() < 0.6:
            change["counters"] = tuple(c + rng.choice((-3, -1, 0, 1))
                                       for c in s.result.counters)
        yield word, _with_step(run, j, **change)


def test_validate_run_matches_the_reference():
    rng = random.Random(9)
    seen = set()
    for _ in range(1200):
        m = _machine(rng)
        run = _valid_run(rng, m)
        word = [s.consumed for s in run.steps if s.consumed is not None]
        assert validate_run(m, word, run) is None
        assert ref.validate_run(m, word, run) is None
        assert validate_run(m, "".join(word), run) is None
        for w, bad in _corruptions(rng, m, run, word):
            got = validate_run(m, w, bad)
            assert got == ref.validate_run(m, w, bad), (m, w, bad)
            if got is not None:
                where = ("start" if got.step == -1 else
                         "end" if got.step == len(bad.steps) else "step")
                seen.add((got.reason, where))
    assert seen == {
        ("arity", "start"), ("negative-counter", "start"), ("source", "start"),
        ("index", "step"), ("source", "step"), ("input", "step"),
        ("guard", "step"), ("negative-counter", "step"),
        ("destination", "step"), ("delta", "step"),
        ("projection", "step"), ("projection", "end")}, seen
