"""Differential tests of run segments.

A run piece is the four columns of one iteration plus a repeat count r,
and iteration j's counters are iteration 0's plus j·D.  On seeded random
machines: `validate_run` gives a run with segments the verdict it gives
the run's flat expansion, which is also the reference's, whether iteration
0's counters are ints, floats, NaN or ints above 2**53, and on corruptions
made for the arithmetic to miss: a step changed in iteration 0 or only in
the last iteration of the expansion, a counter that goes negative only at
j = r - 1, a zero guard on a counter that D moves, an iteration that does
not come back to its start state and a word with one iteration too many
or too few.  A valid run of int segments is checked without expanding
them.  A run with segments equals, hashes, prints, dumps and pickles as
its expansion.  `Walker.repeat` equals the reference walker's
step-by-step walk, errors included; the lifts that replay segments equal
the flat walks they replaced; the union lift splits a segment that opens
its run; and the script-L projection refuses a certificate cut from its
start.
"""

import copy
import math
import pickle
import random

import pytest

import omegacount.machines as machines
import reference_walk as ref
from omegacount.constructions import (build_realtime8, build_script_L,
                                      compose_pipeline, covered_prefix_length,
                                      lift_run_pipeline, lift_run_script_L,
                                      lift_run_theta, project_run_script_L)
from omegacount.errors import MachineError
from omegacount.fileio import dump_run, load_run
from omegacount.machines import (Configuration, CounterMachine, Run, RunStep,
                                 Transition, Walker, step, validate_run)

from conftest import m1_aomega, m2_two_counters, m2_word, m3_alternator, run_of

SIGMA = ("a", "b")
INPUTS = SIGMA + (None,)
STATES = ("s0", "s1", "s2")
KINDS = ("int", "float", "nan", "big")


def _machine(rng: random.Random) -> CounterMachine:
    """Few states and many moves, so that walks come back to where they
    started; some moves have a twin that differs in one guard bit, so that
    a walk goes on when a count reaches or leaves zero."""
    k = rng.randint(1, 2)
    states = STATES[:rng.randint(1, 2)]
    trans = []
    for _ in range(rng.randint(2, 8)):
        guard = tuple(rng.randint(0, 1) for _ in range(k))
        delta = tuple(rng.choice((0, 1) if g == 0 else (-1, 0, 1)) for g in guard)
        t = Transition(rng.choice(states), rng.choice(INPUTS), guard,
                       rng.choice(states), delta)
        trans.append(t)
        if rng.random() < 0.4:
            i = rng.randrange(k)
            twin = guard[:i] + (1 - guard[i],) + guard[i + 1:]
            trans.append(Transition(t.source, t.input, twin, t.destination, tuple(
                max(d, 0) if g == 0 else d for g, d in zip(twin, delta))))
    return CounterMachine(k=k, alphabet=frozenset(SIGMA), states=states,
                          initial="s0", transitions=tuple(trans))


def _start(rng: random.Random, m: CounterMachine, kind: str) -> Configuration:
    counters = [rng.randint(0, 6) for _ in range(m.k)]
    i = rng.randrange(m.k)
    if kind == "float":
        counters = [c + rng.choice((0.0, 0.5)) for c in counters]
    elif kind == "nan":
        counters[i] = math.nan
    elif kind == "big":
        counters[i] += 2 ** 53 + 1
    return Configuration(rng.choice(sorted(m.states)), tuple(counters))


def _path(rng: random.Random, m: CounterMachine, cfg: Configuration, p: int) -> list:
    """Up to p random steps from cfg; a step that moves no counter keeps
    the counters tuple now and then, as an idle block does."""
    steps = []
    for _ in range(p):
        succ = [(tok, i, nc) for tok in INPUTS for i, nc in step(m, cfg, tok)]
        if not succ:
            break
        tok, i, nc = rng.choice(succ)
        if not any(m.transitions[i].delta) and rng.random() < 0.5:
            nc = Configuration(nc.state, cfg.counters)
        steps.append(RunStep(tok, i, nc))
        cfg = nc
    return steps


def _segmented(rng: random.Random, m: CounterMachine, start: Configuration) -> Run:
    """A run of flat pieces and segments, each segment's iteration 0 a
    legal path, mostly one that comes back to the state it left."""
    pieces = []
    cfg = start
    for _ in range(rng.randint(1, 4)):
        tries = [_path(rng, m, cfg, rng.randint(1, 4)) for _ in range(4)]
        back = [s for s in tries if s and s[-1].result.state == cfg.state]
        steps = back[0] if back and rng.random() < 0.85 else tries[0]
        if not steps:
            break
        pieces.append((tuple(s.consumed for s in steps),
                       tuple(s.transition_index for s in steps),
                       tuple(s.result.state for s in steps),
                       tuple(s.result.counters for s in steps),
                       rng.choice((1, 2, 3, 5, 9))))
        run = Run._from_pieces(start, pieces)
        cfg = Configuration(run.states[-1], run.counters[-1])
    return Run._from_pieces(start, pieces)


def _flat(run: Run) -> Run:
    return Run.from_columns(run.start, run.consumed, run.indices, run.states,
                            run.counters)


def _word(run: Run) -> list:
    return [tok for tok in run.consumed if tok is not None]


def _with(pieces: list, j: int, **change) -> list:
    """pieces with piece j's columns or count replaced."""
    names = ("consumed", "indices", "states", "counters", "r")
    piece = dict(zip(names, pieces[j]), **change)
    return pieces[:j] + [tuple(piece[x] for x in names)] + pieces[j + 1:]


def _effect(run: Run, j: int) -> tuple:
    pieces = list(run._pieces)
    before = Run._from_pieces(run.start, pieces[:j]).counters
    entry = before[-1] if before else run.start.counters
    return tuple(a - b for a, b in zip(pieces[j][3][-1], entry)), entry


def _corruptions(rng: random.Random, m: CounterMachine, run: Run):
    """(kind, word, run) triples: the run, then one seeded defect each."""
    word = _word(run)
    yield "as is", word, run
    pieces = list(run._pieces)
    segments = [j for j, piece in enumerate(pieces) if piece[4] > 1]
    if not segments:
        return
    j = rng.choice(segments)
    consumed, indices, states, column, r = pieces[j]
    p = len(indices)
    # a word whose letters repeat the segment's one time too many or few
    for r2 in (r - 1, r + 1):
        yield "wrong repeat count", _word(Run._from_pieces(
            run.start, _with(pieces, j, r=r2))), run
    # a step changed in iteration 0, so in every iteration
    t = rng.randrange(p)
    yield "changed in iteration 0", word, Run._from_pieces(run.start, _with(
        pieces, j, indices=indices[:t] + (rng.randrange(len(m.transitions)),)
        + indices[t + 1:]))
    bumped = tuple(c + rng.choice((-1, 1)) for c in column[t])
    yield "changed in iteration 0", word, Run._from_pieces(run.start, _with(
        pieces, j, counters=column[:t] + (bumped,) + column[t + 1:]))
    # the last iteration written out flat, one of its steps changed
    first = sum(len(x[1]) * x[4] for x in pieces[:j]) + p * (r - 1)
    last = [col[first:first + p] for col in
            (run.consumed, run.indices, run.states, run.counters)]
    which = rng.randrange(4)
    value = (rng.choice(INPUTS), rng.randrange(len(m.transitions)),
             rng.choice(STATES), tuple(c + 1 for c in last[3][t]))[which]
    last[which] = last[which][:t] + (value,) + last[which][t + 1:]
    yield "changed in the last iteration", word, Run._from_pieces(
        run.start, _with(pieces, j, r=r - 1) + [(*last, 1)] + pieces[j + 1:])
    # a count that goes down, run on until it goes negative at j = r - 1
    effect, entry = _effect(run, j)
    falling = [i for i, d in enumerate(effect)
               if d < 0 and min(c[i] for c in column) < 40]
    if falling:
        i = rng.choice(falling)
        low = min(c[i] for c in column)
        longer = Run._from_pieces(run.start, _with(
            pieces[:j + 1], j, r=int(low // -effect[i]) + 2))
        yield "negative at the last iteration", _word(longer), longer


def test_validate_run_on_segments_matches_the_flat_expansion(monkeypatch):
    rng = random.Random(41)
    seen = {}
    expanded = []
    monkeypatch.setattr(machines, "_later_counters", (
        lambda f: lambda *a: (expanded.append(1), f(*a))[1])(machines._later_counters))
    for _ in range(1500):
        m = _machine(rng)
        kind = rng.choice(KINDS)
        run = _segmented(rng, m, _start(rng, m, kind))
        for why, word, bad in _corruptions(rng, m, run):
            flat = _flat(bad)
            expanded.clear()
            got = validate_run(m, word, bad)
            assert got == validate_run(m, word, flat) == ref.validate_run(m, word, flat), (
                m, word, bad._pieces)
            key = (kind, why, None if got is None else got.reason)
            seen[key] = seen.get(key, 0) + 1
            segments = [x for x in bad._pieces if x[4] > 1]
            if got is None and kind in ("int", "big") and segments:
                # valid int segments are checked by arithmetic alone
                assert not expanded
                seen["arithmetic"] = seen.get("arithmetic", 0) + 1
            for j, piece in enumerate(bad._pieces):
                if piece[4] < 2 or kind == "nan":
                    continue
                effect, entry = _effect(bad, j)
                before = Configuration(Run._from_pieces(bad.start, bad._pieces[:j]).states[-1]
                                       if j else bad.start.state, entry)
                if piece[2][-1] != before.state:
                    seen["not back"] = seen.get("not back", 0) + 1
                if any(d and g != 1 for idx in piece[1] if idx < len(m.transitions)
                       for g, d in zip(m.transitions[idx].guard, effect)):
                    seen["zero guard moved"] = seen.get("zero guard moved", 0) + 1
    # a count that a valid step takes below zero was not positive, so an
    # int run fails the guard first, and only a float one (0.5 - 1) goes
    # negative
    for key in ("arithmetic", "not back", "zero guard moved",
                ("int", "as is", None), ("int", "as is", "guard"),
                ("int", "as is", "source"), ("big", "as is", None),
                ("float", "as is", None), ("float", "as is", "negative-counter"),
                ("nan", "as is", "delta"),
                ("int", "wrong repeat count", "projection"),
                ("int", "changed in iteration 0", "delta"),
                ("int", "changed in the last iteration", "delta"),
                ("int", "changed in the last iteration", "source"),
                ("float", "changed in the last iteration", "negative-counter"),
                ("int", "negative at the last iteration", "guard"),
                ("big", "negative at the last iteration", "guard"),
                ("float", "negative at the last iteration", "negative-counter")):
        assert seen.get(key, 0) > 5, (key, sorted(seen.items(), key=str))


def test_a_run_with_segments_acts_like_its_expansion():
    rng = random.Random(42)
    kinds = set()
    for _ in range(400):
        m = _machine(rng)
        run = _segmented(rng, m, _start(rng, m, rng.choice(("int", "float", "big"))))
        flat = _flat(run)
        kinds.add(len(run._pieces) > 1 and max(x[4] for x in run._pieces) > 1)
        assert run == flat and flat == run and hash(run) == hash(flat)
        assert repr(run) == repr(flat) and run.steps == flat.steps
        assert len(run.steps) == len(flat.indices)
        assert dump_run(run) == dump_run(flat)
        assert pickle.loads(pickle.dumps(run)) == run == copy.copy(run)
        if not any(type(c) is float for c in run.start.counters):
            # run files spell integers only
            assert load_run(dump_run(run)) == run
        # iteration j holds iteration 0's counters plus j·D, and a step
        # that moves no counter in iteration 0 (the tuple before it, or an
        # equal one of ints) shares the tuple before it in the others
        counters = run.counters
        at = 0
        for j, (_, _, _, column, r) in enumerate(run._pieces):
            effect, entry = _effect(run, j)
            ints = all(type(x) is int for c in (entry, *column) for x in c)
            shared = [c is b or ints and c == b for c, b in zip(column, (entry, *column))]
            for it in range(r):
                for t, c in enumerate(column):
                    assert counters[at] == tuple(x + it * d for x, d in zip(c, effect))
                    if it and shared[t]:
                        assert counters[at] is counters[at - 1]
                    at += 1
    assert kinds == {False, True}
    with pytest.raises(ValueError, match="repeat count"):
        Run._from_pieces(Configuration("s0", ()), [(("a",), (0,), ("s0",), ((),), 0)])
    with pytest.raises(ValueError, match="length"):
        Run._from_pieces(Configuration("s0", ()), [(("a",), (0,), (), ((),), 2)])



def _first(m: CounterMachine) -> dict:
    """The first index of each (source, input, destination): the origin
    column below gives a move and its twins one entry."""
    first = {}
    for i, t in enumerate(m.transitions):
        first.setdefault((t.source, t.input, t.destination), i)
    return first


def _pinned(first: dict, key):
    """The reference walker's predicate for a step keyed `key`."""
    return None if key is None else (
        lambda u: first[u.source, u.input, u.destination] == key)


def test_repeat_matches_reference_steps():
    """Walker.repeat(walk, r) against r rounds of the reference walker's
    steps, by repr and configuration, with the same walk error at the same
    step; walk() is called only for the iterations that are not replayed."""
    rng = random.Random(43)
    seen = dict.fromkeys(("replayed", "walked after a replay", "replayed after two walks",
                          "broke", "broke after a replay", "float walked",
                          "idle inside"), 0)
    for _ in range(3000):
        m = _machine(rng)
        start = _start(rng, m, rng.choice(("int", "int", "float", "big")))
        first = _first(m)
        origin = tuple(first[t.source, t.input, t.destination] for t in m.transitions)
        got = Walker(m, start, origin)
        want = ref.Walker(m, start)
        # a schedule walkable once from the start, mostly back to it, its
        # steps keyed now and then
        tries = [_path(rng, m, start, rng.randint(1, 4)) for _ in range(4)]
        back = [s for s in tries if s and s[-1].result.state == start.state]
        path = (back[0] if back and rng.random() < 0.85 else tries[0]) or [
            RunStep("a", 0, start)]
        schedule = [(s.consumed, origin[s.transition_index] if rng.random() < 0.7
                     else None) for s in path]
        idle = rng.random() < 0.2
        r = rng.randint(0, 30)
        calls = []

        def walk():
            calls.append(len(got))
            for tok, key in schedule:
                if idle:
                    got.idle(tok, key, 1)
                else:
                    got.to(tok, key)

        try:
            for _ in range(r):
                for tok, key in schedule:
                    want.to(tok, _pinned(first, key))
        except MachineError as exc:
            with pytest.raises(MachineError) as err:
                got.repeat(walk, r)
            assert str(err.value) == str(exc), (m, start, schedule, r)
            assert len(got) == len(want.steps)
            seen["broke"] += 1
            seen["broke after a replay"] += len(calls) < len(want.steps) // len(schedule)
        else:
            got.repeat(walk, r)
            gaps = [b - a for a, b in zip(calls, calls[1:] + [len(got)])]
            seen["replayed"] += len(calls) < r
            seen["walked after a replay"] += any(g > len(schedule) for g in gaps[:-1])
            seen["replayed after two walks"] += (
                len(gaps) > 1 and gaps[0] == len(schedule) < gaps[1])
            seen["float walked"] += (len(calls) == r > 2 and got.state == start.state
                                     and any(type(c) is float for c in start.counters))
            seen["idle inside"] += idle and len(calls) < r
        assert repr(got.run().steps) == repr(tuple(want.steps)), (m, start, schedule, r)
        assert got.cfg == want.cfg
        assert got.run() == want.run()
    assert all(v > 10 for v in seen.values()), str(sorted(seen.items()))


def test_lifts_equal_their_flat_walks():
    """script-L and theta lifts, which replay their 0-runs and pad runs as
    segments, equal the flat walks of reference_walk.py, also past the
    pinned blocks; the pipeline lift equals itself with replays off."""
    rng = random.Random(44)
    for a, words in ((m1_aomega(), (["a"] * 3,)),
                     (m2_two_counters(), [m2_word(rng, 1) for _ in range(3)]),
                     (m3_alternator(), (["a", "b", "a"],))):
        for primes, longest in (((2, 3), 4), ((2, 5), 2)):
            bl = build_script_L(a, primes)
            for word in words:
                run = run_of(a, word[:longest])
                needed = covered_prefix_length(primes, len(run.indices))
                for n in (needed, needed + 1, needed + rng.randint(2, 40)):
                    cert = lift_run_script_L(bl, run, prefix_len=n)
                    assert cert.run == ref.script_l_walk(bl, run, n)
                    assert len(cert.run._pieces) < len(cert.run.steps) / 4
    for a, word, S in ((m1_aomega(), ["a", "a"], 72), (m2_two_counters(), ["a"], 128),
                       (m3_alternator(), ["a", "b"], 128)):
        b8 = build_realtime8(a, S_override=S)
        run = run_of(a, word)
        cert = lift_run_theta(b8, run)
        assert cert.run == ref.theta_walk(b8, run)
        extra = rng.randint(2 * S, 3 * S)
        longer = lift_run_theta(b8, run, prefix_len=len(cert.run.steps) + extra,
                                letters=["a"])
        assert longer.run == ref.theta_walk(b8, run, extra, "a")
    # m1's third pad block, 373,248 letters, is a few hundred steps held
    b8 = build_realtime8(m1_aomega(), S_override=72)
    cert = lift_run_theta(b8, run_of(m1_aomega(), ["a"] * 3))
    assert len(cert.run.steps) == 378_507
    assert sum(len(x[1]) for x in cert.run._pieces) < 1000
    assert validate_run(b8.machine, [x for x in cert.run.consumed if x], cert.run) is None


def test_pipeline_lift_equals_its_walk_without_replays(monkeypatch):
    out = compose_pipeline(m2_two_counters(), primes=(2, 3))
    runs = [run_of(m2_two_counters(), w) for w in (["a", "b"], ["a", "a", "b", "b"])]
    certs = [lift_run_pipeline(out, run) for run in runs]
    monkeypatch.setattr(Walker, "_replay", lambda self, *args: 0)
    for run, cert in zip(runs, certs):
        flat = lift_run_pipeline(out, run)
        assert len(flat.run._pieces) == 1
        assert cert.run == flat.run and cert.blocks == flat.blocks
        # a step that moves no counter shares the tuple before it
        assert (len(set(map(id, cert.run.counters)))
                <= len(set(map(id, flat.run.counters))))


def test_project_refuses_a_certificate_cut_from_its_start():
    m3 = m3_alternator()
    bl = build_script_L(m3, (2, 3))
    cert = lift_run_script_L(bl, run_of(m3, ["a", "b", "a"]))
    run = cert.run
    cut = cert.blocks[1].start
    start = Configuration(run.states[cut - 1], run.counters[cut - 1])
    rest = Run.from_columns(start, *(c[cut:] for c in (
        run.consumed, run.indices, run.states, run.counters)))
    assert validate_run(bl.machine, [x for x in rest.consumed if x is not None],
                        rest) is None
    with pytest.raises(MachineError, match="initial configuration"):
        project_run_script_L(bl, type(cert)(rest, cert.stage, ()))


def test_union_lift_of_a_run_that_opens_with_a_segment():
    """The first step takes u0's copy, so a segment that opens the side run
    loses its iteration 0 to a piece of its own; the lift equals the lift
    of the flat expansion and validates."""
    a = m1_aomega()
    u = machines.union(("L", a), ("R", a))
    for r in (1, 2, 7):
        run = Run._from_pieces(Configuration("p", (1, 0)),
                               [(("a", "a"), (1, 1), ("p", "p"), ((2, 0), (3, 0)), r),
                                (("a",), (1,), ("p",), ((2 * r + 2, 0),), 1)])
        for side in (0, 1):
            lifted = machines.lift_run_union(u, run, side)
            assert lifted == machines.lift_run_union(u, _flat(run), side)
            assert lifted.indices[0] != lifted.indices[1]
            assert validate_run(u.machine, _word(run), lifted) is None
