"""One-counter acceptor for the marker-coded run language of a real-time
k-counter automaton, with prime-ratio length propagation between blocks.

Block protocol: the opening A plus Q-1 zeros are checked in finite control;
the rest of the A-run is counted up as v_i while residues mod each prime are
tracked in control, so the guard bit "counter t positive", i.e. p_t divides
the run length with positive valuation, is exactly "residue t is zero".  At
the block letter a transition of the source machine is guessed among those
whose guard matches the residues.  The B-run is then consumed by ratio
counting: with M the product of primes whose delta is +1 and D the product
of those with -1, one counter unit is paid per group of M zeros, spread as a
first-letter decrement followed by D-1 lambda decrements, so the counter
empties exactly when the B-run length is v_i * M / D.  A trailing z-part is
counted up and drained against the next block's opening zeros, which pins
u_{i+1} = z_i.  Accepting states are the post-guess states whose source
state is accepting.  The protocol's states are paired, as they are reached,
with the states of a deterministic guard for the cyclic marker pattern.

A lift replays the coded word of a run's letters, and may walk on up to
the next block's guess (`certificates.walk_length`).
"""

from __future__ import annotations

import itertools
import math
from operator import add

from ..errors import ArityError, BuildScaleError
from ..machines import (BuchiAutomaton, Built, Configuration, CounterMachine,
                        MachineError, Run, Walker, _reach, _two_flag, is_real_time,
                        run_word, validate_run)
from ..words import A, B, ZERO, HCoding, _check_letters, _expand, _h_runs, coded_alphabet
from .certificates import BlockSpan, RunCertificate, source_word, walk_length

STATE_CAP = 250_000


def _dots(values) -> str:
    return ".".join(str(v) for v in values)


def _name(state: tuple) -> str:
    """File name of a raw state such as ("v", q, res): its fields joined by
    "&", vector fields by "."."""
    return "&".join(_dots(x) if isinstance(x, tuple) else str(x) for x in state)


def _ratio(primes: tuple[int, ...], delta: tuple[int, ...]) -> tuple[int, int]:
    mul = math.prod(p for p, d in zip(primes, delta) if d == 1)
    div = math.prod(p for p, d in zip(primes, delta) if d == -1)
    return mul, div


def _consistent(guard: tuple[int, ...], res: tuple[int, ...]) -> bool:
    # positive valuation of the run length <=> divisible <=> residue zero
    return all((g == 1) == (r == 0) for g, r in zip(guard, res))


def build_script_l_guard(sigma: frozenset[str] | set[str]) -> BuchiAutomaton:
    """Deterministic complete acceptor for never leaving the cyclic pattern
    A.0*.letter.B.0*; every state except the rejecting sink is accepting,
    so the product stays accepting once per block.  The same for every
    prime tuple.  Raises FreshLetterError when an h letter is in sigma."""
    sigma = frozenset(sigma)
    _check_letters((A, B, ZERO), sigma)
    full = sigma | {A, B, ZERO}
    table = {
        "S0": {A: "SA"},
        "SA": {ZERO: "SA", **{a: "SS" for a in sigma}},
        "SS": {B: "SB"},
        "SB": {ZERO: "SB", A: "SA"},
        "sink": {},
    }
    trans = [(src, a, (), row.get(a, "sink"), ())
             for src, row in table.items() for a in sorted(full)]
    m = CounterMachine.from_columns(0, full, frozenset(table), "S0", *zip(*trans))
    return BuchiAutomaton(m, frozenset({"SA", "SS", "SB"}))


# the guard and delta of the block protocol's moves: one shared tuple each
_ZERO, _POS = (0,), (1,)
_DEC, _KEEP, _INC = (-1,), (0,), (1,)


def _raw_moves(a: BuchiAutomaton, primes: tuple[int, ...]):
    """moves(raw) of the block protocol: (input, guard, raw destination,
    delta, origin) per move of a raw state such as ("v", q, res), in a
    fixed order.  A guess's origin is the index of the source transition it
    guesses; every other move's is None."""
    m = a.machine
    big_q = math.prod(primes)
    ones = tuple(1 % p for p in primes)

    def moves(raw: tuple):
        kind = raw[0]
        if kind == "v":
            # count the A-run up, or guess a source transition whose guard
            # matches the residues
            _, q, res = raw
            nxt = tuple([(r + 1) % p for r, p in zip(res, primes)])
            yield ZERO, _POS, ("v", q, nxt), _INC, None
            for i, inp, guard, dst, delta in m.leaving(q):
                if _consistent(guard, res):
                    yield inp, _POS, ("x", dst, delta), _KEEP, i
        elif kind == "w":
            # g == 0 is the boundary: pay a unit, or let the B-run end
            _, q, ratio, g = raw
            mul, div = ratio
            if g:
                after = ("w", q, ratio, (g + 1) % mul)
                yield ZERO, _ZERO, after, _KEEP, None
                yield ZERO, _POS, after, _KEEP, None
            else:
                yield (ZERO, _POS, ("wl", q, ratio, 1) if div >= 2
                       else ("w", q, ratio, 1 % mul), _DEC, None)
                yield ZERO, _ZERO, ("z", q), _INC, None
                yield A, _ZERO, ("a", q), _KEEP, None
        elif kind == "wl":
            _, q, ratio, l = raw
            mul, div = ratio
            yield (None, _POS, ("wl", q, ratio, l + 1) if l + 1 < div
                   else ("w", q, ratio, 1 % mul), _DEC, None)
        elif kind == "u1":
            c = raw[1] + 1
            yield (ZERO, _ZERO, ("u1", c), _KEEP, None) if c < big_q \
                else (ZERO, _ZERO, ("v", m.initial, ones), _INC, None)
        elif kind == "x":
            _, q, delta = raw
            yield B, _POS, ("w", q, _ratio(primes, delta), 0), _KEEP, None
        elif kind == "z":
            yield ZERO, _POS, raw, _INC, None
            yield A, _POS, ("a", raw[1]), _KEEP, None
        elif kind == "a":
            yield ZERO, _POS, raw, _DEC, None
            yield ZERO, _ZERO, ("v", raw[1], ones), _INC, None
        else:  # init
            yield A, _ZERO, ("u1", 0), _KEEP, None

    return moves


def build_script_L(a: BuchiAutomaton, primes: tuple[int, ...]) -> Built:
    """One-counter acceptor of the block-coded run language of `a`.

    Its states are (raw state, guard state, flag) triples: the block
    protocol in the two-flag product with build_script_l_guard that
    `machines._two_flag` makes for intersect_det_buchi too.  `_reach`
    builds the triples that
    (("init",), "S0", 1) reaches and refuses a build that reaches more
    than STATE_CAP; the table maps each state to its triple, and the origin
    column each guess to the index of the source transition it guesses.
    Primes whose floor alone passes the cap are refused before anything is
    built."""
    primes = tuple(primes)
    coding = HCoding(primes=primes)
    # init, the Q-state u1 chain and the initial state's Q-state v row are
    # reached whatever the source, each in some product state
    floor = 2 * coding.q + 1
    if floor > STATE_CAP:
        raise BuildScaleError("script-L product would pass the state cap",
                              floor, STATE_CAP)
    m = a.machine
    if m.k != len(primes):
        raise ArityError(f"machine has k={m.k} but {len(primes)} primes given")
    if not is_real_time(m):
        raise MachineError("block protocol needs a real-time source machine")
    full = coded_alphabet(coding, m.alphabet)
    guard = build_script_l_guard(m.alphabet)
    moves = _two_flag(_raw_moves(a, primes),
                      lambda raw: raw[0] == "x" and raw[1] in a.accepting, guard)
    machine, table, origin, _ = _reach(
        1, full, (("init",), guard.machine.initial, 1), moves,
        lambda state: f"{_name(state[0])}&{state[1]}&{state[2]}",
        STATE_CAP, "script-L product")
    accepting = frozenset(n for n, (_, s, flag) in table.items()
                          if flag == 2 and s in guard.accepting)
    return Built(machine, accepting, source=a, params={"coding": coding},
                 table=table, origin=origin)


def covered_prefix_length(primes: tuple[int, ...], blocks: int) -> int:
    """Letters of coded prefix a lift over this many complete blocks needs."""
    q = math.prod(primes)
    return sum(3 + q ** i + q ** (i + 1) for i in range(1, blocks + 1))


def lift_run_script_L(bl: Built, run: Run,
                      prefix_len: int | None = None) -> RunCertificate:
    """Lift a run of the machine bl was built from (from its initial
    configuration) to bl by replaying the coded word of the run's letters,
    one coded block per source step.  Only the guess at each source letter
    is pinned, to the run's transition; every other step, and each lambda
    step, is the only one the counter allows.  prefix_len may extend the
    walk with the next block's marker and zeros, up to its guess point;
    an empty run lifts to the empty certificate.

    A 0-run is walked Q zeros at a time by `Walker.repeat`: the residues,
    the B-run's payment cycle and the guard pattern all come back after Q
    zeros, so most of each 0-run is one run segment."""
    m = bl.source.machine
    coding = bl.params["coding"]
    word = list(_expand(source_word(m, run)))
    big_q = coding.q
    # the next block's marker and its Q^(blocks+1) zeros come before its guess
    n = walk_length(covered_prefix_length(coding.primes, len(word)),
                    1 + big_q ** (len(word) + 1), prefix_len, len(word), "guess")

    indices = iter(run.indices)
    walker = Walker(bl.machine, Configuration(bl.machine.initial, (0,)), bl.origin)
    lam = {q for q, tok in zip(bl.machine.sources, bl.machine.inputs) if tok is None}

    def letter(tok: str, key=None) -> None:
        walker.to(tok, key)
        while walker.state in lam:
            walker.to(None)

    def zeros() -> None:
        for _ in range(big_q):
            letter(ZERO)

    # past the run's last block: the next block's marker, then its zeros
    runs = itertools.chain(_h_runs(iter(word), big_q), [(A, 1), (ZERO, math.inf)])
    opened: list[int] = []
    for tok, count in runs:
        if not n:
            break
        count = min(count, n)
        n -= count
        if tok == A:
            opened.append(len(walker))
        if tok in m.alphabet:
            letter(tok, next(indices))
        elif tok == ZERO:
            walker.repeat(zeros, count // big_q)
            for _ in range(count % big_q):
                letter(ZERO)
        else:
            letter(tok)
    opened.append(len(walker))
    spans = tuple(BlockSpan(i, opened[i - 1], opened[i])
                  for i in range(1, len(word) + 1))
    return RunCertificate(walker.run(), "script-l", spans)


def project_run_script_L(bl: Built, cert: RunCertificate) -> Run:
    """Recover the source run from a lifted certificate: each guess step
    cites, through bl's origin column, the source transition it guessed.
    The certificate must start at bl's initial configuration, as a lift's
    does: a cut one has no source run from the source's initial one."""
    m = bl.source.machine
    run = cert.run
    if run.start != Configuration(bl.machine.initial, (0,)):
        raise MachineError("certificate must start at bl's initial configuration")
    bad = validate_run(bl.machine, run_word(run), run)
    if bad is not None:
        raise MachineError(f"certificate invalid: {bad}")

    # only a guess reads a source letter, and every guess has an origin
    indices = [o for consumed, steps, _, _, r in run._pieces for o in [
        bl.origin[i] for tok, i in zip(consumed, steps) if tok in m.alphabet] * r]
    consumed, states, counters = [], [], []
    vec = (0,) * m.k
    for i in indices:
        vec = tuple(map(add, vec, m.deltas[i]))
        consumed.append(m.inputs[i])
        states.append(m.destinations[i])
        counters.append(vec)
    return Run.from_columns(Configuration(m.initial, (0,) * m.k), consumed,
                            indices, states, counters)
