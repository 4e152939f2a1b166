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
state is accepting; the result is intersected with a deterministic guard for
the cyclic marker pattern.
"""

from __future__ import annotations

import itertools
import math

from ..errors import ArityError, BuildScaleError
from ..machines import (BuchiAutomaton, Built, Configuration, CounterMachine,
                        MachineError, Run, Transition, Walker,
                        intersect_det_buchi, is_real_time, validate_run)
from ..words import A, B, ZERO, HCoding, _check_letters, coded_alphabet, h_letters
from .certificates import BlockSpan, RunCertificate, source_word

STATE_CAP = 250_000
# states of build_script_l_guard, whatever the alphabet
_GUARD_STATES = 5


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
    trans = [Transition(src, a, (), row.get(a, "sink"), ())
             for src, row in table.items() for a in sorted(full)]
    m = CounterMachine(k=0, alphabet=full,
                       states=frozenset(table), initial="S0",
                       transitions=tuple(trans))
    return BuchiAutomaton(m, frozenset({"SA", "SS", "SB"}))


def _estimate_states(a: BuchiAutomaton, primes: tuple[int, ...]) -> int:
    """Upper bound on the states of the built product."""
    q = math.prod(primes)
    n_states = len(a.machine.states)
    # u1 chain + v residue grid + guess/z/a states + ratio programs
    est = 1 + q + n_states * q + 3 * n_states
    for t in a.machine.transitions:
        mul, div = _ratio(primes, t.delta)
        est += 1 + mul + div
    # the product pairs each raw state with every guard state at two flags
    return est * _GUARD_STATES * 2


def _refuse_primes_over_cap(primes: tuple[int, ...]) -> None:
    """Refuse primes whose block coding passes the cap for any source
    machine: init, the u1 chain, one v residue row and one z/a pair are
    built whatever the source, so (2Q + 3) raw states bound it from below."""
    least = (2 * math.prod(primes) + 3) * _GUARD_STATES * 2
    if least > STATE_CAP:
        raise BuildScaleError(
            "construction would exceed the state cap", least, STATE_CAP)


def _build_raw(a: BuchiAutomaton, coding: HCoding,
               full: frozenset[str]) -> Built:
    m = a.machine
    primes, big_q = coding.primes, coding.q
    ones = tuple(1 % p for p in primes)
    trans: list[Transition] = []
    table: dict[str, tuple] = {}

    def emit(src, inp, g, dst, d):
        src_name, dst_name = _name(src), _name(dst)
        table[src_name], table[dst_name] = src, dst
        trans.append(Transition(src_name, inp, (g,), dst_name, (d,)))

    emit(("init",), A, 0, ("u1", 0), 0)
    for c in range(big_q - 1):
        emit(("u1", c), ZERO, 0, ("u1", c + 1), 0)
    emit(("u1", big_q - 1), ZERO, 0, ("v", m.initial, ones), 1)

    combos = list(itertools.product(*(range(p) for p in primes)))
    for q in sorted(m.states):
        for res in combos:
            nxt = tuple((r + 1) % p for r, p in zip(res, primes))
            emit(("v", q, res), ZERO, 1, ("v", q, nxt), 1)
        # guesses: any source transition whose guard matches the residues
        for res in combos:
            for t in m.transitions:
                if t.source == q and _consistent(t.guard, res):
                    emit(("v", q, res), t.input, 1,
                         ("x", t.destination, t.delta), 0)

    seen: set[tuple[str, tuple[int, ...]]] = set()
    for t in m.transitions:
        key = (t.destination, t.delta)
        if key in seen:
            continue
        seen.add(key)
        q = t.destination
        ratio = _ratio(primes, t.delta)
        mul, div = ratio
        boundary = ("w", q, ratio, 0)
        emit(("x", *key), B, 1, boundary, 0)
        after_first = ("wl", q, ratio, 1) if div >= 2 \
            else ("w", q, ratio, 1 % mul)
        emit(boundary, ZERO, 1, after_first, -1)
        for l in range(1, div):
            dst = ("wl", q, ratio, l + 1) if l + 1 < div \
                else ("w", q, ratio, 1 % mul)
            emit(("wl", q, ratio, l), None, 1, dst, -1)
        for g in range(1, mul):
            for gv in (0, 1):
                emit(("w", q, ratio, g), ZERO, gv,
                     ("w", q, ratio, (g + 1) % mul), 0)
        emit(boundary, ZERO, 0, ("z", q), 1)
        emit(boundary, A, 0, ("a", q), 0)

    for q in sorted(m.states):
        emit(("z", q), ZERO, 1, ("z", q), 1)
        emit(("z", q), A, 1, ("a", q), 0)
        emit(("a", q), ZERO, 1, ("a", q), -1)
        emit(("a", q), ZERO, 0, ("v", q, ones), 1)

    accepting = frozenset(_name(("x", t.destination, t.delta))
                          for t in m.transitions
                          if t.destination in a.accepting)
    machine = CounterMachine(k=1, alphabet=full, states=frozenset(table),
                             initial="init", transitions=tuple(trans))
    return Built(machine, accepting, table=table)


def build_script_L(a: BuchiAutomaton, primes: tuple[int, ...]) -> Built:
    """One-counter acceptor of the block-coded run language of `a`.  Its
    table maps each state to (raw state tuple, guard state, flag)."""
    primes = tuple(primes)
    coding = HCoding(primes=primes)
    m = a.machine
    if m.k != len(primes):
        raise ArityError(f"machine has k={m.k} but {len(primes)} primes given")
    if not is_real_time(m):
        raise MachineError("block protocol needs a real-time source machine")
    full = coded_alphabet(coding, m.alphabet)
    est = _estimate_states(a, primes)
    if est > STATE_CAP:
        raise BuildScaleError(
            "construction would exceed the state cap", est, STATE_CAP)
    raw = _build_raw(a, coding, full)
    guard = build_script_l_guard(m.alphabet)
    prod = intersect_det_buchi(raw, guard)
    table = {n: (raw.table[q], s, flag) for n, (q, s, flag) in prod.table.items()}
    return Built(prod.machine, prod.accepting, source=a,
                 params={"coding": coding}, table=table)


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
    walk with the next block's marker and zeros, up to its guess point."""
    a, coding, table = bl.source, bl.params["coding"], bl.table
    m = a.machine
    word = source_word(m, run)
    big_q = coding.q
    needed = covered_prefix_length(coding.primes, len(word))
    n = needed if prefix_len is None else prefix_len
    if n < needed:
        raise MachineError(
            f"prefix too short to host the lift: need {needed} letters")
    room = 1 + big_q ** (len(word) + 1) if word else 1
    if n > needed and (not word or n - needed > room):
        raise MachineError(
            f"run pins {len(word)} blocks; prefix of {n} "
            f"letters passes the next guess point at {needed + room}")
    if not word:
        # deterministic control prefix: opening marker plus Q-1 zeros
        n = big_q

    # past the run's last block: the next block's marker, then its zeros
    letters = itertools.chain(h_letters(iter(word), coding),
                              [A], itertools.repeat(ZERO))
    indices = iter(run.indices)
    # the guard component is deterministic, so naming the raw destination
    # of a guess singles out the product transition
    walker = Walker(bl.machine, Configuration(bl.machine.initial, (0,)),
                    lambda guess, u: table[u.destination][0] == guess)
    lam = {t.source for t in bl.machine.transitions if t.input is None}
    opened: list[int] = []
    for tok in itertools.islice(letters, n):
        if tok == A:
            opened.append(len(walker))
        if tok in m.alphabet:
            t = m.transitions[next(indices)]
            walker.to(tok, ("x", t.destination, t.delta))
        else:
            walker.to(tok)
        while walker.state in lam:
            walker.to(None)
    opened.append(len(walker))
    spans = tuple(BlockSpan(i, opened[i - 1], opened[i])
                  for i in range(1, len(word) + 1))
    return RunCertificate(walker.run(), "script-l", spans)


def project_run_script_L(bl: Built, cert: RunCertificate) -> Run:
    """Recover the source run from a lifted certificate by reading the guess
    steps back off bl's state table."""
    a, table = bl.source, bl.table
    m = a.machine
    run = cert.run
    word = [tok for tok in run.consumed if tok is not None]
    bad = validate_run(bl.machine, word, run)
    if bad is not None:
        raise MachineError(f"certificate invalid: {bad}")

    consumed, indices, states, counters = [], [], [], []
    vec = (0,) * m.k
    prev = run.start.state
    for tok, state in zip(run.consumed, run.states):
        if tok in m.alphabet:
            src, dst = table[prev][0], table[state][0]
            if src[0] != "v" or dst[0] != "x":
                raise MachineError(
                    f"letter {tok!r} consumed outside a guess step")
            _, q, res = src
            _, q2, delta = dst
            g = tuple(1 if r == 0 else 0 for r in res)
            want = Transition(q, tok, g, q2, delta)
            idx = next((i for i, t in enumerate(m.transitions) if t == want),
                       None)
            if idx is None:
                raise MachineError(f"no source transition matches {want}")
            vec = tuple(c + d for c, d in zip(vec, delta))
            consumed.append(tok)
            indices.append(idx)
            states.append(q2)
            counters.append(vec)
        prev = state
    return Run.from_columns(Configuration(m.initial, (0,) * m.k), consumed,
                            indices, states, counters)
