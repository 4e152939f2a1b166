"""Complement of the marker-coded image set, as a union of four defect
acceptors.

A coded image has the shape A.0^{Q}.y(1).B.0^{Q^2}.A.0^{Q^2}.y(2).B... where
Q is the product of the primes.  A word fails to be an image exactly when one
of four defects occurs: the opening block deviates from its fixed template
(D1), the cyclic marker pattern breaks or the word stalls in zeros (D2), some
B-run and the A-run after it differ in length (D3), or some within-block pair
has B-run length different from Q times the A-run length (D4).  D1 and D2
need no counters; D3 and D4 guess the offending run and check it with one.

D2 and D3 have a fixed number of states; D1 (Q + 5) and D4 (Q + 7) grow
with Q, so they count their states from Q first and refuse, before
anything is built, a count past STATE_CAP.
"""

from __future__ import annotations

from ..errors import BuildScaleError
from ..machines import BuchiAutomaton, Built, CounterMachine, pad_counters, union
from ..words import A, B, ZERO, HCoding, coded_alphabet

BAD = "bad"
STATE_CAP = 250_000


def _refuse_past_cap(name: str, states: int) -> None:
    if states > STATE_CAP:
        raise BuildScaleError(f"{name} needs {states} states, past the cap of "
                              f"{STATE_CAP}", states, STATE_CAP)


# each builder lists (source, input, guard, destination, delta) rows and hands
# them to the machine as its five columns: no Transition record per edge
def _sink(state: str, letters, k: int) -> list[tuple]:
    guards = [(0,), (1,)] if k == 1 else [()]
    zero = (0,) * k
    return [(state, a, g, state, zero)
            for a in sorted(letters) for g in guards]


def build_d1(sigma: frozenset[str] | set[str],
             primes: tuple[int, ...]) -> BuchiAutomaton:
    """Accepts words whose opening letters deviate from A.0^Q.letter.B."""
    sigma = frozenset(sigma)
    coding = HCoding(primes=tuple(primes))
    q = coding.q
    _refuse_past_cap("D1", q + 5)
    full = coded_alphabet(coding, sigma)
    trans: list[tuple] = []

    def tmpl(i: int) -> str:
        return f"t&{i}"

    def expect(state: str, good: set[str], nxt: str) -> None:
        for a in sorted(full):
            dst = nxt if a in good else BAD
            trans.append((state, a, (), dst, ()))

    expect(tmpl(0), {A}, tmpl(1))
    for i in range(1, q + 1):
        expect(tmpl(i), {ZERO}, tmpl(i + 1))
    expect(tmpl(q + 1), set(sigma), tmpl(q + 2))
    expect(tmpl(q + 2), {B}, "done")
    trans += _sink("done", full, 0)
    trans += _sink(BAD, full, 0)

    states = frozenset([tmpl(i) for i in range(q + 3)] + ["done", BAD])
    m = CounterMachine.from_columns(0, full, states, tmpl(0), *zip(*trans))
    return BuchiAutomaton(machine=m, accepting=frozenset({BAD}))


def build_d2(sigma: frozenset[str] | set[str],
             primes: tuple[int, ...]) -> BuchiAutomaton:
    """Accepts breaks of the cyclic pattern (A.0^+.letter.B.0^+)^w and words
    that stall in an endless zero run."""
    sigma = frozenset(sigma)
    full = coded_alphabet(HCoding(tuple(primes)), sigma)
    trans: list[tuple] = []

    def expect(state: str, table: dict[str, str]) -> None:
        for a in sorted(full):
            dst = table.get(a, BAD)
            trans.append((state, a, (), dst, ()))

    sig = {a: "rS" for a in sigma}
    expect("start", {A: "rA0"})
    expect("rA0", {ZERO: "rA1"})
    expect("rA1", {ZERO: "rA1", **sig})
    expect("rS", {B: "rB0"})
    expect("rB0", {ZERO: "rB1"})
    expect("rB1", {ZERO: "rB1", A: "rA0"})
    # a zero run may secretly never end; guess so and survive only on zeros
    for st in ("rA0", "rA1", "rB0", "rB1"):
        trans.append((st, ZERO, (), "stall", ()))
    trans.append(("stall", ZERO, (), "stall", ()))
    trans += _sink(BAD, full, 0)

    states = frozenset(["start", "rA0", "rA1", "rS", "rB0", "rB1",
                        "stall", BAD])
    m = CounterMachine.from_columns(0, full, states, "start", *zip(*trans))
    return BuchiAutomaton(machine=m, accepting=frozenset({BAD, "stall"}))


def build_d3(sigma: frozenset[str] | set[str],
             primes: tuple[int, ...]) -> BuchiAutomaton:
    """Accepts words holding B.0^n.A.0^m followed by a plain letter with
    n, m >= 1 and n != m.  One counter holds the first run's length; the
    sink is entered only on the closing letter."""
    sigma = frozenset(sigma)
    full = coded_alphabet(HCoding(tuple(primes)), sigma)
    trans: list[tuple] = []

    for a in sorted(full):
        trans.append(("w0", a, (0,), "w0", (0,)))
    trans.append(("w0", B, (0,), "cnt", (0,)))
    # count the guessed B-run; the A move needs at least one zero behind it
    trans.append(("cnt", ZERO, (0,), "cnt", (1,)))
    trans.append(("cnt", ZERO, (1,), "cnt", (1,)))
    trans.append(("cnt", A, (1,), "dr0", (0,)))
    # drain against the A-run; dr0 forces the second run to be nonempty
    trans.append(("dr0", ZERO, (1,), "dr", (-1,)))
    trans.append(("dr", ZERO, (1,), "dr", (-1,)))
    trans.append(("dr", ZERO, (0,), "ov", (0,)))
    for a in sorted(sigma):
        # closing letter seals the mismatch; equal lengths leave no move
        trans.append(("dr", a, (1,), BAD, (0,)))
        trans.append(("ov", a, (0,), BAD, (0,)))
    trans.append(("ov", ZERO, (0,), "ov", (0,)))
    trans += _sink(BAD, full, 1)

    states = frozenset(["w0", "cnt", "dr0", "dr", "ov", BAD])
    m = CounterMachine.from_columns(1, full, states, "w0", *zip(*trans))
    return BuchiAutomaton(machine=m, accepting=frozenset({BAD}))


def build_d4(sigma: frozenset[str] | set[str],
             primes: tuple[int, ...]) -> BuchiAutomaton:
    """Accepts words holding A.0^n.letter.B.0^m.A with n, m >= 1 and
    m != Q*n.  The counter holds the first run's length and pays one unit
    per group of Q zeros; the sink is entered only on the closing A."""
    sigma = frozenset(sigma)
    coding = HCoding(primes=tuple(primes))
    q = coding.q
    _refuse_past_cap("D4", q + 7)
    full = coded_alphabet(coding, sigma)
    trans: list[tuple] = []

    def grp(j: int) -> str:
        return f"g&{j}"

    for a in sorted(full):
        trans.append(("v0", a, (0,), "v0", (0,)))
    trans.append(("v0", A, (0,), "acnt0", (0,)))
    # acnt0 has a single move so the counted run is nonempty
    trans.append(("acnt0", ZERO, (0,), "acnt", (1,)))
    trans.append(("acnt", ZERO, (1,), "acnt", (1,)))
    for a in sorted(sigma):
        trans.append(("acnt", a, (1,), "bexp", (0,)))
    trans.append(("bexp", B, (1,), "b0", (0,)))
    # each full group of Q zeros costs one unit; b0 forces a nonempty run
    trans.append(("b0", ZERO, (1,), grp(1 % q), (-1,)))
    trans.append((grp(0), ZERO, (1,), grp(1 % q), (-1,)))
    trans.append((grp(0), ZERO, (0,), "ovr", (0,)))
    # the closing marker seals the ratio defect; an exact Q:1 block dies
    trans.append((grp(0), A, (1,), BAD, (0,)))
    for j in range(1, q):
        for g in (0, 1):
            trans.append((grp(j), ZERO, (g,), grp((j + 1) % q), (0,)))
            trans.append((grp(j), A, (g,), BAD, (0,)))
    trans.append(("ovr", ZERO, (0,), "ovr", (0,)))
    trans.append(("ovr", A, (0,), BAD, (0,)))
    trans += _sink(BAD, full, 1)

    states = frozenset(["v0", "acnt0", "acnt", "bexp", "b0", "ovr", BAD]
                       + [grp(j) for j in range(q)])
    m = CounterMachine.from_columns(1, full, states, "v0", *zip(*trans))
    return BuchiAutomaton(machine=m, accepting=frozenset({BAD}))


def _defect_sides(sigma: frozenset[str] | set[str],
                  primes: tuple[int, ...]) -> tuple[tuple[str, BuchiAutomaton], ...]:
    """D1-D4 with one counter each, tagged L.L.L, L.L.R, L.R and R."""
    return tuple((tag, BuchiAutomaton(pad_counters(d.machine, 1), d.accepting))
                 for tag, d in (("L.L.L", build_d1(sigma, primes)),
                                ("L.L.R", build_d2(sigma, primes)),
                                ("L.R", build_d3(sigma, primes)),
                                ("R", build_d4(sigma, primes))))


def build_h_complement(sigma: frozenset[str] | set[str],
                       primes: tuple[int, ...]) -> Built:
    """One flat union of D1-D4 (sides 0-3); accepts exactly the non-images."""
    return union(*_defect_sides(sigma, primes))
