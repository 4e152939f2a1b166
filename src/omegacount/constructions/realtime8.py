"""Eight-counter real-time simulation of two-counter machines on padded input.

The input is sigma-letters separated by runs of the pad letter E whose
lengths grow by a factor S per block.  Counter roles: two replay the
alternating pad-length check, four hold the queue of not-yet-consumed
letters as a pair of base-k digit stacks (k = card(sigma) + 2, letter codes 2..k-1, bottom marker 1;
each stack keeps a mirror side for transfers), and two mirror the simulated
machine's counters.  Every block performs one rear add, one front transfer
and exactly one simulated step, then idles through the surplus pad letters.
The per-block work is at most (2k)^(m+2) + 2k^(m+2) + 1 for queue size m,
which stays under the pad budget S^i of block i whenever S >= 8k^2.

States are tuples reached from the initial one by the shared worklist
`_reach`, named r0, r1, ... in the order they are reached.  The queue
node's edges on a letter are worked out once per build and shared by every
state that holds that node, and the few dozen distinct guards and deltas
are one tuple each, shared by every edge they label.  A
flag coordinate folds the two fairness demands (some letter is consumed,
the simulated control is accepting) into one Buchi set: consuming the
front letter arms the flag, passing an accepting control state fires it.
"""

from __future__ import annotations

import itertools

from ..errors import ArityError, MachineError
from ..machines import (BuchiAutomaton, Built, Configuration, Run, Transition,
                        Walker, _leaving, _reach)
from ..words import E
from .certificates import BlockSpan, RunCertificate, source_word
from .theta import build_theta_acceptor

STATE_CAP = 400_000

# counter layout: 0,1 pad check / 2,3 main stack sides / 4,5 scratch sides
# / 6,7 simulated.  A stack lives on one side of its pair; the other side
# is empty except mid-transfer.
_MAIN = (2, 3)
_SCR = (4, 5)

_ZERO4 = (0, 0, 0, 0)


def realtime8_pad_factor(sigma_size: int) -> int:
    """Pad growth factor used for a simulated alphabet of this size."""
    return (3 * (sigma_size + 2)) ** 3


def _q4(ms: int, ss: int, m: int, n: int, s: int, t: int) -> tuple[int, int, int, int]:
    """Vector over counters 2..5: m on the main side ms, n on its mirror,
    s on the scratch side ss, t on its mirror."""
    out = [0, 0, 0, 0]
    out[ms - 2] = m
    out[3 - ms] = n
    out[ss - 2] = s
    out[7 - ss] = t
    return tuple(out)


def _sigma_entries(node: tuple, code: int) -> list:
    """Edges consuming a plain letter: only between blocks, landing in the
    rear-add probe.  code is the letter's stack digit."""
    kind = node[0]
    if kind == "PRE":
        # first letter: seed both stacks with their bottom markers
        return [("plain", _ZERO4, (1, 0, 1, 0), ("APROBE", 2, 4, 0, code))]
    if kind in ("IDLE", "REM"):
        ms, ss = node[1], node[2]
        return [("plain", _q4(ms, ss, 1, 0, 1, 0), _ZERO4,
                 ("APROBE", ms, ss, 0, code))]
    return []


def _pad_entries(node: tuple, k: int) -> list:
    """Edges consuming one pad letter.  Entries are ("plain", guard4,
    delta4, next_node) or ("sim", front_digit, guard4) at the one point per
    block where the simulated step fires."""
    kind = node[0]
    out = []
    if kind in ("IDLE", "REM"):
        ms, ss = node[1], node[2]
        out.append(("plain", _q4(ms, ss, 1, 0, 1, 0), _ZERO4, ("IDLE", ms, ss)))
    elif kind == "APROBE":
        ms, ss, mv, r = node[1:]
        out.append(("plain", _q4(ms, ss, 1, 0, 1, 0), _q4(ms, ss, -1, 0, 0, 0),
                    ("ASCAN", ms, ss, mv, r, 1, 0)))
    elif kind == "ASCAN":
        # pop the main top: count down mod k, carrying the quotient across
        ms, ss, mv, r, t, w = node[1:]
        t2 = (t + 1) % k
        bump = 1 if t2 == 0 else 0
        out.append(("plain", _q4(ms, ss, 1, w, 1, 0), _q4(ms, ss, -1, bump, 0, 0),
                    ("ASCAN", ms, ss, mv, r, t2, 1 if (w or bump) else 0)))
        if t == 1 and w == 0:
            # bottom marker alone: restore it, go pay in the new letter
            out.append(("plain", _q4(ms, ss, 0, 0, 1, 0), _q4(ms, ss, 1, 0, 0, 0),
                        ("BDRAIN", ms, ss, mv, r, 0)))
        if t >= 2 and w == 1:
            # top digit t moves to scratch; first scratch bump fused here
            out.append(("plain", _q4(ms, ss, 0, 1, 1, 0), _q4(ms, ss, 0, 0, 0, 1),
                        ("SPUSH", 5 - ms, ss, 1, r, t, 1)))
    elif kind == "SPUSH":
        # push digit d onto scratch: drain scratch times k, then d more
        ms, ss, mv, r, d, c = node[1:]
        if c == 0:
            out.append(("plain", _q4(ms, ss, 1, 0, 1, 1), _q4(ms, ss, 0, 0, 0, 1),
                        ("SPUSH", ms, ss, mv, r, d, 1)))
            out.append(("plain", _q4(ms, ss, 1, 0, 0, 1), _q4(ms, ss, 0, 0, 0, 1),
                        ("STAIL", ms, ss, mv, r, d, 1)))
        else:
            dec = -1 if c == k - 1 else 0
            out.append(("plain", _q4(ms, ss, 1, 0, 1, 1), _q4(ms, ss, 0, 0, dec, 1),
                        ("SPUSH", ms, ss, mv, r, d, (c + 1) % k)))
    elif kind == "STAIL":
        ms, ss, mv, r, d, i = node[1:]
        dest = ("STAIL", ms, ss, mv, r, d, i + 1) if i + 1 < d \
            else ("APROBE", ms, 9 - ss, mv, r)
        out.append(("plain", _q4(ms, ss, 1, 0, 0, 1), _q4(ms, ss, 0, 0, 0, 1), dest))
    elif kind == "BDRAIN":
        # push the new letter's code r onto the emptied main (holding 1)
        ms, ss, mv, r, c = node[1:]
        if c == 0:
            out.append(("plain", _q4(ms, ss, 1, 0, 1, 0), _q4(ms, ss, 0, 1, 0, 0),
                        ("BDRAIN", ms, ss, mv, r, 1)))
            out.append(("plain", _q4(ms, ss, 0, 1, 1, 0), _q4(ms, ss, 0, 1, 0, 0),
                        ("BTAIL", ms, ss, mv, r, 1)))
        else:
            dec = -1 if c == k - 1 else 0
            out.append(("plain", _q4(ms, ss, 1, 1, 1, 0), _q4(ms, ss, dec, 1, 0, 0),
                        ("BDRAIN", ms, ss, mv, r, (c + 1) % k)))
    elif kind == "BTAIL":
        ms, ss, mv, r, i = node[1:]
        if i + 1 < r:
            dest = ("BTAIL", ms, ss, mv, r, i + 1)
        elif mv:
            dest = ("CPROBE", 5 - ms, ss)
        else:
            dest = ("FTR", 5 - ms, ss, 0, 0)
        out.append(("plain", _q4(ms, ss, 0, 1, 1, 0), _q4(ms, ss, 0, 1, 0, 0), dest))
    elif kind == "CPROBE":
        ms, ss = node[1], node[2]
        out.append(("plain", _q4(ms, ss, 1, 0, 1, 0), _q4(ms, ss, 0, 0, -1, 0),
                    ("CSCAN", ms, ss, 1, 0)))
    elif kind == "CSCAN":
        # pop the scratch top back toward main
        ms, ss, t, w = node[1:]
        t2 = (t + 1) % k
        bump = 1 if t2 == 0 else 0
        out.append(("plain", _q4(ms, ss, 1, 0, 1, w), _q4(ms, ss, 0, 0, -1, bump),
                    ("CSCAN", ms, ss, t2, 1 if (w or bump) else 0)))
        if t == 1 and w == 0:
            out.append(("plain", _q4(ms, ss, 1, 0, 0, 0), _q4(ms, ss, 0, 0, 1, 0),
                        ("FTR", ms, ss, 0, 0)))
        if t >= 2 and w == 1:
            out.append(("plain", _q4(ms, ss, 1, 0, 0, 1), _q4(ms, ss, 0, 1, 0, 0),
                        ("MPUSH", ms, 9 - ss, t, 1)))
    elif kind == "MPUSH":
        ms, ss, d, c = node[1:]
        if c == 0:
            out.append(("plain", _q4(ms, ss, 1, 1, 1, 0), _q4(ms, ss, 0, 1, 0, 0),
                        ("MPUSH", ms, ss, d, 1)))
            out.append(("plain", _q4(ms, ss, 0, 1, 1, 0), _q4(ms, ss, 0, 1, 0, 0),
                        ("MTAIL", ms, ss, d, 1)))
        else:
            dec = -1 if c == k - 1 else 0
            out.append(("plain", _q4(ms, ss, 1, 1, 1, 0), _q4(ms, ss, dec, 1, 0, 0),
                        ("MPUSH", ms, ss, d, (c + 1) % k)))
    elif kind == "MTAIL":
        ms, ss, d, i = node[1:]
        dest = ("MTAIL", ms, ss, d, i + 1) if i + 1 < d else ("CPROBE", 5 - ms, ss)
        out.append(("plain", _q4(ms, ss, 0, 1, 1, 0), _q4(ms, ss, 0, 1, 0, 0), dest))
    elif kind == "FTR":
        # one-way transfer of the whole main code; the residue mod k left
        # at exhaustion is the front letter's digit
        ms, ss, t, w = node[1:]
        out.append(("plain", _q4(ms, ss, 1, w, 1, 0), _q4(ms, ss, -1, 1, 0, 0),
                    ("FTR", ms, ss, (t + 1) % k, 1)))
        if t >= 2 and w == 1:
            out.append(("sim", t, _q4(ms, ss, 0, 1, 1, 0)))
    elif kind == "RPOP":
        # consume the front: divide the code by k, checking the top digit
        ms, ss, d, t, w = node[1:]
        t2 = (t + 1) % k
        bump = 1 if t2 == 0 else 0
        out.append(("plain", _q4(ms, ss, 1, w, 1, 0), _q4(ms, ss, -1, bump, 0, 0),
                    ("RPOP", ms, ss, d, t2, 1 if (w or bump) else 0)))
        if t == d and w == 1:
            out.append(("plain", _q4(ms, ss, 0, 1, 1, 0), _ZERO4,
                        ("REM", 5 - ms, ss)))
    return out


_ALLOWED = {"Z": (0,), "P": (1,), "?": (0, 1)}


def _after(status: str, g: int, d: int) -> str:
    """Status of a mirrored counter after a simulated step tests g and
    adds d.  A positive counter that decreases may or may not hit zero."""
    if g == 0:
        return "P" if d > 0 else "Z"
    return "?" if d < 0 else "P"


def _build(a: BuchiAutomaton, s_eff: int) -> Built:
    m_a = a.machine
    sigma = sorted(m_a.alphabet)
    k = len(sigma) + 2
    codes = {x: 2 + i for i, x in enumerate(sigma)}
    theta = build_theta_acceptor(m_a.alphabet, s_eff).machine
    leaving = _leaving(m_a)
    # a queue node's edges depend on the node and the letter alone, and a
    # few hundred nodes recur across tens of thousands of states
    entries_of: dict[tuple, list] = {}
    # a few dozen distinct guards and deltas label every edge: each edge
    # gets the one shared tuple of its value, not a concatenation of its own
    share = {}.setdefault

    def moves(src: tuple):
        ts, node, qa, s6, s7, fl = src
        # an accepting visit re-arms the letter-consumption demand
        f1 = 1 if (fl == 2 and qa in a.accepting) else fl
        for letter in [*sigma, E]:
            tedges = theta.outgoing(ts, letter)
            if not tedges:
                continue
            entries = entries_of.get((node, letter))
            if entries is None:
                entries = entries_of[node, letter] = _pad_entries(node, k) \
                    if letter == E else _sigma_entries(node, codes[letter])
            for _, te in tedges:
                for entry in entries:
                    if entry[0] == "plain":
                        _, g4, d4, node2 = entry
                        f2 = 2 if (f1 == 1 and node2[0] == "REM") else f1
                        for b6 in _ALLOWED[s6]:
                            for b7 in _ALLOWED[s7]:
                                dst = (te.destination, node2, qa,
                                       "P" if b6 else "Z",
                                       "P" if b7 else "Z", f2)
                                guard = te.guard + g4 + (b6, b7)
                                delta = te.delta + d4 + (0, 0)
                                yield (letter, share(guard, guard), dst,
                                       share(delta, delta))
                    else:
                        _, front, g4 = entry
                        ms, ss = node[1], node[2]
                        for at in leaving.get(qa, ()):
                            if at.guard[0] not in _ALLOWED[s6]:
                                continue
                            if at.guard[1] not in _ALLOWED[s7]:
                                continue
                            if at.input is None:
                                node2 = ("IDLE", 5 - ms, ss)
                            elif codes[at.input] == front:
                                node2 = ("RPOP", 5 - ms, ss, front, 0, 0)
                            else:
                                continue
                            dst = (te.destination, node2, at.destination,
                                   _after(s6, at.guard[0], at.delta[0]),
                                   _after(s7, at.guard[1], at.delta[1]), f1)
                            guard = te.guard + g4 + at.guard
                            delta = te.delta + _ZERO4 + at.delta
                            yield (letter, share(guard, guard), dst,
                                   share(delta, delta))

    numbers = itertools.count()
    machine, table = _reach(
        8, frozenset(sigma) | {E},
        (theta.initial, ("PRE",), m_a.initial, "Z", "Z", 1), moves,
        lambda _: f"r{next(numbers)}", STATE_CAP, "eight-counter product")
    accepting = frozenset(n for n, t in table.items()
                          if t[5] == 2 and t[2] in a.accepting)
    return Built(machine, accepting, source=a,
                 params={"S": s_eff}, table=table)


def build_realtime8(a: BuchiAutomaton, S_override: int | None = None) -> Built:
    """Compile a 2-counter machine into an 8-counter real-time acceptor of
    its pad-coded language.  params["S"] of the result is the pad growth
    factor actually built in.  S_override shrinks S for desk-scale work;
    it must still clear the queue schedule bound 8k^2.  The acceptor's
    table maps each state to its (theta state, queue node, simulated
    state, counter 6 status, counter 7 status, flag) tuple."""
    if a.machine.k != 2:
        raise ArityError(f"simulated machine must have 2 counters, has {a.machine.k}")
    if not a.machine.alphabet:
        raise MachineError("the simulated machine needs at least one letter")
    k = len(a.machine.alphabet) + 2
    s_eff = realtime8_pad_factor(len(a.machine.alphabet)) \
        if S_override is None else S_override
    if s_eff < 8 * k * k:
        raise MachineError(
            f"pad factor {s_eff} cannot host the queue schedule; need >= {8 * k * k}")
    return _build(a, s_eff)


def lift_run_theta(b8: Built, run: Run, prefix_len: int | None = None,
                   letters=None) -> RunCertificate:
    """Lift a finite run of the 2-counter machine b8 was built from to a
    validated run of b8 over the pad-coded prefix.

    Block i carries the i-th coded input letter; the simulated steps
    consume those letters with the queue's delay.  Letters for blocks past
    the run's consumed word come from `letters` (defaulting to the sole
    letter of a 1-letter alphabet).  prefix_len may extend the walk past
    the pinned blocks up to the next simulated choice point.
    """
    a, table = b8.source, b8.table
    s_eff = b8.params["S"]
    m_a = a.machine
    word = source_word(m_a, run)

    sigma = sorted(m_a.alphabet)
    extra = list(letters) if letters is not None else []
    for x in extra:
        if x not in m_a.alphabet:
            raise MachineError(f"extra block letter {x!r} not in the alphabet")

    def block_letter(i: int) -> str:
        if i - 1 < len(word):
            return word[i - 1]
        j = i - 1 - len(word)
        if j < len(extra):
            return extra[j]
        if len(sigma) == 1:
            return sigma[0]
        raise MachineError(
            f"block {i} needs a letter beyond the run's word; pass letters=...")

    def want(at_index: int, t: Transition) -> bool:
        """Accepts every step but a simulated one that does not take the
        source transition `at_index`.  The simulated step is the only move
        out of the front transfer (node FTR) into another node."""
        src, dst = table[t.source], table[t.destination]
        if src[1][0] != "FTR" or dst[1][0] == "FTR":
            return True
        at = m_a.transitions[at_index]
        kind = "IDLE" if at.input is None else "RPOP"
        return (t.guard[6:] == at.guard and t.delta[6:] == at.delta
                and dst[1][0] == kind and dst[2] == at.destination)

    walker = Walker(b8.machine, Configuration(b8.machine.initial, (0,) * 8), want)
    spans = []
    blocks = len(run.steps)
    for i in range(1, blocks + 1):
        start = len(walker.steps)
        at = run.steps[i - 1].transition_index
        walker.to(block_letter(i), at)
        for _ in range(s_eff ** i):
            walker.to(E, at)
        spans.append(BlockSpan(i, start, len(walker.steps)))

    needed = len(walker.steps)
    if prefix_len is not None:
        if prefix_len < needed:
            raise MachineError(
                f"prefix too short to host the lift: need {needed} letters")
        if prefix_len > needed:
            # past the pinned blocks only an unambiguous walk is a lift
            walker.to(block_letter(blocks + 1))
            for _ in range(prefix_len - needed - 1):
                walker.to(E)

    return RunCertificate(run=walker.run(), stage="theta", blocks=tuple(spans))
