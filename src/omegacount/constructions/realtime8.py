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

States are tuples (theta state, queue node, simulated state, counter 6
status, counter 7 status, flag), reached from the initial one by the shared
worklist `_reach` as ints (see `_build`) and named r0, r1, ... in order.  A
theta lift walks one state per letter from the initial one, so it needs
only the build as deep as its walk (`theta_walk_length`): breadth-first
order makes that build a prefix of the full one, with the same state names
and transition indices, so its certificate is one of the full acceptor.  The
edges of each (suffix, theta label row) pair, the suffix being all but the
theta state and the row the (letter, guard, delta) labels on the theta
state's edges, are worked out once per build; the few dozen distinct
guards and deltas are one tuple each, shared by every edge they label.  A
flag coordinate folds the two fairness demands (some letter is consumed,
the simulated control is accepting) into one Buchi set: consuming the
front letter arms the flag, passing an accepting control state fires it.
"""

from __future__ import annotations

import itertools

from ..errors import ArityError, BuildScaleError, MachineError
from ..machines import BuchiAutomaton, Built, Configuration, Run, Walker, _reach
from ..words import E, _expand
from .certificates import BlockSpan, RunCertificate, source_word, walk_length
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


def _build(a: BuchiAutomaton, s_eff: int, depth: int | None = None) -> Built:
    """One `_reach` over int states sid * T + t (see below), whose table is
    decoded to (theta state, node, qa, s6, s7, flag) tuples at the end."""
    m_a = a.machine
    sigma = sorted(m_a.alphabet)
    k = len(sigma) + 2
    codes = {x: 2 + i for i, x in enumerate(sigma)}
    theta = build_theta_acceptor(m_a.alphabet, s_eff).machine
    # theta's 3S + 4 states have a dozen distinct edge labels (letter,
    # guard, delta) and a handful of distinct rows of them: each theta state
    # keeps its row's id, the one shared tuple of its row, letters in
    # [*sigma, E] order and each letter's edges in index order, and its
    # destinations in that order
    rank = {x: i for i, x in enumerate([*sigma, E])}
    rows_seen: dict[tuple, tuple] = {}
    thetas = sorted(theta.states)
    tindex = {ts: t for t, ts in enumerate(thetas)}
    theta_edges = []
    for ts in thetas:
        edges = sorted(theta.leaving(ts), key=lambda edge: rank[edge[1]])
        labels = tuple((inp, g, d) for _, inp, g, _, d in edges)
        theta_edges.append((*rows_seen.setdefault(labels, (len(rows_seen), labels)),
                            tuple(tindex[edge[3]] for edge in edges)))
    # a product state is the int sid * T + t: t indexes its theta state in
    # name order and sid its suffix (node, qa, s6, s7, fl), numbered when
    # first seen, so the worklist hashes ints and no edge builds a tuple
    T = len(thetas)
    # suffix -> its number, and the suffixes in number order
    suffixes, keys = {}, []

    def sid(suffix: tuple) -> int:
        n = suffixes.setdefault(suffix, len(keys))
        if n == len(keys):
            keys.append(suffix)
        return n

    # a few dozen distinct guards and deltas label every edge: each edge
    # gets the one shared tuple of its value, not a concatenation of its own
    share = {}.setdefault
    # a state's edges depend on its suffix and its theta label row alone,
    # and a few hundred suffixes recur across tens of thousands of states:
    # suffix id * T + row id -> (letter, guard, theta edge position, next
    # suffix id times T, delta, origin) per edge
    memo: dict[int, list] = {}

    def rows(suffix: tuple, labels: tuple) -> list:
        node, qa, s6, s7, fl = suffix
        # an accepting visit re-arms the letter-consumption demand
        f1 = 1 if (fl == 2 and qa in a.accepting) else fl
        out = []
        for j, (letter, tg, td) in enumerate(labels):
            for entry in _pad_entries(node, k) if letter == E \
                    else _sigma_entries(node, codes[letter]):
                if entry[0] == "plain":
                    _, g4, d4, node2 = entry
                    f2 = 2 if (f1 == 1 and node2[0] == "REM") else f1
                    delta = td + d4 + (0, 0)
                    for b6 in _ALLOWED[s6]:
                        for b7 in _ALLOWED[s7]:
                            guard = tg + g4 + (b6, b7)
                            nxt = (node2, qa, "P" if b6 else "Z", "P" if b7 else "Z", f2)
                            out.append((letter, share(guard, guard), j, sid(nxt) * T,
                                        share(delta, delta), None))
                    continue
                _, front, g4 = entry
                ms, ss = node[1], node[2]
                for i, inp, ag, adst, ad in m_a.leaving(qa):
                    if ag[0] not in _ALLOWED[s6] or ag[1] not in _ALLOWED[s7]:
                        continue
                    if inp is None:
                        node2 = ("IDLE", 5 - ms, ss)
                    elif codes[inp] == front:
                        node2 = ("RPOP", 5 - ms, ss, front, 0, 0)
                    else:
                        continue
                    guard = tg + g4 + ag
                    delta = td + _ZERO4 + ad
                    nxt = (node2, adst, _after(s6, ag[0], ad[0]), _after(s7, ag[1], ad[1]), f1)
                    out.append((letter, share(guard, guard), j,
                                sid(nxt) * T, share(delta, delta), i))
        return out

    def moves(src: int) -> list:
        t = src % T
        row_id, labels, destinations = theta_edges[t]
        # a theta state's row id is below T, so this keys (suffix, row)
        key = src - t + row_id
        done = memo.get(key)
        if done is None:
            done = memo[key] = rows(keys[src // T], labels)
        return [(letter, guard, base + destinations[j], delta, o)
                for letter, guard, j, base, delta, o in done]

    numbers = itertools.count()
    # depth becomes the one the build stopped at: None when it ran out of
    # states first
    machine, table, origin, depth = _reach(
        8, frozenset(sigma) | {E},
        sid((("PRE",), m_a.initial, "Z", "Z", 1)) * T + tindex[theta.initial], moves,
        lambda _: f"r{next(numbers)}", STATE_CAP, "eight-counter product", depth)
    fires = [fl == 2 and qa in a.accepting for _, qa, _, _, fl in keys]
    accepting = frozenset(n for n, key in table.items() if fires[key // T])
    # the table is decoded in place, so only one of its forms is ever held
    for n, key in table.items():
        table[n] = (thetas[key % T], *keys[key // T])
    params = {"S": s_eff} if depth is None else {"S": s_eff, "depth": depth}
    return Built(machine, accepting, source=a, params=params,
                 table=table, origin=origin)


def checked_pad_factor(a: BuchiAutomaton, S_override: int | None = None) -> int:
    """The pad growth factor build_realtime8 builds a's acceptor with, after
    the refusals it makes before building anything."""
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
    # the theta acceptor, made whole first, has 3S + 4 states
    if 3 * s_eff + 4 > STATE_CAP:
        raise BuildScaleError(
            f"eight-counter product needs a theta acceptor of {3 * s_eff + 4} "
            f"states, past the cap of {STATE_CAP}", 3 * s_eff + 4, STATE_CAP)
    return s_eff


def build_realtime8(a: BuchiAutomaton, S_override: int | None = None,
                    depth: int | None = None) -> Built:
    """Compile a 2-counter machine into an 8-counter real-time acceptor of
    its pad-coded language.  params["S"] of the result is the pad growth
    factor actually built in.  S_override shrinks S for desk-scale work;
    it must still clear the queue schedule bound 8k^2.  The acceptor's
    table maps each state to its (theta state, queue node, simulated
    state, counter 6 status, counter 7 status, flag) tuple, and its origin
    column each simulated step to the index of the source transition it
    simulates; every other transition's origin is None.  The build makes
    the theta acceptor for S whole first, so an S whose theta acceptor's
    3S + 4 states pass STATE_CAP is refused before anything is built.  The
    build walks int keys and decodes the table once, at its end.

    With a depth d, only the states fewer than d letters from the initial
    one are expanded (see `_reach`), and params["depth"] records d if states
    d letters away were left: the prefix of the full acceptor that a theta
    lift walking at most d letters needs, with the full acceptor's state
    names and transition indices.  The state cap counts the states that
    build reaches."""
    return _build(a, checked_pad_factor(a, S_override), depth)


def theta_walk_length(s_eff: int, blocks: int, prefix_len: int | None = None) -> int:
    """The letters a theta lift of a run pinning `blocks` blocks walks at
    pad factor s_eff, by arithmetic alone: block i is its letter and S^i
    pad letters, and prefix_len may take the walk on through the next
    block's letter and pad run, up to the letter point after them
    (`walk_length`)."""
    needed = sum(1 + s_eff ** i for i in range(1, blocks + 1))
    return walk_length(needed, 1 + s_eff ** (blocks + 1), prefix_len, blocks, "letter")


def lift_run_theta(b8: Built, run: Run, prefix_len: int | None = None,
                   letters=None) -> RunCertificate:
    """Lift a finite run of the 2-counter machine b8 was built from to a
    validated run of b8 over the pad-coded prefix.

    Block i carries the i-th coded input letter; the simulated steps
    consume those letters with the queue's delay.  Letters for blocks past
    the run's consumed word come from `letters` (defaulting to the sole
    letter of a 1-letter alphabet).  prefix_len may extend the walk past
    the pinned blocks up to the next simulated choice point, and never past
    the next block's pad run: `theta_walk_length` counts the walk, and
    refuses a prefix out of that range before any step is walked.  b8 may
    be built only as deep as that walk (params["depth"]); a b8 that stopped
    short of it is refused.
    """
    s_eff = b8.params["S"]
    m_a = b8.source.machine
    word = list(_expand(source_word(m_a, run)))
    blocks = len(run.steps)
    walk = theta_walk_length(s_eff, blocks, prefix_len)
    if b8.params.get("depth", walk) < walk:
        raise MachineError(f"acceptor built {b8.params['depth']} letters deep; "
                           f"the lift walks {walk}")

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

    # every step but a simulated one has origin None, so pinning each step
    # of block i to its source transition pins only the simulated step
    walker = Walker(b8.machine, Configuration(b8.machine.initial, (0,) * 8),
                    b8.origin)

    def pad(n: int, key) -> None:
        # theta's phase comes back every S pad letters, and once the queue
        # rests so does everything else: the run is one segment
        def cycle() -> None:
            for _ in range(s_eff):
                walker.to(E, key)
        walker.repeat(cycle, n // s_eff)
        for _ in range(n % s_eff):
            walker.to(E, key)

    spans = []
    for i, at in enumerate(run.indices, start=1):
        start = len(walker)
        walker.to(block_letter(i), at)
        pad(s_eff ** i, at)
        spans.append(BlockSpan(i, start, len(walker)))

    needed = len(walker)
    if walk > needed:
        # past the pinned blocks only an unambiguous walk is a lift
        walker.to(block_letter(blocks + 1))
        pad(walk - needed - 1, None)

    return RunCertificate(run=walker.run(), stage="theta", blocks=tuple(spans))
