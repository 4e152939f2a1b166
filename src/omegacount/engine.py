"""Verification machinery over prefixes and lassos.

Positive evidence on non-periodic coded words is always a certificate or an
exact prefix closure; negative evidence is prefix-exact and tail-open,
except on 0-counter machines where lasso membership is decided exactly.
Prefix evidence comes from one frontier search, `bounded_explore`, whose
visited cap counts configurations summed over the frontiers.

Both searches take their successors from `machines.enabled`, which resolves
the choices once per (state, token, sign pattern) on the machine.  That is
sound because a guard depends only on which counters are positive, so every
configuration with the same state and sign pattern has the same enabled
transitions; a miss goes through `step`.

Jumping a repeated stretch.  A prefix may come as (pattern, count) runs,
as `words.coded_runs` gives them, and the coded words are mostly long runs
(h's 0^(Q^i), phi's (F^L 0)^(Q^i)).  Without lambda-steps the search walks
a run of count 2 or more one iteration of its pattern w at a time, and at
iteration boundaries at least _KEYED_LETTERS letters apart keys the
frontier by its signature, its set of (state, sign pattern) pairs.  When
the signature at keyed boundary j was last seen at j - t, t at most
_PERIOD_BOUND keyed boundaries back, and also at j - 2t, the walked
frontiers of period A = [j - 2t, j - t) and period B = [j - t, j) are
compared position by position, s = 0..T with T letters in a period, and
J more periods are jumped only if every position meets these conditions:

  (a) the states of A_s are pairwise distinct, and so are B_s's, and A_s
      and B_s have the same states;
  (b) with D_s(q) and V_s(q) B's counters and visits minus A's in state q,
      every counter x of B_s that falls (D < 0) stays positive J periods
      on, x + J D > 0, so a counter 0 in B_s was 0 in A_s; the change is
      linear, so the end point is enough;
  (c) for every move from q at s to q' at s + 1 that `enabled` gives in B,
      D_s(q) = D_{s+1}(q') and V_s(q) <= V_{s+1}(q'), and for each q' some
      move into it with V_s(q) = V_{s+1}(q') gives B_{s+1}'s visit count;
      D and V at s = T equal those at s = 0.

Then the frontier i periods after B, at position s, is B_s with each
configuration in state q moved by i (D_s(q), V_s(q)), for i <= J.  Sketch,
by induction on s: (b) keeps every moved configuration's sign pattern, so
it has B's moves; by (a) a move in B lands on the one configuration of
B_{s+1} in its state, so the moved move lands on it moved by D_s(q) =
D_{s+1}(q'); and by (c) the move that wins B's max-merge into q' grows its
visits at least as fast as every other, so it still wins.  (c) is what
keeps the visits right: runs into one state with 10 + 0 i and 5 + 1 i
visits switch winner at i = 5.  J is also cut so the visited cap is
crossed at the same letter as letter by letter; the search walks on after
a jump, into the tail of the run, a later sign change or the next run.

A jump is kept as one `_Stretch` piece of the result: B's frontiers for
one period, their shifts and the period count, whose dicts `Frontiers`
builds when read; an early death is one empty stretch.  The lambda path
walks every letter.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add, sub

from .errors import MachineError
# step is not called here, but engine.step stays bound for code that reads
# the kernel from this module
from .machines import (BuchiAutomaton, Configuration, CounterMachine, Run,
                       Walker, enabled, is_real_time, step)
from .words import A, B, ZERO, LassoWord, lasso_prefix

DEFAULT_VISITED_CAP = 10 ** 7
# the longest period, in keyed boundaries, that a search looks for, and the
# fewest letters between two keyed boundaries
_PERIOD_BOUND = 12
_KEYED_LETTERS = 4


class _Stretch:
    """Jumped positions: offset u is the walked period frontier
    period[u % T] with each configuration in state q moved i = u // T + 1
    times by shifts[u % T][q], a (counter shift, visit shift) pair."""

    __slots__ = ("period", "shifts", "length")

    def __init__(self, period: tuple, shifts: tuple, length: int):
        self.period, self.shifts, self.length = period, shifts, length

    def __len__(self):
        return self.length

    def __getitem__(self, u: int) -> dict:
        i, s = divmod(u, len(self.period))
        return _shift(self.period[s], self.shifts[s], i + 1)

    def __iter__(self):
        return map(self.__getitem__, range(self.length))


def _shift(frontier: dict, shift: dict, i: int) -> dict:
    """The frontier with each configuration in state q moved i times by
    shift[q]."""
    out = {}
    for cfg, visits in frontier.items():
        d, dv = shift[cfg.state]
        out[Configuration(cfg.state, tuple([c + i * x for c, x in zip(cfg.counters, d)]))] = \
            visits + i * dv
    return out


class Frontiers(Sequence):
    """The frontiers of a search as a read-only sequence of dicts, kept as
    pieces: lists of walked frontiers and jumped stretches, whose dicts are
    built when read.  A slice is a tuple of dicts, and the view equals a
    tuple of the dicts it stands for."""

    __slots__ = ("_pieces", "_starts", "_len")

    def __init__(self, pieces):
        self._pieces = tuple(pieces)
        self._starts = list(accumulate(map(len, self._pieces), initial=0))
        self._len = self._starts.pop()

    def __len__(self):
        return self._len

    def _locate(self, i: int) -> tuple:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("frontier index out of range")
        k = bisect_right(self._starts, i) - 1
        return self._pieces[k], i - self._starts[k]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(self._len))))
        piece, u = self._locate(i)
        return piece[u]

    def __iter__(self):
        return chain.from_iterable(self._pieces)

    def __eq__(self, other):
        if isinstance(other, Frontiers):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self):
        return repr(tuple(self))


def _pieces(frontiers) -> Iterable[tuple[int, Sequence]]:
    """(start position, piece) pairs of a Frontiers view, or of a tuple of
    dicts as one walked piece."""
    if isinstance(frontiers, Frontiers):
        return zip(frontiers._starts, frontiers._pieces)
    return ((0, frontiers),)


@dataclass(frozen=True)
class PrefixReach:
    """frontiers[i]: configurations reachable after i letters, each mapped to
    the maximum accepting-visit count (start included) over runs reaching
    it.  capped means the configurations summed over the frontiers passed
    the visited cap and the search stopped there; otherwise every frontier
    is exact for the lambda budget searched.  frontiers is a tuple of dicts
    when every position was walked, and a Frontiers view otherwise."""

    frontiers: tuple[dict, ...] | Frontiers
    capped: bool

    def sizes(self) -> list[int]:
        out: list[int] = []
        for _, p in _pieces(self.frontiers):
            if isinstance(p, _Stretch):
                period = list(map(len, p.period))
                out += (period * (p.length // len(period) + 1))[:p.length]
            else:
                out += map(len, p)
        return out

    def max_visits(self, pos: int = -1) -> int | None:
        f = self.frontiers[pos]
        return max(f.values()) if f else None

    def first_empty_position(self) -> int | None:
        for start, p in _pieces(self.frontiers):
            # a stretch repeats its period, so its first empty frontier is
            # in its first period
            for u, f in enumerate(p.period if isinstance(p, _Stretch) else p):
                if not f and u < len(p):
                    return start + u
        return None


def _advance(m: CounterMachine, accepting: frozenset, cur: dict,
             token: str | None) -> dict:
    """Configurations one `token` step (a letter, or None for lambda) from
    the frontier `cur`, each with its best visit count."""
    nxt: dict[Configuration, int] = {}
    for cfg, visits in cur.items():
        counters = cfg.counters
        for _, dest, delta in enabled(m, cfg.state, token, counters):
            nc = Configuration(dest, tuple(map(add, counters, delta)))
            nv = visits + (1 if dest in accepting else 0)
            old = nxt.get(nc)
            if old is None or nv > old:
                nxt[nc] = nv
    return nxt


def _signature(frontier: dict) -> frozenset | None:
    """The frontier's set of (state, sign pattern) pairs, or None when two
    of its configurations share a state."""
    signs = {cfg.state: tuple([c > 0 for c in cfg.counters]) for cfg in frontier}
    return frozenset(signs.items()) if len(signs) == len(frontier) else None


def _jump(b: BuchiAutomaton, w, fr: list, times: int) -> tuple | None:
    """Periods A and B are the walked frontiers fr[0..T] and fr[T..2T],
    from iteration boundaries of the pattern w.  When conditions (a)-(c)
    of the module docstring hold, returns (J, B's frontiers after its
    start, their shifts), J the most periods, at most `times`, that B can
    be repeated; otherwise None."""
    m, accepting = b.machine, b.accepting
    T = len(fr) // 2
    maps = []
    for f in fr:
        by_state = {cfg.state: (cfg.counters, visits) for cfg, visits in f.items()}
        if len(by_state) != len(f):
            return None
        maps.append(by_state)
    shifts = []
    for in_a, in_b in zip(maps, maps[T:]):
        if in_a.keys() != in_b.keys():
            return None
        shift = {}
        for q, (cb, vb) in in_b.items():
            ca, va = in_a[q]
            d = tuple(map(sub, cb, ca))
            # a falling counter must stay positive; one at 0 in B that fell
            # gives times < 1
            for y, dx in zip(cb, d):
                if dx < 0:
                    times = min(times, (y - 1) // -dx)
            shift[q] = (d, vb - va)
        shifts.append(shift)
    if times < 1 or shifts[0] != shifts[T]:
        return None
    for s in range(T):
        here, there, letter = shifts[s], shifts[s + 1], w[s % len(w)]
        nxt = maps[T + s + 1]
        kept = set()
        for q, (cb, vb) in maps[T + s].items():
            d, dv = here[q]
            for _, dest, _ in enabled(m, q, letter, cb):
                d2, dv2 = there[dest]
                if d != d2 or dv > dv2:
                    return None
                if dv == dv2 and vb + (dest in accepting) == nxt[dest][1]:
                    kept.add(dest)
        if len(kept) != len(nxt):
            return None
    return times, tuple(fr[T + 1:]), tuple(shifts[1:])


def bounded_explore(b: BuchiAutomaton, prefix, lambda_budget: int,
                    visited_cap: int = DEFAULT_VISITED_CAP) -> PrefixReach:
    """Explore runs that take at most lambda_budget lambda-steps between
    consecutive letters (also before the first and after the last).

    The prefix is a letter list, or (pattern, count) runs as
    `words.coded_runs` gives them.  Without lambda-steps a run of count 2
    or more is walked until its frontier repeats up to a shift, and the
    repeats are then jumped as the module docstring sets out.

    The frontiers are dicts of configurations and make no reference
    cycles, so the cyclic garbage collector is paused while they grow, and
    the caller's setting is restored however the search ends."""
    if lambda_budget < 0:
        raise ValueError(f"lambda budget must be >= 0, got {lambda_budget}")
    m, accepting = b.machine, b.accepting
    flat = not prefix or isinstance(prefix[0], str)
    n = len(prefix) if flat else sum(len(w) * r for w, r in prefix)

    def close(level: dict) -> dict:
        # level j holds what exactly j lambda-steps reach, so the levels
        # form a DAG and one pass per level gives exact best counts; the
        # step count is dropped once every level is merged
        if not lambda_budget:
            return level
        out = dict(level)
        for _ in range(lambda_budget):
            nxt = _advance(m, accepting, level, None)
            # an empty level stays empty and a repeated one repeats forever,
            # so no later level can add anything
            if not nxt or nxt == level:
                break
            level = nxt
            for cfg, visits in level.items():
                old = out.get(cfg)
                if old is None or visits > old:
                    out[cfg] = visits
        return out

    def walk(letters) -> bool:
        """Walk the letters; True when the search stops."""
        nonlocal cur, total, capped
        for a in letters:
            cur = close(_advance(m, accepting, cur, a))
            total += len(cur)
            walked.append(cur)
            if total > visited_cap:
                capped = True
                return True
            if not cur:
                return True
        return False

    start = Configuration(m.initial, (0,) * m.k)
    capped = False
    collecting = gc.isenabled()
    gc.disable()
    try:
        cur = close({start: 1 if m.initial in accepting else 0})
        walked = [cur]
        pieces: list = [walked]
        # positions in the pieces before walked
        done = 0
        total = len(cur)
        for w, r in ((prefix, 1),) if flat else prefix:
            if r == 1 or not w or lambda_budget:
                if walk(w if r == 1 else chain.from_iterable(repeat(w, r))):
                    break
                continue
            # the run is walked `stride` iterations at a time, keying the
            # frontier before each such block, at least _KEYED_LETTERS
            # letters apart, so the key costs little next to the walk;
            # marks holds the keys since the run started or last jumped,
            # seen the latest mark of each key, and base the first mark's
            # index in walked
            stride = -(-_KEYED_LETTERS // len(w))
            marks, seen, base = [], {}, len(walked) - 1
            j = 0
            while j < r:
                sig = _signature(cur)
                k = len(marks)
                marks.append(sig)
                t = k - seen.get(sig, k) if sig else 0
                if sig:
                    seen[sig] = k
                found = (0 < t <= _PERIOD_BOUND and k >= 2 * t and marks[k - 2 * t] == sig
                         and r - j >= t * stride
                         and _jump(b, w, walked[base + (k - 2 * t) * stride * len(w):],
                                   (r - j) // (t * stride)))
                if found:
                    times, period, shifts = found
                    size = sum(map(len, period))
                    times = min(times, (visited_cap - total) // size)
                    if times:
                        jumped = times * len(period) - 1
                        if jumped:
                            pieces.append(_Stretch(period, shifts, jumped))
                        done += len(walked) + jumped
                        cur = _shift(period[-1], shifts[-1], times)
                        walked = [cur]
                        pieces.append(walked)
                        total += times * size
                        j += times * t * stride
                        marks, seen, base = [], {}, 0
                        continue
                block = min(stride, r - j)
                if walk(chain.from_iterable(repeat(w, block))):
                    break
                j += block
            if capped or not cur:
                break
    finally:
        if collecting:
            gc.enable()
    # an empty tail stands for the frontiers after an early death
    missing = n + 1 - done - len(walked)
    if missing > 0 and not capped:
        pieces.append(_Stretch(({},), ({},), missing))
    return PrefixReach(Frontiers(pieces) if len(pieces) > 1 else tuple(walked), capped)


def exact_prefix_reach(b: BuchiAutomaton, prefix,
                       visited_cap: int = DEFAULT_VISITED_CAP) -> PrefixReach:
    """bounded_explore without lambda-steps, for real-time machines, where
    the closure is exact."""
    if not is_real_time(b.machine):
        raise MachineError("exact_prefix_reach needs a real-time machine; use bounded_explore")
    return bounded_explore(b, prefix, 0, visited_cap)


def deterministic_run(b: BuchiAutomaton, prefix: list[str] | tuple[str, ...]) -> Run:
    """Walk a prefix through a machine that is deterministic on it: exactly
    one transition may be enabled per letter.  Raises on 0 or >1 choices."""
    m = b.machine
    walker = Walker(m, Configuration(m.initial, (0,) * m.k))
    for a in prefix:
        walker.to(a)
    return walker.run()


def nba_lasso_member(b: BuchiAutomaton, w: LassoWord) -> bool:
    """Exact Buchi membership of spoke.cycle^omega for 0-counter automata.

    Product graph: (state, word position), positions wrapping into the
    cycle.  Accepting iff some reachable strongly connected component
    contains an accepting state and an internal letter edge (a cycle made
    only of lambda edges consumes no input, so it never accepts).  One
    iterative Tarjan search from the start node computes each node's
    successors once and judges each component as it closes."""
    m = b.machine
    if m.k != 0:
        raise MachineError("lasso membership is exact only for k = 0")
    real_time = is_real_time(m)
    sp = len(w.spoke)
    letters = list(w.spoke) + list(w.cycle)
    index: dict = {}
    low: dict = {}
    by_letter: dict = {}  # node -> its letter successors
    stack: list = []
    on_stack: set = set()
    work: list = []

    def enter(node) -> None:
        q, pos = node
        nxt = pos + 1 if pos + 1 < len(letters) else sp
        moved = by_letter[node] = [(dest, nxt)
                                   for _, dest, _ in enabled(m, q, letters[pos], ())]
        lam = [] if real_time else [(dest, pos)
                                    for _, dest, _ in enabled(m, q, None, ())]
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(moved + lam)))

    enter((m.initial, 0))
    while work:
        node, it = work[-1]
        for n2 in it:
            if n2 not in index:
                enter(n2)
                break
            if n2 in on_stack:
                low[node] = min(low[node], index[n2])
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while node not in comp:
                    comp.add(stack.pop())
                on_stack -= comp
                # a singleton has an internal letter edge only on a self-loop
                if (any(q in b.accepting for q, _ in comp)
                        and any(n2 in comp for n in comp for n2 in by_letter[n])):
                    return True
    return False


@dataclass(frozen=True, slots=True)
class Witness:
    cls: str       # D3 | D4
    position: int  # 1-based start of the segment (its B or A)
    n: int
    m: int
    end: int       # 1-based position of the closing letter


def d34_witness_scan(w: LassoWord, Q: int,
                     span: int | None = None) -> Witness | None:
    """First D3 (B.0^n.A.0^m.sigma, n != m) or D4 (A.0^n.sigma.B.0^m.A,
    m != Q n) segment, earliest completion first.  A, B and 0 are the h
    letters of `words`; any other letter stands for sigma.

    With span=None the scan covers 3|spoke| + 5|cycle| + 8 letters, enough
    to host any witness: the first witness starts before |spoke| + |cycle|
    and 0-runs that ever close are shorter than |spoke| + 2|cycle|.  Pass a
    span to restrict the scan to a fixed prefix.
    """
    if span is None:
        span = 3 * len(w.spoke) + 5 * len(w.cycle) + 8
    y = lasso_prefix(w, span)
    reserved = {A, B, ZERO}

    def run_of_zeros(i: int) -> tuple[int, int]:
        n = 0
        while i < len(y) and y[i] == ZERO:
            n += 1
            i += 1
        return n, i

    best: Witness | None = None
    for p in range(len(y)):
        if y[p] == B:
            n, i = run_of_zeros(p + 1)
            if n >= 1 and i < len(y) and y[i] == A:
                m, i2 = run_of_zeros(i + 1)
                if m >= 1 and i2 < len(y) and y[i2] not in reserved:
                    if n != m:
                        cand = Witness("D3", p + 1, n, m, i2 + 1)
                        if best is None or cand.end < best.end:
                            best = cand
        elif y[p] == A:
            n, i = run_of_zeros(p + 1)
            if n >= 1 and i < len(y) and y[i] not in reserved:
                if i + 1 < len(y) and y[i + 1] == B:
                    m, i2 = run_of_zeros(i + 2)
                    if m >= 1 and i2 < len(y) and y[i2] == A:
                        if m != Q * n:
                            cand = Witness("D4", p + 1, n, m, i2 + 1)
                            if best is None or cand.end < best.end:
                                best = cand
    return best
