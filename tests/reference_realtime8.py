"""Reference eight-counter product for the differential tests.

This is the version of `constructions.realtime8._build` that the memo per
(suffix, theta label) replaced: it works out every edge of every state
afresh, from two lookups per state in an eager (source, input) index of
theta's transition records, the queue node's entries on the letter, and
one concatenation per guard and delta.  The memoizing
build must equal it in the five machine columns, the table, the origin
column and the accepting set.  The queue-node entries (`_pad_entries`,
`_sigma_entries`) and the status rule (`_after`) are shared with the
module: the product layer is what the two builds differ in.  The state
cap is the module's, read when the build runs.
"""

import itertools

from omegacount.constructions import realtime8
from omegacount.constructions.realtime8 import (_ALLOWED, _after, _pad_entries,
                                                _sigma_entries)
from omegacount.constructions.theta import build_theta_acceptor
from omegacount.machines import BuchiAutomaton, Built, _reach
from omegacount.words import E


def eager_index(machine) -> dict:
    """(source, input) -> indexed transition records, built whole from
    `machine.transitions`: the reference reads no index of the library."""
    adj = {}
    for i, t in enumerate(machine.transitions):
        adj.setdefault((t.source, t.input), []).append((i, t))
    return adj


def build(a: BuchiAutomaton, s_eff: int) -> Built:
    m_a = a.machine
    sigma = sorted(m_a.alphabet)
    k = len(sigma) + 2
    codes = {x: 2 + i for i, x in enumerate(sigma)}
    theta = build_theta_acceptor(m_a.alphabet, s_eff).machine
    adj_theta = eager_index(theta)
    leaving_a: dict[str, list] = {}
    for i, t in enumerate(m_a.transitions):
        leaving_a.setdefault(t.source, []).append(
            (i, t.input, t.guard, t.destination, t.delta))
    entries_of: dict[tuple, list] = {}
    share = {}.setdefault

    def moves(src: tuple):
        ts, node, qa, s6, s7, fl = src
        f1 = 1 if (fl == 2 and qa in a.accepting) else fl
        for letter in [*sigma, E]:
            tedges = adj_theta.get((ts, letter), [])
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
                                       share(delta, delta), None)
                    else:
                        _, front, g4 = entry
                        ms, ss = node[1], node[2]
                        for i, inp, ag, adst, ad in leaving_a.get(qa, ()):
                            if ag[0] not in _ALLOWED[s6]:
                                continue
                            if ag[1] not in _ALLOWED[s7]:
                                continue
                            if inp is None:
                                node2 = ("IDLE", 5 - ms, ss)
                            elif codes[inp] == front:
                                node2 = ("RPOP", 5 - ms, ss, front, 0, 0)
                            else:
                                continue
                            dst = (te.destination, node2, adst,
                                   _after(s6, ag[0], ad[0]),
                                   _after(s7, ag[1], ad[1]), f1)
                            guard = te.guard + g4 + ag
                            delta = te.delta + (0, 0, 0, 0) + ad
                            yield (letter, share(guard, guard), dst,
                                   share(delta, delta), i)

    numbers = itertools.count()
    machine, table, origin, _ = _reach(
        8, frozenset(sigma) | {E},
        (theta.initial, ("PRE",), m_a.initial, "Z", "Z", 1), moves,
        lambda _: f"r{next(numbers)}", realtime8.STATE_CAP, "eight-counter product")
    accepting = frozenset(n for n, t in table.items()
                          if t[5] == 2 and t[2] in a.accepting)
    return Built(machine, accepting, source=a, params={"S": s_eff},
                 table=table, origin=origin)
