"""Line-oriented text formats for automata, words, and runs.

'#' starts a comment anywhere in a line; blank lines are skipped.  The
writers emit a canonical form (sorted sets, transitions in index order, one
space between tokens, trailing newline) so save(load(f)) is byte-identical
for canonical files.  Transition order in a file defines transitionIndex.
The loaders split the text into lines one chunk of about 64K characters at
a time, with the line boundaries and numbers of str.splitlines, so neither
a list of all its lines nor a line's tokens outlive their parse.  The
automaton loader writes each transition into the machine's five columns,
with no record per line, and makes each column a tuple in turn, letting go
of its list before the next; it checks each distinct guard or delta
spelling once, and the columns share the guard, delta and state-name
objects of their values.  The writer reads the columns and spells each
distinct guard and delta once.  The writers join lines that
_automaton_lines and _run_lines yield, which the CLI writes to a file one
by one.

Automaton:  kcounters / alphabet / states / initial / accepting-or-table /
            trans <src> <letter|-> <guardbits> <dst> <d1> ... <dk>
            (each directive but `table` and `trans` at most once)
            (guardbits over {0,1}, 1 = positive required; "-" when k = 0)
Word:       zero or more `coded theta:<S> | h:<p1,...> | phi:<L>` lines,
            outermost coding first, then `lasso <spoke> | <cycle>`, then an
            optional `prefix <n>` directive, n >= 0.
Run:        start <state> <c1> ... <ck>
            step <letter|-> <tidx> <state> <c1> ... <ck>
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import FormatError
from .machines import (LAMBDA_TOKEN, BuchiAutomaton, Configuration, CounterMachine,
                       MachineError, MullerAutomaton, Run, _tuples)
from .words import (CodingSpec, HCoding, LassoWord, PhiCoding, ThetaCoding,
                    coded_prefix, coded_runs, lasso_prefix)


# characters of text split into lines at a time
_CHUNK = 1 << 16


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line with a token, comments cut off.

    The lines and their numbers are those of text.splitlines(), but only
    one chunk of them is held at a time.  A chunk ends just after the last
    "\n" in the next _CHUNK characters (after the first "\n" past them if
    there is none there), so it ends on a line boundary that no "\r\n"
    straddles, and its splitlines() are the text's lines in that stretch.
    """
    no, pos, end = 0, 0, len(text)
    while pos < end:
        cut = text.rfind("\n", pos, pos + _CHUNK) + 1
        if not cut:
            cut = text.find("\n", pos + _CHUNK) + 1 or end
        for no, raw in enumerate(text[pos:cut].splitlines(), start=no + 1):
            toks = raw.split("#", 1)[0].split()
            if toks:
                yield no, toks
        pos = cut


def _int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{what}: expected an integer, got {tok!r}", no) from None


def _guard(guardbits: str, k: int, no: int) -> tuple[int, ...]:
    if k == 0:
        if guardbits != "-":
            raise FormatError('guardbits must be "-" when k = 0', no)
        return ()
    if len(guardbits) != k or any(c not in "01" for c in guardbits):
        raise FormatError(f"guardbits must be {k} chars over 0/1", no)
    return tuple(int(c) for c in guardbits)


def _delta(toks: tuple[str, ...], no: int) -> tuple[int, ...]:
    delta = []
    for tok in toks:
        d = _int(tok, no, "delta")
        if d not in (-1, 0, 1):
            raise FormatError(f"delta {tok!r} outside -1/0/+1", no)
        delta.append(d)
    return tuple(delta)


def load_automaton(text: str) -> BuchiAutomaton | MullerAutomaton:
    k = None
    alphabet: list[str] | None = None
    states: list[str] | None = None
    initial = None
    accepting: list[str] | None = None
    table: list[list[str]] = []
    # the five columns, sized up front to one slot per trans line as
    # "\ntrans " counts them (a line the count misses grows them): five big
    # lists grown side by side fragment the heap and raise the peak RSS
    columns: list[list] = [[None] * (text.count("\ntrans ") + 1) for _ in range(5)]
    sources, inputs, guards, destinations, deltas = columns
    n = 0
    # each distinct spelling is parsed and checked once; k cannot change
    # after the first trans line, so guardbits alone key the guard
    guard_of: dict[str, tuple[int, ...]] = {}
    delta_of: dict[tuple[str, ...], tuple[int, ...]] = {}
    # a trans line names its states by the strings of the states line
    names: dict[str, str] = {}
    for no, toks in _lines(text):
        head, rest = toks[0], toks[1:]
        if head == "trans":  # nearly every line, so tested first
            if k is None:
                raise FormatError("trans before kcounters", no)
            if len(rest) != 4 + k:
                raise FormatError(f"trans needs {4 + k} fields for k={k}, got {len(rest)}", no)
            if k < 0:
                raise FormatError("k must be a natural number", no)
            src, letter, guardbits, dst = rest[0], rest[1], rest[2], rest[3]
            guard = guard_of.get(guardbits)
            if guard is None:
                guard = guard_of[guardbits] = _guard(guardbits, k, no)
            dtoks = tuple(rest[4:])
            delta = delta_of.get(dtoks)
            if delta is None:
                delta = delta_of[dtoks] = _delta(dtoks, no)
            if n == len(sources):
                for column in columns:
                    column += [None] * (n + 1)
                del column
            sources[n] = names.get(src, src)
            inputs[n] = None if letter == LAMBDA_TOKEN else letter
            guards[n] = guard
            destinations[n] = names.get(dst, dst)
            deltas[n] = delta
            n += 1
        elif head == "kcounters":
            if k is not None:
                raise FormatError("duplicate kcounters line", no)
            if len(rest) != 1:
                raise FormatError("kcounters takes one value", no)
            k = _int(rest[0], no, "kcounters")
        elif head == "alphabet":
            if alphabet is not None:
                raise FormatError("duplicate alphabet line", no)
            alphabet = rest
        elif head == "states":
            if states is not None:
                raise FormatError("duplicate states line", no)
            states = rest
            names = {name: name for name in states}
        elif head == "initial":
            if initial is not None:
                raise FormatError("duplicate initial line", no)
            if len(rest) != 1:
                raise FormatError("initial takes one state id", no)
            initial = rest[0]
        elif head == "accepting":
            if accepting is not None:
                raise FormatError("duplicate accepting line", no)
            accepting = rest
        elif head == "table":
            table.append(rest)
        else:
            raise FormatError(f"unknown directive {head!r}", no)
    if k is None or states is None or initial is None:
        raise FormatError("missing kcounters, states, or initial")
    del names, sources, inputs, guards, destinations, deltas
    try:
        machine = CounterMachine.from_columns(
            k, frozenset(alphabet or ()), frozenset(states), initial,
            *_tuples(columns, n))
    except MachineError as e:
        raise FormatError(str(e)) from e
    if accepting is not None and table:
        raise FormatError("file mixes accepting and table lines")
    if accepting is not None:
        return BuchiAutomaton(machine, frozenset(accepting))
    if table:
        return MullerAutomaton(machine, tuple(frozenset(f) for f in table))
    raise FormatError("missing accepting (Buchi) or table (Muller) lines")


def _join(head: str, toks) -> str:
    toks = list(toks)
    return head + (" " + " ".join(toks) if toks else "")


def dump_automaton(aut: BuchiAutomaton | MullerAutomaton) -> str:
    return "".join(_automaton_lines(aut))


def _automaton_lines(aut: BuchiAutomaton | MullerAutomaton) -> Iterator[str]:
    """The lines of dump_automaton, each ending in a newline."""
    m = aut.machine
    yield f"kcounters {m.k}\n"
    yield _join("alphabet", sorted(m.alphabet)) + "\n"
    yield _join("states", sorted(m.states)) + "\n"
    yield f"initial {m.initial}\n"
    if isinstance(aut, BuchiAutomaton):
        yield _join("accepting", sorted(aut.accepting)) + "\n"
    else:
        for entry in aut.table:
            yield _join("table", sorted(entry)) + "\n"
    # each distinct guard and delta is spelled once, through int so that
    # values the constructor accepts as equal (True, 1.0) spell as 1
    guards: dict[tuple[int, ...], str] = {}
    deltas: dict[tuple[int, ...], str] = {}
    for source, letter, guard, destination, delta in zip(
            m.sources, m.inputs, m.guards, m.destinations, m.deltas):
        # tuple() keys a guard or delta given as a list; a tuple passes as is
        guard, delta = tuple(guard), tuple(delta)
        guardbits = guards.get(guard)
        if guardbits is None:
            guardbits = guards[guard] = "-" if m.k == 0 else "".join(str(int(g)) for g in guard)
        tail = deltas.get(delta)
        if tail is None:
            tail = deltas[delta] = "".join(" " + str(int(d)) for d in delta)
        if letter is None:
            letter = LAMBDA_TOKEN
        yield f"trans {source} {letter} {guardbits} {destination}{tail}\n"


@dataclass(frozen=True)
class WordSpec:
    """A lasso plus a coding chain, innermost coding first."""

    lasso: LassoWord
    chain: tuple[CodingSpec, ...]
    prefix: int | None = None

    def prefix_letters(self, n: int) -> list[str]:
        if self.chain:
            return coded_prefix(self.lasso, self.chain, n)
        return lasso_prefix(self.lasso, n)

    def prefix_runs(self, n: int) -> tuple[tuple[tuple[str, ...], int], ...]:
        """The first n letters as (pattern, count) runs."""
        return coded_runs(self.lasso, self.chain, n)


def _parse_coding(tag: str, no: int) -> CodingSpec:
    name, sep, arg = tag.partition(":")
    if not sep:
        raise FormatError(f"coded needs name:args, got {tag!r}", no)
    if name == "theta":
        return ThetaCoding(_int(arg, no, "theta S"))
    if name == "h":
        primes = tuple(_int(p, no, "h prime") for p in arg.split(","))
        return HCoding(primes)
    if name == "phi":
        return PhiCoding(_int(arg, no, "phi L"))
    raise FormatError(f"unknown coding {name!r}", no)


def load_word(text: str) -> WordSpec:
    outer_first: list[CodingSpec] = []
    lasso = None
    prefix = None
    for no, toks in _lines(text):
        head, rest = toks[0], toks[1:]
        if head == "coded":
            if lasso is not None:
                raise FormatError("coded line after the lasso line", no)
            if len(rest) != 1:
                raise FormatError("coded takes one name:args token", no)
            outer_first.append(_parse_coding(rest[0], no))
        elif head == "lasso":
            if lasso is not None:
                raise FormatError("duplicate lasso line", no)
            if "|" not in rest:
                raise FormatError('lasso needs a standalone "|" separating spoke and cycle', no)
            cut = rest.index("|")
            spoke, cycle = rest[:cut], rest[cut + 1:]
            if "|" in cycle:
                raise FormatError('more than one "|" in lasso', no)
            try:
                lasso = LassoWord(tuple(spoke), tuple(cycle),
                                  frozenset(spoke) | frozenset(cycle))
            except ValueError as e:
                raise FormatError(str(e), no) from e
        elif head == "prefix":
            if len(rest) != 1:
                raise FormatError("prefix takes one length", no)
            prefix = _int(rest[0], no, "prefix")
            if prefix < 0:
                raise FormatError(f"prefix length must be nonnegative, got {prefix}", no)
        else:
            raise FormatError(f"unknown directive {head!r}", no)
    if lasso is None:
        raise FormatError("missing lasso line")
    return WordSpec(lasso, tuple(reversed(outer_first)), prefix)


def dump_word(spec: WordSpec) -> str:
    lines = []
    for c in reversed(spec.chain):  # outermost first on disk
        if isinstance(c, ThetaCoding):
            lines.append(f"coded theta:{c.S}")
        elif isinstance(c, HCoding):
            lines.append("coded h:" + ",".join(str(p) for p in c.primes))
        else:
            lines.append(f"coded phi:{c.L}")
    lines.append(_join("lasso", list(spec.lasso.spoke) + ["|"] + list(spec.lasso.cycle)))
    if spec.prefix is not None:
        lines.append(f"prefix {spec.prefix}")
    return "\n".join(lines) + "\n"


def load_run(text: str) -> Run:
    """The run of a run file.  A step whose counter tokens are those of the
    line before shares that line's counters tuple."""
    start = None
    consumed: list[str | None] = []
    indices: list[int] = []
    states: list[str] = []
    counters: list[tuple[int, ...]] = []
    # the counter tokens of the line before, and their values
    last, vec = None, None
    for no, toks in _lines(text):
        head, rest = toks[0], toks[1:]
        if head == "step":  # nearly every line, so tested first
            if start is None:
                raise FormatError("step before start", no)
            if len(rest) < 3:
                raise FormatError("step needs letter, index, state, counters", no)
            letter = None if rest[0] == LAMBDA_TOKEN else rest[0]
            spelled = rest[3:]
            try:
                idx = int(rest[1])
                if spelled != last:
                    last, vec = spelled, tuple(map(int, spelled))
            except ValueError:
                # _int raises on the first bad token with its message
                _int(rest[1], no, "transition index")
                for tok in spelled:
                    _int(tok, no, "counter")
                raise
            consumed.append(letter)
            indices.append(idx)
            states.append(rest[2])
            counters.append(vec)
        elif head == "start":
            if start is not None:
                raise FormatError("duplicate start line", no)
            if not rest:
                raise FormatError("start needs a state", no)
            start = Configuration(rest[0], tuple(_int(t, no, "counter") for t in rest[1:]))
            last, vec = rest[1:], start.counters
        else:
            raise FormatError(f"unknown directive {head!r}", no)
    if start is None:
        raise FormatError("missing start line")
    return Run.from_columns(start, consumed, indices, states, counters)


def dump_run(run: Run) -> str:
    return "".join(_run_lines(run))


def _run_lines(run: Run) -> Iterator[str]:
    """The lines of dump_run, each ending in a newline."""
    yield _join("start", [run.start.state] + [str(c) for c in run.start.counters]) + "\n"
    for token, index, state, counters in zip(run.consumed, run.indices,
                                             run.states, run.counters):
        letter = LAMBDA_TOKEN if token is None else token
        yield _join("step", [letter, str(index), state] + [str(c) for c in counters]) + "\n"
