"""Line-oriented text formats for automata, words, and runs.

'#' starts a comment anywhere in a line; blank lines are skipped.  The
writers emit a canonical form (sorted sets, transitions in index order, one
space between tokens, trailing newline) so save(load(f)) is byte-identical
for canonical files.  Transition order in a file defines transitionIndex.

Reading: one chunk walker, _chunks, splits the text into lines about 64K
characters at a time, with the line boundaries and numbers of
str.splitlines, so no list of all the lines is ever held.  The word loader
reads whole token lists from _lines on top of it.  The automaton and run
loaders walk each chunk's raw lines themselves: a comment is cut only from
a line that holds a '#', and a trans or step line, nearly every line of a
large file, is split once at its arity into its fixed fields plus one tail
string of deltas or counters; other directives are split in full.  Each
distinct tail spelling is parsed and checked once, and the same holds for
guardbits, so a line with a known tail costs one split and a few lookups.
Errors keep the type, message and line number of a line split in full.
The automaton loader writes each transition into the machine's five
columns, with no record per line, and makes each column a tuple in turn,
letting go of its list before the next; the columns share the guard, delta
and state-name objects of their values.  A step whose counters are those of
the step before shares its tuple.  Every number is read by int(), so the
run loader makes its run without Run's check of the counters' types.

Writing: guards, deltas and counters are tuples of ints, spelled by str.
_automaton_lines reads the machine's columns and spells each distinct guard
and delta once.  _run_lines reads a run's pieces, never its expansion: a
piece's step heads are spelled once and reused by each iteration of a
repeated piece, whose counters come from the run reader `machines._batches`
a batch of iterations at a time; and each distinct counters tuple is
spelled once.  Both yield strings of at most _BATCH trans or step lines;
the dump functions join them, and the CLI writes them one by one, to a
file or to stdout.

Automaton:  kcounters / alphabet / states / initial / accepting /
            trans <src> <letter|-> <guardbits> <dst> <d1> ... <dk>
            (each directive but `trans` at most once; `accepting` required)
            (guardbits over {0,1}, 1 = positive required; "-" when k = 0)
Word:       zero or more `coded theta:<S> | h:<p1,...> | phi:<L>` lines,
            outermost coding first, then `lasso <spoke> | <cycle>`, then at
            most one `prefix <n>` directive, n >= 0.
Run:        start <state> <c1> ... <ck>
            step <letter|-> <tidx> <state> <c1> ... <ck>
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import FormatError
from .machines import (LAMBDA_TOKEN, BuchiAutomaton, Configuration, CounterMachine,
                       MachineError, Run, _BATCH, _batches, _tuples)
from .words import (CodingSpec, HCoding, LassoWord, PhiCoding, ThetaCoding,
                    coded_runs)


# characters of text split into lines at a time
_CHUNK = 1 << 16


def _chunks(text: str) -> Iterator[Iterator[tuple[int, str]]]:
    """The (line number, raw line) pairs of each chunk of the text.

    The lines and their numbers are those of text.splitlines(), but only
    one chunk of them is held at a time: a chunk's list of lines is let go
    when its pairs run out.  A chunk ends just after the last "\n" in the
    next _CHUNK characters (after the first "\n" past them if there is none
    there), so it ends on a line boundary that no "\r\n" straddles, and its
    splitlines() are the text's lines in that stretch.
    """
    no, pos, end = 0, 0, len(text)
    while pos < end:
        cut = text.rfind("\n", pos, pos + _CHUNK) + 1
        if not cut:
            cut = text.find("\n", pos + _CHUNK) + 1 or end
        lines = text[pos:cut].splitlines()
        chunk = enumerate(lines, start=no + 1)
        no += len(lines)
        del lines
        yield chunk
        pos = cut


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line with a token, comments cut off."""
    for chunk in _chunks(text):
        for no, raw in chunk:
            toks = raw.split("#", 1)[0].split()
            if toks:
                yield no, toks


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


def _delta(toks: list[str], no: int) -> tuple[int, ...]:
    delta = []
    for tok in toks:
        d = _int(tok, no, "delta")
        if d not in (-1, 0, 1):
            raise FormatError(f"delta {tok!r} outside -1/0/+1", no)
        delta.append(d)
    return tuple(delta)


def _new_tail(toks: list[str], k: int | None, no: int) -> tuple[int, ...]:
    """The delta of a trans line split at its arity into [trans, src,
    letter, guardbits, dst, tail], for a tail not seen before.  Its checks
    run in the order of a line split in full, so that a line with two
    faults names the first: kcounters first, then the field count, k,
    the guard and the delta."""
    if k is None:
        raise FormatError("trans before kcounters", no)
    dtoks = toks[5].split() if len(toks) == 6 else []
    got = min(len(toks) - 1, 4) + len(dtoks)
    if got != 4 + k:
        raise FormatError(f"trans needs {4 + k} fields for k={k}, got {got}", no)
    if k < 0:
        raise FormatError("k must be a natural number", no)
    _guard(toks[3], k, no)
    return _delta(dtoks, no)


def load_automaton(text: str) -> BuchiAutomaton:
    k = None
    alphabet: list[str] | None = None
    states: list[str] | None = None
    initial = None
    accepting: list[str] | None = None
    # the five columns, sized up front to one slot per trans line as
    # "\ntrans " counts them (a line the count misses grows them): five big
    # lists grown side by side fragment the heap and raise the peak RSS
    columns: list[list] = [[None] * (text.count("\ntrans ") + 1) for _ in range(5)]
    sources, inputs, guards, destinations, deltas = columns
    n = 0
    # each distinct guardbits and delta tail is parsed and checked once; k
    # cannot change after the first trans line, so the spelling alone keys
    # it, and tails of equal value share one delta tuple
    guard_of: dict[str, tuple[int, ...]] = {}
    delta_of: dict[str, tuple[int, ...]] = {}
    delta_values: dict[tuple[int, ...], tuple[int, ...]] = {}
    # a trans line names its states by the strings of the states line
    names: dict[str, str] = {}
    name = names.get
    for chunk in _chunks(text):
        for no, raw in chunk:
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            toks = raw.split(None, 5)
            if not toks:
                continue
            head = toks[0]
            if head == "trans":  # nearly every line, so tested first
                tail = toks[5] if len(toks) == 6 else ""
                delta = delta_of.get(tail) if len(toks) >= 5 else None
                if delta is None:
                    delta = _new_tail(toks, k, no)
                    delta = delta_of[tail] = delta_values.setdefault(delta, delta)
                guardbits = toks[3]
                guard = guard_of.get(guardbits)
                if guard is None:
                    guard = guard_of[guardbits] = _guard(guardbits, k, no)
                if n == len(sources):
                    for column in columns:
                        column += [None] * (n + 1)
                    del column
                letter = toks[2]
                sources[n] = name(toks[1], toks[1])
                inputs[n] = None if letter == LAMBDA_TOKEN else letter
                guards[n] = guard
                destinations[n] = name(toks[4], toks[4])
                deltas[n] = delta
                n += 1
                continue
            rest = raw.split()[1:]
            if head == "kcounters":
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
                names = {s: s for s in states}
                name = names.get
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
            else:
                raise FormatError(f"unknown directive {head!r}", no)
    if k is None or states is None or initial is None:
        raise FormatError("missing kcounters, states, or initial")
    # a bound names.get would keep the dict alive through from_columns
    del names, name, sources, inputs, guards, destinations, deltas
    try:
        machine = CounterMachine.from_columns(
            k, frozenset(alphabet or ()), frozenset(states), initial,
            *_tuples(columns, n))
    except MachineError as e:
        raise FormatError(str(e)) from e
    if accepting is None:
        raise FormatError("missing accepting line")
    return BuchiAutomaton(machine, frozenset(accepting))


def _join(head: str, toks) -> str:
    toks = list(toks)
    return head + (" " + " ".join(toks) if toks else "")


def dump_automaton(aut: BuchiAutomaton) -> str:
    return "".join(_automaton_lines(aut))


def _automaton_lines(aut: BuchiAutomaton) -> Iterator[str]:
    """The text of dump_automaton, at most _BATCH trans lines a string."""
    m = aut.machine
    yield f"kcounters {m.k}\n"
    yield _join("alphabet", sorted(m.alphabet)) + "\n"
    yield _join("states", sorted(m.states)) + "\n"
    yield f"initial {m.initial}\n"
    yield _join("accepting", sorted(aut.accepting)) + "\n"
    # each distinct guard and delta is spelled once
    guards: dict[tuple[int, ...], str] = {}
    deltas: dict[tuple[int, ...], str] = {}
    columns = (m.sources, m.inputs, m.guards, m.destinations, m.deltas)
    for t in range(0, len(m.sources), _BATCH):
        lines = []
        for source, letter, guard, destination, delta in zip(
                *[column[t:t + _BATCH] for column in columns]):
            guardbits = guards.get(guard) or guards.setdefault(guard, "".join(map(str, guard)) or "-")
            tail = deltas.get(delta) or deltas.setdefault(delta, " %s" * len(delta) % delta)
            if letter is None:
                letter = LAMBDA_TOKEN
            lines.append(f"trans {source} {letter} {guardbits} {destination}{tail}\n")
        yield "".join(lines)


@dataclass(frozen=True)
class WordSpec:
    """A lasso plus a coding chain, innermost coding first."""

    lasso: LassoWord
    chain: tuple[CodingSpec, ...]
    prefix: int | None = None

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
            if prefix is not None:
                raise FormatError("duplicate prefix line", no)
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
    """The run of a run file.  A step line is split once at its arity, into
    [step, letter, index, state, counter tail].  A step whose counter tail
    is spelled as the line before's, or whose counters equal that line's,
    shares that line's counters tuple.  The steps name each state by one
    string, its first spelling in the file, as the automaton loader's
    transitions do.  Every counter is read by int(), so the run is made
    without the check of its steps' counters that Run.from_columns makes."""
    start = None
    consumed: list[str | None] = []
    indices: list[int] = []
    states: list[str] = []
    counters: list[tuple[int, ...]] = []
    # the counter tail of the line before, and its values
    last, vec = None, None
    name = {}.setdefault
    for chunk in _chunks(text):
        for no, raw in chunk:
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            toks = raw.split(None, 4)
            if not toks:
                continue
            head = toks[0]
            if head == "step":  # nearly every line, so tested first
                if start is None:
                    raise FormatError("step before start", no)
                if len(toks) < 4:
                    raise FormatError("step needs letter, index, state, counters", no)
                tail = toks[4] if len(toks) == 5 else ""
                try:
                    idx = int(toks[2])
                    if tail != last:
                        last, spelled = tail, tuple(map(int, tail.split()))
                        if spelled != vec:
                            vec = spelled
                except ValueError:
                    # _int raises on the first bad token with its message
                    _int(toks[2], no, "transition index")
                    for tok in tail.split():
                        _int(tok, no, "counter")
                    raise
                letter = toks[1]
                consumed.append(None if letter == LAMBDA_TOKEN else letter)
                indices.append(idx)
                states.append(name(toks[3], toks[3]))
                counters.append(vec)
                continue
            rest = raw.split()[1:]
            if head == "start":
                if start is not None:
                    raise FormatError("duplicate start line", no)
                if not rest:
                    raise FormatError("start needs a state", no)
                start = Configuration(rest[0], tuple(_int(t, no, "counter") for t in rest[1:]))
                last, vec = None, start.counters
            else:
                raise FormatError(f"unknown directive {head!r}", no)
    if start is None:
        raise FormatError("missing start line")
    return Run._from_pieces(start, [(consumed, indices, states, counters, 1)])


def dump_run(run: Run) -> str:
    return "".join(_run_lines(run))


def _run_lines(run: Run) -> Iterator[str]:
    """The text of dump_run in batches of at most _BATCH step lines, each
    batch one string, read from the run's pieces by `_batches`.  A piece's
    step heads (`step <letter> <index> <state>`) are spelled once: a batch
    at a time for a flat piece, and whole for a repeated one, whose every
    later iteration reuses them.  Counters, tuples of ints, are spelled
    through str, once per distinct tuple in a memo that is emptied past
    _BATCH entries."""
    yield _join("start", [run.start.state] + [str(c) for c in run.start.counters]) + "\n"
    tails: dict[tuple, str] = {}

    def spell(c: tuple) -> str:
        return tails.setdefault(c, (" %s" * len(c) + "\n") % c)

    def batch(heads: list[str], counters) -> str:
        if len(tails) > _BATCH:
            tails.clear()
        parts = [None] * (2 * len(heads))
        parts[::2] = heads
        parts[1::2] = [tails.get(c) or spell(c) for c in counters]
        return "".join(parts)

    for (consumed, indices, states, column, r), times, counters in _batches(run):
        # a flat piece may be the whole run: its heads a batch at a time
        if r > 1:
            if counters is column:
                once = _heads(consumed, indices, states)
            heads = once * times
        for t in range(0, len(counters), _BATCH):
            u = t + _BATCH
            yield batch(heads[t:u] if r > 1 else
                        _heads(consumed[t:u], indices[t:u], states[t:u]), counters[t:u])


def _heads(consumed, indices, states) -> list[str]:
    """`step <letter> <index> <state>` of each step."""
    return [f"step {LAMBDA_TOKEN if a is None else a} {i} {s}"
            for a, i, s in zip(consumed, indices, states)]
