"""Counter machines with Buchi acceptance and run validation.

A k-counter machine is a finite control plus k natural-valued counters.
Every transition carries a total guard (each coordinate tests zero or
positive) and a delta vector over {-1, 0, +1}.  Guards, deltas and a run's
counters are tuples of ints, checked where machines, runs and walks are
made.  The lambda input (spelled None here, "-" in files) consumes no letter.

A machine keeps its transitions as five parallel tuples (sources, inputs,
guards, destinations, deltas), with no record per transition; the worklist
and the automaton loader fill the columns, and `machine.transitions`
is a read-only view that builds a Transition per transition read.  A
machine is checked when it is made, over all its parts at once: one join
for the state and letter tokens, set inclusions for the sources,
destinations and inputs, one check per distinct pair of guard and delta
objects (by identity, since 1, True and 1.0 are equal values).  Only when
one of these fails does the check run again token by token and transition
by transition, to raise the first error with its transition index.  The
library reads a state's transitions only through `leaving`, as (index,
input, guard, destination, delta) rows of the columns, and no builder
makes a Transition.  The index behind `leaving` is made on the first call;
when each source's transitions form one span, as in every machine `_reach`
builds, it is filled one state at a time, so a walk indexes only the
states it visits; otherwise it is built whole.

Runs are explicit certificates: a start configuration plus, per step, the
consumed token, the index of the transition used, and the resulting
configuration.  validate_run replays them against the transition relation.
A Run holds its steps as pieces: four parallel tuples (tokens, indices,
result states, result counters) for one iteration, and a repeat count.
A lift writes no record per step and the garbage collector tracks none;
steps that keep the counters may share one counters tuple, and
validate_run checks such a step by its destination and delta alone.  A
run segment (a piece repeated r > 1 times, iteration j's counters those of
iteration 0 plus j times its counter effect) is checked by arithmetic
after its first iteration, against letters or (pattern, count) runs.
Readers take a run a batch of iterations at a time (`_batches`); only
the columns `consumed`, `indices`, `states` and `counters` expand it, and
`run.steps` is a read-only view that builds a RunStep per step read.
Transition, Configuration and RunStep are plain slotted records, treated
as immutable and compared and hashed by their fields: a frozen record
costs several times as much to build.  A run is not required to begin at
the machine's initial state.  Built automata hold only the states their
initial state reaches, so lift_run_intersection and lift_run_union lift
runs from the initial state of b or of the union's side alone.

`step` is the one kernel that matches guards.  A guard depends only on which
counters are positive, so `enabled` keeps step's choices on the machine per
(state, token, sign pattern), asking `step` on a miss; the engine's searches
and the Walker read them from there.

Every automaton whose states are structured (products, wrappers, unions,
the script-L block acceptor) is built by one worklist, `_reach`, which names
each state tuple when it is first reached from the initial one.  Its state
cap is the only size refusal: a build that reaches one state more than the
cap stops there and reports that count.  Each move a builder yields carries
its origin, the index of the source transition it stands for, and `_reach`
records these as one column.  Given a depth d, the same loop expands only
the states fewer than d steps from the initial one: since states are
expanded breadth first, that build is a prefix of the full one, with the
same names and the same transition indices, and serves any walk of at most
d steps.

Builders whose runs can be lifted return a Built: the automaton itself plus
what it was built from, the build parameters, the structured tuple each
state name stands for, and the origin column.  Lifts walk that record with
a Walker and never build.  A Walker takes the origin column when it is made,
and each step passes a key, the source transition index it stands for: a
keyed step takes the enabled transition whose origin is that key or None,
from the machine's memo of the choices per (state, token, sign pattern);
an idle window whose transitions move no counter is replayed whole, by
extending the columns with one shared counters tuple and no lookup, and a
walked cycle is repeated as a run segment for as long as its steps' sign
patterns hold.
"""

from __future__ import annotations

import gc
import math
import re
from bisect import bisect_right
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, repeat
from operator import add, gt, lt, sub

from .errors import ArityError, BuildScaleError, MachineError

# reserved spelling of the lambda input in text files; never a letter
LAMBDA_TOKEN = "-"


def _check_token(tok: str, what: str) -> None:
    if not isinstance(tok, str) or not tok:
        raise MachineError(f"{what} must be a nonempty string, got {tok!r}")
    if tok == LAMBDA_TOKEN:
        raise MachineError(f"{what} {tok!r} is reserved for the lambda input")
    # split() cuts at exactly the characters for which isspace() holds
    if tok.split() != [tok] or "#" in tok:
        raise MachineError(f"{what} {tok!r} not serializable (whitespace or '#')")


# a character that split() cuts at, other than a newline, or a '#': the
# class for any text, and its ASCII members one by one
_BAD_CHAR = re.compile(r"[^\S\n]|#")
_BAD_ASCII = "# \t\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _ints(values) -> bool:
    """Whether values is a tuple of ints; a bool is no int here."""
    return type(values) is tuple and all(type(v) is int for v in values)


def _tokens_ok(toks: Collection) -> bool:
    """Whether _check_token passes every token, tested on all at once.

    In the newline join of nonempty tokens, the newlines are exactly the
    joints when there is one fewer of them than tokens; any other
    whitespace character (the class \\s is the one split() cuts at) or a
    '#' fails, looked for in an ASCII join by one scan per character of
    _BAD_ASCII.  A token that is not a str fails the join."""
    try:
        text = "\n".join(toks)
    except TypeError:
        return False
    return ("" not in toks and LAMBDA_TOKEN not in toks and text.count("\n") == max(len(toks) - 1, 0)
            and not (any(map(text.__contains__, _BAD_ASCII)) if text.isascii()
                     else _BAD_CHAR.search(text)))


@dataclass(slots=True, unsafe_hash=True)
class Transition:
    """One edge: (source, input, guard, destination, delta).

    input None means lambda.  guard coordinates: 0 = counter must equal 0,
    1 = counter must be positive.  delta coordinates in {-1, 0, +1}.

    A plain slotted record like Configuration, cheaper to build than a
    frozen one: it is treated as immutable, and no code assigns a field
    after construction.  Equality and hash are by fields.  A machine keeps
    no Transition: it keeps five columns, and its `transitions` view builds
    a record for each transition read.
    """

    source: str
    input: str | None
    guard: tuple[int, ...]
    destination: str
    delta: tuple[int, ...]

    def matches(self, counters: tuple[int, ...]) -> bool:
        return self.guard == tuple([c > 0 for c in counters])


def _check_guard_delta(i: int, guard, delta, k: int) -> None:
    if not (_ints(guard) and _ints(delta)):
        raise MachineError(f"transition {i}: guard and delta must be tuples of ints, got {guard!r} and {delta!r}")
    if len(guard) != k or len(delta) != k:
        raise MachineError(f"transition {i}: guard/delta arity != k={k}")
    if not all(g in (0, 1) for g in guard):
        raise MachineError(f"transition {i}: guard values must be 0 or 1")
    if not all(d in (-1, 0, 1) for d in delta):
        raise MachineError(f"transition {i}: delta values must be -1, 0 or +1")
    # zero-test consistency: a counter tested zero cannot decrease
    if any(g == 0 and d == -1 for g, d in zip(guard, delta)):
        raise MachineError(f"transition {i}: delta -1 under a zero guard")


class Transitions(Sequence):
    """A machine's transitions as a read-only sequence of Transition
    records, built from its five columns (sources, inputs, guards,
    destinations, deltas) on each read.  len() builds none; a slice is a
    tuple of records, and the view equals, hashes and prints as the tuple
    of records it stands for."""

    __slots__ = ("_columns",)

    def __init__(self, sources: Sequence, inputs: Sequence, guards: Sequence,
                 destinations: Sequence, deltas: Sequence):
        # tuple() of a tuple is that tuple, so shared columns stay shared
        columns = tuple(map(tuple, (sources, inputs, guards, destinations, deltas)))
        if len(set(map(len, columns))) > 1:
            raise ValueError("transition columns differ in length")
        self._columns = columns

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(Transition, *[c[i] for c in self._columns]))
        return Transition(*[c[i] for c in self._columns])

    def __iter__(self):
        return map(Transition, *self._columns)

    def __eq__(self, other):
        if isinstance(other, Transitions):
            return self._columns == other._columns
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def _split(records: tuple) -> tuple:
    """The five columns of a tuple of Transition records."""
    return (tuple([t.source for t in records]), tuple([t.input for t in records]),
            tuple([t.guard for t in records]), tuple([t.destination for t in records]),
            tuple([t.delta for t in records]))


class CounterMachine:
    """A k-counter machine: its alphabet and states, its initial state and
    its transitions.  Checked when it is made, and immutable after.

    The transitions are kept as five parallel tuples, `sources`, `inputs`,
    `guards`, `destinations` and `deltas`, with no record per transition,
    so a big build is a few tuples to the garbage collector rather than a
    record per edge.  CounterMachine(k, alphabet, states, initial,
    transitions) takes Transition records, or another machine's
    `transitions`; `from_columns` takes the five columns, as any sequences,
    and stores them as tuples.  `transitions` is a read-only `Transitions`
    view over the columns.  Equality and repr are by k, alphabet, states,
    initial and transitions, with the transitions spelled out as records.

    Guards and deltas must be tuples of ints.  The checks run over the
    whole machine at once: the tokens by one join, sources, destinations
    and inputs as set operations on the columns, guard and delta once per
    distinct pair of guard and delta objects.  When one of them fails,
    the checks run again token by token and transition by transition, which
    raise the first error in that order.  The per-state index behind
    `leaving` is made by `leaving`, from its first call on, and holds the
    rows of the states asked about."""

    __slots__ = ("k", "alphabet", "states", "initial", "transitions", "sources",
                 "inputs", "guards", "destinations", "deltas",
                 # source -> its rows, filled by `leaving`
                 "_rows",
                 # source -> start of its span, for the states `leaving` has
                 # yet to index; None when the index was built whole
                 "_spans",
                 # step's choices per (state, token, sign pattern), filled by
                 # `enabled`
                 "_enabled", "_real_time")

    def __init__(self, k: int, alphabet, states, initial: str, transitions):
        self.k = k
        self.alphabet = frozenset(alphabet)
        self.states = frozenset(states)
        self.initial = initial
        if not isinstance(transitions, Transitions):
            transitions = tuple(transitions)
        if k < 0:
            raise MachineError("k must be a natural number")
        if not self.states:
            raise MachineError("state set must be nonempty")
        if not (_tokens_ok(self.states) and _tokens_ok(self.alphabet)):
            for s in self.states:
                _check_token(s, "state id")
            for a in self.alphabet:
                _check_token(a, "letter")
        if initial not in self.states:
            raise MachineError(f"initial state {initial!r} not in states")
        if not isinstance(transitions, Transitions):
            try:
                transitions = Transitions(*_split(transitions))
            except AttributeError:
                # something that is no record: the checks name any error
                # before it, or fail on it as the split did
                self._check_each((t.source, t.input, t.guard, t.destination, t.delta)
                                 for t in transitions)
                raise
        self.transitions = transitions
        (self.sources, self.inputs, self.guards, self.destinations,
         self.deltas) = transitions._columns
        self._rows = self._spans = None
        self._enabled = {}
        real_time = self._check_in_bulk()
        self._real_time = (self._check_each(zip(*transitions._columns))
                           if real_time is None else real_time)

    @classmethod
    def from_columns(cls, k: int, alphabet, states, initial: str, sources: Sequence,
                     inputs: Sequence, guards: Sequence, destinations: Sequence,
                     deltas: Sequence) -> CounterMachine:
        return cls(k, alphabet, states, initial,
                   Transitions(sources, inputs, guards, destinations, deltas))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.k, self.alphabet, self.states, self.initial, self.transitions)
                == (other.k, other.alphabet, other.states, other.initial,
                    other.transitions))

    __hash__ = None

    def __repr__(self):
        return (f"CounterMachine(k={self.k!r}, alphabet={self.alphabet!r}, "
                f"states={self.states!r}, initial={self.initial!r}, "
                f"transitions={self.transitions!r})")

    def _check_in_bulk(self) -> bool | None:
        """Whether the machine is real-time, or None when a check fails."""
        states, guards, deltas = self.states, self.guards, self.deltas
        try:
            if not (states.issuperset(self.sources)
                    and states.issuperset(self.destinations)):
                return None
            inputs = set(self.inputs)
            real_time = None not in inputs
            inputs.discard(None)
            if not inputs <= self.alphabet:
                return None
            # a transition per distinct pair of guard and delta objects:
            # keyed by value, a (True,) or (1.0,) would hide behind a (1,)
            pairs = dict(zip(zip(map(id, guards), map(id, deltas)), range(len(guards))))
            for i in pairs.values():
                _check_guard_delta(i, guards[i], deltas[i], self.k)
        except (MachineError, TypeError):
            # _check_each says which transition fails, and how
            return None
        return real_time

    def _check_each(self, rows) -> bool:
        """The checks one transition at a time, over (source, input, guard,
        destination, delta) rows: raises the first failure."""
        states, alphabet = self.states, self.alphabet
        shapes = set()
        real_time = True
        for i, (source, input, guard, destination, delta) in enumerate(rows):
            if source not in states:
                raise MachineError(f"transition {i}: unknown source {source!r}")
            if destination not in states:
                raise MachineError(f"transition {i}: unknown destination {destination!r}")
            if input is None:
                real_time = False
            elif input not in alphabet:
                raise MachineError(f"transition {i}: input {input!r} not in alphabet")
            # guard and delta are checked once per distinct pair of objects
            shape = (id(guard), id(delta))
            if shape not in shapes:
                _check_guard_delta(i, guard, delta, self.k)
                shapes.add(shape)
        return real_time

    def leaving(self, state: str) -> tuple[tuple, ...]:
        """The state's transitions as (index, input, guard, destination,
        delta) rows in index order, one tuple per state that every caller
        shares; () for a state without transitions.

        The first call looks at the layout.  When each source's transitions
        form one span, a state's rows are made from its span when it is
        first asked about; otherwise the whole index is made at once."""
        rows = self._rows
        if rows is None:
            self._spans = self._span_starts()
            grouped: dict[str, list] = {}
            if self._spans is None:
                for row in zip(self.sources, count(), self.inputs, self.guards,
                               self.destinations, self.deltas):
                    grouped.setdefault(row[0], []).append(row[1:])
            rows = self._rows = {q: tuple(out) for q, out in grouped.items()}
        out = rows.get(state)
        if out is None:
            start = None if self._spans is None else self._spans.pop(state, None)
            if start is None:
                return ()
            sources, end = self.sources, start
            while end < len(sources) and sources[end] == state:
                end += 1
            columns = (self.inputs, self.guards, self.destinations, self.deltas)
            out = rows[state] = tuple(zip(range(start, end),
                                          *[column[start:end] for column in columns]))
        return out

    def _span_starts(self) -> dict[str, int] | None:
        """Where each source's span of transitions starts, or None when
        some source's transitions do not all lie in one span."""
        starts: dict[str, int] = {}
        last = None
        for i, source in enumerate(self.sources):
            if source != last:
                if source in starts:
                    return None
                starts[source] = i
                last = source
        return starts


@dataclass(slots=True, unsafe_hash=True)
class Configuration:
    """Global state (q, c1..ck), the counters a tuple of ints: naturals,
    though negative ones are representable so corrupt certificates can be
    loaded and rejected by validate_run rather than at parse time.

    A plain slotted record, cheaper to build than a frozen one: it is
    treated as immutable, and no code assigns a field after construction.
    Equality and hash are by fields, so configurations serve as dict keys."""

    state: str
    counters: tuple[int, ...]


@dataclass(slots=True, unsafe_hash=True)
class RunStep:
    """One step of a run; a plain slotted record like Configuration,
    treated as immutable and compared and hashed by its fields."""

    consumed: str | None
    transition_index: int
    result: Configuration


class Run:
    """A start configuration plus its steps, held as pieces.

    A piece is the four columns of one iteration of p steps (the consumed
    tokens, the transition indices, the result states and the result
    counters, as parallel tuples) plus a repeat count r.  Iteration j repeats
    iteration 0's tokens, indices and states, and its counters are
    iteration 0's counters plus j·D, where D is the counter effect of
    iteration 0: its last counters minus the counters before it.  A flat
    run is one piece with r = 1; a run with segments comes from the
    `Walker` (or `_from_pieces`).  Steps that leave the counters unchanged
    may share one counters tuple.

    Run(start, steps) takes RunSteps; `from_columns` takes the columns
    themselves, as any sequences, and stores them as tuples.  A start or a
    step whose counters are no tuple of ints is a ValueError.  The columns
    `consumed`, `indices`, `states` and `counters` are the expansion: a
    flat run hands out its own tuples, a run with segments builds them on
    each read, and in them a step that moves no counter in iteration 0
    shares the counters tuple of the step before it, as the flat run does.
    `steps` is a read-only view that builds each RunStep when it is read;
    len(run.steps) reads no column.  Equality, hash and repr are those of
    the expanded run: by start and columns, with the steps spelled out as
    RunSteps.  Immutable."""

    __slots__ = ("start", "_pieces", "_n")

    def __init__(self, start: Configuration, steps):
        steps = tuple(steps)
        _fill(self, start, [([s.consumed for s in steps], [s.transition_index for s in steps],
                             [s.result.state for s in steps],
                             _int_counters(start, [s.result.counters for s in steps]), 1)])

    @classmethod
    def from_columns(cls, start: Configuration, consumed: Sequence, indices: Sequence,
                     states: Sequence, counters: Sequence) -> Run:
        return cls._from_pieces(start, [(consumed, indices, states, _int_counters(start, counters), 1)])

    @classmethod
    def _from_pieces(cls, start: Configuration, pieces) -> Run:
        """The run of (consumed, indices, states, counters, r) pieces; only its start is checked."""
        run = object.__new__(cls)
        _fill(run, start, pieces)
        return run

    @property
    def consumed(self) -> tuple[str | None, ...]:
        return _column(self._pieces, 0)

    @property
    def indices(self) -> tuple[int, ...]:
        return _column(self._pieces, 1)

    @property
    def states(self) -> tuple[str, ...]:
        return _column(self._pieces, 2)

    @property
    def counters(self) -> tuple[tuple[int, ...], ...]:
        pieces = self._pieces
        if len(pieces) == 1 and pieces[0][4] == 1:
            return pieces[0][3]
        return tuple(chain.from_iterable(counters for _, _, counters in _batches(self)))

    @property
    def steps(self) -> Steps:
        return Steps(self)

    def _columns(self) -> tuple:
        return self.consumed, self.indices, self.states, self.counters

    def __eq__(self, other):
        if not isinstance(other, Run):
            return NotImplemented
        return self.start == other.start and self._n == other._n and (
            self._pieces == other._pieces or self._columns() == other._columns())

    def __hash__(self):
        return hash((self.start, *self._columns()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Run")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Run")

    def __reduce__(self):
        return Run._from_pieces, (self.start, self._pieces)

    def __repr__(self):
        return f"Run(start={self.start!r}, steps={self.steps!r})"


def _int_counters(start: Configuration, column: Sequence = ()) -> tuple:
    """column as a tuple; the start's and each step's counters must be tuples of ints."""
    column = tuple(column)
    for i, counters in enumerate((start.counters, *column), -1):
        if not _ints(counters):
            raise ValueError(f"{'start' if i < 0 else f'step {i}'}: counters must be a tuple of ints, got {counters!r}")
    return column


def _fill(run: Run, start: Configuration, pieces) -> None:
    _int_counters(start)
    out = []
    for *columns, r in pieces:
        # tuple() of a tuple is that tuple, so shared columns stay shared
        columns = tuple(map(tuple, columns))
        if len(set(map(len, columns))) > 1:
            raise ValueError("run columns differ in length")
        if type(r) is not int or r < 1:
            raise ValueError(f"repeat count must be a positive int, got {r!r}")
        if columns[0]:
            out.append((*columns, r))
    n = sum(len(piece[1]) * piece[4] for piece in out)
    for name, value in (("start", start), ("_pieces", tuple(out)), ("_n", n)):
        object.__setattr__(run, name, value)


# steps at most in a batch of a piece's later iterations
_BATCH = 4096


def _column(pieces: tuple, i: int) -> tuple:
    if len(pieces) == 1 and pieces[0][4] == 1:
        return pieces[0][i]
    return tuple(chain.from_iterable(piece[i] * piece[4] for piece in pieces))


def _later_counters(column: tuple, entry: tuple, r: int, first: int = 1,
                    carried: tuple | None = None) -> list:
    """The counters of iterations first..r-1 of a piece whose iteration 0
    has `column` and starts from `entry`: iteration 0's plus j·D.  A step
    that moves no counter in iteration 0 (its counters equal those before
    it) shares the tuple before it here; in iteration `first` those before
    the first move share `carried`, the last counters of iteration first -
    1 (by default iteration 0's).
    Filled step by step of iteration 0, each over all iterations at once."""
    p = len(column)
    effect = tuple(map(sub, column[-1], entry))
    out = [None] * (p * (r - first))
    values = None
    # steps that keep the counters before the piece: in iteration j they
    # share the last counters of iteration j - 1
    lead = 0
    for t, counters, before in zip(count(), column, (entry, *column)):
        if counters != before:
            values = _shifted(counters, effect, r, first)
        elif values is None:
            lead += 1
            continue
        out[t::p] = values
    if values is None:
        return [column[-1]] * len(out)
    for t in range(lead):
        out[t::p] = [column[-1] if carried is None else carried, *values[:-1]]
    return out


def _iterations(piece: tuple, entry: tuple, first: int = 1, carried: tuple | None = None):
    """(iterations, their counters) per batch of about _BATCH steps of
    iterations first..r-1 of a piece that starts from counters `entry`."""
    _, _, _, column, r = piece
    per = max(1, _BATCH // len(column))
    for j in range(first, r, per):
        later = _later_counters(column, entry, min(r, j + per), j, carried)
        yield len(later) // len(column), later
        carried = later[-1]


def _batches(run: Run):
    """The one reader of a run's steps: (piece, iterations, their counters)
    per batch, iteration 0 with its own column, then `_iterations`."""
    entry = run.start.counters
    for piece in run._pieces:
        counters = piece[3]
        yield piece, 1, counters
        for times, counters in _iterations(piece, entry):
            yield piece, times, counters
        entry = counters[-1]


def _shifted(counters: tuple, effect: tuple, r: int, first: int = 1) -> list:
    """counters + j·effect for j = first..r-1."""
    if not counters:
        return [()] * (r - first)
    return list(zip(*[range(c + first * d, c + r * d, d) if d else repeat(c, r - first)
                      for c, d in zip(counters, effect)]))


def _located(run: Run, wanted) -> list:
    """The RunSteps at the indices wanted, step t of iteration j of a piece
    read as iteration 0's plus j times its effect; later pieces go unread."""
    bases, pieces, entry = [0], [], run.start.counters
    last = max(wanted, default=-1)
    for tokens, indices, states, column, times in run._pieces:
        if bases[-1] > last:
            break
        effect = tuple(map(sub, column[-1], entry))
        pieces.append((tokens, indices, states, column, effect))
        bases.append(bases[-1] + len(column) * times)
        entry = _shifted(column[-1], effect, times, times - 1)[0] if times > 1 else column[-1]
    out = []
    for i in wanted:
        k = bisect_right(bases, i) - 1
        tokens, indices, states, column, effect = pieces[k]
        j, t = divmod(i - bases[k], len(column))
        out.append(RunStep(tokens[t], indices[t], Configuration(
            states[t], _shifted(column[t], effect, j + 1, j)[0] if j else column[t])))
    return out


class Steps(Sequence):
    """The steps of a run as a read-only sequence of RunSteps, built on each
    read from the run's pieces, a slice as a tuple, in the size of what is
    read.  The view equals, hashes and prints as a tuple of them would."""

    __slots__ = ("run",)

    def __init__(self, run: Run):
        self.run = run

    def __len__(self):
        return self.run._n

    def __getitem__(self, i):
        wanted = range(self.run._n)[i]
        if isinstance(i, slice):
            return tuple(_located(self.run, wanted))
        return _located(self.run, (wanted,))[0]

    def __iter__(self):
        return chain.from_iterable(
            map(RunStep, tokens * n, indices * n, map(Configuration, states * n, counters))
            for (tokens, indices, states, _, _), n, counters in _batches(self.run))

    def __eq__(self, other):
        if isinstance(other, Steps):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True, slots=True)
class BuchiAutomaton:
    machine: CounterMachine
    accepting: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if not self.accepting <= self.machine.states:
            raise MachineError("accepting set must be a subset of states")


@dataclass(frozen=True, slots=True, eq=False)
class Built(BuchiAutomaton):
    """A builder's output: the automaton, what it was built from (`source`),
    the parameters the build fixed (`params`), for each state name the
    structured tuple it was made from (`table`), and `origin`, the column
    `_reach` recorded: per transition, in index order, the index of the
    source transition it stands for.  In the column, -1 marks the filler
    wrapper's idle filler steps, and None a transition that stands for no
    one source transition, which a keyed walk step may take whatever its
    key.  Equality and repr are those of the automaton."""

    source: object = field(default=None, repr=False)
    params: dict = field(default_factory=dict, repr=False)
    table: dict = field(default_factory=dict, repr=False)
    origin: tuple | None = field(default=None, repr=False)


@dataclass(frozen=True, slots=True)
class RunViolation:
    """First failing step (0-based; -1 = start configuration, len(steps) =
    word not fully consumed) and why."""

    step: int
    reason: str
    detail: str = ""

    def __str__(self):
        msg = f"step {self.step}: {self.reason}"
        return f"{msg} ({self.detail})" if self.detail else msg


def step(machine: CounterMachine, config: Configuration,
         input: str | None) -> list[tuple[int, Configuration]]:
    """All successors of config on the given input token, with the index of
    the transition used.  Deterministic order (by transition index)."""
    if len(config.counters) != machine.k:
        raise ArityError(f"configuration has {len(config.counters)} counters, machine has {machine.k}")
    counters = config.counters
    signs = tuple([c > 0 for c in counters])
    return [(i, Configuration(destination, tuple(map(add, counters, delta))))
            for i, token, guard, destination, delta in machine.leaving(config.state)
            if token == input and guard == signs]


def enabled(machine: CounterMachine, state: str, token: str | None,
            counters: tuple[int, ...]) -> tuple[tuple[int, str, tuple[int, ...]], ...]:
    """The (index, destination, delta) of each transition `step` takes from
    (state, counters) on `token`, in `step`'s order.

    Whether a guard holds depends only on which counters are positive, so
    the answer is kept on the machine per (state, token, sign pattern); a
    miss asks `step` itself, whose arity check still applies."""
    key = (state, token, tuple([c > 0 for c in counters]))
    choices = machine._enabled.get(key)
    if choices is None:
        deltas = machine.deltas
        choices = machine._enabled[key] = tuple(
            (i, nc.state, deltas[i])
            for i, nc in step(machine, Configuration(state, counters), token))
    return choices


class Walker:
    """Replays a schedule on a machine: each `to` takes the one transition
    out of the current configuration on `token` whose guard holds and, when
    a key is given, whose entry in the origin column is that key or None,
    and records the step.

    The walk takes the origin column of the build it walks when it is made
    (`Built.origin`, one entry per transition); each step names the source
    transition it stands for by its key, and a step without a key takes any
    enabled transition.  A key passed to a walker without a column is a
    TypeError.  The candidates are the machine's `enabled` entry for the
    state, the token and the counters' sign pattern, filtered by the key.

    `idle(token, key, n, then)` is a block: n calls of `to(token, key)` and,
    when `then` = (last token, last key) is given, one `to(*then)`.  When
    none of the n window steps moves a counter, the sign pattern cannot
    change before the last step, so the block's tokens, indices,
    destinations and last delta are kept per (state, token, sign pattern,
    key, n, then) and replayed whole: n copies of the counters tuple as it
    stands, then that tuple plus the last delta.  A block whose window moves
    a counter is walked step by step every time.  A window passes through
    states it does not come back to, so it is no special case of `repeat`.

    `repeat(walk, r)` is r calls of `walk()`, each walking one iteration
    with `to` and `idle`.  After a walked iteration that ends in the state
    it started from, the next iterations take the same transitions for as
    long as every step's sign pattern holds; the counters are linear in the
    iteration number, so how long that is follows from iteration 0 by
    arithmetic.  Those iterations are replayed
    as one run segment, without a call; what is left is walked again, so a
    walk that breaks does so with `to`'s error at the step where it would.

    The steps are kept as the pieces of the Run that `run` returns, and
    len(walker) counts them.  A start whose counters are no tuple of ints
    is a ValueError."""

    def __init__(self, machine: CounterMachine, start: Configuration, origin=None):
        _int_counters(start)
        self.machine = machine
        self.start = start
        self.state, self.counters = start.state, start.counters
        # the pieces closed so far and their step count, then the open
        # flat piece's columns
        self._pieces: list[tuple] = []
        self._closed = 0
        self._consumed: list[str | None] = []
        self._indices: list[int] = []
        self._states: list[str] = []
        self._counters: list[tuple[int, ...]] = []
        self._origin = origin
        self._blocks: dict[tuple, tuple[list, list[int], list[str], tuple | None]] = {}

    def __len__(self):
        return self._closed + len(self._indices)

    @property
    def cfg(self) -> Configuration:
        return Configuration(self.state, self.counters)

    def _check_key(self, key) -> None:
        if key is not None and self._origin is None:
            raise TypeError("Walker: a key needs the walk's origin column")

    def to(self, token: str | None, key=None) -> None:
        state, counters = self.state, self.counters
        cands = enabled(self.machine, state, token, counters)
        if key is not None:
            self._check_key(key)
            origin = self._origin
            cands = [c for c in cands if origin[c[0]] in (key, None)]
        if len(cands) != 1:
            raise MachineError(
                f"walk broke at {state!r} on {token!r} after "
                f"{len(self)} steps: {len(cands)} candidate transitions")
        i, destination, delta = cands[0]
        self.state = destination
        self.counters = counters = tuple(map(add, counters, delta))
        self._consumed.append(token)
        self._indices.append(i)
        self._states.append(destination)
        self._counters.append(counters)

    def idle(self, token: str | None, key, n: int, then: tuple | None = None) -> None:
        self._check_key(key)
        counters = self.counters
        where = (self.state, token, tuple([c > 0 for c in counters]), key, n, then)
        block = self._blocks.get(where)
        if block is not None:
            consumed, indices, states, delta = block
            if indices:
                self._consumed += consumed
                self._indices += indices
                self._states += states
                self._counters += [counters] * n
                if delta is not None:
                    self.counters = counters = tuple(map(add, counters, delta))
                    self._counters.append(counters)
                self.state = states[-1]
            return
        first = len(self._indices)
        for _ in range(n):
            self.to(token, key)
        deltas = self.machine.deltas
        still = not any(any(deltas[i]) for i in self._indices[first:])
        if then is not None:
            self.to(*then)
        if still:
            self._blocks[where] = (
                self._consumed[first:], self._indices[first:], self._states[first:],
                deltas[self._indices[-1]] if then is not None else None)

    def repeat(self, walk, r: int) -> None:
        """Call walk() r times, replaying the iterations that repeat.

        walk() walks one iteration, and must walk the same (token, key)
        steps whenever it starts from the same state and meets the same
        sign patterns on the way."""
        while r > 0:
            state, entry, mark, closed = (self.state, self.counters,
                                          len(self._indices), self._closed)
            walk()
            r -= 1
            if r and self.state == state and self._closed == closed:
                r -= self._replay(entry, mark, r)

    def _replay(self, entry: tuple, mark: int, r: int) -> int:
        """Replay up to r more times the iteration walked since column
        position `mark` from counters `entry`, back in the state it started
        from; returns how many times."""
        if len(self._indices) == mark:
            return r
        end = self.counters
        effect = tuple(map(sub, end, entry))
        befores = [entry, *self._counters[mark:-1]]
        times = r
        # a count that goes down stays positive while the iteration's
        # smallest positive one does; one that goes up stays nonpositive
        # while the largest nonpositive one does
        for values, d in zip(zip(*befores), effect):
            if d < 0:
                low = min((v for v in values if v > 0), default=None)
                if low is not None:
                    times = min(times, (low - 1) // -d)
            elif d > 0:
                high = max((v for v in values if v <= 0), default=None)
                if high is not None:
                    times = min(times, -high // d)
        if times <= 0:
            return 0
        buffers = (self._consumed, self._indices, self._states, self._counters)
        columns = [tuple(buffer[mark:]) for buffer in buffers]
        for buffer in buffers:
            del buffer[mark:]
        self._close()
        self._pieces.append((*columns, times + 1))
        self._closed += len(columns[1]) * (times + 1)
        self.counters = tuple(map(add, end, [d * times for d in effect]))
        return times

    def _close(self) -> None:
        """Close the open flat piece, if it has steps."""
        if self._indices:
            self._pieces.append((tuple(self._consumed), tuple(self._indices),
                                 tuple(self._states), tuple(self._counters), 1))
            self._closed += len(self._indices)
            self._consumed, self._indices, self._states, self._counters = [], [], [], []

    def run(self) -> Run:
        return Run._from_pieces(self.start, [
            *self._pieces,
            (self._consumed, self._indices, self._states, self._counters, 1)])


def _spell(pattern: tuple, phase: int, m: int) -> tuple:
    """m letters of the pattern repeated, from pattern[phase] on."""
    return (pattern * -(-(phase + m) // len(pattern)))[phase:phase + m]


class _Word:
    """validate_run's word as (pattern, count) runs, never spelled whole."""

    def __init__(self, word):
        word = list(word)
        if not word or isinstance(word[0], str):
            word = [(tuple(word), 1)]
        self.runs = [(p, r) for p, r in word if p and r]
        self.starts = list(accumulate((len(p) * r for p, r in self.runs), initial=0))
        self.n = self.starts[-1]

    def _spans(self, x: int, end: int):
        """(pattern, phase, a, b) per run that x..end-1 meets: its letters
        at a..b-1, from pattern[phase] on."""
        starts = self.starts
        k = bisect_right(starts, x) - 1
        while x < end:
            p, stop = self.runs[k][0], min(end, starts[k + 1])
            yield p, (x - starts[k]) % len(p), x, stop
            x, k = stop, k + 1

    def window(self, pos: int, consumed: Sequence) -> Sequence:
        """The letters from pos on that steps reading `consumed` may reach."""
        end = min(self.n, pos + len(consumed) - consumed.count(None))
        parts = [_spell(p, phase, b - a) for p, phase, a, b in self._spans(pos, end)]
        return parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))

    def copies(self, u: tuple, x: int, most: int) -> int:
        """How many copies of u, at most `most`, follow position x."""
        q, end = len(u), min(self.n, x + len(u) * most)
        for p, phase, a, b in self._spans(x, end):
            # the run has period |p| and the copies period q: two periodic
            # stretches that agree on |p| + q - gcd letters agree on all
            # (Fine and Wilf)
            got = _spell(p, phase, min(b - a, len(p) + q - math.gcd(len(p), q)))
            want = _spell(u, (a - x) % q, len(got))
            if got != want:
                return (a + next(t for t, c in enumerate(got) if c != want[t]) - x) // q
        return max(0, end - x) // q


def validate_run(machine: CounterMachine, word, run: Run) -> RunViolation | None:
    """None iff the run is a legal complete run over exactly `word`.

    Checks, per step: transition index in range, source matches, consumed
    token matches the transition, guard satisfied, counters stay natural,
    result equals source configuration plus delta.  Finally the projection
    of consumed letters must equal the word with nothing left over.

    The word is letters, or (pattern, count) runs as `words.coded_runs`
    gives them, which are never spelled out: both give the same verdict.

    A step whose result counters are the very tuple of the current ones is
    natural already and equals the current counters plus the delta iff the
    delta is all zero; only that and the destination are checked there.

    A run segment is checked without expanding it: iteration 0 step by
    step, then the other iterations by arithmetic, since iteration j's
    counters are iteration 0's plus j·D.  With iteration 0 back in its
    start state, iteration j holds while its positive guards and results
    hold at j, no zero-guarded counter moves under D, and the word holds a
    j-th copy of iteration 0's letters.  The step check runs, a batch at a
    time, from the first iteration that may fail, and names the first
    violation.
    """
    word = _Word(word)
    start = run.start
    if len(start.counters) != machine.k:
        return RunViolation(-1, "arity", f"start has {len(start.counters)} counters, machine k={machine.k}")
    if any(c < 0 for c in start.counters):
        return RunViolation(-1, "negative-counter", "start configuration")
    if start.state not in machine.states:
        return RunViolation(-1, "source", f"unknown state {start.state!r}")
    state, counters, pos, i = start.state, start.counters, 0, 0
    for piece in run._pieces:
        consumed, indices, states, column, r = piece
        entry, pos0 = counters, pos
        out = _check_steps(machine, word, i, state, counters, pos, piece)
        if isinstance(out, RunViolation):
            return out
        state, counters, pos = out
        i += len(indices)
        if r == 1:
            continue
        good, effect = _repeats_hold(machine, word, piece, entry, pos0, pos)
        if good > 1:
            counters = tuple(map(add, counters, [d * (good - 1) for d in effect]))
            pos += (pos - pos0) * (good - 1)
            i += len(indices) * (good - 1)
        for times, later in _iterations(piece, entry, good, counters):
            out = _check_steps(machine, word, i, state, counters, pos,
                               (consumed * times, indices * times, states * times, later))
            if isinstance(out, RunViolation):
                return out
            state, counters, pos = out
            i += len(indices) * times
    if pos != word.n:
        return RunViolation(i, "projection", f"run consumed {pos} of {word.n} letters")
    return None


def _check_steps(machine: CounterMachine, word: _Word, first: int, state: str,
                 counters: tuple, pos: int, columns) -> RunViolation | tuple:
    """validate_run's step loop over run columns whose first step is step
    `first`, from (state, counters) at word position pos: the first
    violation, or the state, counters and position it ends at.  It reads
    the machine's columns, and builds no transition record."""
    sources, inputs, guards, destinations, deltas = (
        machine.sources, machine.inputs, machine.guards, machine.destinations,
        machine.deltas)
    letters = word.window(pos, columns[0])
    n_trans, n_word, at = len(sources), len(letters), 0
    zeros = repeat(0)
    signs = tuple(map(gt, counters, zeros))
    for i, consumed, idx, got_state, got in zip(count(first), *columns[:4]):
        if not (0 <= idx < n_trans):
            return RunViolation(i, "index", f"transition index {idx} out of range")
        source = sources[idx]
        if source != state:
            return RunViolation(i, "source", f"transition {idx} leaves {source!r}, run is at {state!r}")
        if consumed != inputs[idx]:
            return RunViolation(i, "input", f"recorded {consumed!r}, transition reads {inputs[idx]!r}")
        guard = guards[idx]
        if guard != signs:
            return RunViolation(i, "guard", f"guard {guard} vs counters {counters}")
        shared = got is counters
        if not shared and any(map(lt, got, zeros)):
            return RunViolation(i, "negative-counter", f"result {got}")
        if got_state != destinations[idx]:
            return RunViolation(i, "destination", f"recorded {got_state!r}, transition enters {destinations[idx]!r}")
        delta = deltas[idx]
        # the shared tuple of natural counters is the result iff delta is zero
        if any(delta) if shared else got != tuple(map(add, counters, delta)):
            return RunViolation(i, "delta", f"recorded {got}, expected {tuple(map(add, counters, delta))}")
        if not shared:
            counters, signs = got, tuple(map(gt, got, zeros))
        if consumed is not None:
            if at >= n_word or letters[at] != consumed:
                return RunViolation(i, "projection", f"letter {consumed!r} at word position {pos + at}")
            at += 1
        state = got_state
    return state, counters, pos + at


def _repeats_hold(machine: CounterMachine, word: _Word, piece: tuple, entry: tuple,
                  pos0: int, pos1: int) -> tuple[int, tuple]:
    """How many iterations of a segment, from iteration 0, hold by
    arithmetic once iteration 0 checked out from counters `entry` over the
    word's letters pos0..pos1-1, and the segment's counter effect D."""
    consumed, indices, states, column, r = piece
    if machine.sources[indices[0]] != states[-1]:
        return 1, ()
    effect = tuple(map(sub, column[-1], entry))
    good, guards = r, machine.guards
    for idx, before, after in zip(indices, (entry, *column), column):
        for g, b, a, d in zip(guards[idx], before, after, effect):
            # iteration j has b + j·d before the step and a + j·d after it
            if d < 0:
                good = min(good, a // -d + 1, (b - 1) // -d + 1 if g == 1 else 1)
            elif d and g != 1:
                good = 1
    if pos1 > pos0 and good > 1:
        good = 1 + word.copies(tuple([tok for tok in consumed if tok is not None]),
                               pos1, good - 1)
    return good, effect


def is_real_time(machine: CounterMachine) -> bool:
    """No lambda transitions (recorded when the machine was built)."""
    return machine._real_time


def lambda_burst_bound(machine: CounterMachine) -> int | float:
    """Longest chain of consecutive lambda-transitions in the transition
    graph, counters ignored (over-approximation); math.inf on a lambda cycle.
    """
    succ: dict[str, list[str]] = {}
    indeg: dict[str, int] = {}
    for source, input, destination in zip(machine.sources, machine.inputs,
                                          machine.destinations):
        if input is None:
            succ.setdefault(source, []).append(destination)
            indeg[destination] = indeg.get(destination, 0) + 1
    # Kahn peel: a state is peeled once every lambda edge into it is (a
    # self-loop never is), and the longest chain ending at it is known then
    depth = dict.fromkeys(succ.keys() | indeg.keys(), 0)
    ready = [q for q in depth if q not in indeg]
    peeled = 0
    while ready:
        q = ready.pop()
        peeled += 1
        for d in succ.get(q, ()):
            depth[d] = max(depth[d], depth[q] + 1)
            indeg[d] -= 1
            if not indeg[d]:
                ready.append(d)
    # states left unpeeled lie on or behind a lambda cycle
    if peeled < len(depth):
        return math.inf
    return max(depth.values(), default=0)


def buchi_visit_count(run: Run, accepting: frozenset[str] | set[str]) -> int:
    """Configurations (start included) whose state is accepting."""
    n = 1 if run.start.state in accepting else 0
    return n + sum(r * sum(map(accepting.__contains__, states))
                   for _, _, states, _, r in run._pieces)


def run_word(run: Run) -> tuple[tuple[tuple[str, ...], int], ...]:
    """The word a run reads, as one (letters, repeat count) run per piece."""
    return tuple((tuple([tok for tok in consumed if tok is not None]), r)
                 for consumed, _, _, _, r in run._pieces)


def pad_counters(machine: CounterMachine, new_k: int) -> CounterMachine:
    """Append always-zero counters (guard zero, delta 0) up to new_k."""
    if new_k < machine.k:
        raise MachineError(f"cannot pad k={machine.k} down to {new_k}")
    if new_k == machine.k:
        return machine
    pad = (0,) * (new_k - machine.k)
    return CounterMachine.from_columns(
        new_k, machine.alphabet, machine.states, machine.initial, machine.sources,
        machine.inputs, [g + pad for g in machine.guards], machine.destinations,
        [d + pad for d in machine.deltas])


def pad_run(run: Run, new_k: int) -> Run:
    """Lift a run into the pad_counters image (extra coordinates stay 0)."""
    k = len(run.start.counters)
    if new_k < k:
        raise MachineError(f"cannot pad k={k} down to {new_k}")
    pad = (0,) * (new_k - k)
    start = Configuration(run.start.state, run.start.counters + pad)
    return Run._from_pieces(start, [(consumed, indices, states, [c + pad for c in column], r)
                                    for consumed, indices, states, column, r in run._pieces])


# products and wrappers: one worklist over the reachable state tuples


def _reach(k: int, alphabet, initial, moves, name, cap: int | None = None,
           over_cap: str = "product",
           depth: int | None = None) -> tuple[CounterMachine, dict, tuple, int | None]:
    """The machine of the states `initial` reaches, its name -> state table,
    its origin column, and the depth it stopped at.  A state is any hashable
    key: most builders pass tuples, and realtime8 passes ints.

    States are expanded breadth first, so each state's transitions form one
    span, which `leaving` indexes on demand.  moves(state) yields (input,
    guard, destination state, delta, origin) per edge, in a fixed order: run
    files cite transitions by index, so the order must not depend on set
    iteration.  The transitions go into one list per column, with no record
    per edge, each made a tuple in turn at the end; the origins, one per
    transition in index order, are the column a `Built` carries as `origin`.
    name(state) names a state when it is first reached; two states with one
    name are a MachineError, and reaching more than `cap` states, expanded
    or not, is a BuildScaleError.  A build makes no reference cycles, so the
    cyclic garbage collector is paused while it runs, and the caller's
    setting is restored however the build ends.

    With a depth d, only the states first reached in fewer than d steps are
    expanded; those first reached in d steps are named and are states of
    the machine, with no transitions.  Breadth-first order makes this build
    a prefix of the full one: the same names for its states, and the full
    build's first transitions and origins, index for index, since every
    state before an expanded one is expanded in both.  So a walk of at most
    d steps from the initial state takes the transitions it would take in
    the full build.  It stopped at d when states d steps away were left
    unexpanded, and at None when it is the full build.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        first = name(initial)
        names, table, order = {initial: first}, {first: initial}, [initial]
        columns: list[list] = [[] for _ in range(6)]
        cut: list = []
        sources, inputs, guards, destinations, deltas, origin = (
            column.append for column in columns)
        # order grows while it is walked: each state is expanded once
        for src in order if depth is None else _levels(order, depth, cut):
            sname = names[src]
            for inp, guard, dst, delta, o in moves(src):
                dname = names.get(dst)
                if dname is None:
                    if cap is not None and len(order) >= cap:
                        raise BuildScaleError(f"{over_cap} passed {cap} states",
                                              len(order) + 1, cap)
                    dname = names[dst] = name(dst)
                    if dname in table:
                        raise MachineError(f"state names collide: {dname!r} "
                                           f"names {table[dname]} and {dst}")
                    table[dname] = dst
                    order.append(dst)
                sources(sname)
                inputs(inp)
                guards(guard)
                destinations(dname)
                deltas(delta)
                origin(o)
        # only the name -> tuple direction outlives the build
        del names, order, sources, inputs, guards, destinations, deltas, origin
        *columns, origin = _tuples(columns, len(columns[0]))
        machine = CounterMachine.from_columns(k, alphabet, frozenset(table), first,
                                              *columns)
        return machine, table, origin, cut[0] if cut else None
    finally:
        if enabled:
            gc.enable()


def _levels(order: list, depth: int, cut: list):
    """The states of order first reached in fewer than depth steps, level
    by level, while the caller's expansion of each level appends the next
    one to order; cut gets depth when states at that depth are left."""
    start = 0
    for _ in range(depth):
        end = len(order)
        if start == end:
            return
        yield from order[start:end]
        start = end
    if len(order) > start:
        cut.append(depth)


def _tuples(columns: list[list], n: int) -> list[tuple]:
    """Each list in columns cut to its first n entries and made a tuple, in
    place.  A list is let go as soon as its tuple is made, so at most one
    column is held twice, when the caller keeps no other reference."""
    for i, column in enumerate(columns):
        del column[n:]
        columns[i] = tuple(column)
    return columns


# union: fresh initial state branching into disjoint tagged copies


_UNION_INITIAL = "u0"


def union(*sides: tuple[str, BuchiAutomaton]) -> Built:
    """Disjoint union of (tag, automaton) sides behind a fresh
    (non-accepting) initial state u0, built by one `_reach`.

    A side's state q is named tag.q; only the states u0 reaches are built.
    u0 takes each side's initial moves in side order, every other state its
    side's moves in its side's order.  The origin column holds the side
    transition each copy stands for.  params["tags"] holds the tags and
    params["index"] one map per side from its transition indices to the
    union's: u0's copies, then the tagged copies (None where none).  No
    sides, a repeated tag, or a name two sides share (tag R with state L.q,
    tag R.L with state q) is a MachineError.
    """
    automata = dict(sides)
    if not sides or len(automata) != len(sides):
        raise MachineError(f"union needs sides with distinct tags, got "
                           f"{[tag for tag, _ in sides]}")
    k, alphabet = sides[0][1].machine.k, sides[0][1].machine.alphabet
    if any(b.machine.alphabet != alphabet for b in automata.values()):
        raise MachineError("union requires equal alphabets")
    if any(b.machine.k != k for b in automata.values()):
        raise MachineError("union requires equal k; use pad_counters first")
    starts = tuple((tag, b.machine.initial) for tag, b in sides)

    def moves(src: tuple):
        # u0 moves as each side's initial state does, in side order
        for tag, q in starts if len(src) == 1 else (src,):
            for i, inp, guard, dst, delta in automata[tag].machine.leaving(q):
                yield inp, guard, (tag, dst), delta, i

    machine, table, origin, _ = _reach(k, alphabet, (_UNION_INITIAL,), moves, ".".join)
    index = {tag: ([None] * len(b.machine.transitions), [None] * len(b.machine.transitions))
             for tag, b in sides}
    for j, (source, dst, i) in enumerate(zip(machine.sources, machine.destinations,
                                             origin)):
        first, rest = index[table[dst][0]]
        (first if source == _UNION_INITIAL else rest)[i] = j
    accepting = frozenset(n for n, state in table.items()
                          if len(state) == 2 and state[1] in automata[state[0]].accepting)
    return Built(machine, accepting, source=tuple(automata.values()), table=table,
                 origin=origin, params={"tags": tuple(automata), "index": tuple(
                     tuple(map(tuple, first_rest)) for first_rest in index.values())})


def lift_run_union(u: Built, run: Run, side: int) -> Run:
    """Lift a run of u's side at position `side` (0 for the first side
    given) that starts at that side's initial state to a run of u from u0.

    The first step takes u0's copy of its transition, every later step the
    tagged copy, both read from the index map the build recorded; the
    states are retagged.  Visits to accepting states after the start carry
    over one to one.  A position outside u's sides is a ValueError.
    """
    if not 0 <= side < len(u.source):
        raise ValueError(f"side {side} is not a position in 0..{len(u.source) - 1}")
    if run.start.state != u.source[side].machine.initial:
        raise MachineError("side run must start at its machine's initial state")
    first, rest = u.params["index"][side]
    pieces = list(run._pieces)
    if pieces and pieces[0][4] > 1:
        # the first step takes u0's copy, so iteration 0 of a segment that
        # opens the run is a piece of its own
        consumed, indices, states, column, r = pieces[0]
        pieces[:1] = [(consumed, indices, states, column, 1),
                      (consumed, indices, states,
                       _later_counters(column, run.start.counters, 2), r - 1)]
    # a run revisits few states: tag each one once
    tag = u.params["tags"][side] + "."
    tagged = {q: tag + q for piece in pieces for q in set(piece[2])}
    lifted = []
    for consumed, indices, states, column, r in pieces:
        mapped = list(map(rest.__getitem__, indices))
        if not lifted:
            mapped[0] = first[indices[0]]
        if None in mapped:
            raise MachineError("side run takes a transition the union does not copy")
        lifted.append((consumed, mapped, tuple(map(tagged.__getitem__, states)),
                       column, r))
    return Run._from_pieces(Configuration(_UNION_INITIAL, run.start.counters), lifted)


# intersection with a deterministic complete 0-counter automaton


def _pair(q: str, s: str, flag: int) -> str:
    return f"{q}&{s}&{flag}"


def _det_table(d: BuchiAutomaton) -> dict[tuple[str, str], str]:
    """Validate d (k=0, deterministic, complete, real-time) and map each
    (state, letter) to its destination, read from the columns."""
    m = d.machine
    if m.k != 0:
        raise MachineError("intersection guard must have k = 0")
    if not is_real_time(m):
        raise MachineError("intersection guard must be real-time")
    table: dict[tuple[str, str], str] = {}
    for key, destination in zip(zip(m.sources, m.inputs), m.destinations):
        if key in table:
            raise MachineError(f"guard automaton nondeterministic at {key}")
        table[key] = destination
    for q in m.states:
        for a in m.alphabet:
            if (q, a) not in table:
                raise MachineError(f"guard automaton incomplete at ({q!r}, {a!r})")
    return table


def _two_flag(moves, accepting, d: BuchiAutomaton):
    """The `_reach` moves of (q, s, flag) in the two-flag Buchi product of a
    left factor, whose moves(q) and accepting(q) are given, with the
    deterministic complete guard d.  Flag 1 waits for an accepting left
    state, flag 2 for an accepting d-state; the update looks at the SOURCE
    pair, so the flag-2 states whose s is accepting are the accepting ones.
    A lambda move leaves s in place."""
    dtable = _det_table(d)

    def product(src: tuple):
        q, s, flag = src
        if flag == 1:
            nf = 2 if accepting(q) else 1
        else:
            nf = 1 if s in d.accepting else 2
        for inp, guard, dst, delta, o in moves(q):
            yield inp, guard, (dst, s if inp is None else dtable[s, inp], nf), delta, o

    return product


def intersect_det_buchi(b: BuchiAutomaton, d: BuchiAutomaton) -> Built:
    """Two-flag Buchi product of b with a deterministic complete guard d.

    States (q, s, flag), built by `_reach` from (b's initial, d's initial, 1)
    with the moves of `_two_flag`: only the triples that initial triple
    reaches are states.  Each state's transitions follow b's transition
    order.
    """
    mb, md = b.machine, d.machine
    if mb.alphabet != md.alphabet:
        raise MachineError("intersection requires equal alphabets")

    def moves(q: str):
        for i, inp, guard, dst, delta in mb.leaving(q):
            yield inp, guard, dst, delta, i

    machine, table, origin, _ = _reach(mb.k, mb.alphabet, (mb.initial, md.initial, 1),
                                       _two_flag(moves, b.accepting.__contains__, d),
                                       lambda state: _pair(*state))
    accepting = frozenset(n for n, (_, s, flag) in table.items()
                          if flag == 2 and s in d.accepting)
    return Built(machine, accepting, source=(b, d), table=table, origin=origin)


def lift_run_intersection(prod: Built, run: Run) -> Run:
    """Combine a run of prod's left factor with the unique run of its guard
    on the same word.

    The run must start at b's initial state: prod holds only the states its
    initial state reaches, so an off-initial start has no image there.
    """
    b, d = prod.source
    mb, md = b.machine, d.machine
    if run.start.state != mb.initial:
        raise MachineError(f"run starts at {run.start.state!r}, not at the "
                           f"initial state {mb.initial!r} of the product's left factor")
    walker = Walker(prod.machine,
                    Configuration(_pair(run.start.state, md.initial, 1), run.start.counters),
                    prod.origin)
    for token, index in zip(run.consumed, run.indices):
        walker.to(token, index)
    return walker.run()
