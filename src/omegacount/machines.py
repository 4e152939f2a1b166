"""Counter machines with Buchi/Muller acceptance and run validation.

A k-counter machine is a finite control plus k natural-valued counters.
Every transition carries a total guard (each coordinate tests zero or
positive) and a delta vector over {-1, 0, +1}.  The lambda input (spelled
None here, "-" in files) consumes no letter.

A machine is checked when it is made, over all its parts at once: one
join for the state and letter tokens, set inclusions for the sources,
destinations and inputs, one check per distinct (guard, delta).  Only when
one of these fails does the check run again token by token and transition
by transition, to raise the first error with its transition index.  The
(source, input) index behind `outgoing` is made on the first call, so a
machine that is only built, dumped or replayed never pays for it.  When
each source's transitions form one span, as in every machine `_reach`
builds, the index is filled one state at a time from that state's span,
so a walk indexes only the states it visits; otherwise it is built whole.

Runs are explicit certificates: a start configuration plus, per step, the
consumed token, the index of the transition used, and the resulting
configuration.  validate_run replays them against the transition relation.
Transition, Configuration and RunStep are plain slotted records, treated as
immutable and compared and hashed by their fields: a build makes a record
per edge and a lift one per step, and a frozen record costs several times
as much to build.  A run is not required to begin at the machine's initial
state; lift_run_union lifts such sub-runs.  Products and wrappers hold only
the states their initial state reaches, so lift_run_intersection lifts runs
from b's initial state alone.

`step` is the one kernel that matches guards.  A guard depends only on which
counters are positive, so `enabled` keeps step's choices on the machine per
(state, token, sign pattern), asking `step` on a miss; the engine's searches
and the Walker read them from there.

Every product and wrapper is built by one worklist, `_reach`, which names
each state tuple when it is first reached from the initial one.

Builders whose runs can be lifted return a Built: the automaton itself plus
what it was built from, the build parameters, and the structured tuple each
state name stands for.  Lifts walk that record with a Walker and never build.
A Walker takes one predicate per walk, `want(key, transition)`, and each step
passes a cheap key (a transition index, a guess).  It resolves each choice
once per (state, token, sign pattern, key) and replays it after that; an idle
segment whose transitions move no counter is replayed whole, with one record
pair per step and no lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add

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


def _tokens_ok(toks: list) -> bool:
    """Whether _check_token passes every token, tested on all at once.

    A token that is empty or has whitespace anywhere changes how the
    newline-joined text splits; one that is not a str fails the join."""
    if not all(isinstance(tok, str) for tok in toks):
        return False
    text = "\n".join(toks)
    return text.split() == toks and "#" not in text and LAMBDA_TOKEN not in toks


@dataclass(slots=True, unsafe_hash=True)
class Transition:
    """One edge: (source, input, guard, destination, delta).

    input None means lambda.  guard coordinates: 0 = counter must equal 0,
    1 = counter must be positive.  delta coordinates in {-1, 0, +1}.

    A plain slotted record like Configuration, cheaper to build than a
    frozen one: it is treated as immutable, and no code assigns a field
    after construction.  Equality and hash are by fields.
    """

    source: str
    input: str | None
    guard: tuple[int, ...]
    destination: str
    delta: tuple[int, ...]

    def matches(self, counters: tuple[int, ...]) -> bool:
        return all((c > 0) == (g == 1) for g, c in zip(self.guard, counters))


def _check_guard_delta(i: int, guard, delta, k: int) -> None:
    if len(guard) != k or len(delta) != k:
        raise MachineError(f"transition {i}: guard/delta arity != k={k}")
    for g in guard:
        if g not in (0, 1):
            raise MachineError(f"transition {i}: guard values must be 0 or 1")
    for d in delta:
        if d not in (-1, 0, 1):
            raise MachineError(f"transition {i}: delta values must be -1, 0 or +1")
    # zero-test consistency: a counter tested zero cannot decrease
    for g, d in zip(guard, delta):
        if g == 0 and d == -1:
            raise MachineError(f"transition {i}: delta -1 under a zero guard")


@dataclass
class CounterMachine:
    """Immutable after construction; validation happens in __post_init__.

    The checks run over the whole machine at once: the tokens by one join,
    sources, destinations and inputs as sets, guard and delta once per
    distinct (guard, delta).  When one of them fails, the checks run again
    token by token and transition by transition, which raise the first
    error in that order.  The (source, input) index behind `outgoing` is
    made by `outgoing`, from its first call on."""

    k: int
    alphabet: frozenset[str]
    states: frozenset[str]
    initial: str
    transitions: tuple[Transition, ...]
    # (source, input) -> indexed transitions, filled by `outgoing`
    _adj: dict = field(default=None, init=False, repr=False, compare=False)
    # source -> start of its span, for the states `outgoing` has yet to
    # index; None when the index was built whole
    _spans: dict = field(default=None, init=False, repr=False, compare=False)
    # step's choices per (state, token, sign pattern), filled by `enabled`
    _enabled: dict = field(default=None, init=False, repr=False, compare=False)
    _real_time: bool = field(default=True, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.alphabet = frozenset(self.alphabet)
        self.states = frozenset(self.states)
        self.transitions = tuple(self.transitions)
        if self.k < 0:
            raise MachineError("k must be a natural number")
        if not self.states:
            raise MachineError("state set must be nonempty")
        if not (_tokens_ok(list(self.states)) and _tokens_ok(list(self.alphabet))):
            for s in self.states:
                _check_token(s, "state id")
            for a in self.alphabet:
                _check_token(a, "letter")
        if self.initial not in self.states:
            raise MachineError(f"initial state {self.initial!r} not in states")
        self._enabled = {}
        real_time = self._check_in_bulk()
        self._real_time = self._check_each() if real_time is None else real_time

    def _check_in_bulk(self) -> bool | None:
        """Whether the machine is real-time, or None when a check fails."""
        trans, states, k = self.transitions, self.states, self.k
        try:
            if not ({t.source for t in trans} <= states
                    and {t.destination for t in trans} <= states):
                return None
            inputs = {t.input for t in trans}
            real_time = None not in inputs
            inputs.discard(None)
            if not inputs <= self.alphabet:
                return None
            # tuple() keys list guards too and returns a tuple unchanged
            for guard, delta in {(tuple(t.guard), tuple(t.delta)) for t in trans}:
                _check_guard_delta(-1, guard, delta, k)
        except (MachineError, TypeError, AttributeError):
            # _check_each says which transition fails, and how
            return None
        return real_time

    def _check_each(self) -> bool:
        """The checks one transition at a time: raises the first failure."""
        states, alphabet = self.states, self.alphabet
        shapes = set()
        real_time = True
        for i, t in enumerate(self.transitions):
            if t.source not in states:
                raise MachineError(f"transition {i}: unknown source {t.source!r}")
            if t.destination not in states:
                raise MachineError(f"transition {i}: unknown destination {t.destination!r}")
            if t.input is None:
                real_time = False
            elif t.input not in alphabet:
                raise MachineError(f"transition {i}: input {t.input!r} not in alphabet")
            # guard and delta are checked once per distinct (guard, delta)
            shape = (tuple(t.guard), tuple(t.delta))
            if shape not in shapes:
                _check_guard_delta(i, t.guard, t.delta, self.k)
                shapes.add(shape)
        return real_time

    def outgoing(self, state: str, input: str | None) -> list[tuple[int, Transition]]:
        """Indexed transitions with this exact (source, input) pair.

        The first call looks at the layout.  When each source's transitions
        form one span, the index is filled one state at a time, from that
        state's span, when the state is first asked about; otherwise the
        whole index is built at once."""
        adj = self._adj
        if adj is None:
            adj = self._adj = {}
            self._spans = self._span_starts()
            if self._spans is None:
                for i, t in enumerate(self.transitions):
                    adj.setdefault((t.source, t.input), []).append((i, t))
        spans = self._spans
        if spans is not None:
            start = spans.pop(state, None)
            if start is not None:
                transitions = self.transitions
                for i in range(start, len(transitions)):
                    t = transitions[i]
                    if t.source != state:
                        break
                    adj.setdefault((state, t.input), []).append((i, t))
        return adj.get((state, input), [])

    def _span_starts(self) -> dict[str, int] | None:
        """Where each source's span of transitions starts, or None when
        some source's transitions do not all lie in one span."""
        starts: dict[str, int] = {}
        last = None
        for i, t in enumerate(self.transitions):
            source = t.source
            if source != last:
                if source in starts:
                    return None
                starts[source] = i
                last = source
        return starts


@dataclass(slots=True, unsafe_hash=True)
class Configuration:
    """Global state (q, c1..ck).  Counters should be naturals; negative
    entries are representable so corrupt certificates can be loaded and
    rejected by validate_run rather than at parse time.

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


@dataclass(frozen=True, slots=True)
class Run:
    start: Configuration
    steps: tuple[RunStep, ...]


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
    the parameters the build fixed (`params`), and for each state name the
    structured tuple it was made from (`table`).  Equality and repr are
    those of the automaton."""

    source: object = field(default=None, repr=False)
    params: dict = field(default_factory=dict, repr=False)
    table: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True, slots=True)
class MullerAutomaton:
    machine: CounterMachine
    table: tuple[frozenset[str], ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(frozenset(f) for f in self.table))
        for f in self.table:
            if not f <= self.machine.states:
                raise MachineError("table entry must be a subset of states")


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
    out = []
    for i, t in machine.outgoing(config.state, input):
        if t.matches(config.counters):
            new = tuple(c + d for c, d in zip(config.counters, t.delta))
            out.append((i, Configuration(t.destination, new)))
    return out


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
        transitions = machine.transitions
        choices = machine._enabled[key] = tuple(
            (i, nc.state, transitions[i].delta)
            for i, nc in step(machine, Configuration(state, counters), token))
    return choices


class Walker:
    """Replays a schedule on a machine: each `to` takes the one transition
    out of the current configuration on `token` whose guard holds and, when
    a key is given, for which `want(key, transition)` holds, and records the
    step.

    The walk takes its one predicate `want` when it is made; each step names
    what it asks for by a cheap key (a transition index, a guess), and a step
    without a key takes any enabled transition.  A key passed to a walker
    without `want` is a TypeError.  The candidates are the machine's
    `enabled` entry for the state, the token and the counters' sign pattern,
    so a choice is resolved once per (state, token, sign pattern, key) and
    replayed from then on: `want` must give one verdict per (key, transition).

    `idle(token, key, n)` is n calls of `to(token, key)`.  When none of the
    transitions it takes moves a counter, the sign pattern cannot change, so
    the segment of (index, destination) pairs is kept per (state, token,
    sign pattern, key, n) and replayed whole over the same counters.
    """

    def __init__(self, machine: CounterMachine, start: Configuration, want=None):
        self.machine = machine
        self.start = start
        self.cfg = start
        self.steps: list[RunStep] = []
        self._want = want
        self._chosen: dict[tuple, tuple[int, str, tuple[int, ...]]] = {}
        self._segments: dict[tuple, list[tuple[int, str]]] = {}

    def _check_key(self, key) -> None:
        if key is not None and self._want is None:
            raise TypeError("Walker: a key needs the walk's want")

    def to(self, token: str | None, key=None) -> None:
        cfg = self.cfg
        state, counters = cfg.state, cfg.counters
        # whether a guard holds depends only on the counters' sign pattern
        choice = (state, token, tuple([c > 0 for c in counters]), key)
        chosen = self._chosen.get(choice)
        if chosen is None:
            self._check_key(key)
            transitions, want = self.machine.transitions, self._want
            cands = [c for c in enabled(self.machine, state, token, counters)
                     if key is None or want(key, transitions[c[0]])]
            if len(cands) != 1:
                raise MachineError(
                    f"walk broke at {state!r} on {token!r} after "
                    f"{len(self.steps)} steps: {len(cands)} candidate transitions")
            chosen = self._chosen[choice] = cands[0]
        i, destination, delta = chosen
        self.cfg = cfg = Configuration(destination, tuple(map(add, counters, delta)))
        self.steps.append(RunStep(token, i, cfg))

    def idle(self, token: str | None, key, n: int) -> None:
        self._check_key(key)
        cfg, steps = self.cfg, self.steps
        counters = cfg.counters
        where = (cfg.state, token, tuple([c > 0 for c in counters]), key, n)
        segment = self._segments.get(where)
        if segment is not None:
            steps += [RunStep(token, i, Configuration(destination, counters))
                      for i, destination in segment]
            if segment:
                self.cfg = steps[-1].result
            return
        first = len(steps)
        for _ in range(n):
            self.to(token, key)
        # a 0.0 delta leaves the counters equal but makes them floats for
        # good; the walk above did so already, and the memo is this walk's,
        # so a replay over the counters as they stand stays exact
        transitions = self.machine.transitions
        taken = steps[first:]
        if not any(any(transitions[s.transition_index].delta) for s in taken):
            self._segments[where] = [(s.transition_index, s.result.state)
                                     for s in taken]

    def run(self) -> Run:
        return Run(self.start, tuple(self.steps))


def validate_run(machine: CounterMachine, word: list[str] | tuple[str, ...] | str,
                 run: Run) -> RunViolation | None:
    """None iff the run is a legal complete run over exactly `word`.

    Checks, per step: transition index in range, source matches, consumed
    token matches the transition, guard satisfied, counters stay natural,
    result equals source configuration plus delta.  Finally the projection
    of consumed letters must equal the word with nothing left over.
    """
    word = list(word)
    if len(run.start.counters) != machine.k:
        return RunViolation(-1, "arity", f"start has {len(run.start.counters)} counters, machine k={machine.k}")
    if any(c < 0 for c in run.start.counters):
        return RunViolation(-1, "negative-counter", "start configuration")
    if run.start.state not in machine.states:
        return RunViolation(-1, "source", f"unknown state {run.start.state!r}")
    transitions = machine.transitions
    n_trans, n_word = len(transitions), len(word)
    # the current configuration is natural (the start was checked, and each
    # result is checked before it becomes current), so bool(c) is c > 0
    state, counters = run.start.state, run.start.counters
    pos = 0
    for i, s in enumerate(run.steps):
        # each step's fields are read once
        consumed, idx, result = s.consumed, s.transition_index, s.result
        got_state, got = result.state, result.counters
        if not (0 <= idx < n_trans):
            return RunViolation(i, "index", f"transition index {idx} out of range")
        t = transitions[idx]
        if t.source != state:
            return RunViolation(i, "source", f"transition {idx} leaves {t.source!r}, run is at {state!r}")
        if consumed != t.input:
            return RunViolation(i, "input", f"recorded {consumed!r}, transition reads {t.input!r}")
        # equal to the sign pattern implies matches; anything else (a list
        # guard, or a real mismatch) is settled by matches itself
        if t.guard != tuple(map(bool, counters)) and not t.matches(counters):
            return RunViolation(i, "guard", f"guard {t.guard} vs counters {counters}")
        if got and min(got) < 0:
            return RunViolation(i, "negative-counter", f"result {got}")
        expected = tuple(map(add, counters, t.delta))
        if got_state != t.destination:
            return RunViolation(i, "destination", f"recorded {got_state!r}, transition enters {t.destination!r}")
        if got != expected:
            return RunViolation(i, "delta", f"recorded {got}, expected {expected}")
        if consumed is not None:
            if pos >= n_word or word[pos] != consumed:
                return RunViolation(i, "projection", f"letter {consumed!r} at word position {pos}")
            pos += 1
        state, counters = got_state, got
    if pos != n_word:
        return RunViolation(len(run.steps), "projection", f"run consumed {pos} of {n_word} letters")
    return None


def is_real_time(machine: CounterMachine) -> bool:
    """No lambda transitions (recorded when the machine was built)."""
    return machine._real_time


def lambda_burst_bound(machine: CounterMachine) -> int | float:
    """Longest chain of consecutive lambda-transitions in the transition
    graph, counters ignored (over-approximation); math.inf on a lambda cycle.
    """
    succ: dict[str, list[str]] = {}
    indeg: dict[str, int] = {}
    for t in machine.transitions:
        if t.input is None:
            succ.setdefault(t.source, []).append(t.destination)
            indeg[t.destination] = indeg.get(t.destination, 0) + 1
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
    return n + sum(1 for s in run.steps if s.result.state in accepting)


def pad_counters(machine: CounterMachine, new_k: int) -> CounterMachine:
    """Append always-zero counters (guard zero, delta 0) up to new_k."""
    if new_k < machine.k:
        raise MachineError(f"cannot pad k={machine.k} down to {new_k}")
    if new_k == machine.k:
        return machine
    extra = new_k - machine.k
    gpad = (0,) * extra
    dpad = (0,) * extra
    trans = tuple(
        Transition(t.source, t.input, t.guard + gpad, t.destination, t.delta + dpad)
        for t in machine.transitions)
    return CounterMachine(new_k, machine.alphabet, machine.states, machine.initial, trans)


def pad_run(run: Run, new_k: int) -> Run:
    """Lift a run into the pad_counters image (extra coordinates stay 0)."""
    extra_old = len(run.start.counters)
    pad = (0,) * (new_k - extra_old)
    start = Configuration(run.start.state, run.start.counters + pad)
    steps = tuple(
        RunStep(s.consumed, s.transition_index,
                Configuration(s.result.state, s.result.counters + pad))
        for s in run.steps)
    return Run(start, steps)


# products and wrappers: one worklist over the reachable state tuples


def _reach(k: int, alphabet, initial: tuple, moves, name, cap: int | None = None,
           over_cap: str = "product") -> tuple[CounterMachine, dict[str, tuple]]:
    """The machine of the state tuples `initial` reaches, and its name ->
    tuple table.

    States are expanded breadth first, so each state's transitions form one
    span, which `outgoing` indexes on demand.  moves(state) yields (input,
    guard, destination tuple, delta) per edge, in a fixed order: run files
    cite transitions by index, so the order must not depend on set
    iteration.
    name(state) names a tuple when it is first reached; two tuples with one
    name are a MachineError, and reaching more than `cap` states is a
    BuildScaleError.
    """
    first = name(initial)
    names, table, order = {initial: first}, {first: initial}, [initial]
    trans: list[Transition] = []
    # order grows while it is walked: each state is expanded once
    for src in order:
        sname = names[src]
        for inp, guard, dst, delta in moves(src):
            dname = names.get(dst)
            if dname is None:
                if cap is not None and len(order) >= cap:
                    raise BuildScaleError(f"{over_cap} passed {cap} states",
                                          len(order) + 1, cap)
                dname = names[dst] = name(dst)
                if dname in table:
                    raise MachineError("product state names collide: a state "
                                       "name of one factor contains '&'")
                table[dname] = dst
                order.append(dst)
            trans.append(Transition(sname, inp, guard, dname, delta))
    del names, order  # only the name -> tuple direction outlives the build
    machine = CounterMachine(k, alphabet, frozenset(table), first, tuple(trans))
    return machine, table


def _leaving(machine: CounterMachine) -> dict[str, list[Transition]]:
    """Each state's outgoing transitions, in index order."""
    out: dict[str, list[Transition]] = {}
    for t in machine.transitions:
        out.setdefault(t.source, []).append(t)
    return out


# union: fresh initial state branching into disjoint tagged copies


def _tag(side: str, state: str) -> str:
    return f"{side}.{state}"


_UNION_INITIAL = "u0"


def union(b1: BuchiAutomaton, b2: BuchiAutomaton) -> Built:
    """Disjoint union behind a fresh (non-accepting) initial state.

    Transition layout: b1's transitions tagged L, then b2's tagged R, then
    branch copies of each side's initial-outgoing transitions re-sourced to
    the fresh initial.  lift_run_union depends on this layout.
    """
    m1, m2 = b1.machine, b2.machine
    if m1.alphabet != m2.alphabet:
        raise MachineError("union requires equal alphabets")
    if m1.k != m2.k:
        raise MachineError("union requires equal k; use pad_counters first")
    states = {_UNION_INITIAL}
    states.update(_tag("L", s) for s in m1.states)
    states.update(_tag("R", s) for s in m2.states)
    trans: list[Transition] = []
    for t in m1.transitions:
        trans.append(Transition(_tag("L", t.source), t.input, t.guard, _tag("L", t.destination), t.delta))
    for t in m2.transitions:
        trans.append(Transition(_tag("R", t.source), t.input, t.guard, _tag("R", t.destination), t.delta))
    for t in m1.transitions:
        if t.source == m1.initial:
            trans.append(Transition(_UNION_INITIAL, t.input, t.guard, _tag("L", t.destination), t.delta))
    for t in m2.transitions:
        if t.source == m2.initial:
            trans.append(Transition(_UNION_INITIAL, t.input, t.guard, _tag("R", t.destination), t.delta))
    machine = CounterMachine(m1.k, m1.alphabet, frozenset(states), _UNION_INITIAL, tuple(trans))
    accepting = {_tag("L", s) for s in b1.accepting} | {_tag("R", s) for s in b2.accepting}
    return Built(machine, frozenset(accepting), source=(b1, b2))


def lift_run_union(b1: BuchiAutomaton, b2: BuchiAutomaton, run: Run, side: str) -> Run:
    """Retag a run of b1 (side="left") or b2 ("right") into union(b1, b2).

    Pure retagging: the lifted run starts at the tagged copy of the original
    start state, so visit counts are preserved exactly.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    tag = "L" if side == "left" else "R"
    offset = 0 if side == "left" else len(b1.machine.transitions)
    # a run revisits few states: tag each one once
    tagged: dict[str, str] = {}

    def retag(cfg: Configuration) -> Configuration:
        name = tagged.get(cfg.state)
        if name is None:
            name = tagged[cfg.state] = _tag(tag, cfg.state)
        return Configuration(name, cfg.counters)

    steps = tuple(RunStep(s.consumed, s.transition_index + offset, retag(s.result))
                  for s in run.steps)
    return Run(retag(run.start), steps)


# intersection with a deterministic complete 0-counter automaton


def _pair(q: str, s: str, flag: int) -> str:
    return f"{q}&{s}&{flag}"


def _det_table(d: BuchiAutomaton) -> dict[tuple[str, str], tuple[int, Transition]]:
    """Validate d (k=0, deterministic, complete, real-time) and index it."""
    m = d.machine
    if m.k != 0:
        raise MachineError("intersection guard must have k = 0")
    if not is_real_time(m):
        raise MachineError("intersection guard must be real-time")
    table: dict[tuple[str, str], tuple[int, Transition]] = {}
    for i, t in enumerate(m.transitions):
        key = (t.source, t.input)
        if key in table:
            raise MachineError(f"guard automaton nondeterministic at {key}")
        table[key] = (i, t)
    for q in m.states:
        for a in m.alphabet:
            if (q, a) not in table:
                raise MachineError(f"guard automaton incomplete at ({q!r}, {a!r})")
    return table


def intersect_det_buchi(b: BuchiAutomaton, d: BuchiAutomaton) -> Built:
    """Two-flag Buchi product of b with a deterministic complete guard d.

    States (q, s, flag), built by `_reach` from (b's initial, d's initial, 1):
    only the triples that initial triple reaches are states.  Flag 1 waits
    for an accepting b-state, flag 2 for an accepting d-state; the update
    looks at the SOURCE pair, so acceptance is read off the flag-2 states
    whose guard component is accepting.  b's lambda-transitions leave the
    guard component in place.  Each state's transitions follow b's
    transition order.
    """
    mb, md = b.machine, d.machine
    if mb.alphabet != md.alphabet:
        raise MachineError("intersection requires equal alphabets")
    dtable = _det_table(d)
    leaving = _leaving(mb)

    def moves(src: tuple[str, str, int]):
        q, s, flag = src
        nf = _next_flag(b, d, q, s, flag)
        for t in leaving.get(q, ()):
            s2 = s if t.input is None else dtable[(s, t.input)][1].destination
            yield t.input, t.guard, (t.destination, s2, nf), t.delta

    machine, table = _reach(mb.k, mb.alphabet, (mb.initial, md.initial, 1),
                            moves, lambda state: _pair(*state))
    accepting = frozenset(n for n, (_, s, flag) in table.items()
                          if flag == 2 and s in d.accepting)
    return Built(machine, accepting, source=(b, d), table=table)


def _next_flag(b: BuchiAutomaton, d: BuchiAutomaton, q: str, s: str, flag: int) -> int:
    if flag == 1:
        return 2 if q in b.accepting else 1
    return 1 if s in d.accepting else 2


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

    def want(index: int, u: Transition) -> bool:
        # the product state u leaves holds the guard component and the flag
        t = mb.transitions[index]
        _, s, flag = prod.table[u.source]
        s2 = s if u.input is None else md.outgoing(s, u.input)[0][1].destination
        return (u.delta == t.delta and prod.table[u.destination]
                == (t.destination, s2, _next_flag(b, d, t.source, s, flag)))

    walker = Walker(prod.machine,
                    Configuration(_pair(run.start.state, md.initial, 1), run.start.counters),
                    want)
    for st in run.steps:
        walker.to(st.consumed, st.transition_index)
    return walker.run()


# Muller to Buchi: guess a table entry, remember the visited subset


def muller_to_buchi(m: MullerAutomaton) -> BuchiAutomaton:
    """Guess-the-entry construction.

    Copy mode mirrors the machine.  On any transition whose destination lies
    in table entry F_i the run may commit to F_i; committed mode only allows
    destinations inside F_i and accumulates them, resetting (through an
    accepting state) whenever the accumulated subset completes F_i.  Only
    the copy states and committed (state, entry, subset) triples that the
    initial copy state reaches are built, by `_reach`.
    Real-time inputs give real-time outputs: every added transition consumes
    exactly what its underlying transition consumes.
    """
    mm = m.machine
    leaving = _leaving(mm)

    def enter(q: str, fi: int, mask: frozenset[str]) -> tuple:
        nm = mask | {q}
        return ("m", q, fi, frozenset() if nm == m.table[fi] else nm)

    def moves(src: tuple):
        out = leaving.get(src[1], ())
        if src[0] == "c":
            for t in out:
                yield t.input, t.guard, ("c", t.destination), t.delta
            commits = [(fi, frozenset()) for fi in range(len(m.table))]
        else:
            commits = [src[2:]]
        for fi, mask in commits:
            for t in out:
                if t.destination in m.table[fi]:
                    yield t.input, t.guard, enter(t.destination, fi, mask), t.delta

    def name(state: tuple) -> str:
        if state[0] == "c":
            return f"c&{state[1]}"
        _, q, fi, mask = state
        return f"m&{q}&{fi}&" + ",".join(sorted(mask))

    machine, table = _reach(mm.k, mm.alphabet, ("c", mm.initial), moves, name)
    accepting = frozenset(n for n, state in table.items()
                          if state[0] == "m" and not state[3])
    return BuchiAutomaton(machine, accepting)
