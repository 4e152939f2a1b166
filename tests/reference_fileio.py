"""Reference loaders, dumpers and machine checks for the differential tests.

These are the straightforward versions that `omegacount.fileio` and the
`CounterMachine` constructor replaced: every line is split before parsing
starts, every guard, delta and counter token is parsed where it stands, every
transition's guard and delta are checked on their own, whitespace in a name
is found one character at a time, and the run writer spells every step of
the run's expansion on its own.  They must keep behaving as they do
here; the fast paths are tested against them.
"""

from omegacount.errors import FormatError
from omegacount.fileio import WordSpec
from omegacount.machines import (LAMBDA_TOKEN, BuchiAutomaton, Configuration,
                                 CounterMachine, MachineError, Run, RunStep,
                                 Transition)
from omegacount.words import HCoding, LassoWord, PhiCoding, ThetaCoding


def check_token(tok, what):
    if not isinstance(tok, str) or not tok:
        raise MachineError(f"{what} must be a nonempty string, got {tok!r}")
    if tok == LAMBDA_TOKEN:
        raise MachineError(f"{what} {tok!r} is reserved for the lambda input")
    if any(c.isspace() for c in tok) or "#" in tok:
        raise MachineError(f"{what} {tok!r} not serializable (whitespace or '#')")


def check_machine(k, alphabet, states, initial, transitions):
    """Raise what the CounterMachine constructor raises for these fields;
    return the (source, input) -> [(index, transition)] adjacency."""
    alphabet, states = frozenset(alphabet), frozenset(states)
    transitions = tuple(transitions)
    if k < 0:
        raise MachineError("k must be a natural number")
    if not states:
        raise MachineError("state set must be nonempty")
    for s in states:
        check_token(s, "state id")
    for a in alphabet:
        check_token(a, "letter")
    if initial not in states:
        raise MachineError(f"initial state {initial!r} not in states")
    for i, t in enumerate(transitions):
        if t.source not in states:
            raise MachineError(f"transition {i}: unknown source {t.source!r}")
        if t.destination not in states:
            raise MachineError(f"transition {i}: unknown destination {t.destination!r}")
        if t.input is not None and t.input not in alphabet:
            raise MachineError(f"transition {i}: input {t.input!r} not in alphabet")
        if len(t.guard) != k or len(t.delta) != k:
            raise MachineError(f"transition {i}: guard/delta arity != k={k}")
        for g in t.guard:
            if g not in (0, 1):
                raise MachineError(f"transition {i}: guard values must be 0 or 1")
        for d in t.delta:
            if d not in (-1, 0, 1):
                raise MachineError(f"transition {i}: delta values must be -1, 0 or +1")
        for g, d in zip(t.guard, t.delta):
            if g == 0 and d == -1:
                raise MachineError(f"transition {i}: delta -1 under a zero guard")
    adj = {}
    for i, t in enumerate(transitions):
        adj.setdefault((t.source, t.input), []).append((i, t))
    return adj


def _lines(text):
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((no, body.split()))
    return out


def _int(tok, no, what):
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{what}: expected an integer, got {tok!r}", no) from None


def load_automaton(text):
    k = None
    alphabet = None
    states = None
    initial = None
    accepting = None
    trans = []
    for no, toks in _lines(text):
        head, rest = toks[0], toks[1:]
        if head == "kcounters":
            if len(rest) != 1:
                raise FormatError("kcounters takes one value", no)
            k = _int(rest[0], no, "kcounters")
        elif head == "alphabet":
            alphabet = rest
        elif head == "states":
            states = rest
        elif head == "initial":
            if len(rest) != 1:
                raise FormatError("initial takes one state id", no)
            initial = rest[0]
        elif head == "accepting":
            if accepting is not None:
                raise FormatError("duplicate accepting line", no)
            accepting = rest
        elif head == "trans":
            if k is None:
                raise FormatError("trans before kcounters", no)
            need = 4 + k
            if len(rest) != need:
                raise FormatError(f"trans needs {need} fields for k={k}, got {len(rest)}", no)
            src, letter, guardbits, dst = rest[0], rest[1], rest[2], rest[3]
            input = None if letter == LAMBDA_TOKEN else letter
            if k == 0:
                if guardbits != "-":
                    raise FormatError('guardbits must be "-" when k = 0', no)
                guard = ()
            else:
                if len(guardbits) != k or any(c not in "01" for c in guardbits):
                    raise FormatError(f"guardbits must be {k} chars over 0/1", no)
                guard = tuple(int(c) for c in guardbits)
            delta = []
            for tok in rest[4:]:
                d = _int(tok, no, "delta")
                if d not in (-1, 0, 1):
                    raise FormatError(f"delta {tok!r} outside -1/0/+1", no)
                delta.append(d)
            trans.append(Transition(src, input, guard, dst, tuple(delta)))
        else:
            raise FormatError(f"unknown directive {head!r}", no)
    if k is None or states is None or initial is None:
        raise FormatError("missing kcounters, states, or initial")
    try:
        check_machine(k, alphabet or (), states, initial, trans)
    except MachineError as e:
        raise FormatError(str(e)) from e
    machine = CounterMachine(k, frozenset(alphabet or ()), frozenset(states),
                             initial, tuple(trans))
    if accepting is None:
        raise FormatError("missing accepting line")
    return BuchiAutomaton(machine, frozenset(accepting))


def _join(head, toks):
    toks = list(toks)
    return head + (" " + " ".join(toks) if toks else "")


def dump_automaton(aut):
    m = aut.machine
    lines = [f"kcounters {m.k}",
             _join("alphabet", sorted(m.alphabet)),
             _join("states", sorted(m.states)),
             f"initial {m.initial}"]
    lines.append(_join("accepting", sorted(aut.accepting)))
    for t in m.transitions:
        guardbits = "-" if m.k == 0 else "".join(str(g) for g in t.guard)
        letter = LAMBDA_TOKEN if t.input is None else t.input
        toks = [t.source, letter, guardbits, t.destination] + [str(d) for d in t.delta]
        lines.append(_join("trans", toks))
    return "\n".join(lines) + "\n"


def _parse_coding(tag, no):
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


def load_word(text):
    outer_first = []
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
        else:
            raise FormatError(f"unknown directive {head!r}", no)
    if lasso is None:
        raise FormatError("missing lasso line")
    return WordSpec(lasso, tuple(reversed(outer_first)), prefix)


def load_run(text):
    start = None
    steps = []
    for no, toks in _lines(text):
        head, rest = toks[0], toks[1:]
        if head == "start":
            if start is not None:
                raise FormatError("duplicate start line", no)
            if not rest:
                raise FormatError("start needs a state", no)
            start = Configuration(rest[0], tuple(_int(t, no, "counter") for t in rest[1:]))
        elif head == "step":
            if start is None:
                raise FormatError("step before start", no)
            if len(rest) < 3:
                raise FormatError("step needs letter, index, state, counters", no)
            letter = None if rest[0] == LAMBDA_TOKEN else rest[0]
            idx = _int(rest[1], no, "transition index")
            cfg = Configuration(rest[2], tuple(_int(t, no, "counter") for t in rest[3:]))
            steps.append(RunStep(letter, idx, cfg))
        else:
            raise FormatError(f"unknown directive {head!r}", no)
    if start is None:
        raise FormatError("missing start line")
    return Run(start, tuple(steps))


def dump_run(run):
    return "".join(_run_lines(run))


def _run_lines(run):
    yield _join("start", [run.start.state] + [str(c) for c in run.start.counters]) + "\n"
    for token, index, state, counters in zip(run.consumed, run.indices,
                                             run.states, run.counters):
        letter = LAMBDA_TOKEN if token is None else token
        yield _join("step", [letter, str(index), state] + [str(c) for c in counters]) + "\n"
