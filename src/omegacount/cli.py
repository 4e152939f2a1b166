"""Command line front end.

Subcommands mirror the library: `build` runs one constructor, checks the
target's shape claims, and writes the automaton file; `lift` builds the
stage's automaton once and turns a source run into a certificate run on
it.  A theta lift builds the realtime8 acceptor only as deep as its walk:
the breadth-first prefix of the full build, with its state names and
transition indices, so the certificate checks against the file `build
realtime8` writes.  `word encode`, `run check`, `explore`, `lasso-member`,
and `bench queue-bounds` cover word coding, run validation, prefix
reachability, lasso membership, and the queue cost table.  Exit code
0 means success, 1 a negative verdict from a check, 2 a usage or input
error.
"""

from __future__ import annotations

import argparse
import itertools
import mmap
import random
import sys
from collections.abc import Iterable

from .engine import bounded_explore, exact_prefix_reach, nba_lasso_member
from .errors import FormatError
from .fileio import (_BATCH, _automaton_lines, _run_lines, load_automaton,
                     load_run, load_word)
from .machines import (BuchiAutomaton, MachineError, RunViolation, buchi_visit_count,
                       is_real_time, run_word, validate_run)
from .storage import (add_rear_bound, front_bound, queue_add_rear,
                      queue_empty, queue_front, queue_remove_front)
from .constructions import (build_h_complement, build_phi_wrapper,
                            build_realtime8, build_script_L,
                            build_theta_acceptor, checked_pad_factor,
                            compose_pipeline, lift_run_phi, lift_run_pipeline,
                            lift_run_script_L, lift_run_theta,
                            theta_walk_length, wadge_sum)


def _letters(spec: str) -> list[str]:
    return [t for t in spec.split(",") if t]


def _primes(spec: str) -> tuple[int, ...]:
    return tuple(int(t) for t in spec.split(",") if t)


def _read(path: str) -> str:
    """The text of a UTF-8 file.  A regular file is decoded from a read-only
    map of it, so a large file is not held a second time as bytes while it
    is decoded; an empty file or a pipe, which cannot be mapped, is read.
    Line endings are kept as they are: every loader splits lines as
    str.splitlines does, so "\r\n" and "\r" read as "\n" would."""
    with open(path, "rb") as fh:
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return fh.read().decode("utf-8")
        with mapped:
            return str(mapped, "utf-8")


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write the lines one by one to stdout, or to the file out, so a large
    output is never held whole."""
    if out is None:
        sys.stdout.writelines(lines)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def _buchi(path: str) -> BuchiAutomaton:
    return load_automaton(_read(path))


# shape claims checked before writing: (counters, real-time).  The structural
# checks already ran when the builder constructed its CounterMachine.
_SHAPE = {
    "theta-acceptor": (2, None),
    "realtime8": (8, True),
    "script-l": (1, None),
    "h-complement": (1, True),
    "phi-wrapper": (None, True),
    "pipeline": (1, True),
    "wadge-sum": (None, None),
}


def _check_shape(target: str, b: BuchiAutomaton) -> None:
    m = b.machine
    want_k, want_rt = _SHAPE[target]
    if want_k is not None and m.k != want_k:
        raise MachineError(f"{target} output has k={m.k}, expected {want_k}")
    if want_rt and not is_real_time(m):
        raise MachineError(f"{target} output is not real-time")


def _construct(target: str, args):
    """Run the constructor of a build target on the arguments; pipeline
    gives its PipelineOutput.  build and lift both build through here."""
    if target == "theta-acceptor":
        if args.S is None or not args.sigma:
            raise MachineError("theta-acceptor needs --sigma and --S")
        return build_theta_acceptor(frozenset(_letters(args.sigma)), args.S)
    if target == "h-complement":
        if not args.sigma or not args.primes:
            raise MachineError("h-complement needs --sigma and --primes")
        return build_h_complement(frozenset(_letters(args.sigma)), _primes(args.primes))
    if target == "wadge-sum":
        if not (args.input and args.input2 and args.input3):
            raise MachineError("wadge-sum needs --input, --input2 and --input3")
        return wadge_sum(_buchi(args.input), _buchi(args.input2), _buchi(args.input3),
                         frozenset(_letters(args.plus)), frozenset(_letters(args.minus)))
    if not args.input:
        raise MachineError(f"{target} needs --input")
    if target in ("script-l", "pipeline") and not args.primes:
        raise MachineError(f"{target} needs --primes")
    if target == "phi-wrapper" and args.S is None:
        raise MachineError("phi-wrapper needs --S (the filler count)")
    a = _buchi(args.input)
    if target == "realtime8":
        return build_realtime8(a, S_override=args.S)
    if target == "script-l":
        return build_script_L(a, _primes(args.primes))
    if target == "phi-wrapper":
        return build_phi_wrapper(a, args.S)
    return compose_pipeline(a, _primes(args.primes))


def _cmd_build(args) -> int:
    target = args.target
    b = _construct(target, args)
    if target == "realtime8":
        print(f"S {b.params['S']}", file=sys.stderr)
    elif target == "pipeline":
        for name, params, _ in b.provenance:
            print(f"stage {name} {params}", file=sys.stderr)
        b = b.automaton
    _check_shape(target, b)
    _emit(_automaton_lines(b), args.output)
    return 0


# the build target each lift stage walks, and its lift
_LIFTS = {
    "theta": ("realtime8", lift_run_theta),
    "script-l": ("script-l", lift_run_script_L),
    "phi": ("phi-wrapper", lift_run_phi),
    "pipeline": ("pipeline", lift_run_pipeline),
}


def _theta_prefix(args, run):
    """The realtime8 acceptor built as deep as the theta lift of run walks,
    after the refusals of the full build and of the lift's prefix length."""
    a = _buchi(args.input)
    s_eff = checked_pad_factor(a, args.S)
    return build_realtime8(a, s_eff, depth=theta_walk_length(
        s_eff, len(run.steps), args.prefix_len))


def _cmd_lift(args) -> int:
    run = load_run(_read(args.run))
    target, lift = _LIFTS[args.stage]
    built = _theta_prefix(args, run) if target == "realtime8" \
        else _construct(target, args)
    cert = lift(built, run, prefix_len=args.prefix_len)
    header = (f"# block {b.index} {b.start} {b.end}\n" for b in cert.blocks)
    _emit(itertools.chain(header, _run_lines(cert.run)), args.output)
    return 0


def _word_length(args, missing: str):
    """The word file's spec and --n, or the length its prefix directive
    gives; `missing` is the error when neither is there."""
    spec = load_word(_read(args.word))
    if args.n is not None and args.n < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    n = args.n if args.n is not None else spec.prefix
    if n is None:
        raise MachineError(missing)
    return spec, n


def _spelled(runs) -> Iterable[str]:
    """The letters of (pattern, count) runs, space-separated and ended by a
    newline, a batch of at most _BATCH patterns at a time."""
    first = True
    for pattern, count in runs:
        unit = " " + " ".join(pattern)
        while count:
            k = min(count, _BATCH)
            chunk = unit * k
            yield chunk[1:] if first else chunk
            first = False
            count -= k
    yield "\n"


def _cmd_word_encode(args) -> int:
    spec, n = _word_length(args, "word encode needs --n or a prefix directive in the file")
    _emit(_spelled(spec.prefix_runs(n)), args.output)
    return 0


def _cmd_run_check(args) -> int:
    b = _buchi(args.input)
    run = load_run(_read(args.run))
    # the run is read by its pieces: its word as runs, its visits per piece
    word = run_word(run)
    read = sum(len(p) * r for p, r in word)
    if args.word:
        spec, n = _word_length(args, "--word needs --n or a prefix directive")
        # the run reads only its letters, so no more of the word is made
        word = spec.prefix_runs(min(n, read))
    bad = validate_run(b.machine, word, run)
    if bad is None and args.word and n > read:
        bad = RunViolation(len(run.steps), "projection", f"run consumed {read} of {n} letters")
    if bad is None:
        visits = buchi_visit_count(run, b.accepting) - (run.start.state in b.accepting)
        print(f"ok {len(run.steps)} steps {visits} accepting visits")
        return 0
    print(f"violation {bad}")
    return 1


def _cmd_explore(args) -> int:
    b = _buchi(args.input)
    spec, n = _word_length(args, "explore needs --n or a prefix directive")
    runs = spec.prefix_runs(n)
    r = (exact_prefix_reach(b, runs) if args.lambda_budget is None
         else bounded_explore(b, runs, args.lambda_budget))
    final = len(r.frontiers[-1])
    empty = r.first_empty_position()
    print(f"letters {n} final {final} configurations "
          f"max-visits {r.max_visits() if final else '-'} "
          f"first-empty {'-' if empty is None else empty}"
          f"{' (capped)' if r.capped else ''}")
    return 0 if final else 1


def _cmd_lasso_member(args) -> int:
    b = _buchi(args.input)
    spec = load_word(_read(args.word))
    if spec.chain:
        raise MachineError("lasso-member takes a plain lasso, not a coded word")
    verdict = nba_lasso_member(b, spec.lasso)
    print("member" if verdict else "non-member")
    return 0 if verdict else 1


def _cmd_bench_queue(args) -> int:
    if args.ops < 0:
        raise ValueError(f"--ops must be nonnegative, got {args.ops}")
    rng = random.Random(args.seed)
    k = args.k
    q = queue_empty(k)
    rows = []
    for _ in range(args.ops):
        m = len(q.content)
        if m and rng.random() < 0.4:
            before = q.step_count
            _, q = queue_remove_front(q)
            rows.append(("remove", m, q.step_count - before, front_bound(m, k)))
        else:
            r = rng.randrange(2, k)
            before = q.step_count
            q = queue_add_rear(q, r)
            rows.append(("add", m, q.step_count - before, add_rear_bound(m, k)))
        if q.content:
            m = len(q.content)
            before = q.step_count
            _, q = queue_front(q)
            rows.append(("front", m, q.step_count - before, front_bound(m, k)))
    print("op m cost bound slack")
    worst = 0.0
    for op, m, cost, bound in rows:
        print(f"{op} {m} {cost} {bound} {bound - cost}")
        worst = max(worst, cost / bound)
        if cost > bound:
            print(f"BOUND EXCEEDED for {op} at m={m}")
            return 1
    print(f"worst-ratio {worst:.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="omegacount")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="run one constructor")
    b.add_argument("target", choices=["theta-acceptor", "realtime8", "script-l",
                                      "h-complement", "phi-wrapper", "pipeline",
                                      "wadge-sum"])
    b.add_argument("--input", help="input automaton file")
    b.add_argument("--input2", help="second automaton (wadge-sum)")
    b.add_argument("--input3", help="complement automaton (wadge-sum)")
    b.add_argument("--sigma", default="", help="comma-separated letters")
    b.add_argument("--primes", default="", help="comma-separated primes")
    b.add_argument("--S", type=int, help="numeric parameter: pad factor, "
                   "override, or filler count depending on the target")
    b.add_argument("--plus", default="", help="plus switch letters (wadge-sum)")
    b.add_argument("--minus", default="", help="minus switch letters (wadge-sum)")
    b.add_argument("--skip-stage1", action="store_true",
                   help="accepted and ignored: the pipeline is stages 2-3")
    b.add_argument("-o", "--output")
    b.set_defaults(fn=_cmd_build)

    l = sub.add_parser("lift", help="lift a run to a coded-word certificate")
    l.add_argument("--stage", required=True,
                   choices=["theta", "script-l", "phi", "pipeline"])
    l.add_argument("--input", required=True, help="source automaton file")
    l.add_argument("--run", required=True, help="source run file")
    l.add_argument("--prefix-len", type=int)
    l.add_argument("--primes", default="")
    l.add_argument("--S", type=int)
    l.add_argument("--skip-stage1", action="store_true")
    l.add_argument("-o", "--output")
    l.set_defaults(fn=_cmd_lift)

    w = sub.add_parser("word", help="word file utilities")
    wsub = w.add_subparsers(dest="wordcmd", required=True)
    we = wsub.add_parser("encode", help="print a coded prefix of a word file")
    we.add_argument("--word", required=True)
    we.add_argument("--n", type=int)
    we.add_argument("-o", "--output")
    we.set_defaults(fn=_cmd_word_encode)

    r = sub.add_parser("run", help="run file utilities")
    rsub = r.add_subparsers(dest="runcmd", required=True)
    rc = rsub.add_parser("check", help="validate a run file against an automaton")
    rc.add_argument("--input", required=True)
    rc.add_argument("--run", required=True)
    rc.add_argument("--word")
    rc.add_argument("--n", type=int)
    rc.set_defaults(fn=_cmd_run_check)

    e = sub.add_parser("explore", help="reachability along a coded prefix")
    e.add_argument("--input", required=True)
    e.add_argument("--word", required=True)
    e.add_argument("--n", type=int)
    e.add_argument("--lambda-budget", type=int,
                   help="budgeted closure for machines with lambda moves")
    e.set_defaults(fn=_cmd_explore)

    m = sub.add_parser("lasso-member", help="exact lasso membership (k = 0)")
    m.add_argument("--input", required=True)
    m.add_argument("--word", required=True)
    m.set_defaults(fn=_cmd_lasso_member)

    bench = sub.add_parser("bench", help="cost benchmarks")
    bsub = bench.add_subparsers(dest="benchcmd", required=True)
    bq = bsub.add_parser("queue-bounds", help="queue step costs against the bounds")
    bq.add_argument("--k", type=int, default=4)
    bq.add_argument("--ops", type=int, default=30)
    bq.add_argument("--seed", type=int, required=True)
    bq.set_defaults(fn=_cmd_bench_queue)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, MachineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
