"""One benchmark run of one workload, in a fresh interpreter.

`run.py` starts this script once per run (and a few more times with
--setup-only to sample set-up time).  It imports the library from the
checkout's `src/`, builds its inputs from --seed, repeats passes of the
workload for --seconds, checks every output outside the timed calls,
and prints one JSON object as its last line of output.  While an
untraced run measures, `bench_ref.RefSampler` times a reference task
every REF_EVERY_S seconds; the time those samples take is left out of
the calls they interrupt.

A pass is a fixed mix of operations, so every seed does the same kind
and amount of work:
  pipeline-lifts    build the m2 and m3 pipelines, then lift and validate
                    LIFT_MIX source runs (2 to 4 letters)
  complement-sweep  build D1-D4, then decide LASSOS_PER_LENGTH lassos of
                    each total length 1..10
  cli-chain         the seven `cli_chain` commands, in order
"""

from __future__ import annotations

import argparse
import contextlib
from array import array
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time

from bench_ref import RefSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

PRIMES = (2, 3)
Q = math.prod(PRIMES)
# three of the four 3-letter lifts are m3's single word, so the median lift
# latency sits on an input that no seed changes
LIFT_MIX = (("m2", 2), ("m3", 2), ("m2", 3), ("m3", 3), ("m3", 3), ("m3", 3),
            ("m2", 4), ("m3", 4))
LASSOS_PER_LENGTH = 30
EXPLORE_LETTERS = 20000
REALTIME8_S = 288
TAIL_BEYOND = 10
# latency samples kept per run; beyond this a uniform sample of the
# operations is kept, so the harness's memory (and so the peak RSS) does
# not grow with the number of operations a faster library fits in a run
SAMPLE_CAP = 8192


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, n) of the highest percentile that still has
    TAIL_BEYOND samples above it; None when there are too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    i = n - TAIL_BEYOND - 1
    return sorted(samples)[i], 100.0 * (i + 1) / n, n


class Recorder:
    """Times operations, counts attempts and failures, keeps per-pass sums."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latency = array("d")         # sampled primary operations, seconds
        self.ops_timed = 0
        self.op_seconds = 0.0
        self._sampler = random.Random(0)
        self.by_kind: dict[str, list[float]] = {}
        self.pass_wall: list[float] = []
        self.pass_build: list[float] = []
        self.work = 0                     # certificate steps or verdicts
        self.built_states = 0             # per pass
        self.built_transitions = 0        # per pass
        self.asked_transitions = 0        # whole run
        self.ref = RefSampler()
        self._body = self._build = 0.0

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def call(self, fn, *args, op=False, build=False, kind=None):
        """One timed operation; None when it raised.  An `op` adds to the
        latency samples, a `build` to the pass's build time, a `kind` to
        that kind's own samples."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        # reference samples taken during the call are not the call's time;
        # spent_s is read inside the timed interval, so a sample that lands
        # next to a read is at worst left in, never taken out without
        # having been timed
        start = time.perf_counter()
        spent = self.ref.spent_s
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            sampled = self.ref.spent_s - spent
            self._body += time.perf_counter() - start - sampled
            self.fail(f"{getattr(fn, '__name__', 'operation')}: {exc!r}")
            return None
        sampled = self.ref.spent_s - spent
        seconds = time.perf_counter() - start - sampled
        self._body += seconds
        if op:
            self.add_latency(seconds)
        if build:
            self._build += seconds
        if kind is not None:
            self.by_kind.setdefault(kind, []).append(seconds)
        return result

    def add_latency(self, seconds: float) -> None:
        """Reservoir sampling: every operation is kept with equal chance."""
        self.ops_timed += 1
        self.op_seconds += seconds
        if len(self.latency) < SAMPLE_CAP:
            self.latency.append(seconds)
        else:
            slot = self._sampler.randrange(self.ops_timed)
            if slot < SAMPLE_CAP:
                self.latency[slot] = seconds

    def pass_as_op(self) -> None:
        """Record the pass so far as one operation's latency."""
        self.add_latency(self._body)

    def built(self, states: int, transitions: int) -> None:
        self.built_states += states
        self.built_transitions += transitions
        self.asked_transitions += transitions

    def check(self, problems: list[str]) -> None:
        """Count one failure for an operation whose outputs had problems."""
        if problems:
            self.fail("; ".join(problems))

    def run_pass(self, body, inputs) -> None:
        self._body = self._build = 0.0
        self.built_states = self.built_transitions = 0
        body(self, inputs)
        self.pass_wall.append(self._body)
        self.pass_build.append(self._build)


# -- pipeline-lifts ------------------------------------------------------

def pipeline_inputs(ctx, rng):
    return [(name, *gen.source_run(rng, ctx["fixtures"][name], length))
            for name, length in LIFT_MIX]


def _build_pipeline(a):
    return C.compose_pipeline(a, primes=PRIMES, skip_realtime8=True)


def _lift_and_validate(out, run):
    cert = C.lift_run_pipeline(out, run)
    letters = [s.consumed for s in cert.run.steps]
    return letters, M.validate_run(out.automaton.machine, letters, cert.run)


def pipeline_pass(ctx, rec, inputs):
    fixtures, outs = ctx["fixtures"], {}
    for name in ("m2", "m3"):
        out = rec.call(_build_pipeline, fixtures[name], build=True)
        if out is not None:
            outs[name] = out
            rec.built(len(out.automaton.machine.states),
                      len(out.automaton.machine.transitions))
    for name, word, run in inputs:
        if name not in outs:
            rec.fail(f"no pipeline for {name}")
            continue
        out = outs[name]
        result = rec.call(_lift_and_validate, out, run, op=True)
        if result is None:
            continue
        letters, violation = result
        rec.work += len(letters)
        x = LassoWord(tuple(word), (word[-1],), fixtures[name].machine.alphabet)
        problems = []
        if violation is not None:
            problems.append(f"{name} {word}: certificate invalid: {violation}")
        if letters != coded_prefix(x, out.word_transform, len(letters)):
            problems.append(f"{name} {word}: certificate letters differ from coded_prefix")
        rec.check(problems)


# -- complement-sweep ----------------------------------------------------

SIGMA = frozenset("a")


def complement_inputs(ctx, rng):
    return [gen.lasso(rng, total) for total in range(1, 11)
            for _ in range(LASSOS_PER_LENGTH)]


def _verdicts(d, spoke, cycle):
    w = LassoWord(spoke, cycle, gen.LASSO_SIGMA)
    prefix = list(spoke) + list(cycle) * 2
    members = (E.nba_lasso_member(d[0], w), E.nba_lasso_member(d[1], w))
    reaches = (E.exact_prefix_reach(d[2], prefix), E.exact_prefix_reach(d[3], prefix))
    sink = any("bad" in {c.state for c in f} for r in reaches for f in r.frontiers)
    scan = E.d34_witness_scan(w, Q, span=len(spoke) + 2 * len(cycle))
    return members, sink, scan


def complement_pass(ctx, rec, inputs):
    d = []
    for builder in (C.build_d1, C.build_d2, C.build_d3, C.build_d4):
        b = rec.call(builder, SIGMA, PRIMES, build=True)
        if b is None:
            return
        d.append(b)
        rec.built(len(b.machine.states), len(b.machine.transitions))
    for spoke, cycle in inputs:
        result = rec.call(_verdicts, d, spoke, cycle, op=True)
        if result is None:
            continue
        members, sink, scan = result
        rec.work += 4
        problems = [f"D{i + 1} {spoke}|{cycle}: membership differs from the oracle"
                    for i in (0, 1) if members[i] != lasso_member_k0(d[i], spoke, cycle)]
        if sink != (scan is not None):
            problems.append(f"{spoke}|{cycle}: D3/D4 sink differs from d34_witness_scan")
        rec.check(problems)


# -- cli-chain -----------------------------------------------------------

def _path(ctx, name):
    return os.path.join(ctx["workdir"], name)


def cli_chain(ctx):
    def p(name):
        return _path(ctx, name)
    return (
        ("build-realtime8", ["build", "realtime8", "--input", p("m1.aut"),
                             "--S", str(REALTIME8_S), "-o", p("r8.aut")]),
        ("lift-theta", ["lift", "--stage", "theta", "--input", p("m1.aut"),
                        "--run", p("m1.run"), "--S", str(REALTIME8_S), "-o", p("r8.run")]),
        ("check-realtime8", ["run", "check", "--input", p("r8.aut"), "--run", p("r8.run")]),
        ("build-pipeline", ["build", "pipeline", "--input", p("m2.aut"), "--primes", "2,3",
                            "--skip-stage1", "-o", p("pipe.aut")]),
        ("lift-pipeline", ["lift", "--stage", "pipeline", "--input", p("m2.aut"),
                           "--run", p("m2.run"), "--primes", "2,3", "--skip-stage1",
                           "-o", p("pipe.run")]),
        ("check-pipeline", ["run", "check", "--input", p("pipe.aut"), "--run", p("pipe.run")]),
        ("explore", ["explore", "--input", p("pipe.aut"), "--word", p("w.word"),
                     "--n", str(EXPLORE_LETTERS)]),
    )


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cli_setup(ctx):
    workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx["workdir"] = workdir
    for name in ("m1", "m2"):
        _write(_path(ctx, f"{name}.aut"), gen.fixture_text(name))
    _write(_path(ctx, "m1.run"), dump_run(gen.greedy_run(ctx["fixtures"]["m1"], ["a"])))


def cli_inputs(ctx, rng):
    m2 = ctx["fixtures"]["m2"]
    _word, run = gen.source_run(rng, m2, 4)
    _write(_path(ctx, "m2.run"), dump_run(run))
    spoke, cycle = gen.readable_lasso(rng, m2)
    _write(_path(ctx, "w.word"), gen.word_file(spoke, cycle, ("phi:5", "h:2,3")))
    return cli_chain(ctx)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = CLI.main(argv)
    return code, out.getvalue()


def _automaton_size(text):
    states = transitions = 0
    for line in text.splitlines():
        if line.startswith("states "):
            states = len(line.split()) - 1
        elif line.startswith("trans "):
            transitions += 1
    return states, transitions


def _step_lines(text):
    return sum(1 for line in text.splitlines() if line.startswith("step "))


def cli_pass(ctx, rec, commands):
    """One chain is one operation: a CLI user waits for all seven."""
    for kind, argv in commands:
        is_build = argv[0] == "build"
        result = rec.call(_cli, argv, build=is_build, kind=kind)
        if result is None:
            continue
        code, stdout = result
        if code != 0:
            rec.fail(f"{kind}: exit code {code}")
        elif is_build:
            rec.built(*_automaton_size(_read(argv[argv.index("-o") + 1])))
        elif argv[:2] == ["run", "check"]:
            steps = _step_lines(_read(argv[argv.index("--run") + 1]))
            rec.work += steps
            if not stdout.startswith(f"ok {steps} steps "):
                rec.fail(f"{kind}: expected 'ok {steps} steps', got {stdout.strip()!r}")
        elif argv[0] == "explore":
            if not stdout.startswith(f"letters {EXPLORE_LETTERS} final "):
                rec.fail(f"{kind}: unexpected output {stdout.strip()!r}")
    rec.pass_as_op()


WORKLOADS = {
    "pipeline-lifts": (None, pipeline_inputs, pipeline_pass),
    "complement-sweep": (None, complement_inputs, complement_pass),
    "cli-chain": (cli_setup, cli_inputs, cli_pass),
}


def _import_library() -> None:
    """Bind the library modules from this checkout's src/ as globals."""
    if not os.path.isfile(os.path.join(SRC, "omegacount", "__init__.py")):
        raise SystemExit(f"perfbench: no omegacount sources under {SRC}")
    sys.path.insert(0, SRC)
    global C, E, M, CLI, gen, LassoWord, coded_prefix, dump_run, lasso_member_k0
    import omegacount.cli as CLI
    import omegacount.constructions as C
    import omegacount.engine as E
    import omegacount.machines as M
    if not os.path.abspath(M.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: omegacount imported from outside {SRC}")
    # checks and input generation use these bindings, taken before any
    # tracer is installed, so they are never traced
    from omegacount.fileio import dump_run
    from omegacount.words import LassoWord, coded_prefix
    import bench_gen as gen
    from bench_oracle import lasso_member_k0


def _summary(rec: Recorder, setup_s: float, peak_rss_mb: float) -> dict:
    lat = rec.latency
    t = tail(lat)
    ref_s = rec.ref.mean_s()
    return {
        "setup_s": setup_s,
        "wall_ref": None if ref_s is None else statistics.fmean(rec.pass_wall) / ref_s,
        "ref_ms": None if ref_s is None else 1000 * ref_s,
        "ref_samples": len(rec.ref.samples),
        "wall_s": statistics.median(rec.pass_wall),
        "op_p50_ms": 1000 * statistics.median(lat) if lat else None,
        "op_tail_ms": None if t is None else 1000 * t[0],
        "op_tail_pct": None if t is None else t[1],
        "ops_timed": rec.ops_timed,
        "ops_sampled": len(lat),
        "passes": len(rec.pass_wall),
        "build_s": statistics.median(rec.pass_build),
        "kind_p50_ms": {k: 1000 * statistics.median(v) for k, v in rec.by_kind.items()},
        "work": rec.work,
        "work_per_s": rec.work / rec.op_seconds if rec.op_seconds else None,
        "built_states": rec.built_states,
        "built_transitions": rec.built_transitions,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.perf_counter() of the parent just before it "
                         "started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_library()
    setup, make_inputs, run = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    fixtures, mismatches = gen.load_fixtures()
    ctx = {"fixtures": fixtures}
    rec = Recorder()
    try:
        if setup is not None:
            setup(ctx)
        inputs = make_inputs(ctx, rng)
        setup_s = time.perf_counter() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        def body(r, i):
            run(ctx, r, i)

        tracer = untraced = None
        if args.trace:
            import bench_trace
            # pass 0 runs untraced, traced, and untraced again on the same
            # inputs; the traced pass minus the mean untraced one is the
            # tracing overhead
            tracer = bench_trace.Tracer()
            rec.tracer, untraced = tracer, Recorder()
            untraced.run_pass(body, inputs)
            tracer.install()
            rec.run_pass(body, inputs)
            tracer.uninstall()
            untraced.run_pass(body, inputs)
            tracer.install()
        rec.attempted += len(gen.FIXTURES)
        for _ in range(mismatches):
            rec.fail("fixture does not round-trip through load/dump")
        if tracer is None:
            # a traced run reports no wall_ref, and its spans would count
            # the samples' time
            rec.ref.start()
        start = time.perf_counter()
        while not rec.pass_wall or time.perf_counter() - start < args.seconds:
            if rec.pass_wall:
                inputs = make_inputs(ctx, rng)
            rec.run_pass(body, inputs)
        rec.ref.stop()
        if tracer is not None:
            tracer.uninstall()
        # read before the summary sorts the samples
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        rec.ref.stop()
        if "workdir" in ctx:
            shutil.rmtree(ctx["workdir"], ignore_errors=True)

    result = _summary(rec, setup_s, peak_rss_mb)
    if tracer is not None:
        traced_wall = sum(rec.pass_wall)
        spanned = tracer.top_level_seconds()
        result.update({
            "layers": tracer.metrics(rec.asked_transitions),
            "self_s_by_span": tracer.self_s,
            "inclusive_s_by_span": tracer.inclusive_s(),
            "traced_wall_s": traced_wall,
            # time in timed calls outside every span: argument handling and
            # the harness's own glue inside an operation
            "harness_s": traced_wall - spanned,
            # self times + harness = traced wall exactly when the self times
            # add up to the top-level span durations
            "self_sum_error_s": sum(tracer.self_s.values()) - spanned,
            "overhead_s": rec.pass_wall[0] - statistics.mean(untraced.pass_wall),
            "untraced_pass0_s": untraced.pass_wall,
        })
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
