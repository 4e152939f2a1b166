"""Outside-in layer trace for the omegacount benchmark.

The tracer wraps public functions of the library from the outside: every
module binding of a wrapped function is replaced (so `engine.step` and
`machines.step` are both counted), and the `CounterMachine` constructor is
wrapped on the class.  Spans are kept in memory as (name, start, end,
parent, op) and written out when the run ends.  Self time is a span's
duration minus the durations of its direct children.

No library file is changed; `uninstall` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _automaton(result):
    """The Buchi automaton inside a builder's return value."""
    if isinstance(result, tuple):  # build_realtime8 returns (S, automaton)
        result = result[-1]
    return getattr(result, "automaton", result)  # PipelineOutput


def _size(result, args):
    m = _automaton(result).machine
    return {"states": len(m.states), "transitions": len(m.transitions)}


def _run_steps(result, args):
    run = getattr(result, "run", result)  # RunCertificate or Run
    return {"steps": len(run.steps)}


def _validated_steps(result, args):
    return {"steps": len(args[2].steps)}


def _frontiers(result, args):
    sizes = result.sizes()
    return {"configs": sum(sizes), "peak_frontier": max(sizes)}


def _letters_out(result, args):
    return {"letters": len(result)}


def _letters_in(result, args):
    return {"letters": len(args[0])}


def _bytes_in(result, args):
    return {"bytes": len(args[0])}


def _bytes_out(result, args):
    return {"bytes": len(result)}


def _constructed(result, args):
    machine = args[0]  # the constructor's self
    return {"states": len(machine.states), "transitions": len(machine.transitions)}


# (layer, function, work counter or None); the span is named `layer.function`
# and the function is looked up in module `omegacount.<layer>`
TARGETS = (
    ("machines", "validate_run", _validated_steps),
    ("machines", "intersect_det_buchi", _size),
    ("machines", "lift_run_intersection", _run_steps),
    ("machines", "union", _size),
    ("machines", "lift_run_union", _run_steps),
    ("engine", "nba_lasso_member", None),
    ("engine", "exact_prefix_reach", _frontiers),
    ("engine", "bounded_explore", _frontiers),
    ("engine", "d34_witness_scan", None),
    ("words", "coded_prefix", _letters_out),
    ("words", "lasso_prefix", _letters_out),
    ("words", "h_block_decompose", _letters_in),
    ("constructions.theta", "build_theta_acceptor", _size),
    ("constructions.realtime8", "build_realtime8", _size),
    ("constructions.realtime8", "lift_run_theta", _run_steps),
    ("constructions.script_l", "build_script_l_guard", _size),
    ("constructions.script_l", "build_script_L", _size),
    ("constructions.script_l", "lift_run_script_L", _run_steps),
    ("constructions.complement", "build_d1", None),
    ("constructions.complement", "build_d2", None),
    ("constructions.complement", "build_d3", None),
    ("constructions.complement", "build_d4", None),
    ("constructions.complement", "build_h_complement", _size),
    ("constructions.phi", "build_phi_wrapper", _size),
    ("constructions.phi", "lift_run_phi", _run_steps),
    ("constructions.pipeline", "compose_pipeline", _size),
    ("constructions.pipeline", "lift_run_pipeline", _run_steps),
    ("fileio", "load_automaton", _bytes_in),
    ("fileio", "dump_automaton", _bytes_out),
    ("fileio", "load_run", _bytes_in),
    ("fileio", "dump_run", _bytes_out),
    ("fileio", "load_word", _bytes_in),
)

# stats each work counter reports, so absent calls still print as 0
_WORK_STATS = {
    _size: ("states", "transitions"),
    _run_steps: ("steps",),
    _validated_steps: ("steps",),
    _frontiers: ("configs", "peak_frontier"),
    _letters_out: ("letters",),
    _letters_in: ("letters",),
    _bytes_in: ("bytes",),
    _bytes_out: ("bytes",),
}

CONSTRUCTOR = "machines.CounterMachine"
CLI_COMMANDS = ("build", "lift", "run_check", "explore")
_BUILDERS = ("machines.intersect_det_buchi", "machines.union")


def _is_builder(name: str) -> bool:
    return name in _BUILDERS or (name.startswith("constructions.") and (
        ".build_" in name or name.endswith(".compose_pipeline")))


def _is_lift(name: str) -> bool:
    return ".lift_run_" in name


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{CONSTRUCTOR}.{s}" for s in ("calls", "self_s", "states", "transitions",
                                             "amplification")]
    names.append("machines.step.calls")
    for layer, function, work in TARGETS:
        span = f"{layer}.{function}"
        names += [f"{span}.calls", f"{span}.self_s"]
        names += [f"{span}.{s}" for s in _WORK_STATS.get(work, ())]
    names.append("constructions.builds_per_lift")
    names.append("cli.main.calls")
    for cmd in CLI_COMMANDS:
        names += [f"cli.{cmd}.calls", f"cli.{cmd}.self_s"]
    return names


def metric_unit(name: str) -> str:
    stat = name.rpartition(".")[2]
    if stat == "self_s":
        return "s"
    if stat == "bytes":
        return "bytes"
    if stat in ("amplification", "builds_per_lift"):
        return "ratio"
    return "count"


def cli_span_name(argv) -> str:
    if list(argv[:2]) == ["run", "check"]:
        return "cli.run_check"
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    """Span recorder with per-name call counts, self times and work counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self._open: list[list] = []  # [span index, start, child seconds]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, float] = {}
        self.op = 0
        self._patches: list[tuple] = []
        self._step_calls = [0]

    # -- span arithmetic -------------------------------------------------
    def enter(self, name: str) -> None:
        start = self.clock()
        parent = self._open[-1][0] if self._open else -1
        self._open.append([len(self.spans), start, 0.0])
        self.spans.append([name, start, None, parent, self.op])

    def exit(self) -> None:
        end = self.clock()
        index, start, child = self._open.pop()
        span = self.spans[index]
        span[2] = end
        name = span[0]
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (duration - child)
        if self._open:
            self._open[-1][2] += duration

    def count(self, name: str, amounts: dict) -> None:
        for stat, value in amounts.items():
            key = f"{name}.{stat}"
            self.work[key] = self.work.get(key, 0) + value

    def wrap(self, name: str, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if work is not None:
                tracer.count(name, work(result, args))
            return result
        return traced

    def inclusive_s(self) -> dict[str, float]:
        """Summed span durations per name, children included."""
        out: dict[str, float] = {}
        for name, start, end, _parent, _op in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def top_level_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] == -1)

    def builds_per_lift(self) -> float:
        """Builder calls made under a lift span, per outermost lift."""
        in_lift = [False] * len(self.spans)
        lifts = builds = 0
        for i, (name, _s, _e, parent, _op) in enumerate(self.spans):
            inherited = parent >= 0 and (in_lift[parent] or _is_lift(self.spans[parent][0]))
            in_lift[i] = inherited
            if _is_lift(name) and not inherited:
                lifts += 1
            elif inherited and _is_builder(name):
                builds += 1
        return builds / lifts if lifts else 0.0

    # -- installing wrappers ---------------------------------------------
    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("omegacount"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        for layer, function, work in TARGETS:
            original = getattr(importlib.import_module(f"omegacount.{layer}"), function)
            self._rebind(original, self.wrap(f"{layer}.{function}", original, work))

        machines = importlib.import_module("omegacount.machines")
        step, counter = machines.step, self._step_calls

        def counted_step(*args, **kwargs):
            counter[0] += 1
            return step(*args, **kwargs)
        self._rebind(step, counted_step)

        cls = machines.CounterMachine
        self._patches.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap(CONSTRUCTOR, cls.__init__, _constructed)

        main = importlib.import_module("omegacount.cli").main
        tracer = self

        def traced_main(argv=None):
            tracer.enter(cli_span_name(argv or []))
            try:
                return main(argv)
            finally:
                tracer.exit()
        self._rebind(main, traced_main)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def metrics(self, asked_transitions: int) -> dict[str, float]:
        """Values for metric_names(); layers never called report 0."""
        out = {}
        for name in metric_names():
            base, _, stat = name.rpartition(".")
            if name == "machines.step.calls":
                out[name] = self._step_calls[0]
            elif name == "constructions.builds_per_lift":
                out[name] = self.builds_per_lift()
            elif name == f"{CONSTRUCTOR}.amplification":
                validated = self.work.get(f"{CONSTRUCTOR}.transitions", 0)
                out[name] = validated / asked_transitions if asked_transitions else 0.0
            elif name == "cli.main.calls":
                out[name] = sum(self.calls.get(f"cli.{c}", 0) for c in CLI_COMMANDS)
            elif stat == "calls":
                out[name] = self.calls.get(base, 0)
            elif stat == "self_s":
                out[name] = self.self_s.get(base, 0.0)
            else:
                out[name] = self.work.get(name, 0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
