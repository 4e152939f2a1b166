"""
From two counters to one, real-time
===================================

The chain of stages 2-3: a 2-counter machine is compiled to a single
counter over the block coding, unioned with the coding-defect acceptor,
and wrapped in a filler cadence that hides every silent move.  At the
paper's eight primes the chain refuses to build with an honest size
floor, before anything is built; the desk variant runs the same code
paths at Q = 6.
"""

from omegacount.constructions import (compose_pipeline, lift_run_pipeline,
                                      realtime8_pad_factor)
from omegacount.errors import BuildScaleError
from omegacount.machines import (BuchiAutomaton, Configuration,
                                 CounterMachine, RunStep, Run, Transition,
                                 is_real_time, validate_run)

# a 2-state machine that uses both counters: fill on a, drain on b
m = CounterMachine(
    k=2, alphabet=frozenset({"a", "b"}), states=("p", "q"), initial="p",
    transitions=(
        Transition("p", "a", (0, 0), "p", (1, 1)),
        Transition("p", "a", (1, 1), "p", (1, 1)),
        Transition("p", "a", (1, 0), "p", (1, 1)),
        Transition("p", "b", (1, 1), "q", (0, -1)),
        Transition("q", "b", (1, 1), "q", (0, -1)),
        Transition("q", "b", (1, 0), "q", (0, 0)),
        Transition("q", "a", (1, 0), "p", (1, 0)),
        Transition("q", "a", (1, 1), "p", (1, 0)),
    ))
a = BuchiAutomaton(machine=m, accepting=frozenset({"q"}))

# ---------------------------------------------------------------------
# honest scale first: the paper-faithful parameters do not fit
print("pad factors:", realtime8_pad_factor(1), "for one letter,",
      realtime8_pad_factor(2), "for two")
try:
    compose_pipeline(a, (2, 3, 5, 7, 11, 13, 17, 19))
except BuildScaleError as e:
    print("full-scale build refused:", e.args[0])
    print("  states it must reach at least:", e.estimated_states, "cap:", e.cap)

# ---------------------------------------------------------------------
# the desk variant: two primes
out = compose_pipeline(a, primes=(2, 3))
print("stages:", " -> ".join(name for name, _, _ in out.provenance))
print(f"final acceptor: {len(out.automaton.machine.states)} states, "
      f"k={out.automaton.machine.k}, real-time:",
      is_real_time(out.automaton.machine))
print("word transforms:", out.word_transform)

# ---------------------------------------------------------------------
# one end-to-end certificate: a run of the 2-counter machine becomes a
# validated run of the final wrapper, block annotations intact
run = Run(Configuration("p", (0, 0)), (
    RunStep("a", 0, Configuration("p", (1, 1))),
    RunStep("b", 3, Configuration("q", (1, 0))),
))
cert = lift_run_pipeline(out, run)
coded = [st.consumed for st in cert.run.steps]
print("certificate:", len(coded), "letters, valid:",
      validate_run(out.automaton.machine, coded, cert.run) is None)
print("blocks:", [(b.index, b.start, b.end) for b in cert.blocks])
print("accepting visits:", cert.visits(out.automaton.accepting))
