"""
One counter instead of two
==========================

The block coding h writes a word as A.0^Q.x(1).B.0^(Q^2).A... and lets a
single counter track a 2-counter machine's whole configuration as the
length of the current 0-run: counter values (c0, c1) become the number
2^c0 * 3^c1 of zeros.  The acceptor is built once; the lift turns any run
of the source machine into a validated run of it, and the projection
reads the source run back off the certificate.
"""

from omegacount.constructions import (build_script_L, covered_prefix_length,
                                      lift_run_script_L,
                                      project_run_script_L)
from omegacount.machines import (BuchiAutomaton, Configuration,
                                 CounterMachine, RunStep, Transition,
                                 Run, validate_run)
from omegacount.words import h_block_decompose

PRIMES = (2, 3)

# the running example: one state, reads a forever, counter 0 climbs
m = CounterMachine(
    k=2, alphabet=frozenset({"a"}), states=("p",), initial="p",
    transitions=(Transition("p", "a", (0, 0), "p", (1, 0)),
                 Transition("p", "a", (1, 0), "p", (1, 0))))
a = BuchiAutomaton(machine=m, accepting=frozenset({"p"}))

bl = build_script_L(a, PRIMES)
print(f"block acceptor: {len(bl.machine.states)} states, "
      f"k={bl.machine.k} counter")

# ---------------------------------------------------------------------
# lift a three-step run; each source step becomes one coded block
run = Run(Configuration("p", (0, 0)), tuple(
    RunStep("a", 0 if i == 0 else 1, Configuration("p", (i + 1, 0)))
    for i in range(3)))
cert = lift_run_script_L(bl, run)
coded = [st.consumed for st in cert.run.steps if st.consumed is not None]
print("certificate:", len(cert.run.steps), "steps over",
      len(coded), "letters",
      f"(covered_prefix_length gives {covered_prefix_length(PRIMES, 3)})")
print("valid:", validate_run(bl.machine, coded, cert.run) is None)

# ---------------------------------------------------------------------
# the block equations: each a-step doubles the 0-run, so the exponent
# choice is (1, 0) in every block and |u_(i+1)| = |z_i| chains the pads
sealed = lift_run_script_L(bl, run,
                           prefix_len=covered_prefix_length(PRIMES, 3) + 1)
word = [st.consumed for st in sealed.run.steps if st.consumed is not None]
dec = h_block_decompose(word, PRIMES, [(1, 0)] * 3)
for blk in dec.blocks:
    print(f"  u={blk.u_len:>4} v={blk.v_len:>2} x={blk.x} "
          f"w={blk.w_len:>2} z={blk.z_len:>4}")

# ---------------------------------------------------------------------
# projection recovers the source run exactly
back = project_run_script_L(bl, cert)
print("project(lift(run)) == run:", back == run)
