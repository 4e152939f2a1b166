"""Shared hand-built machines.

Three real-time 2-counter machines with known behaviour, used as lift
sources across the construction tests, plus a brute-force membership
oracle that knows nothing about the library's product construction, and
a runner of the CLI in a child process of bounded memory.
"""

import os
import resource
import subprocess
import sys

import pytest

import omegacount
from omegacount.machines import (BuchiAutomaton, Configuration, CounterMachine,
                                 Run, RunStep, Transition)


def m1_aomega() -> BuchiAutomaton:
    # one state, reads a forever, counter 0 climbs
    m = CounterMachine(
        k=2, alphabet=frozenset({"a"}), states=("p",), initial="p",
        transitions=(Transition("p", "a", (0, 0), "p", (1, 0)),
                     Transition("p", "a", (1, 0), "p", (1, 0))))
    return BuchiAutomaton(machine=m, accepting=frozenset({"p"}))


def m2_two_counters() -> BuchiAutomaton:
    """Fill both counters on a at p, drain counter 1 on b at q.

    Guards are disjoint per state and letter, so runs are deterministic;
    words a^{n1} b^{m1} a^{n2} b^{m2} ... with n1 >= 1, later ni >= 2 never
    get stuck (the second a of a block refills counter 1 before any b).
    """
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
    return BuchiAutomaton(machine=m, accepting=frozenset({"q"}))


def m3_alternator() -> BuchiAutomaton:
    # strict ab alternation; each full round bumps both counters
    m = CounterMachine(
        k=2, alphabet=frozenset({"a", "b"}), states=("r", "s"), initial="r",
        transitions=(
            Transition("r", "a", (0, 0), "s", (1, 0)),
            Transition("r", "a", (1, 1), "s", (1, 0)),
            Transition("s", "b", (1, 0), "r", (0, 1)),
            Transition("s", "b", (1, 1), "r", (0, 1)),
        ))
    return BuchiAutomaton(machine=m, accepting=frozenset({"r"}))


@pytest.fixture
def aomega() -> BuchiAutomaton:
    return m1_aomega()


@pytest.fixture
def two_counters() -> BuchiAutomaton:
    return m2_two_counters()


def run_of(b: BuchiAutomaton, word, choose=None) -> Run:
    """Greedy run builder for the fixture machines: at each letter take the
    first enabled reading transition (or `choose(cands)` when given)."""
    from omegacount.machines import step

    cfg = Configuration(b.machine.initial, (0,) * b.machine.k)
    steps = []
    for a in word:
        cands = step(b.machine, cfg, a)
        assert cands, f"stuck on {a!r} at {cfg}"
        idx, cfg = choose(cands) if choose else cands[0]
        steps.append(RunStep(a, idx, cfg))
    return Run(Configuration(b.machine.initial, (0,) * b.machine.k), tuple(steps))


def m2_word(rng, rounds: int) -> list[str]:
    word = ["a"] * rng.randint(1, 3)
    for i in range(rounds):
        word += ["b"] * rng.randint(1, 3)
        word += ["a"] * rng.randint(2, 4)
    return word


def chopped(rng, letters) -> list:
    """The letters as (pattern, count) runs cut at random places, as
    validate_run takes a word."""
    runs, at = [], 0
    while at < len(letters):
        pattern = tuple(letters[at:at + rng.randint(1, 5)])
        most = 1
        while letters[at + most * len(pattern):at + (most + 1) * len(pattern)] == list(pattern):
            most += 1
        count = rng.randint(1, most)
        runs.append((pattern, count))
        at += len(pattern) * count
    return runs


def lasso_member_oracle(b: BuchiAutomaton, spoke, cycle) -> bool:
    """Brute-force Buchi membership for k = 0 automata on spoke.cycle^omega.

    Product of states with cycle positions; a run is accepting iff the
    reachable product graph, restricted to the cycle part, has a cycle
    through an accepting state.  Independent of the library's engine.
    """
    m = b.machine
    assert m.k == 0
    fwd = {}
    for t in m.transitions:
        fwd.setdefault((t.source, t.input), set()).add(t.destination)

    cur = {m.initial}
    for a in spoke:
        cur = {d for s in cur for d in fwd.get((s, a), ())}
    if not cycle:
        return False
    n = len(cycle)
    # nodes (state, position in cycle); edges consume cycle[position]
    seen = {(s, 0) for s in cur}
    stack = list(seen)
    edges = {}
    while stack:
        s, i = stack.pop()
        nxt = {(d, (i + 1) % n) for d in fwd.get((s, cycle[i]), ())}
        edges[(s, i)] = nxt
        for v in nxt:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    # accepting cycle: search from each accepting node back to itself
    for node in sorted(seen):
        if node[0] not in b.accepting:
            continue
        visited = set()
        stack = list(edges.get(node, ()))
        while stack:
            v = stack.pop()
            if v == node:
                return True
            if v in visited:
                continue
            visited.add(v)
            stack.extend(edges.get(v, ()))
    return False


def cli_in_400_mb(argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """The CLI in a child process whose own address space is limited to
    400 MB.  Its stderr is captured, and its stdout too unless `stdout`
    sends it elsewhere."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2 ** 20, 400 * 2 ** 20))
    src = os.path.dirname(os.path.dirname(omegacount.__file__))
    return subprocess.run([sys.executable, "-m", "omegacount.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)
