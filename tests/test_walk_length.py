"""One walk window for every lift: a prefix length hosts the run's blocks
and passes them by at most the stage's room, up to its next choice point."""

import re

import pytest

from omegacount.constructions import (build_phi_wrapper, build_realtime8,
                                      build_script_L, compose_pipeline,
                                      lift_run_phi, lift_run_pipeline,
                                      lift_run_script_L, lift_run_theta)
from omegacount.machines import MachineError, validate_run

from conftest import m1_aomega, m2_two_counters, run_of

S = 72
PRIMES = (2, 3)
Q = 6

# stage, letters of the source run, needed, room, next choice point
WINDOWS = [
    ("theta", 0, 0, 1 + S, "letter"),
    ("theta", 1, 1 + S, 1 + S ** 2, "letter"),
    ("theta", 2, 1 + S + 1 + S ** 2, 1 + S ** 3, "letter"),
    # block i is A, Q^i zeros, its letter, B and Q^(i+1) zeros
    ("script-l", 0, 0, 1 + Q, "guess"),
    ("script-l", 1, 45, 1 + Q ** 2, "guess"),
    ("script-l", 2, 300, 1 + Q ** 3, "guess"),
    # each letter is a window of Q - 1 fillers and the letter
    ("phi", 0, 0, Q - 1, "letter"),
    ("phi", 1, Q, Q - 1, "letter"),
    ("phi", 2, 2 * Q, Q - 1, "letter"),
    ("pipeline", 0, 0, Q - 1, "letter"),
    ("pipeline", 1, 45 * Q, Q - 1, "letter"),
    ("pipeline", 2, 300 * Q, Q - 1, "letter"),
]


@pytest.fixture(scope="module")
def stages():
    m1, m2 = m1_aomega(), m2_two_counters()
    pipe = compose_pipeline(m2, PRIMES)
    return {
        "theta": (build_realtime8(m1, S_override=S), lift_run_theta, m1, ["a", "a"]),
        "script-l": (build_script_L(m2, PRIMES), lift_run_script_L, m2, ["a", "b"]),
        "phi": (build_phi_wrapper(m2, Q - 1), lift_run_phi, m2, ["a", "b"]),
        "pipeline": (pipe.automaton, lambda _, run, prefix_len=None:
                     lift_run_pipeline(pipe, run, prefix_len), m2, ["a", "b"]),
    }


@pytest.mark.parametrize("stage,letters,needed,room,point", WINDOWS)
def test_every_lift_walks_one_window(stages, stage, letters, needed, room, point):
    built, lift, source, word = stages[stage]
    run = run_of(source, word[:letters])
    # the pipeline's phi lift counts the blocks it is given
    blocks = letters
    refusals = {
        -1: "prefix length must be nonnegative, got -1",
        needed - 1: (f"prefix too short to host the lift: need {needed} letters"
                     if needed else "prefix length must be nonnegative, got -1"),
        needed + room + 1: (f"run pins {blocks} blocks; prefix of {needed + room + 1} "
                            f"letters passes the next {point} point at {needed + room}"),
    }
    for n in (None, needed, needed + room):
        cert = lift(built, run, prefix_len=n)
        read = [tok for tok in cert.run.consumed if tok is not None]
        assert len(read) == (needed if n is None else n)
        assert validate_run(built.machine, read, cert.run) is None
    for n, message in refusals.items():
        with pytest.raises(MachineError, match=f"^{re.escape(message)}$"):
            lift(built, run, prefix_len=n)
