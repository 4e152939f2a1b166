"""Pinned builds: each automaton below must dump to the same bytes as when
its digest was recorded.  A moved digest means a state was renamed or a
transition moved, added or dropped, and every run file that cites
transition indices of that automaton would be read differently.
"""

import hashlib

import pytest

from omegacount.constructions import build_realtime8, compose_pipeline
from omegacount.fileio import dump_automaton

from conftest import m1_aomega, m2_two_counters, m3_alternator

GOLDEN = {
    "realtime8 m1 S=72": "8a4467aaa9fa692d",
    "pipeline m1": "832b02c7692df8a5",
    "pipeline m2": "cd993afead1cc34f",
    "pipeline m3": "07f39ffbfbe6127b",
}


def build(name: str):
    if name == "realtime8 m1 S=72":
        return build_realtime8(m1_aomega(), S_override=72)
    a = {"m1": m1_aomega, "m2": m2_two_counters, "m3": m3_alternator}[name.split()[1]]()
    return compose_pipeline(a, primes=(2, 3)).automaton


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_build_dump_is_pinned(name):
    text = dump_automaton(build(name))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == GOLDEN[name]
