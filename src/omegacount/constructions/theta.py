"""Two-counter acceptor for the blockwise-padded coding.

The coded word interleaves source letters with runs of the pad letter E
whose lengths are S, S^2, S^3, ...  Block 1 is counted in the control.
From then on the two counters alternate roles: one holds the previous block
length and is drained once per group of S pad letters, the other fills by
one per pad letter, so a drain that reaches zero exactly at a group
boundary certifies the next pad run is S times longer.  Boundary states
form the accepting set; a genuine coded word visits one per block.
"""

from __future__ import annotations

from ..engine import deterministic_run
from ..errors import BuildScaleError
from ..machines import BuchiAutomaton, CounterMachine
from ..words import E, ThetaCoding, coded_alphabet, coded_prefix
from .certificates import BlockSpan, RunCertificate

INIT = "init"
LAND_A = "landA"
LAND_B = "landB"

STATE_CAP = 400_000


def _block1(i: int) -> str:
    return f"b1&{i}"


def _phase(side: str, p: int) -> str:
    return f"{side}&{p}"


def build_theta_acceptor(sigma: frozenset[str] | set[str],
                         S: int) -> BuchiAutomaton:
    """Acceptor over sigma plus the pad letter E for pad factor S >= 1.  Its
    3S + 4 states are counted first: past STATE_CAP nothing is built."""
    sigma = frozenset(sigma)
    full = coded_alphabet(ThetaCoding(S), sigma)
    if not sigma:
        raise ValueError("empty source alphabet")
    if 3 * S + 4 > STATE_CAP:
        raise BuildScaleError(f"theta acceptor needs {3 * S + 4} states, past "
                              f"the cap of {STATE_CAP}", 3 * S + 4, STATE_CAP)
    letters = sorted(sigma)
    # (source, input, guard, destination, delta) rows, made the machine's
    # five columns at the end: no Transition record per edge
    trans: list[tuple] = []

    for a in letters:
        trans.append((INIT, a, (0, 0), _block1(0), (0, 0)))
    # block 1 counted in control; counter 0 accumulates its length
    trans.append((_block1(0), E, (0, 0), _block1(1), (1, 0)))
    for i in range(1, S):
        trans.append((_block1(i), E, (1, 0), _block1(i + 1), (1, 0)))
    for a in letters:
        trans.append((_block1(S), a, (1, 0), LAND_A, (0, 0)))

    # phase A: drain counter 0 once per group of S, fill counter 1 per letter
    nxt = _phase("A", 1 % S)
    trans.append((LAND_A, E, (1, 0), nxt, (-1, 1)))
    trans.append((_phase("A", 0), E, (1, 1), nxt, (-1, 1)))
    for p in range(1, S):
        for g0 in (0, 1):
            trans.append((_phase("A", p), E, (g0, 1),
                          _phase("A", (p + 1) % S), (0, 1)))
    for a in letters:
        trans.append((_phase("A", 0), a, (0, 1), LAND_B, (0, 0)))

    # phase B: mirrored
    nxt = _phase("B", 1 % S)
    trans.append((LAND_B, E, (0, 1), nxt, (1, -1)))
    trans.append((_phase("B", 0), E, (1, 1), nxt, (1, -1)))
    for p in range(1, S):
        for g1 in (0, 1):
            trans.append((_phase("B", p), E, (1, g1),
                          _phase("B", (p + 1) % S), (1, 0)))
    for a in letters:
        trans.append((_phase("B", 0), a, (1, 0), LAND_A, (0, 0)))

    states = [INIT, LAND_A, LAND_B]
    states += [_block1(i) for i in range(S + 1)]
    states += [_phase("A", p) for p in range(S)]
    states += [_phase("B", p) for p in range(S)]
    m = CounterMachine.from_columns(2, full, frozenset(states), INIT, *zip(*trans))
    return BuchiAutomaton(machine=m, accepting=frozenset({LAND_A, LAND_B}))


def theta_certificate(w, S: int, blocks: int):
    """Deterministic accepting-run certificate over the coded prefix of w.

    Covers `blocks` complete pad blocks; block i spans its pad run plus the
    source letter closing it, so each span ends on a boundary state and
    carries exactly one accepting visit.
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    b = build_theta_acceptor(w.alphabet, S)
    n = 1 + sum(S ** i + 1 for i in range(1, blocks + 1))
    run = deterministic_run(b, coded_prefix(w, (ThetaCoding(S),), n))
    spans = []
    start = 1
    for i in range(1, blocks + 1):
        spans.append(BlockSpan(i, start, start + S ** i + 1))
        start += S ** i + 1
    return RunCertificate(run=run, stage="theta", blocks=tuple(spans))
