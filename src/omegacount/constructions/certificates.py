"""Run certificates: a run plus stage and block annotations.

The block spans index into the run's step columns (run.states, run.steps
and the rest) and say which coded block each step serves, so acceptance
transfer can be checked block by block.

Every lift bounds the prefix it walks by one rule, `walk_length`; an
empty run needs no letters, so it lifts to the empty certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from ..errors import MachineError
from ..machines import CounterMachine, Run, buchi_visit_count, run_word, validate_run


@dataclass(frozen=True, slots=True)
class BlockSpan:
    """Steps start..end (half-open, 0-based into the run's step columns)
    serve block `index` (1-based coded block)."""

    index: int
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class RunCertificate:
    run: Run
    stage: str
    blocks: tuple[BlockSpan, ...]

    def block_visits(self, accepting) -> dict[int, int]:
        """Accepting visits per block index (start uncounted), piece by piece."""
        # per piece: its steps, repeats, and visits in its first t steps
        pieces = [(len(states), r, [0, *accumulate(map(accepting.__contains__, states))])
                  for _, _, states, _, r in self.run._pieces]

        # visits in the run's first z steps: whole iterations of each piece
        # at its per-iteration count, and one partial iteration
        def upto(z: int) -> int:
            n = 0
            for p, r, hits in pieces:
                j, t = divmod(min(z, p * r), p)
                n += j * hits[-1] + hits[t]
                z -= j * p + t
            return n

        return {b.index: upto(b.end) - upto(b.start) for b in self.blocks}

    def visits(self, accepting) -> int:
        return buchi_visit_count(self.run, accepting)


def source_word(machine: CounterMachine, run: Run) -> tuple:
    """The word a lift's source run reads, as runs (`run_word`), once the
    run is checked valid on `machine` from its initial configuration."""
    word = run_word(run)
    bad = validate_run(machine, word, run)
    if bad is not None:
        raise MachineError(f"source run invalid: {bad}")
    if run.start.state != machine.initial or any(run.start.counters):
        raise MachineError("lift needs a run from the initial configuration")
    return word


def walk_length(needed: int, room: int, prefix_len: int | None, blocks: int,
                point: str) -> int:
    """The letters a lift walks: `needed`, or a prefix_len that hosts the
    run's blocks and passes them by at most `room` letters, its next `point`."""
    if prefix_len is None:
        return needed
    if prefix_len < 0:
        raise MachineError(f"prefix length must be nonnegative, got {prefix_len}")
    if prefix_len < needed:
        raise MachineError(f"prefix too short to host the lift: need {needed} letters")
    if prefix_len - needed > room:
        raise MachineError(
            f"run pins {blocks} blocks; prefix of {prefix_len} "
            f"letters passes the next {point} point at {needed + room}")
    return prefix_len
