"""Real-time wrapper that hides lambda moves behind a fixed filler cadence.

Every letter of the wrapped machine is preceded by exactly L filler letters F;
lambda moves are re-read as filler, surplus filler idles in place.  States
carry the filler position and a pulse bit that is set exactly when the step
entered an accepting state of the wrapped machine, so accepting visit counts
transfer one to one.
"""

from __future__ import annotations

import itertools
from functools import partial

from ..errors import BuildScaleError, FreshLetterError
from ..machines import (BuchiAutomaton, Built, Configuration, MachineError,
                        Run, Walker, _reach, lambda_burst_bound)
from ..words import F
from .certificates import BlockSpan, RunCertificate, source_word, walk_length

STATE_CAP = 250_000
# idle guards at most: a state before the letter point idles on each of the
# 2**k guards, so a wider machine is refused before any guard is made
GUARD_CAP = 250_000


def _wrap(q: str, f: int, p: int) -> str:
    return f"{q}&{f}&{p}"


def build_phi_wrapper(b: BuchiAutomaton, filler_count: int) -> Built:
    """Wrapper of b; its table maps each state to (b's state, filler
    position, pulse bit), and its origin column each transition to the
    index of b's transition it reads, or -1 for an idle filler step.  Only
    the triples that (b's initial, 0, 0) reaches are built, by the shared
    worklist `_reach`, which refuses a build that reaches more than
    STATE_CAP.  A machine of k counters whose 2**k idle guards pass
    GUARD_CAP is refused before any guard is made."""
    m = b.machine
    # the filler count is the L of the PhiCoding that names the wrapper's
    # words, which must be at least 1
    if F in m.alphabet:
        raise FreshLetterError(f"filler letter {F!r} is already in the alphabet")
    if filler_count < 1:
        raise MachineError(f"filler count must be at least 1, got {filler_count}")
    burst = lambda_burst_bound(m)
    if burst > filler_count:
        raise MachineError(
            f"lambda bursts reach {burst}, filler window is {filler_count}")

    if m.k >= GUARD_CAP.bit_length():  # that is, 2**k > GUARD_CAP
        raise BuildScaleError(
            f"wrapper needs 2**{m.k} idle guards, past the cap of {GUARD_CAP}",
            2 ** GUARD_CAP.bit_length(), GUARD_CAP)
    guard_combos = list(itertools.product((0, 1), repeat=m.k))
    zeros = (0,) * m.k

    def moves(src: tuple[str, int, int]):
        q, f, _ = src
        for i, inp, guard, dst, delta in m.leaving(q):
            pulse = 1 if dst in b.accepting else 0
            if f < filler_count and inp is None:
                # inside the window a lambda move reads filler
                yield F, guard, (dst, f + 1, pulse), delta, i
            elif f == filler_count and inp is not None:
                yield inp, guard, (dst, 0, pulse), delta, i
        if f < filler_count:
            for g in guard_combos:
                yield F, g, (q, f + 1, 0), zeros, -1

    machine, table, origin, _ = _reach(m.k, m.alphabet | {F}, (m.initial, 0, 0), moves,
                                       lambda state: _wrap(*state), STATE_CAP, "wrapper")
    accepting = frozenset(n for n, (_, _, p) in table.items() if p)
    return Built(machine, accepting, source=b, params={"filler_count": filler_count},
                 table=table, origin=origin)


def _tail(consumed: tuple, t: int) -> int | None:
    """The lambda steps at the end of consumed[:t]; None when all are."""
    return next((t - 1 - k for k in reversed(range(t)) if consumed[k] is not None), None)


def _wrapper_steps(run: Run, points, size: int) -> dict[int, int]:
    """The wrapper step before each source step s in points: size steps per
    letter before s, and one per lambda step since the last of them."""
    todo, at = sorted(points, reverse=True), {}
    bad = [s for s in todo if not 0 <= s <= len(run.steps)]
    if bad:
        raise MachineError(f"block boundary {min(bad)} outside the run")
    # before the piece: its steps, letters, and lambda steps since a letter
    steps = letters = lams = 0
    for consumed, _, _, _, r in run._pieces:
        p, whole = len(consumed), _tail(consumed, len(consumed))
        per = p - consumed.count(None)
        while todo and todo[-1] < steps + p * r:
            s = todo.pop()
            j, t = divmod(s - steps, p)
            lam = _tail(consumed, t)
            if lam is None:
                lam = t + (whole if j and whole is not None else lams + j * p)
            at[s] = (letters + j * per + t - consumed[:t].count(None)) * size + lam
        lams = lams + p * r if whole is None else whole
        letters, steps = letters + per * r, steps + p * r
    for s in todo:
        at[s] = letters * size + lams
    return at


def lift_run_phi(w: Built, run: Run, prefix_len: int | None = None,
                 blocks: tuple[BlockSpan, ...] | None = None) -> RunCertificate:
    """Lift a run of the machine w wraps to w: lambda steps are consumed as
    filler as they occur, and the rest of the window and the letter are one
    `Walker.idle` block.  A run segment of the source is lifted by
    `Walker.repeat`, so it becomes a segment of blocks.  Blocks span one
    filler window plus its letter; passing `blocks` (spans over the source
    run's steps) translates those spans, through the run's pieces, to
    wrapper step indices instead, and the window refusal counts them.

    Every letter's block is filler_count + 1 steps, so the wrapper step
    before source step s is (letters before s) * (filler_count + 1) plus
    the lambda steps since the last of them."""
    filler_count = w.params["filler_count"]
    letters = sum(len(p) * r for p, r in source_word(w.source.machine, run))
    walker = Walker(w.machine, Configuration(w.machine.initial, run.start.counters),
                    w.origin)
    f = 0

    def lift(consumed: tuple, indices: tuple) -> None:
        nonlocal f
        for token, index in zip(consumed, indices):
            if token is None:
                if f >= filler_count:
                    raise MachineError("lambda burst exceeds the filler window")
                walker.to(F, index)
                f += 1
            else:
                # the rest of the window and the letter, as one block
                walker.idle(F, -1, filler_count - f, (token, index))
                f = 0

    for consumed, indices, _, _, r in run._pieces:
        walker.repeat(partial(lift, consumed, indices), r)

    # the rest of the open filler window comes before the next letter
    needed = len(walker)
    n = walk_length(needed, filler_count - f, prefix_len,
                    letters if blocks is None else len(blocks), "letter")
    if n > needed:
        walker.idle(F, -1, n - needed)

    size = filler_count + 1
    if blocks is None:
        spans = [BlockSpan(i, (i - 1) * size, i * size) for i in range(1, letters + 1)]
    else:
        at = _wrapper_steps(run, {x for bs in blocks for x in (bs.start, bs.end)}, size)
        spans = [BlockSpan(bs.index, at[bs.start], at[bs.end]) for bs in blocks]
    return RunCertificate(walker.run(), "phi", tuple(spans))
