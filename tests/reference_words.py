"""Reference h shape check and block splitter for the differential tests.

These are `omegacount.words.h_shape_check` and `h_block_decompose` as they
were before the one scan: the shape check walks the prefix for its D1-D4
verdict, and `h_block_decompose` runs it and then cuts the same prefix
into blocks with a second parser.  They must keep behaving as they do
here; the one scan is tested against them.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from omegacount.words import (A, B, ZERO, Block, BlockDecomposition, HCoding,
                              HShapeViolation)


def h_shape_check(y: list[str] | tuple[str, ...], sigma: Iterable[str],
                  primes: Iterable[int]) -> HShapeViolation | None:
    """First definite D1-D4 witness in the prefix, or None.

    None means: no witness COMPLETES inside the prefix.  Stalled pattern
    tails (an over-long 0-run still open at the prefix end) are not
    classifiable between D2/D3/D4 until more letters arrive, so they
    report None; full D2 semantics lives in the complement automaton.
    Letters outside sigma and the marker set count as pattern breaks (D2).
    """
    q = HCoding(tuple(primes)).q
    sigma = frozenset(sigma)

    # block 1 template A.0^Q.sigma.B: any deviation is a definite D1
    for j, a in enumerate(y[:q + 3], start=1):
        if j == 1:
            want_ok = a == A
        elif j <= q + 1:
            want_ok = a == ZERO
        elif j == q + 2:
            want_ok = a in sigma
        else:
            want_ok = a == B
        if not want_ok:
            return HShapeViolation("D1", j)
    if len(y) <= q + 3:
        return None

    # after the first block header: pattern (0^+ A 0^+ sigma B)^omega with
    # the D3/D4 length equations checked as each segment closes
    prev_a_run = q   # 0-run between the last A and its sigma
    prev_b_run = 0   # 0-run after the last B, set once it closes
    state = "b_run"  # counting 0s after B
    run = 0
    for j, a in enumerate(itertools.islice(y, q + 3, None), start=q + 4):
        if state == "b_run":
            if a == ZERO:
                run += 1
            elif a == A:
                if run == 0:
                    return HShapeViolation("D2", j)  # adjacent markers
                if run != q * prev_a_run:
                    return HShapeViolation("D4", j)
                prev_b_run = run
                state = "a_run"
                run = 0
            else:
                return HShapeViolation("D2", j)
        elif state == "a_run":
            if a == ZERO:
                run += 1
            elif a in sigma:
                if run == 0:
                    return HShapeViolation("D2", j)
                if run != prev_b_run:
                    return HShapeViolation("D3", j)
                prev_a_run = run
                state = "sigma_done"
            else:
                return HShapeViolation("D2", j)
        else:  # sigma_done: B must follow immediately
            if a != B:
                return HShapeViolation("D2", j)
            state = "b_run"
            run = 0
    return None


def h_block_decompose(y: list[str] | tuple[str, ...], primes: Iterable[int],
                      j_choices: list[tuple[int, ...]]) -> BlockDecomposition:
    """Split each block's 0-runs as u.v and w.z under the given exponent
    choices: |w_i| = |v_i| * prod p_t^{j_t}, |u_1| = Q-1, |u_{i+1}| = |z_i|.

    A block counts as complete only once the next block's A appears (the
    closing 0-run length is not known before that).  Parsing stops at the
    first incomplete block or when j_choices run out; everything after the
    last complete block is `trailing`.  Infeasible choices (w would not be
    a positive integer, or would overflow the closing 0-run) raise.
    """
    coding = HCoding(tuple(primes))
    sigma = frozenset(y) - {A, B, ZERO}
    bad = h_shape_check(y, sigma, coding.primes)
    if bad is not None:
        raise ValueError(f"prefix is not h-shaped: {bad.cls} at position {bad.position}")
    q = coding.q
    primes_t = coding.primes

    # cut the prefix into completed blocks: (a_run, x, b_run, end_position)
    spans = []
    pos = 0
    n = len(y)
    while True:
        if pos >= n or y[pos] != A:
            break
        p2 = pos + 1
        while p2 < n and y[p2] == ZERO:
            p2 += 1
        if p2 >= n or y[p2] not in sigma:
            break
        a_run = p2 - (pos + 1)
        x = y[p2]
        if p2 + 1 >= n or y[p2 + 1] != B:
            break
        p3 = p2 + 2
        while p3 < n and y[p3] == ZERO:
            p3 += 1
        if p3 >= n:   # closing 0-run still open, block incomplete
            break
        b_run = p3 - (p2 + 2)
        spans.append((a_run, x, b_run, p3))
        pos = p3
    blocks: list[Block] = []
    u_len = q - 1
    covered = 0
    for i, (a_run, x, b_run, end) in enumerate(spans):
        if i >= len(j_choices):
            break
        choice = j_choices[i]
        if len(choice) != len(primes_t):
            raise ValueError(f"block {i + 1}: choice arity {len(choice)} != {len(primes_t)} primes")
        v_len = a_run - u_len
        if v_len < 1:
            raise ValueError(f"block {i + 1}: u overlaps the whole 0-run (v empty)")
        num = v_len
        den = 1
        for p, e in zip(primes_t, choice):
            if e >= 0:
                num *= p ** e
            else:
                den *= p ** (-e)
        if num % den != 0:
            raise ValueError(f"block {i + 1}: {den} does not divide {v_len} times the positive part")
        w_len = num // den
        if w_len < 1:
            raise ValueError(f"block {i + 1}: w must be nonempty")
        if w_len > b_run:
            raise ValueError(f"block {i + 1}: w of length {w_len} exceeds the closing 0-run ({b_run})")
        z_len = b_run - w_len
        blocks.append(Block(u_len, v_len, x, w_len, z_len))
        u_len = z_len
        covered = end
    return BlockDecomposition(tuple(blocks), len(y) - covered)
