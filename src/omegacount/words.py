"""Finitely presented omega-words and the pad/marker codings.

Words are lassos spoke.cycle^omega.  Coded images (theta, h, phi) have
block lengths growing geometrically, so they are never materialized as
lassos; a prefix comes as (pattern, count) runs from `coded_runs`, and the
letter lists are its expansion.  All positions reported by
the shape checker are 1-based, matching the usual w(1).w(2)... indexing.

Each coding adds fixed fresh letters, defined here once for every builder
and lift: theta's pad E, h's markers A and B and its zero 0 (ZERO), phi's
filler F.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FreshLetterError

E, A, B, ZERO, F = "E", "A", "B", "0", "F"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, slots=True)
class LassoWord:
    """spoke.cycle^omega over a fixed alphabet; cycle nonempty."""

    spoke: tuple[str, ...]
    cycle: tuple[str, ...]
    alphabet: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "spoke", tuple(self.spoke))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")
        for a in self.spoke + self.cycle:
            if a not in self.alphabet:
                raise ValueError(f"letter {a!r} not in alphabet")

    def letters(self) -> Iterator[str]:
        yield from self.spoke
        while True:
            yield from self.cycle


@dataclass(frozen=True, slots=True)
class ThetaCoding:
    S: int

    def __post_init__(self):
        if self.S < 1:
            raise ValueError("theta needs S >= 1")


@dataclass(frozen=True, slots=True)
class HCoding:
    primes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(self.primes))
        if not self.primes:
            raise ValueError("h needs at least one prime")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be distinct")
        for p in self.primes:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")

    @property
    def q(self) -> int:
        out = 1
        for p in self.primes:
            out *= p
        return out


@dataclass(frozen=True, slots=True)
class PhiCoding:
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("phi needs L >= 1")


CodingSpec = ThetaCoding | HCoding | PhiCoding


def coding_fresh_letters(spec: CodingSpec) -> tuple[str, ...]:
    if isinstance(spec, ThetaCoding):
        return (E,)
    if isinstance(spec, HCoding):
        return (A, B, ZERO)
    return (F,)


def _check_letters(letters: tuple[str, ...], alphabet: frozenset[str]) -> None:
    for tok in letters:
        if tok in alphabet:
            raise FreshLetterError(f"coding letter {tok!r} collides with the base alphabet")


def _check_fresh(spec: CodingSpec, alphabet: frozenset[str]) -> None:
    _check_letters(coding_fresh_letters(spec), alphabet)


def coded_alphabet(spec: CodingSpec, alphabet: frozenset[str]) -> frozenset[str]:
    _check_fresh(spec, alphabet)
    return alphabet | set(coding_fresh_letters(spec))


def _expand(runs: Iterable[tuple[tuple[str, ...], int]]) -> Iterator[str]:
    """The letters of (pattern, count) runs, in order."""
    return itertools.chain.from_iterable(itertools.chain.from_iterable(
        itertools.repeat(p, r) for p, r in runs))


def _theta_runs(src: Iterator[str], S: int) -> Iterator[tuple[tuple[str, ...], int]]:
    """x(1).E^S.x(2).E^{S^2}.x(3)... as runs."""
    block = S
    for a in src:
        yield (a,), 1
        yield (E,), block
        block *= S


def _h_runs(src: Iterator[str], q: int) -> Iterator[tuple[str, int]]:
    """The h coding as (letter, count) runs."""
    left = q
    for a in src:
        yield from ((A, 1), (ZERO, left), (a, 1), (B, 1))
        left *= q
        yield ZERO, left


def h_letters(src: Iterator[str], coding: HCoding) -> Iterator[str]:
    """A.0^Q.x(1).B.0^{Q^2}.A.0^{Q^2}.x(2).B.0^{Q^3}... letter by letter."""
    return itertools.chain.from_iterable(
        itertools.repeat(a, n) for a, n in _h_runs(src, coding.q))


def _phi_runs(runs: Iterable[tuple[tuple[str, ...], int]],
              L: int) -> Iterator[tuple[tuple[str, ...], int]]:
    """F^L.y(1).F^L.y(2)...: the run (p, r) becomes (F^L p_1 ... F^L p_m, r)."""
    pad = (F,) * L
    for p, r in runs:
        yield tuple(itertools.chain.from_iterable(pad + (a,) for a in p)), r


def coded_runs(x: LassoWord, chain: Iterable[CodingSpec],
               n: int) -> tuple[tuple[tuple[str, ...], int], ...]:
    """The first n letters of x under a coding chain (innermost first) as
    (pattern, count) runs, whose expansion is coded_prefix(x, chain, n).

    The lasso is (spoke, 1), (cycle, r); theta and h code it one source
    letter at a time into their runs, with one run per pad or 0-block; phi
    maps each run to a run of the same count.  The last run is cut at n,
    mid-pattern if need be."""
    # every source letter codes to at least one letter, so ceil(n / |cycle|)
    # cycles are enough for any chain
    runs: Iterable = ((x.spoke, 1), (x.cycle, max(0, -(-n // len(x.cycle)))))
    alphabet = x.alphabet
    for spec in chain:
        _check_fresh(spec, alphabet)
        if isinstance(spec, ThetaCoding):
            runs = _theta_runs(_expand(runs), spec.S)
        elif isinstance(spec, HCoding):
            runs = (((a,), k) for a, k in _h_runs(_expand(runs), spec.q))
        else:
            runs = _phi_runs(runs, spec.L)
        alphabet = alphabet | set(coding_fresh_letters(spec))
    if n < 0:
        raise ValueError(f"prefix length must be nonnegative, got {n}")
    out = []
    for p, r in runs:
        if not n:
            break
        if not p:
            continue
        whole = min(r, n // len(p))
        if whole:
            out.append((p, whole))
            n -= whole * len(p)
        if whole < r and n:
            out.append((p[:n], 1))
            n = 0
    return tuple(out)


def _take(it: Iterator[str], n: int) -> list[str]:
    if n < 0:
        raise ValueError(f"prefix length must be nonnegative, got {n}")
    return list(itertools.islice(it, n))


def lasso_prefix(w: LassoWord, n: int) -> list[str]:
    return _take(w.letters(), n)


def theta_prefix(x: LassoWord, S: int, n: int) -> list[str]:
    return list(_expand(coded_runs(x, (ThetaCoding(S),), n)))


def theta_positions(S: int, upto: int) -> list[int]:
    """1-based positions of the embedded letters: 1, S+2, S+S^2+3, ...
    stopping once past `upto`."""
    out = []
    p = 1
    block = S
    while p <= upto:
        out.append(p)
        p += block + 1
        block *= S
    return out


def theta_extract(y: list[str] | tuple[str, ...], S: int) -> list[str]:
    """Sample positions 1, S+2, S+S^2+3, ... within |y|; no shape check."""
    return [y[p - 1] for p in theta_positions(S, len(y))]


def h_prefix(x: LassoWord, primes: Iterable[int], n: int) -> list[str]:
    return list(_expand(coded_runs(x, (HCoding(tuple(primes)),), n)))


def phi_prefix(y: LassoWord, L: int, n: int) -> list[str]:
    return list(_expand(coded_runs(y, (PhiCoding(L),), n)))


def coded_prefix(x: LassoWord, chain: Iterable[CodingSpec], n: int) -> list[str]:
    """Apply a coding chain (innermost first) and take the first n letters:
    the expansion of coded_runs."""
    return list(_expand(coded_runs(x, chain, n)))


def prime_valuation(N: int, p: int) -> int:
    """Largest e with p^e dividing N."""
    if N < 1:
        raise ValueError("valuation needs N >= 1")
    if p < 2:
        raise ValueError("p must be at least 2")
    e = 0
    while N % p == 0:
        N //= p
        e += 1
    return e


@dataclass(frozen=True, slots=True)
class HShapeViolation:
    cls: str  # D1 | D2 | D3 | D4
    position: int  # 1-based position where the witness becomes definite


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


@dataclass(frozen=True, slots=True)
class Block:
    u_len: int
    v_len: int
    x: str
    w_len: int
    z_len: int


@dataclass(frozen=True, slots=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    trailing: int  # letters of the prefix not covered by complete blocks


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
