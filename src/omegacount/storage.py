"""Stack-as-integer and queue-on-four-counters with unit-step accounting.

A stack over symbols Z_2..Z_{k-1} with bottom marker Z_1 is one integer
j = i_m + k*i_{m-1} + ... + k^{m-1}*i_1 + k^m (top symbol = least
significant digit).  Codes whose base-k digits contain 0, or 1 anywhere
but the leading position, represent no stack content.

One unit step = one simultaneous counter-vector update of the simulating
machine (deltas are +-1 per counter, several counters may move at once).
Finite-control bookkeeping is free.  Charged choreography:

  pop(j)            j steps   (j decrements; every k-th also bumps the
                               partner counter, digit tallied in control)
  push(j, r)        j*k + r   (k partner increments per decrement, r tail)
  one-way transfer  j         (front: digit read without restoring side)
  empty probe       2         (decrement sees zero, restore)

The queue holds its content on a main stack front-on-top; adding at the
rear empties main onto a scratch stack, pushes the new symbol, and moves
everything back.  A control bit skips the move-back when nothing moved,
so adding to an empty queue costs exactly 2 + k + r.  Each move is one
`_drain`, which charges each symbol through `stack_pop` and `stack_push`
and ends with the empty probe, so each cost above is written once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import UnderflowError


def _check_base(k: int) -> None:
    if k < 3:
        raise ValueError("stack base k must be at least 3 (symbols live in 2..k-1)")


def _check_symbol(r: int, k: int) -> None:
    if not (2 <= r <= k - 1):
        raise ValueError(f"symbol index {r} outside 2..{k - 1}")


@dataclass(frozen=True, slots=True)
class EncodedStack:
    k: int
    j: int

    def __post_init__(self):
        _check_base(self.k)
        if self.j < 1:
            raise ValueError("stack code must be >= 1")
        v = self.j
        while v >= self.k:
            d = v % self.k
            if d < 2:
                raise ValueError(f"code {self.j} has base-{self.k} digit {d}; not a stack content")
            v //= self.k
        if v != 1:
            raise ValueError(f"code {self.j} lacks the leading bottom-marker digit 1")

    @property
    def is_empty(self) -> bool:
        return self.j == 1


def stack_encode(content: list[int] | tuple[int, ...], k: int) -> EncodedStack:
    """content[0] is the bottom symbol, content[-1] the top."""
    _check_base(k)
    j = 1
    for r in content:
        _check_symbol(r, k)
        j = j * k + r
    return EncodedStack(k, j)


def stack_decode(s: EncodedStack) -> tuple[int, ...]:
    """Symbols bottom..top, bottom marker omitted."""
    out = []
    v = s.j
    while v > 1:
        out.append(v % s.k)
        v //= s.k
    return tuple(reversed(out))


def stack_push(s: EncodedStack, r: int) -> tuple[EncodedStack, int]:
    _check_symbol(r, s.k)
    cost = s.j * s.k + r
    return EncodedStack(s.k, s.j * s.k + r), cost


def stack_pop(s: EncodedStack) -> tuple[int, EncodedStack, int]:
    if s.is_empty:
        raise UnderflowError("pop of empty stack")
    return s.j % s.k, EncodedStack(s.k, s.j // s.k), s.j


PROBE_COST = 2


@dataclass(frozen=True, slots=True)
class CountedQueue:
    """FIFO on four counters: (main pair, scratch pair).

    counters is the resting global state; the side bits say which counter
    of each pair currently holds the stack code.  step_count accumulates
    every unit step ever charged.
    """

    k: int
    counters: tuple[int, int, int, int]
    main_side: int
    scratch_side: int
    step_count: int

    def _main(self) -> EncodedStack:
        return EncodedStack(self.k, self.counters[self.main_side])

    def _scratch(self) -> EncodedStack:
        return EncodedStack(self.k, self.counters[2 + self.scratch_side])

    def _with_main(self, j: int, side: int | None = None, add_steps: int = 0) -> "CountedQueue":
        side = self.main_side if side is None else side
        c = [0, 0, self.counters[2], self.counters[3]]
        c[side] = j
        return replace(self, counters=tuple(c), main_side=side,
                       step_count=self.step_count + add_steps)

    @property
    def content(self) -> tuple[int, ...]:
        """Symbols front..rear (front is the top of the main stack)."""
        dec = stack_decode(self._main())
        return tuple(reversed(dec))

    def __len__(self) -> int:
        return len(self.content)


def queue_empty(k: int) -> CountedQueue:
    _check_base(k)
    return CountedQueue(k, (1, 0, 1, 0), 0, 0, 0)


def _drain(src: EncodedStack, dst: EncodedStack) -> tuple[EncodedStack, EncodedStack, int, int]:
    """Pop src onto dst symbol by symbol, then probe src's bottom:
    (src, dst, unit steps, symbols moved); each move flips both pairs."""
    cost = moved = 0
    while not src.is_empty:
        digit, src, pop_cost = stack_pop(src)
        dst, push_cost = stack_push(dst, digit)
        cost += pop_cost + push_cost
        moved += 1
    return src, dst, cost + PROBE_COST, moved


def queue_add_rear(q: CountedQueue, r: int) -> CountedQueue:
    """Insert r at the rear: drain main onto scratch, push r, drain back."""
    main, scratch, cost, moved = _drain(q._main(), q._scratch())
    main, push_cost = stack_push(main, r)
    back = 0
    if moved:  # the drain back is skipped when nothing moved
        scratch, main, back_cost, back = _drain(scratch, main)
        cost += back_cost
    flips = moved + back  # and the push flips the main pair once more
    main_side, scratch_side = q.main_side ^ (flips + 1) & 1, q.scratch_side ^ flips & 1
    counters = [0, 0, 0, 0]
    counters[main_side] = main.j
    counters[2 + scratch_side] = scratch.j
    return CountedQueue(q.k, tuple(counters), main_side, scratch_side,
                        q.step_count + cost + push_cost)


def queue_front(q: CountedQueue) -> tuple[int, CountedQueue]:
    """Read the front symbol: one-way transfer of the main code (j steps);
    the value ends up on the other counter of the pair."""
    main = q.counters[q.main_side]
    if main == 1:
        raise UnderflowError("front of empty queue")
    digit = main % q.k
    out = q._with_main(main, q.main_side ^ 1, add_steps=main)
    return digit, out


def queue_remove_front(q: CountedQueue) -> tuple[int, CountedQueue]:
    main = q.counters[q.main_side]
    if main == 1:
        raise UnderflowError("remove from empty queue")
    digit = main % q.k
    out = q._with_main(main // q.k, q.main_side ^ 1, add_steps=main)
    return digit, out


def add_rear_bound(m: int, k: int) -> int:
    """(2k)^{m+2}: the coarse per-add bound (m = length before the add)."""
    return (2 * k) ** (m + 2)


def add_rear_itemized_bound(m: int, k: int, r: int) -> int:
    """2mk^{m+1} + 2 + k + r + mk^{m+1} + mk^{m+2}: the itemized bound."""
    return 2 * m * k ** (m + 1) + 2 + k + r + m * k ** (m + 1) + m * k ** (m + 2)


def front_bound(m: int, k: int) -> int:
    """k^{m+1}: bound for front and remove_front (m = current length)."""
    return k ** (m + 1)
