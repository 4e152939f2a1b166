"""Stack and queue step accounting against hand-computed costs."""

import itertools
from collections import deque

import pytest
from hypothesis import given, strategies as st

from omegacount.errors import UnderflowError
from omegacount.storage import (EncodedStack, add_rear_bound,
                                add_rear_itemized_bound, front_bound,
                                queue_add_rear, queue_empty, queue_front,
                                queue_remove_front, stack_decode, stack_encode,
                                stack_pop, stack_push)


# k = 5 hand values: [2,3] -> (1*5+2)*5+3 = 38

def test_stack_encode_decode_roundtrip():
    assert stack_encode([], 5).j == 1
    assert stack_encode([3], 5).j == 8
    assert stack_encode([2, 3], 5).j == 38
    assert stack_decode(EncodedStack(5, 38)) == (2, 3)
    assert stack_decode(EncodedStack(5, 1)) == ()


def test_stack_costs():
    s = EncodedStack(5, 38)
    s2, cost = stack_push(s, 4)
    assert (s2.j, cost) == (194, 194)         # j*k + r
    digit, s3, cost = stack_pop(s2)
    assert (digit, s3.j, cost) == (4, 38, 194)


def test_stack_rejects_non_codes():
    for bad in (0, -1, 3, 6, 10):
        # 3 lacks the marker, 6 has digit 1 inside, 10 has digit 0
        with pytest.raises(ValueError):
            EncodedStack(5, bad)
    with pytest.raises(ValueError):
        stack_encode([1], 5)
    with pytest.raises(ValueError):
        stack_encode([5], 5)
    with pytest.raises(ValueError):
        stack_encode([2], 2)


def test_stack_underflow():
    empty = EncodedStack(5, 1)
    with pytest.raises(UnderflowError):
        stack_pop(empty)


@given(st.lists(st.integers(2, 5), max_size=7), st.integers(2, 5))
def test_stack_push_pop_model(content, r):
    s = stack_encode(content, 6)
    s2, _ = stack_push(s, r)
    assert stack_decode(s2) == tuple(content) + (r,)
    digit, s3, _ = stack_pop(s2)
    assert digit == r and s3.j == s.j


# queue hand trace, k = 3, r = 2 twice:
#   first add: empty main, probe 2 + push 3+2      -> 7
#   second:    pop 5, push 5, probe 2, push 5,
#              pop 5, push 17, probe 2             -> 41

def test_queue_add_costs_match_hand_trace():
    q = queue_empty(3)
    q = queue_add_rear(q, 2)
    assert q.step_count == 7
    assert q.content == (2,)
    q = queue_add_rear(q, 2)
    assert q.step_count == 7 + 41
    assert q.content == (2, 2)
    digit, q = queue_front(q)
    assert digit == 2
    assert q.step_count == 7 + 41 + 17      # one-way transfer of code 17
    digit, q = queue_remove_front(q)
    assert (digit, q.content) == (2, (2,))


def test_queue_fifo_order():
    q = queue_empty(4)
    for r in (2, 3, 2):
        q = queue_add_rear(q, r)
    out = []
    while q.content:
        d, q = queue_remove_front(q)
        out.append(d)
    assert out == [2, 3, 2]


def test_queue_underflow():
    with pytest.raises(UnderflowError):
        queue_front(queue_empty(3))
    with pytest.raises(UnderflowError):
        queue_remove_front(queue_empty(3))


def _apply(q, model, op, r):
    if op == "add":
        before = q.step_count
        q = queue_add_rear(q, r)
        assert q.step_count - before <= add_rear_bound(len(model), q.k)
        assert q.step_count - before <= add_rear_itemized_bound(len(model), q.k, r)
        model.append(r)
    elif op == "remove":
        before = q.step_count
        d, q = queue_remove_front(q)
        assert q.step_count - before <= front_bound(len(model), q.k)
        assert d == model.popleft()
    else:
        d, q = queue_front(q)
        assert d == model[0]
    assert q.content == tuple(model)
    return q


def test_queue_exhaustive_short_histories():
    # all op sequences of length <= 4 over add(2), add(3), remove, front
    ops = [("add", 2), ("add", 3), ("remove", None), ("front", None)]
    for n in range(1, 5):
        for seq in itertools.product(ops, repeat=n):
            q = queue_empty(4)
            model = deque()
            for op, r in seq:
                if op in ("remove", "front") and not model:
                    with pytest.raises(UnderflowError):
                        _apply(q, model, op, r)
                    break
                q = _apply(q, model, op, r)


@given(st.integers(3, 6),
       st.lists(st.tuples(st.sampled_from(["add", "remove", "front"]),
                          st.integers(0, 3)), max_size=12))
def test_queue_random_histories_track_model(k, script):
    q = queue_empty(k)
    model = deque()
    for op, x in script:
        if op == "add":
            q = _apply(q, model, "add", 2 + x % (k - 2))
        elif model:
            q = _apply(q, model, op, None)
    assert q.content == tuple(model)


def test_bounds_are_the_stated_formulas():
    assert add_rear_bound(0, 3) == 36
    assert add_rear_bound(2, 4) == 8 ** 4
    assert front_bound(1, 3) == 9
    assert front_bound(3, 6) == 6 ** 4
