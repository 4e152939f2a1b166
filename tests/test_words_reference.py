"""Differential tests of the one h scan.

`h_shape_check` and `h_block_decompose` read an h-coded prefix through one
scan, `words._h_scan`.  Each is held to its version in `reference_words.py`,
which checks the shape and then cuts the blocks with a second parser: the
same verdict (class and position), and the same decomposition or the same
`ValueError` message under the canonical choices (ratio Q in every block).
"""

import itertools
import random
from collections import Counter

import reference_words as ref
from omegacount.words import (HCoding, LassoWord, coded_prefix, h_block_decompose,
                              h_shape_check)


def _verdict(check, y, sigma, primes):
    v = check(y, sigma, primes)
    return None if v is None else (v.cls, v.position)


def _decomposed(decompose, y, primes):
    try:
        return decompose(y, primes, [(1,) * len(primes)] * 3)
    except ValueError as e:
        return str(e)


def _agree(y, sigma, primes):
    """The verdict and the decomposition, after checking both against the
    reference."""
    verdict = _verdict(h_shape_check, y, sigma, primes)
    assert verdict == _verdict(ref.h_shape_check, y, sigma, primes), y
    got = _decomposed(h_block_decompose, y, primes)
    assert got == _decomposed(ref.h_block_decompose, y, primes), y
    return verdict, got


def test_every_short_word_reads_as_the_reference_reads_it():
    seen = Counter()
    for n in range(9):
        for y in itertools.product("AB0a", repeat=n):
            verdict, _ = _agree(y, {"a"}, (2,))
            seen[verdict and verdict[0]] += 1
    # no block closes inside 8 letters at Q = 2, so D3 needs longer words
    assert set(seen) == {"D1", "D2", "D4", None}


def _mutants(rng, y):
    """y with one letter replaced, y with one inserted and y with one
    deleted, each at a random place."""
    y = list(y)
    at = rng.randrange(len(y))
    yield y[:at] + [rng.choice("AB0ab")] + y[at + 1:]
    at = rng.randint(0, len(y))
    yield y[:at] + [rng.choice("AB0ab")] + y[at:]
    at = rng.randrange(len(y))
    yield y[:at] + y[at + 1:]


def test_seeded_coded_prefixes_with_one_letter_changed_read_as_the_reference():
    rng = random.Random(34)
    primes = (2, 3)
    seen = Counter()
    for _ in range(300):
        x = LassoWord([rng.choice("ab") for _ in range(rng.randint(0, 2))],
                      [rng.choice("ab") for _ in range(rng.randint(1, 3))], {"a", "b"})
        y = coded_prefix(x, (HCoding(primes),), rng.randint(1, 400))
        for word in (y, *_mutants(rng, y)):
            verdict, got = _agree(word, {"a", "b"}, primes)
            seen[verdict and verdict[0]] += 1
            if not isinstance(got, str):
                seen[f"{len(got.blocks)} blocks"] += 1
    assert {"D1", "D2", "D3", "D4", None, "1 blocks", "2 blocks"} <= set(seen)
    assert seen["1 blocks"] + seen["2 blocks"] >= 100
