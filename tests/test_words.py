"""Coding layers against hand-expanded prefixes.

Expected sequences here are written out from the coding definitions, not
computed with the functions under test.
"""

import pytest
from hypothesis import given, settings, strategies as st

from omegacount.fileio import WordSpec

from omegacount.words import (Block, HCoding, LassoWord, PhiCoding,
                              ThetaCoding, coded_alphabet, coded_prefix,
                              coding_fresh_letters, h_block_decompose,
                              h_prefix, h_shape_check, lasso_prefix,
                              phi_prefix, prime_valuation, theta_extract,
                              theta_positions, theta_prefix)

AB = LassoWord((), ("a", "b"), frozenset({"a", "b"}))


def test_lasso_prefix_unrolls_cycle():
    w = LassoWord(("c",), ("a", "b"), frozenset({"a", "b", "c"}))
    assert lasso_prefix(w, 6) == ["c", "a", "b", "a", "b", "a"]


# theta, S = 2: x(1) E E x(2) E E E E x(3) ...

def test_theta_prefix_hand_expansion():
    assert theta_prefix(AB, 2, 10) == ["a", "E", "E", "b", "E", "E", "E", "E", "a", "E"]
    assert theta_prefix(AB, 1, 6) == ["a", "E", "b", "E", "a", "E"]


def test_theta_positions_and_extract():
    # source letters sit at 1, 4, 9, 18 for S = 2 (1-based)
    assert theta_positions(2, 18) == [1, 4, 9, 18]
    assert theta_extract(theta_prefix(AB, 2, 10), 2) == ["a", "b", "a"]
    # positions 1, 4, 9, 18, 35 all fall inside a 40-letter prefix
    assert theta_extract(theta_prefix(AB, 2, 40), 2) == ["a", "b", "a", "b", "a"]


@given(st.integers(1, 4), st.integers(0, 120))
def test_theta_extract_inverts_prefix(S, n):
    got = theta_extract(theta_prefix(AB, S, n), S)
    want = [AB.cycle[i % 2] for i in range(len(got))]
    assert got == want


# h, primes (2,3), Q = 6: A 0^6 x(1) B 0^36 A 0^36 x(2) B 0^216 ...

def test_h_prefix_hand_expansion():
    assert h_prefix(AB, (2, 3), 9) == ["A"] + ["0"] * 6 + ["a", "B"]
    got = h_prefix(AB, (2, 3), 47)
    assert got[9:45] == ["0"] * 36
    assert got[45] == "A"
    assert got[46] == "0"


def test_phi_prefix_hand_expansion():
    assert phi_prefix(AB, 5, 13) == ["F"] * 5 + ["a"] + ["F"] * 5 + ["b", "F"]
    with pytest.raises(ValueError):
        phi_prefix(AB, 0, 3)


def test_coded_prefix_composes_innermost_first():
    # theta inside phi: phi letters over the theta-coded stream
    chain = (ThetaCoding(2), PhiCoding(1))
    got = coded_prefix(AB, chain, 8)
    assert got == ["F", "a", "F", "E", "F", "E", "F", "b"]


PREFIXES = {
    "lasso_prefix": lambda n: lasso_prefix(AB, n),
    "theta_prefix": lambda n: theta_prefix(AB, 2, n),
    "h_prefix": lambda n: h_prefix(AB, (2, 3), n),
    "phi_prefix": lambda n: phi_prefix(AB, 1, n),
    "coded_prefix": lambda n: coded_prefix(AB, (ThetaCoding(2), PhiCoding(1)), n),
    "WordSpec.prefix_letters": lambda n: WordSpec(
        AB, (HCoding((2, 3)),), None).prefix_letters(n),
}


@pytest.mark.parametrize("name", sorted(PREFIXES))
def test_prefix_refuses_a_negative_length(name):
    take = PREFIXES[name]
    with pytest.raises(ValueError, match="^prefix length must be nonnegative, got -1$"):
        take(-1)
    assert take(0) == []


def test_coding_fresh_letters_and_alphabet():
    assert coding_fresh_letters(ThetaCoding(3)) == ("E",)
    assert set(coding_fresh_letters(HCoding((2, 3)))) == {"A", "B", "0"}
    assert coded_alphabet(PhiCoding(2), frozenset({"a"})) == frozenset({"a", "F"})


def test_prime_valuation():
    assert prime_valuation(12, 2) == 2
    assert prime_valuation(12, 3) == 1
    assert prime_valuation(7, 2) == 0
    with pytest.raises(ValueError):
        prime_valuation(0, 2)


# canonical split of h(x) with ratio Q per block:
#   block 1: u=0^5 v=0^1 x=a w=0^6 z=0^30
#   block 2: u=0^30 v=0^6 x=b w=0^36 z=0^180

def test_h_block_decompose_canonical():
    y = h_prefix(AB, (2, 3), 46)
    d = h_block_decompose(y, (2, 3), [(1, 1)])
    assert d.blocks == (Block(5, 1, "a", 6, 30),)
    assert d.trailing == 1
    y = h_prefix(AB, (2, 3), 301)
    d = h_block_decompose(y, (2, 3), [(1, 1), (1, 1)])
    assert d.blocks[1] == Block(30, 6, "b", 36, 180)
    assert d.trailing == 1


def test_h_block_decompose_incomplete_block_is_trailing():
    y = h_prefix(AB, (2, 3), 200)
    d = h_block_decompose(y, (2, 3), [(1, 1), (1, 1)])
    assert d.blocks == (Block(5, 1, "a", 6, 30),)
    assert d.trailing == 155


def test_h_block_decompose_rejects_infeasible_choice():
    y = h_prefix(AB, (2, 3), 301)
    with pytest.raises(ValueError):
        h_block_decompose(y, (2, 3), [(9, 9)])


# shape violations, positions 1-based at the letter completing the witness

def test_h_shape_check_clean_prefixes():
    for n in (1, 9, 45, 46, 300):
        assert h_shape_check(h_prefix(AB, (2, 3), n), {"a", "b"}, (2, 3)) is None


def test_h_shape_check_d1_short_first_run():
    y = ["A", "0", "0", "0", "0", "0", "a", "B"]
    v = h_shape_check(y, {"a", "b"}, (2, 3))
    assert v is not None and v.cls == "D1" and v.position == 7


def test_h_shape_check_d2_pattern_break():
    y = h_prefix(AB, (2, 3), 9) + ["0", "0", "0", "b"]
    v = h_shape_check(y, {"a", "b"}, (2, 3))
    assert v is not None and v.cls == "D2" and v.position == 13


def test_h_shape_check_d3_unequal_runs():
    y = h_prefix(AB, (2, 3), 46) + ["0", "0", "b"]
    v = h_shape_check(y, {"a", "b"}, (2, 3))
    assert v is not None and v.cls == "D3" and v.position == 49


def test_h_shape_check_d4_wrong_ratio():
    y = h_prefix(AB, (2, 3), 9) + ["0"] * 5 + ["A"]
    v = h_shape_check(y, {"a", "b"}, (2, 3))
    assert v is not None and v.cls == "D4" and v.position == 15


def test_h_shape_check_stalled_run_is_open():
    # over-long 0-run with no closing letter yet: not classifiable
    y = h_prefix(AB, (2, 3), 46) + ["0"] * 50
    assert h_shape_check(y, {"a", "b"}, (2, 3)) is None


@settings(max_examples=60)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 400))
def test_h_prefix_never_violates_shape(spoke_len, cyc_len, n):
    w = LassoWord(tuple("ab"[i % 2] for i in range(spoke_len)),
                  tuple("ba"[i % 2] for i in range(cyc_len)),
                  frozenset({"a", "b"}))
    assert h_shape_check(h_prefix(w, (2, 3), n), {"a", "b"}, (2, 3)) is None


@given(st.integers(1, 5), st.integers(0, 200))
def test_phi_prefix_cadence(L, n):
    y = phi_prefix(AB, L, n)
    for i, a in enumerate(y):
        if i % (L + 1) == L:
            assert a in {"a", "b"}
        else:
            assert a == "F"
