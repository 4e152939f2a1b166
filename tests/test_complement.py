"""Defect acceptors for the marker coding and their union."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from omegacount.constructions import build_h_complement
import omegacount.constructions.complement as complement
from omegacount.constructions.complement import (build_d1, build_d2, build_d3,
                                                 build_d4)
from omegacount.engine import d34_witness_scan, exact_prefix_reach, nba_lasso_member
from omegacount.errors import BuildScaleError, FreshLetterError
from omegacount.machines import is_real_time
from omegacount.words import HCoding, LassoWord, coded_prefix, h_shape_check

SIGMA = frozenset({"a", "b"})
AB = LassoWord((), ("a", "b"), SIGMA)
FULL = frozenset({"a", "b", "A", "B", "0"})


def _lasso(spoke, cycle):
    return LassoWord(tuple(spoke), tuple(cycle), FULL)


def test_d1_checks_the_opening_template():
    d1 = build_d1(SIGMA, (2, 3))
    assert d1.machine.k == 0
    # genuine opening A 0^6 a B: not a defect
    good = _lasso(["A"] + ["0"] * 6 + ["a", "B"], ["0"])
    assert nba_lasso_member(d1, good) is False
    short = _lasso(["A"] + ["0"] * 5 + ["a", "B"], ["0"])
    assert nba_lasso_member(d1, short) is True
    assert nba_lasso_member(d1, _lasso(["B"], ["0"])) is True
    assert nba_lasso_member(d1, _lasso([], ["0"])) is True


def test_d2_checks_the_cyclic_pattern():
    d2 = build_d2(SIGMA, (2, 3))
    assert d2.machine.k == 0
    fits = _lasso([], ["A", "0", "a", "B", "0"])
    assert nba_lasso_member(d2, fits) is False
    fits_long = _lasso([], ["A", "0", "0", "b", "B", "0", "0", "0"])
    assert nba_lasso_member(d2, fits_long) is False
    # stalling in zeros forever is a defect
    stall = _lasso(["A", "0", "a", "B"], ["0"])
    assert nba_lasso_member(d2, stall) is True
    broken = _lasso([], ["A", "a", "B", "0"])   # missing zeros after A
    assert nba_lasso_member(d2, broken) is True
    double = _lasso([], ["A", "0", "a", "a", "B", "0"])
    assert nba_lasso_member(d2, double) is True


def _bad_positions(b, letters):
    r = exact_prefix_reach(b, letters)
    return [i for i, f in enumerate(r.frontiers)
            if any(cfg.state == "bad" for cfg in f)]


def test_d3_sink_reached_exactly_at_the_closing_letter():
    d3 = build_d3(SIGMA, (2, 3))
    assert d3.machine.k == 1 and is_real_time(d3.machine)
    letters = ["B"] + ["0"] * 3 + ["A"] + ["0"] * 2 + ["b", "0"]
    hits = _bad_positions(d3, letters)
    assert hits and hits[0] == 8  # the b seals n=3 != m=2
    equal = ["B"] + ["0"] * 3 + ["A"] + ["0"] * 3 + ["b", "0"]
    assert _bad_positions(d3, equal) == []


def test_d4_sink_respects_the_q_ratio():
    d4 = build_d4(SIGMA, (2, 3))
    assert d4.machine.k == 1 and is_real_time(d4.machine)
    wrong = ["A", "0", "0", "a", "B"] + ["0"] * 5 + ["A"]
    hits = _bad_positions(d4, wrong)
    assert hits and hits[0] == 11  # m=5 != 6*2
    exact = ["A", "0", "a", "B"] + ["0"] * 6 + ["A"]
    assert _bad_positions(d4, exact) == []
    multiple_but_wrong = ["A", "0", "a", "B"] + ["0"] * 12 + ["A"]
    assert _bad_positions(d4, multiple_but_wrong) != []


def test_d34_sinks_agree_with_witness_scan_on_seeded_lassos():
    d3 = build_d3(frozenset({"a"}), (2, 3))
    d4 = build_d4(frozenset({"a"}), (2, 3))
    rng = random.Random(5)
    pool = ["A", "B", "0", "a"]
    for _ in range(300):
        spoke = [rng.choice(pool) for _ in range(rng.randrange(0, 6))]
        cycle = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
        w = LassoWord(tuple(spoke), tuple(cycle), frozenset(pool))
        span = len(spoke) + 2 * len(cycle)
        from omegacount.words import lasso_prefix
        letters = lasso_prefix(w, span)
        reached = bool(_bad_positions(d3, letters) or _bad_positions(d4, letters))
        scanned = d34_witness_scan(w, 6, span=span) is not None
        assert reached == scanned, (spoke, cycle)


def test_h_complement_is_a_real_time_union():
    c = build_h_complement(SIGMA, (2, 3))
    assert c.machine.k == 1
    assert is_real_time(c.machine)
    assert c.machine.alphabet == FULL


def test_h_complement_never_fires_on_genuine_images():
    c = build_h_complement(SIGMA, (2, 3))
    letters = coded_prefix(AB, (HCoding((2, 3)),), 300)
    r = exact_prefix_reach(c, letters)
    # guessing branches may die, but no sink is ever entered
    for f in r.frontiers:
        assert not any(cfg.state.endswith("bad") for cfg in f)


def test_d1_and_d4_count_their_states_before_building(monkeypatch):
    for primes in ((2,), (3,), (2, 3), (2, 5), (3, 5, 7)):
        q = HCoding(primes).q
        d1, d4 = build_d1(SIGMA, primes), build_d4(SIGMA, primes)
        assert (len(d1.machine.states), len(d4.machine.states)) == (q + 5, q + 7)
        # D2 and D3 do not grow with Q
        assert len(build_d2(SIGMA, primes).machine.states) == 8
        assert len(build_d3(SIGMA, primes).machine.states) == 6
        monkeypatch.setattr(complement, "STATE_CAP", q + 6)
        assert len(build_d1(SIGMA, primes).machine.states) == q + 5
        with pytest.raises(BuildScaleError, match=f"^D4 needs {q + 7} states, "
                           f"past the cap of {q + 6}$") as e:
            build_d4(SIGMA, primes)
        assert (e.value.estimated_states, e.value.cap) == (q + 7, q + 6)
        monkeypatch.setattr(complement, "STATE_CAP", q + 4)
        with pytest.raises(BuildScaleError, match=f"^D1 needs {q + 5} states"):
            build_h_complement(SIGMA, primes)
        monkeypatch.undo()
    # the paper's eight primes are refused before the 9,699,695 states of
    # D1 are built
    with pytest.raises(BuildScaleError) as e:
        build_h_complement(SIGMA, (2, 3, 5, 7, 11, 13, 17, 19))
    assert (e.value.estimated_states, e.value.cap) == (9_699_695, 250_000)


def test_h_complement_rejects_marker_clash():
    with pytest.raises(FreshLetterError):
        build_h_complement(frozenset({"a", "A"}), (2, 3))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["A", "B", "0", "a"]), min_size=1, max_size=24))
def test_union_sink_matches_shape_check_class(letters):
    # D3/D4 completion in the prefix implies the respective sink fires at
    # that exact position, and conversely
    d3 = build_d3(frozenset({"a"}), (2, 3))
    d4 = build_d4(frozenset({"a"}), (2, 3))
    v = h_shape_check(letters, {"a"}, (2, 3))
    hits3 = _bad_positions(d3, letters)
    hits4 = _bad_positions(d4, letters)
    if v is not None and v.cls == "D3":
        assert hits3 and hits3[0] <= v.position
    if v is not None and v.cls == "D4":
        assert hits4 and hits4[0] <= v.position
    if not hits3 and not hits4:
        assert v is None or v.cls in ("D1", "D2")
