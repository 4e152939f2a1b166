"""Pad-factor acceptor: structure, pinned dumps, size cap, certificates,
corruption detection."""

import hashlib
import random

import pytest

import omegacount.constructions.theta as theta
from omegacount.constructions import build_theta_acceptor, theta_certificate
from omegacount.engine import deterministic_run, exact_prefix_reach
from omegacount.errors import BuildScaleError, FreshLetterError
from omegacount.fileio import dump_automaton
from omegacount.machines import is_real_time, validate_run
from omegacount.words import LassoWord, theta_prefix

AB = LassoWord((), ("a", "b"), frozenset({"a", "b"}))


def test_acceptor_shape():
    b = build_theta_acceptor({"a", "b"}, 3)
    assert b.machine.k == 2
    assert is_real_time(b.machine)
    assert len(b.machine.states) == 3 * 3 + 4
    assert b.machine.alphabet == frozenset({"a", "b", "E"})
    assert b.accepting == frozenset({"landA", "landB"})


def test_acceptor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_theta_acceptor({"a"}, 0)
    with pytest.raises(FreshLetterError):
        build_theta_acceptor({"a", "E"}, 2)
    with pytest.raises(ValueError):
        build_theta_acceptor(set(), 2)


DUMPS = {
    ("a", 1): "52c135ba7e4213ab", ("a", 2): "1d735edbcc79dabf",
    ("a", 3): "6e835a7f510d8a16", ("a", 72): "70b84885dae0065c",
    ("a", 288): "989f48eab85a6e15", ("ab", 1): "85c02e254731dbb1",
    ("ab", 2): "8e868f1f47c77bb2", ("ab", 3): "36eb55c47a725482",
    ("ab", 72): "887ffb28e7ace82f", ("ab", 288): "5e1e4872ee0b052d",
}


@pytest.mark.parametrize("sigma, S", sorted(DUMPS))
def test_acceptor_dump_is_pinned(sigma, S):
    text = dump_automaton(build_theta_acceptor(set(sigma), S))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DUMPS[sigma, S]


def test_acceptor_past_its_cap_is_refused_before_the_build(monkeypatch):
    with pytest.raises(BuildScaleError, match="needs 400003 states") as exc:
        build_theta_acceptor({"a"}, 133_333)
    assert (exc.value.estimated_states, exc.value.cap) == (400_003, theta.STATE_CAP)
    # the largest S under the cap still builds
    monkeypatch.setattr(theta, "STATE_CAP", 3 * 5 + 4)
    assert len(build_theta_acceptor({"a"}, 5).machine.states) == 3 * 5 + 4
    with pytest.raises(BuildScaleError):
        build_theta_acceptor({"a"}, 6)


def test_acceptor_is_deterministic_on_coded_prefixes():
    b = build_theta_acceptor({"a", "b"}, 2)
    word = theta_prefix(AB, 2, 60)
    run = deterministic_run(b, word)  # raises if any step is not unique
    assert validate_run(b.machine, word, run) is None


def test_certificate_visits_once_per_block():
    for S in (1, 2, 3):
        cert = theta_certificate(AB, S, 5)
        b = build_theta_acceptor(AB.alphabet, S)
        word = [s.consumed for s in cert.run.steps]
        assert validate_run(b.machine, word, cert.run) is None
        assert cert.block_visits(b.accepting) == {i: 1 for i in range(1, 6)}
        # spans tile the run after the opening letter
        assert cert.blocks[0].start == 1
        assert cert.blocks[-1].end == len(cert.run.steps)
        for left, right in zip(cert.blocks, cert.blocks[1:]):
            assert left.end == right.start


def test_certificate_block_lengths():
    cert = theta_certificate(AB, 3, 4)
    for span in cert.blocks:
        assert span.end - span.start == 3 ** span.index + 1


def test_reach_survives_genuine_prefix_and_dies_on_corruption():
    b = build_theta_acceptor({"a", "b"}, 2)
    word = theta_prefix(AB, 2, 40)
    clean = exact_prefix_reach(b, word)
    assert clean.first_empty_position() is None

    rng = random.Random(11)
    alphabet = sorted(b.machine.alphabet)
    for _ in range(10):
        pos = rng.randrange(1, len(word))
        swap = rng.choice([a for a in alphabet if a != word[pos]])
        corrupted = word[:pos] + [swap] + word[pos + 1:]
        r = exact_prefix_reach(b, corrupted)
        died = r.first_empty_position()
        assert died is not None and died >= pos


def test_reach_dies_on_wrong_pad_run_length():
    b = build_theta_acceptor({"a"}, 2)
    # second pad run one letter short: 3 pads instead of 4
    word = ["a", "E", "E", "a", "E", "E", "E", "a"]
    r = exact_prefix_reach(b, word)
    assert r.first_empty_position() is not None


def test_single_letter_alphabet_and_s1():
    w = LassoWord((), ("a",), frozenset({"a"}))
    cert = theta_certificate(w, 1, 6)
    b = build_theta_acceptor({"a"}, 1)
    assert cert.block_visits(b.accepting) == {i: 1 for i in range(1, 7)}
