"""Acceptance gate: one test per headline property, at stated tolerances.

Each test prints a single pass line with the checked counts; a failing
property fails its test.  Criterion 6's exhaustive sweep over all lassos up
to total length 10 takes about an hour in pure Python, so the default run
is exhaustive up to length 6 plus a seeded sample of the longer lengths;
set OMEGA_FULL_SWEEP=1 for the full sweep.
"""

import itertools
import math
import os
import random
import time

import pytest

from omegacount.cli import main
from omegacount.constructions import (build_d1, build_d2, build_d3, build_d4,
                                      build_phi_wrapper, build_realtime8,
                                      build_script_L, build_theta_acceptor,
                                      compose_pipeline, covered_prefix_length,
                                      lift_run_phi, lift_run_pipeline,
                                      lift_run_script_L, lift_run_theta,
                                      project_run_script_L,
                                      realtime8_pad_factor, theta_certificate)
from omegacount.engine import (d34_witness_scan, exact_prefix_reach,
                               nba_lasso_member)
from omegacount.fileio import dump_automaton
from omegacount.machines import is_real_time, lambda_burst_bound, validate_run
from omegacount.storage import (queue_add_rear, queue_empty, queue_front,
                                queue_remove_front, stack_decode, stack_encode,
                                stack_pop, stack_push)
from omegacount.words import LassoWord, h_block_decompose, theta_prefix

from conftest import (lasso_member_oracle, m1_aomega, m2_two_counters,
                      m3_alternator, run_of)

QUEUE_KS = (3, 4, 5, 6)
PRIMES = (2, 3)

_queue_results = {}


def queue_harness():
    """Measure every add/front/remove against the closed-form bounds."""
    if _queue_results:
        return _queue_results
    t0 = time.time()
    add_bad = []
    front_bad = []
    ops = 0

    def measure_all(q):
        nonlocal ops
        m = len(q.content)
        for r in range(2, q.k):
            q2 = queue_add_rear(q, r)
            ops += 1
            if q2.step_count - q.step_count > (2 * q.k) ** (m + 2):
                add_bad.append((q.k, m, r))
        if m:
            for op in (queue_front, queue_remove_front):
                _, q3 = op(q)
                ops += 1
                if q3.step_count - q.step_count > q.k ** (m + 1):
                    front_bad.append((q.k, m, op.__name__))

    for k in QUEUE_KS:
        # every queue content of length <= 3, reached by rear adds
        for m in range(4):
            for content in itertools.product(range(2, k), repeat=m):
                q = queue_empty(k)
                for r in content:
                    q = queue_add_rear(q, r)
                measure_all(q)
        # seeded histories wandering up to m = 6
        rng = random.Random(20_26 * k)
        for _ in range(500):
            q = queue_empty(k)
            for _ in range(24):
                m = len(q.content)
                before = q.step_count
                if m and (m >= 6 or rng.random() < 0.4):
                    _, q = queue_remove_front(q)
                    ops += 1
                    if q.step_count - before > k ** (m + 1):
                        front_bad.append((k, m, "remove"))
                else:
                    r = rng.randrange(2, k)
                    q = queue_add_rear(q, r)
                    ops += 1
                    if q.step_count - before > (2 * k) ** (m + 2):
                        add_bad.append((k, m, r))
    _queue_results.update(add=add_bad, front=front_bad, ops=ops,
                          secs=time.time() - t0)
    return _queue_results


def test_criterion_1_add_rear_bound():
    res = queue_harness()
    assert res["secs"] < 10.0
    assert res["add"] == []
    print(f"criterion 1 PASS: {res['ops']} queue ops, every add within "
          f"(2k)^(m+2), {res['secs']:.1f}s")


def test_criterion_2_front_remove_bound():
    res = queue_harness()
    assert res["secs"] < 10.0
    assert res["front"] == []
    print(f"criterion 2 PASS: every front/remove within k^(m+1), "
          f"{res['secs']:.1f}s")


def test_criterion_3_stack_arithmetic():
    cases = 0
    for k in QUEUE_KS:
        for m in range(6):
            for content in itertools.product(range(2, k), repeat=m):
                s = stack_encode(content, k)
                assert stack_decode(s) == content
                for r in range(2, k):
                    pushed, _ = stack_push(s, r)
                    assert stack_decode(pushed) == content + (r,)
                    top, rest, _ = stack_pop(pushed)
                    assert top == r and rest == s
                if m:
                    top, rest, _ = stack_pop(s)
                    assert top == content[-1]
                    assert stack_decode(rest) == content[:-1]
                cases += 1
    assert cases >= 4 ** 5
    print(f"criterion 3 PASS: {cases} stack contents round-tripped exactly")


def test_criterion_4_theta_soundness():
    t0 = time.time()
    rng = random.Random(4747)
    sigma = ("a", "b")
    for i in range(50):
        s_val = (1, 2, 3)[i % 3]
        spoke = tuple(rng.choice(sigma) for _ in range(rng.randrange(0, 4)))
        cycle = tuple(rng.choice(sigma) for _ in range(rng.randrange(1, 4)))
        w = LassoWord(spoke, cycle, frozenset(sigma))
        b = build_theta_acceptor(frozenset(sigma), s_val)
        cert = theta_certificate(w, s_val, blocks=4)
        coded = [st.consumed for st in cert.run.steps]
        assert validate_run(b.machine, coded, cert.run) is None
        visits = cert.block_visits(b.accepting)
        assert len(cert.blocks) >= 4
        assert all(visits[blk.index] >= 1 for blk in cert.blocks)
    for i in range(50):
        s_val = (1, 2, 3)[i % 3]
        cycle = tuple(rng.choice(sigma) for _ in range(rng.randrange(1, 4)))
        w = LassoWord((), cycle, frozenset(sigma))
        b = build_theta_acceptor(frozenset(sigma), s_val)
        n = 1 + sum(s_val ** j + 1 for j in range(1, 5))
        good = theta_prefix(w, s_val, n)
        assert exact_prefix_reach(b, good).first_empty_position() is None
        pos = rng.randrange(n)
        # swap pad and source classes; same-class swaps stay theta-shaped
        broken = list(good)
        broken[pos] = rng.choice(sigma) if good[pos] == "E" else "E"
        fe = exact_prefix_reach(b, broken).first_empty_position()
        assert fe is not None and fe > pos
    secs = time.time() - t0
    assert secs < 30.0
    print(f"criterion 4 PASS: 50 certificates, 50 corruptions caught, "
          f"{secs:.1f}s")


def _accepting_words(name, rng):
    if name == "m1":
        return ["a"] * rng.randrange(3, 5)
    if name == "m2":
        n1 = rng.randrange(1, 3)
        total = rng.randrange(3, 5)
        return ["a"] * n1 + ["b"] * (total - n1)
    word = ["a", "b"] * 2
    return word[:rng.randrange(3, 5)]


def test_criterion_5_block_coding():
    machines = {"m1": m1_aomega(), "m2": m2_two_counters(),
                "m3": m3_alternator()}
    rng = random.Random(54_54)
    certs = 0
    for name, a in machines.items():
        b = build_script_L(a, PRIMES)
        for _ in range(20):
            word = _accepting_words(name, rng)
            run = run_of(a, word)
            assert any(st.result.state in a.accepting for st in run.steps)
            needed = covered_prefix_length(PRIMES, len(word))
            cert = lift_run_script_L(b, run, prefix_len=needed + 1)
            coded = [st.consumed for st in cert.run.steps
                     if st.consumed is not None]
            assert validate_run(b.machine, coded, cert.run) is None
            assert len(cert.blocks) >= 3
            choices = [a.machine.transitions[st.transition_index].delta
                       for st in run.steps]
            dec = h_block_decompose(coded, PRIMES, choices)
            assert len(dec.blocks) == len(word)
            for i, blk in enumerate(dec.blocks):
                d0, d1 = choices[i]
                assert blk.w_len == blk.v_len * 2 ** d0 * 3 ** d1
                if i == 0:
                    assert blk.u_len == math.prod(PRIMES) - 1
                else:
                    assert blk.u_len == dec.blocks[i - 1].z_len
            assert project_run_script_L(b, cert) == run
            certs += 1
    assert certs == 60
    print(f"criterion 5 PASS: {certs} certificates, block equations exact, "
          f"project after lift is the identity")


def test_criterion_6_complement_agreement():
    sig = "AB0a"
    d1 = build_d1(frozenset("a"), PRIMES)
    d2 = build_d2(frozenset("a"), PRIMES)
    d34 = (build_d3(frozenset("a"), PRIMES), build_d4(frozenset("a"), PRIMES))
    checked = 0

    def check(spoke, cycle):
        nonlocal checked
        w = LassoWord(spoke, cycle, frozenset(sig))
        span = len(spoke) + 2 * len(cycle)
        prefix = list(spoke) + list(cycle) * 2
        sink = any(
            any("bad" in {c.state for c in f} for f in
                exact_prefix_reach(d, prefix).frontiers)
            for d in d34)
        assert sink == (d34_witness_scan(w, 6, span=span) is not None), \
            (spoke, cycle)
        for d in (d1, d2):
            assert nba_lasso_member(d, w) == \
                lasso_member_oracle(d, spoke, cycle), (spoke, cycle)
        checked += 1

    full = os.environ.get("OMEGA_FULL_SWEEP") == "1"
    exhaustive_upto = 10 if full else 6
    for total in range(1, exhaustive_upto + 1):
        for lc in range(1, total + 1):
            for spoke in itertools.product(sig, repeat=total - lc):
                for cycle in itertools.product(sig, repeat=lc):
                    check(spoke, cycle)
    sampled = 0
    if not full:
        rng = random.Random(6262)
        for _ in range(1500):
            total = rng.randrange(7, 11)
            lc = rng.randrange(1, total + 1)
            spoke = tuple(rng.choice(sig) for _ in range(total - lc))
            cycle = tuple(rng.choice(sig) for _ in range(lc))
            check(spoke, cycle)
            sampled += 1
    scope = "exhaustive <= 10" if full else \
        f"exhaustive <= 6 plus {sampled} sampled up to 10"
    print(f"criterion 6 PASS: {checked} lassos agree ({scope})")


def test_criterion_7_phi_wrapper():
    machines = {"m1": m1_aomega(), "m2": m2_two_counters(),
                "m3": m3_alternator()}
    rng = random.Random(7777)
    certs = 0
    for name, a in machines.items():
        bl = build_script_L(a, PRIMES)
        assert lambda_burst_bound(bl.machine) <= 5
        w = build_phi_wrapper(bl, 5)
        assert is_real_time(w.machine)
        for _ in range(7 if name != "m3" else 6):
            word = _accepting_words(name, rng)[:3]
            cert = lift_run_script_L(bl, run_of(a, word))
            wrapped = lift_run_phi(w, cert.run, blocks=cert.blocks)
            coded = [st.consumed for st in wrapped.run.steps]
            assert None not in coded
            assert validate_run(w.machine, coded, wrapped.run) is None
            for i, x in enumerate(coded):
                if x != "F":
                    assert coded[max(0, i - 5):i] == ["F"] * 5
            assert wrapped.visits(w.accepting) == sum(
                1 for st in cert.run.steps if st.result.state in bl.accepting)
            assert wrapped.block_visits(w.accepting) == \
                cert.block_visits(bl.accepting)
            certs += 1
    assert certs == 20
    print(f"criterion 7 PASS: burst <= 5, wrapper real-time, {certs} "
          f"certificates with visit counts preserved")


def test_criterion_8_pipeline(tmp_path):
    t0 = time.time()
    a = m2_two_counters()
    assert len(a.machine.states) == 2
    out = compose_pipeline(a, primes=PRIMES)
    assert out.automaton.machine.k == 1
    assert is_real_time(out.automaton.machine)
    cert = lift_run_pipeline(out, run_of(a, ["a", "b"]))
    coded = [st.consumed for st in cert.run.steps]
    assert validate_run(out.automaton.machine, coded, cert.run) is None
    assert len(cert.blocks) >= 2
    # the CLI build path re-validates the output before writing
    src = tmp_path / "m2.aut"
    src.write_text(dump_automaton(a))
    dst = tmp_path / "pipe.aut"
    assert main(["build", "pipeline", "--input", str(src),
                 "--primes", "2,3", "-o", str(dst)]) == 0
    secs = time.time() - t0
    assert secs < 60.0
    print(f"criterion 8 PASS: k=1 real-time pipeline, certificate over "
          f"{len(cert.blocks)} blocks, CLI re-validation ok, {secs:.1f}s")


def test_criterion_9_realtime8_constants():
    assert realtime8_pad_factor(1) == 729
    assert realtime8_pad_factor(2) == 1728 == (3 * (2 + 2)) ** 3
    t0 = time.time()
    a = m1_aomega()
    b8 = build_realtime8(a)
    assert b8.params["S"] == 729
    assert b8.machine.k == 8
    assert is_real_time(b8.machine)
    run = run_of(a, ["a"])
    cert = lift_run_theta(b8, run, prefix_len=732)
    coded = [st.consumed for st in cert.run.steps]
    assert len(coded) == 732
    assert coded == theta_prefix(LassoWord((), ("a",), {"a"}), 729, 732)
    # positions 1 and 731 open blocks 1 and 2 of the coding
    assert coded[0] == "a" and coded[730] == "a"
    assert validate_run(b8.machine, coded, cert.run) is None
    secs = time.time() - t0
    assert secs < 10.0
    print(f"criterion 9 PASS: S=729 built ({len(b8.machine.states)} states), "
          f"732-letter certificate validates, {secs:.1f}s")
