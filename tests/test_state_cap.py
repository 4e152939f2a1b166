"""The worklist's state cap is the only size refusal.

- a script-L build reaches at least 2Q + 1 states, the floor that refuses
  eight primes before anything is built;
- with the caps of script-L and phi set small, a build is refused exactly
  when its uncapped build has more states than the cap, and the refusal
  reports the cap plus one (script-L's floor, when that alone passes the
  cap); every build the old up-front estimate let through still builds;
- a build pauses the cyclic garbage collector and leaves it as it found
  it, also when the cap stops the build halfway;
- the phi wrapper refuses, before making any, more idle guards (2**k for
  k counters) than its guard cap, and builds every k under it;
- the builders that count their states before building (D1 at Q + 5, D4
  at Q + 7, the theta acceptor at 3S + 4, and realtime8's theta acceptor
  first) build exactly that count on seeded parameters, and one state
  over the cap is refused with nothing built.
"""

import gc
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omegacount.constructions.complement as complement
import omegacount.constructions.phi as phi
import omegacount.constructions.realtime8 as rt8
import omegacount.constructions.script_l as script_l
import omegacount.constructions.theta as theta
import reference_products as ref
from conftest import cli_in_400_mb, m1_aomega, m3_alternator
from omegacount.constructions import (build_d1, build_d4, build_phi_wrapper,
                                      build_realtime8, build_script_L,
                                      build_theta_acceptor)
from omegacount.errors import BuildScaleError
from omegacount.machines import (BuchiAutomaton, CounterMachine, Transition,
                                 lambda_burst_bound)

SIGMA = frozenset({"a", "b"})


def _real_time(rng: random.Random, k: int) -> BuchiAutomaton:
    """A random real-time k-counter machine over SIGMA."""
    states = [f"s{i}" for i in range(rng.randint(1, 3))]
    trans = []
    for _ in range(rng.randint(1, 8)):
        guard = tuple(rng.randint(0, 1) for _ in range(k))
        delta = tuple(rng.choice((0, 1) if g == 0 else (-1, 0, 1)) for g in guard)
        trans.append(Transition(rng.choice(states), rng.choice(sorted(SIGMA)), guard,
                                rng.choice(states), delta))
    m = CounterMachine(k=k, alphabet=SIGMA, states=states, initial="s0",
                       transitions=tuple(trans))
    return BuchiAutomaton(m, frozenset(s for s in states if rng.random() < 0.5))


PRIME_TUPLES = [(2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(PRIME_TUPLES))
def test_script_l_reaches_its_floor(seed, primes):
    a = _real_time(random.Random(seed), len(primes))
    assert len(build_script_L(a, primes).machine.states) >= ref.script_l_floor(primes)


def test_eight_primes_refused_by_the_floor(monkeypatch):
    primes8 = (2, 3, 5, 7, 11, 13, 17, 19)
    m = CounterMachine(
        k=8, alphabet=frozenset({"a"}), states=("p",), initial="p",
        transitions=(Transition("p", "a", (0,) * 8, "p", (1,) * 8),))

    def no_build(*args, **kwargs):
        raise AssertionError("built past the floor")
    monkeypatch.setattr(script_l, "_reach", no_build)
    with pytest.raises(BuildScaleError) as exc:
        build_script_L(BuchiAutomaton(m, frozenset({"p"})), primes8)
    assert exc.value.estimated_states == ref.script_l_floor(primes8) == 19_399_381
    assert exc.value.cap == script_l.STATE_CAP


def _refused(monkeypatch, module, cap: int, build):
    monkeypatch.setattr(module, "STATE_CAP", cap)
    try:
        build()
    except BuildScaleError as e:
        return e
    return None


def test_script_l_refuses_exactly_past_its_cap(monkeypatch):
    rng = random.Random(31)
    refused = built = 0
    for i in range(300):
        primes = PRIME_TUPLES[i % len(PRIME_TUPLES)]
        a = _real_time(rng, len(primes))
        size = len(build_script_L(a, primes).machine.states)
        cap = rng.randint(size // 2, size + 3)
        e = _refused(monkeypatch, script_l, cap, lambda: build_script_L(a, primes))
        monkeypatch.undo()
        assert (e is not None) == (size > cap), (i, size, cap)
        if e is not None:
            refused += 1
            floor = ref.script_l_floor(primes)
            assert e.cap == cap
            assert e.estimated_states == (floor if floor > cap else cap + 1)
        else:
            built += 1
        # whatever the old estimate let through still builds
        if ref.estimate_states(a, primes) <= cap:
            assert e is None
    assert refused > 50 and built > 50


def test_phi_refuses_exactly_past_its_cap(monkeypatch):
    rng = random.Random(32)
    refused = built = 0
    while refused + built < 300:
        b = _real_time(rng, 1)
        m = b.machine
        # a lambda edge or two, so the filler window has work to do
        m = CounterMachine(1, m.alphabet, m.states, m.initial, tuple(m.transitions) + tuple(
            Transition(rng.choice(sorted(m.states)), None, (1,), rng.choice(sorted(m.states)),
                       (rng.choice((-1, 0)),))
            for _ in range(rng.randint(0, 2))))
        burst = lambda_burst_bound(m)
        if burst == float("inf"):
            continue
        b = BuchiAutomaton(m, b.accepting)
        filler = max(burst, 1) + rng.randint(0, 3)
        size = len(build_phi_wrapper(b, filler).machine.states)
        cap = rng.randint(max(1, size // 2), size + 3)
        e = _refused(monkeypatch, phi, cap, lambda: build_phi_wrapper(b, filler))
        monkeypatch.undo()
        assert (e is not None) == (size > cap), (size, cap)
        if e is not None:
            refused += 1
            assert (e.estimated_states, e.cap) == (cap + 1, cap)
        else:
            built += 1
        # whatever the old |Q|·(L+1)·2 estimate let through still builds
        if len(m.states) * (filler + 1) * 2 <= cap:
            assert e is None
    assert refused > 50 and built > 50


def _wide(k: int) -> BuchiAutomaton:
    """One state, no transitions, k counters."""
    return BuchiAutomaton(CounterMachine(k=k, alphabet=frozenset({"a"}), states=("p",),
                                         initial="p", transitions=()), frozenset())


def test_phi_refuses_a_k_whose_idle_guards_pass_their_cap(monkeypatch, tmp_path):
    def no_guards(*args, **kwargs):
        raise AssertionError("made the idle guards past their cap")
    with monkeypatch.context() as patch:
        patch.setattr(phi, "itertools", SimpleNamespace(product=no_guards))
        for k in (22, 10 ** 9):
            with pytest.raises(BuildScaleError, match=fr"2\*\*{k} idle guards, past "
                               "the cap of 250000") as e:
                build_phi_wrapper(_wide(k), 2)
            # a floor on 2**k, counted no further than past the cap
            assert (e.value.estimated_states, e.value.cap) == (2 ** 18, 250_000)
    # exactly past the cap: 2**k guards fit while 2**k <= GUARD_CAP
    for cap in (1, 4, 5, 8):
        monkeypatch.setattr(phi, "GUARD_CAP", cap)
        for k in range(5):
            try:
                w = build_phi_wrapper(_wide(k), 2)
            except BuildScaleError as e:
                assert 2 ** k > cap
                assert (e.estimated_states, e.cap) == (2 ** cap.bit_length(), cap)
            else:
                assert 2 ** k <= cap
                # (p, 0, 0) and (p, 1, 0) idle on every guard
                assert len(w.machine.sources) == 2 * 2 ** k
    # the CLI exits 2 on the file, with the error on one line
    wide = tmp_path / "wide.aut"
    wide.write_text("kcounters 22\nalphabet a\nstates p\ninitial p\naccepting\n")
    done = cli_in_400_mb(["build", "phi-wrapper", "--input", str(wide), "--S", "2"])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: wrapper needs 2**22 idle guards, past the cap of 250000\n")


def test_a_build_leaves_the_collector_as_it_found_it(monkeypatch):
    b = _real_time(random.Random(33), 2)
    raw_moves = script_l._raw_moves
    inside = []

    def watched(*args):
        moves = raw_moves(*args)

        def watched_moves(raw):
            inside.append(gc.isenabled())
            return moves(raw)
        return watched_moves

    monkeypatch.setattr(script_l, "_raw_moves", watched)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            inside.clear()
            build_script_L(b, (2, 3))
            # off while the worklist runs, as it was afterwards
            assert inside and not any(inside) and gc.isenabled() == enabled
            with monkeypatch.context() as patch:
                patch.setattr(script_l, "STATE_CAP", 20)
                with pytest.raises(BuildScaleError, match="passed 20 states"):
                    build_script_L(b, (2, 3))
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def _no_build(*args, **kwargs):
    raise AssertionError("built past the estimate")


def _estimate_holds(monkeypatch, module, where: str, estimate: int, build) -> None:
    """build() makes `estimate` states under a cap of exactly that, and is
    refused at one less, before it calls module.where."""
    with monkeypatch.context() as patch:
        patch.setattr(module, "STATE_CAP", estimate)
        assert len(build().machine.states) == estimate
        patch.setattr(module, "STATE_CAP", estimate - 1)
        patch.setattr(module, where, _no_build)
        with pytest.raises(BuildScaleError) as e:
            build()
        assert (e.value.estimated_states, e.value.cap) == (estimate, estimate - 1)


def test_pre_build_estimates_are_what_the_builders_build(monkeypatch):
    rng = random.Random(35)
    for _ in range(25):
        primes = tuple(sorted(rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 3))))
        sigma = frozenset(rng.sample("abcde", rng.randint(1, 4)))
        q = math.prod(primes)
        # the states come after the coded alphabet, which D1 and D4 make
        # only once their count is under the cap
        _estimate_holds(monkeypatch, complement, "coded_alphabet", q + 5,
                        lambda: build_d1(sigma, primes))
        _estimate_holds(monkeypatch, complement, "coded_alphabet", q + 7,
                        lambda: build_d4(sigma, primes))
        S = rng.randint(1, 400)
        _estimate_holds(monkeypatch, theta, "_block1", 3 * S + 4,
                        lambda: build_theta_acceptor(sigma, S))


def test_realtime8_counts_its_theta_acceptor_before_building(monkeypatch):
    rng = random.Random(36)
    for make in (m1_aomega, m3_alternator) * 4:
        a = make()
        k = len(a.machine.alphabet) + 2
        S = rng.randint(8 * k * k, 8 * k * k + 200)
        # the product is built over the theta acceptor it counted
        built = []

        def counted(*args):
            built.append(build_theta_acceptor(*args))
            return built[-1]
        with monkeypatch.context() as patch:
            patch.setattr(rt8, "build_theta_acceptor", counted)
            build_realtime8(a, S, depth=1)
        assert [len(b.machine.states) for b in built] == [3 * S + 4]
        with monkeypatch.context() as patch:
            patch.setattr(rt8, "STATE_CAP", 3 * S + 3)
            patch.setattr(rt8, "_build", _no_build)
            with pytest.raises(BuildScaleError, match="needs a theta acceptor of "
                               f"{3 * S + 4} states") as e:
                build_realtime8(a, S)
            assert (e.value.estimated_states, e.value.cap) == (3 * S + 4, 3 * S + 3)
