"""Tests of the benchmark's own parts: oracle, span arithmetic, generator."""

import random
import signal
import time

import pytest

import bench_gen
import bench_ref
import bench_trace
from bench_oracle import lasso_member_k0
import workload
from workload import tail

from omegacount.engine import nba_lasso_member
from omegacount.machines import BuchiAutomaton, CounterMachine, Transition, validate_run
from omegacount.words import LassoWord


def _nba(transitions, initial, accepting, k=0):
    states = {t[0] for t in transitions} | {t[2] for t in transitions}
    m = CounterMachine(k=k, alphabet=frozenset("ab"), states=frozenset(states),
                       initial=initial,
                       transitions=tuple(Transition(s, a, (0,) * k, d, (0,) * k)
                                         for s, a, d in transitions))
    return BuchiAutomaton(m, frozenset(accepting))


# infinitely many a
INF_A = _nba([("p", "a", "s"), ("p", "b", "p"), ("s", "a", "s"), ("s", "b", "p")],
             "p", {"s"})
# eventually only b (guesses the switch)
EVENTUALLY_B = _nba([("q", "a", "q"), ("q", "b", "q"), ("q", "b", "r"), ("r", "b", "r")],
                    "q", {"r"})


@pytest.mark.parametrize("b, spoke, cycle, expected", [
    (INF_A, (), ("a",), True),
    (INF_A, ("a",), ("b",), False),
    (INF_A, (), ("a", "b"), True),
    (INF_A, ("b", "b"), ("b",), False),
    (INF_A, ("a", "a"), ("b", "a"), True),
    (EVENTUALLY_B, (), ("a", "b"), False),
    (EVENTUALLY_B, ("a",), ("b",), True),
    (EVENTUALLY_B, ("a", "b", "a"), ("b", "b"), True),
    (EVENTUALLY_B, ("b",), ("b", "a"), False),
])
def test_oracle_on_hand_made_lassos(b, spoke, cycle, expected):
    assert lasso_member_k0(b, spoke, cycle) is expected
    assert nba_lasso_member(b, LassoWord(spoke, cycle, frozenset("ab"))) is expected


def test_oracle_refuses_counters():
    with pytest.raises(ValueError):
        lasso_member_k0(_nba([("p", "a", "p")], "p", {"p"}, k=1), (), ("a",))


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = bench_trace.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("words.inner", lambda: None)

    def outer_body():
        inner()
        inner()
    tracer.wrap("constructions.x.lift_run_outer", outer_body)()

    assert tracer.calls == {"words.inner": 2, "constructions.x.lift_run_outer": 1}
    assert tracer.self_s["words.inner"] == 5.0
    assert tracer.self_s["constructions.x.lift_run_outer"] == 5.0
    assert tracer.top_level_seconds() == 10.0 == sum(tracer.self_s.values())
    assert tracer.inclusive_s() == {"constructions.x.lift_run_outer": 10.0,
                                    "words.inner": 5.0}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_builds_per_lift_counts_builders_under_lifts():
    tracer = bench_trace.Tracer()
    build = tracer.wrap("constructions.phi.build_phi_wrapper", lambda: None)
    lift = tracer.wrap("constructions.phi.lift_run_phi", lambda: (build(), build()))
    lift()
    lift()
    build()  # outside any lift
    assert tracer.builds_per_lift() == 2.0


def test_install_counts_and_uninstall_restores():
    import omegacount.constructions as C
    import omegacount.engine as E
    import omegacount.machines as M

    step, init = E.step, M.CounterMachine.__init__
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert E.step is not step and M.step is not step
        d1 = C.build_d1(frozenset("a"), (2, 3))
        E.nba_lasso_member(d1, LassoWord((), ("a",), frozenset("AB0a")))
    finally:
        tracer.uninstall()
    assert E.step is step and M.step is step and M.CounterMachine.__init__ is init
    layers = tracer.metrics(asked_transitions=len(d1.machine.transitions))
    assert set(layers) == set(bench_trace.metric_names())
    assert len(layers) <= 128
    assert layers["constructions.complement.build_d1.calls"] == 1
    assert layers["machines.CounterMachine.calls"] == 1
    assert layers["machines.CounterMachine.amplification"] == 1.0
    assert layers["engine.nba_lasso_member.calls"] == 1
    assert layers["machines.step.calls"] > 0


def test_generator_repeats_for_a_seed():
    fixtures, mismatches = bench_gen.load_fixtures()
    assert mismatches == 0

    def inputs(seed):
        rng = random.Random(seed)
        runs = [bench_gen.source_run(rng, fixtures[name], n)
                for name in ("m2", "m3") for n in (2, 3, 4)]
        lassos = [bench_gen.lasso(rng, total) for total in range(1, 11)]
        return runs, lassos, bench_gen.readable_lasso(rng, fixtures["m2"])

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)
    runs, lassos, _ = inputs(5)
    for (word, run), name in zip(runs, ["m2"] * 3 + ["m3"] * 3):
        assert validate_run(fixtures[name].machine, word, run) is None
    assert [len(s) + len(c) for s, c in lassos] == list(range(1, 11))


def test_workload_inputs_repeat_for_a_seed():
    workload._import_library()
    ctx = {"fixtures": bench_gen.load_fixtures()[0]}
    for make in (workload.pipeline_inputs, workload.complement_inputs):
        assert make(ctx, random.Random(9)) == make(ctx, random.Random(9))
        assert make(ctx, random.Random(9)) != make(ctx, random.Random(10))


def test_latency_samples_stay_bounded():
    rec = workload.Recorder()
    for i in range(3 * workload.SAMPLE_CAP):
        rec.add_latency(float(i))
    assert len(rec.latency) == workload.SAMPLE_CAP
    assert rec.ops_timed == 3 * workload.SAMPLE_CAP
    assert rec.op_seconds == sum(range(3 * workload.SAMPLE_CAP))
    assert max(rec.latency) >= 2 * workload.SAMPLE_CAP  # late operations are sampled too


def test_tail_leaves_ten_samples_beyond():
    assert tail([1.0] * 10) is None
    value, pct, n = tail([float(i) for i in range(20)])
    assert (value, pct, n) == (9.0, 50.0, 20)


def test_reference_sample_is_taken_out_of_the_call_it_interrupts():
    rec = workload.Recorder()

    def op():
        rec.ref.sample()  # what the SIGALRM handler does in the middle of a call
        return 1

    assert rec.call(op, op=True) == 1
    assert len(rec.ref.samples) == 1
    assert rec.latency[0] < rec.ref.samples[0] / 10
    assert rec.ref.samples[0] <= rec.ref.spent_s


def test_sampler_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = bench_ref.RefSampler(every_s=0.01)
    sampler.start()
    try:
        deadline = time.perf_counter() + 5.0
        while len(sampler.samples) < 3 and time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    sampler.stop()
    assert len(sampler.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) == before
    assert sampler.mean_s() == pytest.approx(sum(sampler.samples) / len(sampler.samples))
    assert bench_ref.RefSampler().mean_s() is None
