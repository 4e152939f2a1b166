"""Command surface: exit codes, byte-stable output, re-validation."""

import os
import subprocess
import threading

import pytest

import omegacount.cli as cli
import omegacount.constructions.realtime8 as rt8
from omegacount.cli import main
from omegacount.constructions import (build_h_complement, build_phi_wrapper,
                                      build_realtime8, build_script_L,
                                      compose_pipeline, lift_run_phi,
                                      lift_run_pipeline, lift_run_script_L,
                                      lift_run_theta, wadge_sum)
from omegacount.fileio import (WordSpec, dump_automaton, dump_run, dump_word,
                               load_automaton, load_run, load_word)
from omegacount.engine import exact_prefix_reach
from omegacount.machines import (BuchiAutomaton, CounterMachine, Transition,
                                 validate_run)
from omegacount.words import (HCoding, LassoWord, PhiCoding, ThetaCoding,
                              coded_prefix)

from conftest import cli_in_400_mb, m1_aomega, m2_two_counters, run_of


@pytest.fixture
def files(tmp_path):
    """Automaton, word and run fixtures on disk."""
    p = {}
    p["m1"] = tmp_path / "m1.aut"
    p["m1"].write_text(dump_automaton(m1_aomega()))
    p["m2"] = tmp_path / "m2.aut"
    p["m2"].write_text(dump_automaton(m2_two_counters()))
    aa = LassoWord((), ("a",), {"a"})
    p["aword"] = tmp_path / "a.word"
    p["aword"].write_text(dump_word(WordSpec(aa, (), prefix=8)))
    p["atheta"] = tmp_path / "atheta.word"
    p["atheta"].write_text(dump_word(WordSpec(aa, (ThetaCoding(2),))))
    p["m1run"] = tmp_path / "m1.run"
    p["m1run"].write_text(dump_run(run_of(m1_aomega(), ["a", "a", "a"])))
    p["dir"] = tmp_path
    return p


def test_build_theta_acceptor_bytes_stable(files, capsys):
    out1 = files["dir"] / "t1.aut"
    out2 = files["dir"] / "t2.aut"
    assert main(["build", "theta-acceptor", "--sigma", "a,b", "--S", "2",
                 "-o", str(out1)]) == 0
    assert main(["build", "theta-acceptor", "--sigma", "a,b", "--S", "2",
                 "-o", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    # canonical file survives a load/dump round trip byte for byte
    assert dump_automaton(load_automaton(text)) == text
    b = load_automaton(text)
    assert isinstance(b, BuchiAutomaton) and b.machine.k == 2


def test_build_needs_parameters(files, capsys):
    assert main(["build", "theta-acceptor", "--S", "2"]) == 2
    assert main(["build", "script-l", "--input", str(files["m1"])]) == 2
    capsys.readouterr()
    m1, m2, m1run = str(files["m1"]), str(files["m2"]), str(files["m1run"])
    for argv in (["build", "theta-acceptor", "--sigma", "a"],
                 ["build", "h-complement", "--sigma", "a,b"],
                 ["build", "h-complement", "--primes", "2,3"],
                 ["build", "phi-wrapper", "--input", m2],
                 ["build", "wadge-sum", "--input", m1, "--input2", m1],
                 ["lift", "--stage", "script-l", "--input", m1, "--run", m1run],
                 ["lift", "--stage", "phi", "--input", m1, "--run", m1run],
                 ["bench", "queue-bounds", "--ops", "-1", "--seed", "1"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    for target, flags in (("realtime8", []), ("script-l", ["--primes", "2,3"]),
                          ("phi-wrapper", ["--S", "2"]),
                          ("pipeline", ["--primes", "2,3"])):
        assert main(["build", target, *flags]) == 2
        assert capsys.readouterr().err == f"error: {target} needs --input\n"
    for argv in (["build", "pipeline", "--input", m2],
                 ["lift", "--stage", "pipeline", "--input", m2, "--run", m1run,
                  "--skip-stage1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: pipeline needs --primes\n"


def test_word_encode(files, capsys):
    assert main(["word", "encode", "--word", str(files["atheta"]),
                 "--n", "9"]) == 0
    assert capsys.readouterr().out.strip() == "a E E a E E E E a"
    # prefix directive in the file supplies n
    assert main(["word", "encode", "--word", str(files["aword"])]) == 0
    assert capsys.readouterr().out.strip() == "a a a a a a a a"
    assert main(["word", "encode", "--word", str(files["atheta"])]) == 2


def test_word_encode_spells_the_coded_prefix(files, capsys):
    x = LassoWord(("a",), ("b", "a"), {"a", "b"})
    word, out = files["dir"] / "c.word", files["dir"] / "c.out"
    for chain in ((ThetaCoding(2),), (HCoding((2, 3)),), (PhiCoding(5),),
                  (HCoding((2, 3)), PhiCoding(5)), (ThetaCoding(3), PhiCoding(1))):
        word.write_text(dump_word(WordSpec(x, chain)))
        # 12,000 letters hold a run longer than one written batch
        for n in (0, 1, 5, 6, 7, 40, 1296, 12000):
            want = " ".join(coded_prefix(x, chain, n)) + "\n"
            argv = ["word", "encode", "--word", str(word), "--n", str(n)]
            assert main(argv) == 0
            assert capsys.readouterr().out == want
            assert main(argv + ["-o", str(out)]) == 0
            assert out.read_text() == want


def test_run_check_verdicts(files, capsys):
    assert main(["run", "check", "--input", str(files["m1"]),
                 "--run", str(files["m1run"])]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "ok 3 steps 3 accepting visits"
    bad = files["dir"] / "bad.run"
    bad.write_text(files["m1run"].read_text().replace("p 3 0", "p 4 0"))
    assert main(["run", "check", "--input", str(files["m1"]),
                 "--run", str(bad)]) == 1
    assert capsys.readouterr().out.startswith("violation")
    # word file cross-check catches a run for a different word
    assert main(["run", "check", "--input", str(files["m1"]),
                 "--run", str(files["m1run"]),
                 "--word", str(files["aword"]), "--n", "4"]) == 1


def test_explore_exit_codes(files, capsys):
    t = files["dir"] / "theta.aut"
    assert main(["build", "theta-acceptor", "--sigma", "a", "--S", "2",
                 "-o", str(t)]) == 0
    assert main(["explore", "--input", str(t),
                 "--word", str(files["atheta"]), "--n", "20"]) == 0
    assert "first-empty -" in capsys.readouterr().out
    # corrupt coded word: a letter where the pad run should continue
    broken = files["dir"] / "broken.word"
    broken.write_text("lasso a E a | a\nprefix 20\n")
    assert main(["explore", "--input", str(t),
                 "--word", str(broken), "--n", "20"]) == 1
    out = capsys.readouterr().out
    assert "final 0 configurations" in out


def _explore_line(b, letters) -> str:
    """The line explore prints, from the letter-by-letter search."""
    r = exact_prefix_reach(b, letters)
    final, empty = r.sizes()[-1], r.first_empty_position()
    return (f"letters {len(letters)} final {final} configurations "
            f"max-visits {r.max_visits() if final else '-'} "
            f"first-empty {'-' if empty is None else empty}"
            f"{' (capped)' if r.capped else ''}\n")


def test_explore_prints_the_letter_by_letter_line(files, capsys):
    pipe = compose_pipeline(m2_two_counters(), primes=(2, 3)).automaton
    b8 = build_realtime8(m1_aomega(), S_override=72)
    cases = (
        (pipe, WordSpec(LassoWord(("a", "a", "b"), ("a", "a", "a", "b"), {"a", "b"}),
                        (HCoding((2, 3)), PhiCoding(5))), (0, 1, 5, 6, 7, 1296, 20000)),
        (b8, WordSpec(LassoWord((), ("a",), {"a"}), (ThetaCoding(72),)),
         (0, 1, 5, 6, 7, 1296, 6000)),
        (b8, WordSpec(LassoWord(("a",), ("a", "E"), {"a", "E"}), ()), (0, 1, 2, 40)),
    )
    aut, word = files["dir"] / "e.aut", files["dir"] / "e.word"
    for b, spec, lengths in cases:
        aut.write_text(dump_automaton(b))
        word.write_text(dump_word(spec))
        for n in lengths:
            code = main(["explore", "--input", str(aut), "--word", str(word), "--n", str(n)])
            line = _explore_line(b, spec.prefix_letters(n))
            assert capsys.readouterr().out == line
            assert code == (1 if " final 0 " in line else 0)


def test_a_long_explore_stays_in_bounded_memory(files):
    pipe, word = files["dir"] / "pipe.aut", files["dir"] / "w.word"
    pipe.write_text(dump_automaton(
        compose_pipeline(m2_two_counters(), primes=(2, 3)).automaton))
    word.write_text("coded phi:5\ncoded h:2,3\nlasso a | a\n")
    done = cli_in_400_mb(["explore", "--input", str(pipe), "--word", str(word),
                          "--n", "100000000"])
    assert (done.returncode, done.stderr) == (0, "")
    # the letter-by-letter search crosses the 10^7 visited cap at letter
    # 1,250,028, as a walk that keeps one frontier at a time finds
    assert done.stdout == ("letters 100000000 final 8 configurations "
                           "max-visits 96354 first-empty - (capped)\n")
    # the frontier dies at the first letter, and the rest is one empty tail
    word.write_text("lasso a | a\n")
    done = cli_in_400_mb(["explore", "--input", str(pipe), "--word", str(word),
                          "--n", "10000000"])
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == ("letters 10000000 final 0 configurations "
                           "max-visits - first-empty 1\n")


def test_a_long_word_check_stays_in_bounded_memory(files, capsys):
    out = compose_pipeline(m2_two_counters(), (2, 3))
    cert = lift_run_pipeline(out, run_of(m2_two_counters(), ["a"]))
    d = files["dir"]
    pipe, run, word = d / "pipe.aut", d / "cert.run", d / "w.word"
    pipe.write_text(dump_automaton(out.automaton))
    run.write_text(dump_run(cert.run))
    word.write_text("coded phi:5\ncoded h:2,3\nlasso a | a\n")
    x = LassoWord((), ("a",), {"a"})
    chain = (HCoding((2, 3)), PhiCoding(5))
    steps, read = len(cert.run.indices), len(cert.run.consumed)
    visits = sum(s in out.automaton.accepting for s in cert.run.states)
    argv = ["run", "check", "--input", str(pipe), "--run", str(run), "--word", str(word)]
    # short of, at and past the run's letters: the verdict on the whole word
    for n in (0, read - 3, read, read + 1, read + 50):
        bad = validate_run(out.automaton.machine, coded_prefix(x, chain, n), cert.run)
        assert main(argv + ["--n", str(n)]) == (0 if bad is None else 1)
        assert capsys.readouterr().out == (
            f"ok {steps} steps {visits} accepting visits\n" if bad is None
            else f"violation {bad}\n")
    done = cli_in_400_mb(argv + ["--n", "100000000"])
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == (f"violation step {steps}: projection "
                           f"(run consumed {read} of 100000000 letters)\n")


def test_run_check_reads_the_word_as_runs(files, capsys, monkeypatch):
    """run check --word validates against the word file's runs: the coded
    prefix is never spelled as letters, and the verdicts stay those of the
    letters."""
    m2 = m2_two_counters()
    out = compose_pipeline(m2, (2, 3))
    cert = lift_run_pipeline(out, run_of(m2, ["a", "b"]))
    d = files["dir"]
    pipe, run, word = d / "pipe.aut", d / "cert.run", d / "w.word"
    pipe.write_text(dump_automaton(out.automaton))
    run.write_text(dump_run(cert.run))
    word.write_text("coded phi:5\ncoded h:2,3\nlasso a | b\n")
    x = LassoWord(("a",), ("b",), {"a", "b"})
    read = len(cert.run.steps)
    visits = sum(s in out.automaton.accepting for s in cert.run.states)
    expected = {n: validate_run(out.automaton.machine,
                                coded_prefix(x, (HCoding((2, 3)), PhiCoding(5)), n), cert.run)
                for n in (0, read - 7, read, read + 1)}
    monkeypatch.setattr(WordSpec, "prefix_letters", None)
    for n, bad in expected.items():
        assert main(["run", "check", "--input", str(pipe), "--run", str(run),
                     "--word", str(word), "--n", str(n)]) == (0 if bad is None else 1)
        assert capsys.readouterr().out == (
            f"ok {read} steps {visits} accepting visits\n" if bad is None
            else f"violation {bad}\n")


def test_a_long_word_encode_streams_to_stdout(files):
    argv = ["word", "encode", "--word", str(files["aword"]), "--n", "120000000"]
    # 240 MB of letters: written as they are spelled, as with -o, not held
    done = cli_in_400_mb(argv, stdout=subprocess.DEVNULL)
    assert (done.returncode, done.stderr) == (0, "")


def test_running_out_of_memory_exits_2_with_one_line(files):
    wide = files["dir"] / "wide.aut"
    wide.write_text("kcounters 1000000000\nalphabet a\nstates p\ninitial p\n"
                    "accepting p\n")
    # the start configuration alone holds 10^9 counters
    done = cli_in_400_mb(["explore", "--input", str(wide), "--word", str(files["aword"]),
                          "--n", "1"])
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_explore_lambda_budget(files, capsys):
    # accepting q reads a and may idle on a lambda self-loop
    aut = files["dir"] / "loop.aut"
    aut.write_text("\n".join([
        "kcounters 0", "alphabet a b", "states q", "initial q",
        "accepting q", "trans q - - q", "trans q a - q", ""]))
    word = files["dir"] / "ab.word"
    word.write_text("lasso a | b\n")
    run = ["explore", "--input", str(aut), "--word"]
    assert main(run + [str(files["aword"]), "--n", "2",
                       "--lambda-budget", "3"]) == 0
    # one configuration, not one per lambda-step count
    assert capsys.readouterr().out == (
        "letters 2 final 1 configurations max-visits 12 first-empty -\n")
    assert main(run + [str(word), "--n", "2", "--lambda-budget", "3"]) == 1
    assert capsys.readouterr().out == (
        "letters 2 final 0 configurations max-visits - first-empty 2\n")
    assert main(run + [str(word), "--n", "2", "--lambda-budget", "-1"]) == 2
    assert "lambda budget" in capsys.readouterr().err
    # without a budget the machine must be real-time
    assert main(run + [str(word), "--n", "2"]) == 2


def test_lasso_member_exit_codes(files, capsys):
    aut = files["dir"] / "infb.aut"
    text = "\n".join([
        "kcounters 0", "alphabet a b", "states s0 s1", "initial s0",
        "accepting s1",
        "trans s0 a - s0", "trans s0 b - s1",
        "trans s1 a - s0", "trans s1 b - s1", ""])
    aut.write_text(text)
    member = files["dir"] / "member.word"
    member.write_text("lasso a | a b\n")
    rejected = files["dir"] / "rejected.word"
    rejected.write_text("lasso b | a\n")
    assert main(["lasso-member", "--input", str(aut),
                 "--word", str(member)]) == 0
    assert capsys.readouterr().out.strip() == "member"
    assert main(["lasso-member", "--input", str(aut),
                 "--word", str(rejected)]) == 1
    assert capsys.readouterr().out.strip() == "non-member"
    # coded words have no finite lasso form
    assert main(["lasso-member", "--input", str(aut),
                 "--word", str(files["atheta"])]) == 2


def test_bench_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "queue-bounds", "--k", "4", "--ops", "5"])
    capsys.readouterr()
    assert main(["bench", "queue-bounds", "--k", "4", "--ops", "20",
                 "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert "worst-ratio" in first
    assert main(["bench", "queue-bounds", "--k", "4", "--ops", "20",
                 "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_lift_then_check_certificate(files, capsys):
    r8 = files["dir"] / "r8.aut"
    assert main(["build", "realtime8", "--input", str(files["m1"]),
                 "--S", "72", "-o", str(r8)]) == 0
    assert capsys.readouterr().err.strip() == "S 72"
    cert = files["dir"] / "cert.run"
    assert main(["lift", "--stage", "theta", "--input", str(files["m1"]),
                 "--run", str(files["m1run"]), "--S", "72",
                 "-o", str(cert)]) == 0
    header = [ln for ln in cert.read_text().splitlines()
              if ln.startswith("# block")]
    assert header[0] == "# block 1 0 73"
    assert main(["run", "check", "--input", str(r8),
                 "--run", str(cert)]) == 0
    assert "ok" in capsys.readouterr().out


def test_build_pipeline_desk_variant(files, capsys):
    out = files["dir"] / "pipe.aut"
    assert main(["build", "pipeline", "--input", str(files["m2"]),
                 "--primes", "2,3", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "stage script-l" in err and "stage phi-wrapper" in err
    b = load_automaton(out.read_text())
    assert b.machine.k == 1


def test_errors_exit_2(files, capsys):
    assert main(["build", "script-l", "--input", "/nonexistent",
                 "--primes", "2,3"]) == 2
    bad = files["dir"] / "bad.aut"
    bad.write_text("kcounters nope\n")
    assert main(["run", "check", "--input", str(bad),
                 "--run", str(files["m1run"])]) == 2
    capsys.readouterr()
    # a file in the Muller form: its table line is an unknown directive
    muller = files["dir"] / "muller.aut"
    muller.write_text(files["m1"].read_text().replace("accepting p\n", "table p\n"))
    for argv in (["build", "phi-wrapper", "--input", str(muller), "--S", "2"],
                 ["run", "check", "--input", str(muller), "--run", str(files["m1run"])],
                 ["lift", "--stage", "phi", "--input", str(muller),
                  "--run", str(files["m1run"]), "--S", "2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: line 5: unknown directive 'table'\n"
    # scale refusal surfaces as a clean error, not a traceback
    assert main(["build", "pipeline", "--input", str(files["m1"]),
                 "--primes", "2,3,5,7,11,13,17,19"]) == 2
    err = capsys.readouterr().err
    assert "stage script-l" in err


def test_the_stage_1_switch_is_accepted_and_changes_nothing(files, capsys):
    """skip_realtime8=True and --skip-stage1 are still taken, and build
    the same stages 2-3 as without them."""
    m2run = files["dir"] / "m2.run"
    m2run.write_text(dump_run(run_of(m2_two_counters(), ["a", "b"])))
    want = dump_automaton(compose_pipeline(m2_two_counters(), (2, 3)).automaton)
    assert dump_automaton(compose_pipeline(m2_two_counters(), (2, 3),
                                           skip_realtime8=True).automaton) == want
    for argv in (["build", "pipeline", "--input", str(files["m2"]), "--primes", "2,3"],
                 ["lift", "--stage", "pipeline", "--input", str(files["m2"]),
                  "--run", str(m2run), "--primes", "2,3"]):
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--skip-stage1"]) == 0
        assert capsys.readouterr() == plain
    assert plain.out.startswith("# block 1 0 ")


def _k0(alphabet, accepting, edges) -> BuchiAutomaton:
    states = sorted({s for s, _, _ in edges} | {d for _, _, d in edges})
    m = CounterMachine(k=0, alphabet=frozenset(alphabet), states=states,
                       initial=edges[0][0],
                       transitions=tuple(Transition(s, x, (), d, ()) for s, x, d in edges))
    return BuchiAutomaton(m, frozenset(accepting))


def test_written_files_match_the_dumps(files, capsys):
    """build -o and lift -o write line by line; the file and stdout both
    hold the bytes of the library's dump (behind the block header for a
    lift), for every build target and lift stage."""
    d = files["dir"]
    m2, m2run = str(files["m2"]), d / "m2.run"
    m2run.write_text(dump_run(run_of(m2_two_counters(), ["a", "b"])))
    m1run = d / "m1a.run"
    m1run.write_text(dump_run(run_of(m1_aomega(), ["a"])))
    b8 = build_realtime8(m1_aomega(), S_override=72)
    pipe = compose_pipeline(m2_two_counters(), primes=(2, 3))
    bl = build_script_L(m2_two_counters(), (2, 3))
    w = build_phi_wrapper(m2_two_counters(), 3)
    certs = (lift_run_theta(b8, run_of(m1_aomega(), ["a"])),
             lift_run_pipeline(pipe, run_of(m2_two_counters(), ["a", "b"])),
             lift_run_script_L(bl, run_of(m2_two_counters(), ["a", "b"])),
             lift_run_phi(w, run_of(m2_two_counters(), ["a", "b"])),
             lift_run_phi(w, run_of(m2_two_counters(), ["a", "b"]), prefix_len=10))
    lifts = ["".join(f"# block {b.index} {b.start} {b.end}\n" for b in c.blocks)
             + dump_run(c.run) for c in certs]
    y = ("a", "p", "m")
    sides = (_k0("a", {"l"}, [("l", "a", "l")]),
             _k0(y, {"s1"}, [(q, x, "s1" if x == "p" else "s0")
                             for q in ("s0", "s1") for x in y]),
             _k0(y, {"g1"}, [("g0", x, "g0") for x in y]
                 + [("g0", "a", "g1"), ("g1", "a", "g1"), ("g1", "m", "g1")]))
    for i, b in enumerate(sides):
        (d / f"side{i}.aut").write_text(dump_automaton(b))
    cases = (
        (["build", "realtime8", "--input", str(files["m1"]), "--S", "72"],
         dump_automaton(b8)),
        (["build", "pipeline", "--input", m2, "--primes", "2,3"],
         dump_automaton(pipe.automaton)),
        (["build", "script-l", "--input", m2, "--primes", "2,3"], dump_automaton(bl)),
        (["build", "phi-wrapper", "--input", m2, "--S", "3"], dump_automaton(w)),
        (["build", "h-complement", "--sigma", "a,b", "--primes", "2,3"],
         dump_automaton(build_h_complement(frozenset("ab"), (2, 3)))),
        (["build", "wadge-sum", "--input", str(d / "side0.aut"),
          "--input2", str(d / "side1.aut"), "--input3", str(d / "side2.aut"),
          "--plus", "p", "--minus", "m"],
         dump_automaton(wadge_sum(*sides, {"p"}, {"m"}))),
        (["lift", "--stage", "theta", "--input", str(files["m1"]),
          "--run", str(m1run), "--S", "72"], lifts[0]),
        (["lift", "--stage", "pipeline", "--input", m2,
          "--run", str(m2run), "--primes", "2,3"], lifts[1]),
        (["lift", "--stage", "script-l", "--input", m2,
          "--run", str(m2run), "--primes", "2,3"], lifts[2]),
        (["lift", "--stage", "phi", "--input", m2, "--run", str(m2run), "--S", "3"],
         lifts[3]),
        (["lift", "--stage", "phi", "--input", m2, "--run", str(m2run), "--S", "3",
          "--prefix-len", "10"], lifts[4]),
    )
    out = files["dir"] / "out"
    for argv, want in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert main(argv + ["-o", str(out)]) == 0
        assert out.read_bytes() == want.encode()


def test_an_oversized_realtime8_exits_2_before_building(files, capsys, monkeypatch):
    # at S = 2,000,000 the theta acceptor alone would have 6,000,004 states
    out = files["dir"] / "out"
    for argv in (["build", "realtime8", "--input", str(files["m1"])],
                 ["lift", "--stage", "theta", "--input", str(files["m1"]),
                  "--run", str(files["m1run"])]):
        assert main(argv + ["--S", "2000000", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: eight-counter product needs a theta acceptor of 6000004 "
            "states, past the cap of 400000\n")
        assert not out.exists()
    # the theta acceptor on its own answers to its own cap, not realtime8's
    monkeypatch.setattr(rt8, "STATE_CAP", 10)
    assert main(["build", "theta-acceptor", "--sigma", "a", "--S", "5"]) == 0
    assert "states " in capsys.readouterr().out


def test_an_oversized_theta_acceptor_exits_2_before_building(files, capsys):
    # 3S + 4 states are counted before anything is built, so nothing is
    # allocated here
    out = files["dir"] / "out"
    assert main(["build", "theta-acceptor", "--sigma", "a", "--S", "5000000",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: theta acceptor needs 15000004 states, past the cap of 400000\n")
    assert not out.exists()


def test_a_negative_prefix_length_exits_2_with_its_own_message(files, capsys):
    def cases(word):
        return (["word", "encode", "--word", str(word)],
                ["explore", "--input", str(files["m1"]), "--word", str(word)],
                ["run", "check", "--input", str(files["m1"]),
                 "--run", str(files["m1run"]), "--word", str(word)])
    for argv in cases(files["aword"]):
        assert main(argv + ["--n", "-3"]) == 2
        assert capsys.readouterr().err == "error: --n must be nonnegative, got -3\n"
    negative = files["dir"] / "negative.word"
    negative.write_text("lasso a | a\nprefix -5\n")
    for argv in cases(negative):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: line 2: prefix length must be nonnegative, got -5\n")
    for stage, flags in (("theta", ["--S", "72"]), ("script-l", ["--primes", "2,3"]),
                         ("phi", ["--S", "2"]), ("pipeline", ["--primes", "2,3"])):
        assert main(["lift", "--stage", stage, "--input", str(files["m1"]),
                     "--run", str(files["m1run"]), "--prefix-len", "-3", *flags]) == 2
        assert capsys.readouterr().err == (
            "error: prefix length must be nonnegative, got -3\n"), stage



def test_oversized_defect_acceptors_exit_2_before_building(capsys):
    # D1 alone would have Q + 5 = 9,699,695 states at the paper's primes
    assert main(["build", "h-complement", "--sigma", "a",
                 "--primes", "2,3,5,7,11,13,17,19"]) == 2
    assert capsys.readouterr().err == (
        "error: D1 needs 9699695 states, past the cap of 250000\n")


def test_a_theta_prefix_past_the_next_letter_exits_2_naming_it(files, capsys):
    run = files["dir"] / "one.run"
    run.write_text(dump_run(run_of(m1_aomega(), ["a"])))
    argv = ["lift", "--stage", "theta", "--input", str(files["m1"]), "--run", str(run),
            "--S", "72", "--prefix-len"]
    assert main(argv + ["100000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: run pins 1 blocks; prefix of 100000000000 letters passes "
        "the next letter point at 5258\n")
    assert main(argv + ["5258"]) == 0
    assert capsys.readouterr().out.count("\nstep ") == 5258


def test_a_theta_lift_without_S_is_the_library_lift_at_the_default_factor(files, capsys):
    run = files["dir"] / "one.run"
    run.write_text(dump_run(run_of(m1_aomega(), ["a"])))
    assert main(["lift", "--stage", "theta", "--input", str(files["m1"]),
                 "--run", str(run)]) == 0
    b8 = build_realtime8(m1_aomega())
    assert b8.params == {"S": 729}
    cert = lift_run_theta(b8, run_of(m1_aomega(), ["a"]))
    assert capsys.readouterr().out == "# block 1 0 730\n" + dump_run(cert.run)


def test_a_theta_lift_past_the_full_products_cap_still_lifts(files, capsys, monkeypatch):
    # the lift builds only the 2,727 states its 73 letters can reach, so a
    # cap under the full product's 13,779 states refuses the build, not
    # the lift
    run, cert = files["dir"] / "one.run", files["dir"] / "cert.run"
    run.write_text(dump_run(run_of(m1_aomega(), ["a"])))
    lift = ["lift", "--stage", "theta", "--input", str(files["m1"]), "--run", str(run),
            "--S", "72", "-o", str(cert)]
    monkeypatch.setattr(rt8, "STATE_CAP", 5_000)
    assert main(["build", "realtime8", "--input", str(files["m1"]), "--S", "72"]) == 2
    assert capsys.readouterr().err == (
        "error: eight-counter product passed 5000 states\n")
    assert main(lift) == 0
    lifted = load_run(cert.read_text())
    # the theta acceptor's 3S + 4 states are still counted first
    monkeypatch.setattr(rt8, "STATE_CAP", 3 * 72 + 3)
    assert main(lift) == 2
    assert capsys.readouterr().err == (
        "error: eight-counter product needs a theta acceptor of 220 states, "
        "past the cap of 219\n")
    monkeypatch.undo()
    full = build_realtime8(m1_aomega(), S_override=72)
    assert validate_run(full.machine, list(lifted.consumed), lifted) is None
    assert len(lifted.indices) == 73


def test_files_read_from_a_map_load_as_read_in_text_mode(files, tmp_path):
    """_read decodes a file from a map of it and keeps its line endings;
    every loader splits lines as str.splitlines does, so each file loads
    as the text-mode read, with its universal newlines, loads it."""
    def text_mode(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    p = tmp_path / "f"
    texts = [(load_automaton, dump_automaton(m2_two_counters())),
             (load_run, dump_run(run_of(m2_two_counters(), ["a", "b"]))),
             (load_word, "# a word\n" + dump_word(WordSpec(LassoWord((), ("a",), {"a"}),
                                                           (ThetaCoding(2),), prefix=9)))]
    for loader, text in texts:
        for ending in ("\n", "\r\n", "\r"):
            p.write_bytes(text.replace("\n", ending).encode())
            assert loader(cli._read(str(p))) == loader(text_mode(p)) == loader(text)
    # an empty file and a pipe cannot be mapped, and are read
    p.write_bytes(b"")
    assert cli._read(str(p)) == ""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(texts[2][1],))
    writer.start()
    assert cli._read(str(fifo)) == texts[2][1]
    writer.join(timeout=10)
    assert not writer.is_alive()
    # bytes that are no UTF-8 fail as in text mode, and exit 2 with that
    p.write_bytes("lasso \u00e9 | a\n".encode("latin-1"))
    with pytest.raises(UnicodeDecodeError) as mapped:
        cli._read(str(p))
    with pytest.raises(UnicodeDecodeError) as read:
        text_mode(p)
    assert str(mapped.value) == str(read.value)


def test_a_phi_wrapper_without_filler_exits_2(files, capsys):
    for argv in (["build", "phi-wrapper", "--input", str(files["m1"])],
                 ["lift", "--stage", "phi", "--input", str(files["m1"]),
                  "--run", str(files["m1run"])]):
        assert main(argv + ["--S", "0"]) == 2
        assert capsys.readouterr() == ("", "error: filler count must be at least 1, got 0\n")
