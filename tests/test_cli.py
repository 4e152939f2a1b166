"""Command surface: exit codes, byte-stable output, re-validation."""

import os
import resource
import subprocess
import sys

import pytest

import omegacount
import omegacount.constructions.realtime8 as rt8
from omegacount.cli import main
from omegacount.constructions import (build_realtime8, compose_pipeline,
                                      lift_run_pipeline, lift_run_theta)
from omegacount.fileio import (WordSpec, dump_automaton, dump_run, dump_word,
                               load_automaton)
from omegacount.engine import exact_prefix_reach
from omegacount.machines import BuchiAutomaton
from omegacount.words import (HCoding, LassoWord, PhiCoding, ThetaCoding,
                              coded_prefix)

from conftest import m1_aomega, m2_two_counters, run_of


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


def test_build_needs_parameters(files):
    assert main(["build", "theta-acceptor", "--S", "2"]) == 2
    assert main(["build", "script-l", "--input", str(files["m1"])]) == 2


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
    pipe = compose_pipeline(m2_two_counters(), primes=(2, 3), skip_realtime8=True).automaton
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


def _cli_in_400_mb(argv) -> subprocess.CompletedProcess:
    """The CLI in a child process whose own address space is limited to
    400 MB."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2 ** 20, 400 * 2 ** 20))
    src = os.path.dirname(os.path.dirname(omegacount.__file__))
    return subprocess.run([sys.executable, "-m", "omegacount.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
                          capture_output=True, text=True, timeout=120)


def test_a_long_explore_stays_in_bounded_memory(files):
    pipe, word = files["dir"] / "pipe.aut", files["dir"] / "w.word"
    pipe.write_text(dump_automaton(
        compose_pipeline(m2_two_counters(), primes=(2, 3), skip_realtime8=True).automaton))
    word.write_text("coded phi:5\ncoded h:2,3\nlasso a | a\n")
    done = _cli_in_400_mb(["explore", "--input", str(pipe), "--word", str(word),
                           "--n", "100000000"])
    assert (done.returncode, done.stderr) == (0, "")
    # the letter-by-letter search crosses the 10^7 visited cap at letter
    # 1,250,028, as a walk that keeps one frontier at a time finds
    assert done.stdout == ("letters 100000000 final 8 configurations "
                           "max-visits 96354 first-empty - (capped)\n")
    # the frontier dies at the first letter, and the rest is one empty tail
    word.write_text("lasso a | a\n")
    done = _cli_in_400_mb(["explore", "--input", str(pipe), "--word", str(word),
                           "--n", "10000000"])
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == ("letters 10000000 final 0 configurations "
                           "max-visits - first-empty 1\n")


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
                 "--primes", "2,3", "--skip-stage1", "-o", str(out)]) == 0
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
    # scale refusal surfaces as a clean error, not a traceback
    assert main(["build", "pipeline", "--input", str(files["m1"])]) == 2
    err = capsys.readouterr().err
    assert "stage script-l" in err


def test_written_files_match_the_dumps(files, capsys):
    """build -o and lift -o write line by line; the file and stdout both
    hold the bytes of the dump (behind the block header for a lift)."""
    m2run = files["dir"] / "m2.run"
    m2run.write_text(dump_run(run_of(m2_two_counters(), ["a", "b"])))
    m1run = files["dir"] / "m1a.run"
    m1run.write_text(dump_run(run_of(m1_aomega(), ["a"])))
    b8 = build_realtime8(m1_aomega(), S_override=72)
    pipe = compose_pipeline(m2_two_counters(), primes=(2, 3), skip_realtime8=True)
    certs = (lift_run_theta(b8, run_of(m1_aomega(), ["a"])),
             lift_run_pipeline(pipe, run_of(m2_two_counters(), ["a", "b"])))
    lifts = ["".join(f"# block {b.index} {b.start} {b.end}\n" for b in c.blocks)
             + dump_run(c.run) for c in certs]
    cases = (
        (["build", "realtime8", "--input", str(files["m1"]), "--S", "72"],
         dump_automaton(b8)),
        (["build", "pipeline", "--input", str(files["m2"]), "--primes", "2,3",
          "--skip-stage1"], dump_automaton(pipe.automaton)),
        (["lift", "--stage", "theta", "--input", str(files["m1"]),
          "--run", str(m1run), "--S", "72"], lifts[0]),
        (["lift", "--stage", "pipeline", "--input", str(files["m2"]),
          "--run", str(m2run), "--primes", "2,3", "--skip-stage1"], lifts[1]),
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
