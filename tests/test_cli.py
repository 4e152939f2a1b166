"""Command surface: exit codes, byte-stable output, re-validation."""

import pytest

from omegacount.cli import main
from omegacount.constructions import (build_realtime8, compose_pipeline,
                                      lift_run_pipeline, lift_run_theta)
from omegacount.fileio import (WordSpec, dump_automaton, dump_run, dump_word,
                               load_automaton)
from omegacount.machines import BuchiAutomaton
from omegacount.words import LassoWord, ThetaCoding

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
