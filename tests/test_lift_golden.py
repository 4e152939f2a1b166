"""Pinned certificates: each lift below must reproduce the run file and the
block spans it produced when the digests were recorded.  A moved digest
means some step picked a different transition index, even if the new
certificate still validates.

Each lift also has a trace digest that leaves the transition indices out:
the block spans plus, per step, the consumed letter, the result state and
its counters.  A rebuilt automaton that renumbers its transitions moves the
first digest but must keep the trace.
"""

import functools
import hashlib

import pytest

from omegacount.constructions import (build_phi_wrapper, build_realtime8,
                                      build_script_L, compose_pipeline,
                                      covered_prefix_length, lift_run_phi,
                                      lift_run_pipeline, lift_run_script_L,
                                      lift_run_theta)
from omegacount.fileio import dump_run

from conftest import m1_aomega, m2_two_counters, m3_alternator, run_of

PRIMES = (2, 3)
S = 128


def digest(cert) -> str:
    spans = "".join(f"block {b.index} {b.start} {b.end}\n" for b in cert.blocks)
    return hashlib.sha256((spans + dump_run(cert.run)).encode()).hexdigest()


def trace_digest(cert) -> str:
    spans = "".join(f"block {b.index} {b.start} {b.end}\n" for b in cert.blocks)
    steps = "".join(
        " ".join([s.consumed or "-", s.result.state, *map(str, s.result.counters)]) + "\n"
        for s in cert.run.steps)
    return hashlib.sha256((spans + steps).encode()).hexdigest()


def theta_cases():
    for a, cases in (
            (m1_aomega(), [
                ("m1 a", ["a"], {}),
                ("m1 aa", ["a", "a"], {}),
                ("m1 a +5", ["a"], {"prefix_len": 1 + S + 5})]),
            (m2_two_counters(), [
                ("m2 a +2 letters", ["a"],
                 {"prefix_len": 1 + S + 2, "letters": ["a"]})])):
        b8 = build_realtime8(a, S_override=S)
        for name, word, kw in cases:
            yield name, lift_run_theta(b8, run_of(a, word), **kw)


def script_l_cases():
    for name, a, word in (("m1", m1_aomega(), ["a", "a", "a"]),
                          ("m2", m2_two_counters(), ["a", "b", "a", "a"]),
                          ("m3", m3_alternator(), ["a", "b", "a"])):
        bl = build_script_L(a, PRIMES)
        run = run_of(a, word)
        needed = covered_prefix_length(PRIMES, len(word))
        cert = lift_run_script_L(bl, run)
        yield name, cert
        yield f"{name} +9", lift_run_script_L(bl, run, prefix_len=needed + 9)
        w = build_phi_wrapper(bl, 5)
        yield f"{name} phi", lift_run_phi(w, cert.run, blocks=cert.blocks)


def pipeline_cases():
    for name, a, words in (
            ("m2", m2_two_counters(), (["a", "b"], ["a", "b", "b"],
                                       ["a", "a", "b", "b"])),
            ("m3", m3_alternator(), (["a", "b"], ["a", "b", "a"]))):
        out = compose_pipeline(a, primes=PRIMES)
        for word in words:
            yield f"{name} {''.join(word)}", lift_run_pipeline(out, run_of(a, word))


GOLDEN = {
    "theta: m1 a":
        "0b9f83246b2365c2157ccdc82d42cb52159bcdb81d411b2ecc194b44fd9fe869",
    "theta: m1 aa":
        "af6a9416d87daccff0c8d179cd9b907f611bc01001098deac2fa0fc45b1f8b5f",
    "theta: m1 a +5":
        "b0edb3636aa44ca32cbb64f45666d13314ef377dffa50008957c0dc7a646559e",
    "theta: m2 a +2 letters":
        "cf1167ac55768b54a2c0dbd075465f7a53b89c972718b9f6ea659e1ce310eec3",
    "script_l: m1":
        "59edac54ee986e52c831c4b8b773218fe71a973659c72457a8f8b24ebf0269c6",
    "script_l: m1 +9":
        "a1c59820cbee7d5469b22a0b03290c0e39f5edd2c6e4e0baee75b8b58e9db00a",
    "script_l: m1 phi":
        "506e3d66dbdb1c0317921a18a28504f233da8065d28b1cfe2f8d2992cd0fd5a1",
    "script_l: m2":
        "a7aa3e689927579f48c57b3b78e5ce5516fb0584dd9a848e32098b8afda746aa",
    "script_l: m2 +9":
        "54131cba2f2610f8165a026773ff37d670e48a701be0507a69639a739f001519",
    "script_l: m2 phi":
        "5ac76791d3c718786679517918b2ade38be22958b6d001cd35c6e8915cd00577",
    "script_l: m3":
        "c7ea56e35b14707072108f8bbaa1c10009481f0900272a941c41695efc357488",
    "script_l: m3 +9":
        "a83b91a6016682852da24e00bbc95665506713dc2339a3a3d049f7cc7d35f77c",
    "script_l: m3 phi":
        "39a6fcbd992e761d9b60c257a3ca1cbbcf9687c3d6eb2676f391a4b8b518fa31",
    "pipeline: m2 ab":
        "cbc9e281ebb5fb5f137db2ded1f4e393aefab325045c4a51348e875a78d0a95d",
    "pipeline: m2 abb":
        "1a69da7f6a04a85f8e297fae5ce56c19663ee304a9e5bf1dc021c02024f86572",
    "pipeline: m2 aabb":
        "d394c9adbc2e87fbca2a3ba640588d2ce9e3a1733bf44f791943b484870f3f20",
    "pipeline: m3 ab":
        "d7afd87d3adef6ce63698060f462bee3759d0ae59346cd2edce1f503f813a43b",
    "pipeline: m3 aba":
        "e138c0cbf00f55658760545bd79049ffbff4d03e3c25a0bc0797366761c6cc49",
}


TRACES = {
    "theta: m1 a":
        "a7227f9a964b1226068ad2ec7476a31342dc95b2ac6fc3394f9f60efa7aa5d2d",
    "theta: m1 aa":
        "ebcefd0ef19d85c46bc8bdc78f8f7638db16ed82d38aa7009ff44905e0e5489f",
    "theta: m1 a +5":
        "5a780ec7af61d0887287d4942e3c18ca6f48c7a83c0fb2bb6eda6529fb3a5eb2",
    "theta: m2 a +2 letters":
        "03e297a356179fe0291fd2d6d0377320a14630f8298afc4273354051b96dddb9",
    "script_l: m1":
        "431184ede345a151418ba33a15acb5f606ca72004b79e05af71f0f332fdb42b8",
    "script_l: m1 +9":
        "8fbf10c084481c953008038acaddb60580f46eca46b5c0af34117d47733d23c3",
    "script_l: m1 phi":
        "6769d31bcdf4043a91ff4d092e4d2f3405426af9ba12018a3658b94bbdcbc441",
    "script_l: m2":
        "1968922eddc6347855624b72ec4c47d4e8546d47344c86b7b0c0f40737483d51",
    "script_l: m2 +9":
        "0c1435bb2c7df0236bfc3a313faea4c005a104c63b53d3663060dfc404b15773",
    "script_l: m2 phi":
        "498ed947e5bcf53eeb215a3b18b35080ebe27850d52ec2e9ed46a6cfab1103d4",
    "script_l: m3":
        "27ed3a7766ea69a7494c8246ada0b8e5474e1a903b59e60836630c8d987af716",
    "script_l: m3 +9":
        "a0b116b834b63703eac97259a1db7ead25bfbcde2ecc4fc468ace8980d4878a4",
    "script_l: m3 phi":
        "be8aace85cc067c102e14fb369c31ad3655b21a2d49b64796ba3d14ca1d0e764",
    "pipeline: m2 ab":
        "c215b21e2f961c257c3065df5abc82d81b7a265cee80adef2bf460d1c0d96d11",
    "pipeline: m2 abb":
        "076434d112f7a3b43daaad1cb0fa12be012acb9c12ef5f63a46f043f29fe3b7b",
    "pipeline: m2 aabb":
        "b4f09342b1c111046e738611d4125ab898c08751b2df633d05663d1f1b625c11",
    "pipeline: m3 ab":
        "c33990dc36bc0884a0a69457d3853d977d5d70ddc36222989622bcfdc7eeb476",
    "pipeline: m3 aba":
        "831c22108495f12ba78852333ce9c0daf4fe8c3bbe5ab11729505ae10fbecb7b",
}


@functools.cache
def lifted(cases) -> dict:
    return dict(cases())


@pytest.mark.parametrize("cases", [theta_cases, script_l_cases, pipeline_cases])
def test_lift_digests_are_pinned(cases):
    got = {name: digest(cert) for name, cert in lifted(cases).items()}
    want = {name: GOLDEN[f"{cases.__name__[:-6]}: {name}"] for name in got}
    assert got == want


@pytest.mark.parametrize("cases", [theta_cases, script_l_cases, pipeline_cases])
def test_lift_traces_are_pinned(cases):
    got = {name: trace_digest(cert) for name, cert in lifted(cases).items()}
    want = {name: TRACES[f"{cases.__name__[:-6]}: {name}"] for name in got}
    assert got == want
