"""Pinned certificates: each lift below must reproduce the run file and the
block spans it produced when the digests were recorded.  A moved digest
means some step picked a different transition index, even if the new
certificate still validates.
"""

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
        out = compose_pipeline(a, primes=PRIMES, skip_realtime8=True)
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
        "9f2aa2053df17feadd0bac0f4991216a3a8d6cb27538789e028d39e50c09c517",
    "script_l: m1 +9":
        "706cd3018e34f5d74899a124de73509dd7a8c6784fa3848233775a52d9353946",
    "script_l: m1 phi":
        "d2991cbf27eaf1254228ba5d5deaf167a12d1a9b314ea4ed5f18146e9f15cedd",
    "script_l: m2":
        "fab39a481f34971d80ff177afc12b8be019b3f9756402f26d9c0bfd180497e8d",
    "script_l: m2 +9":
        "f346e03d4fb883e1bffab396094cda7009b29d1711c9f3475790a1ffbc5a7311",
    "script_l: m2 phi":
        "3bf5b695880335db99091d57bdb16d75950f57f2b60759a4a8cbbdedec4266e7",
    "script_l: m3":
        "affcc0d2f770a4808507c212db794d2936213349599781ca10258d6c3abdd0af",
    "script_l: m3 +9":
        "4e1b8bff7de50d860fb435ae1e3cefc7304cab32264b49df3e16e4dbff45f00f",
    "script_l: m3 phi":
        "05001fbf84f84fffeabacb82c11b6cfb13e14654c84198c535ea12583a6bbe93",
    "pipeline: m2 ab":
        "5427dfeb93087eaa413d8ef418f3630a4c7dbdb17220cb08db7282816a64225c",
    "pipeline: m2 abb":
        "8877dfc8ce5514723745afaa84b265a89d9b1ba4e30eacd176d2d7fb0f8dc5d3",
    "pipeline: m2 aabb":
        "a2f54a41af84886865273e052bcbb5c8150bb9b8898296556c794309ae2a1c91",
    "pipeline: m3 ab":
        "7ec0f35a11433061d7361e98056284603f40836b4aa748c6a831089886fe0ba1",
    "pipeline: m3 aba":
        "cbebb8a628faa4427427e0e654c8f6c453c64f14044dcefa68b4e5c7c96b5581",
}


@pytest.mark.parametrize("cases", [theta_cases, script_l_cases, pipeline_cases])
def test_lift_digests_are_pinned(cases):
    got = {name: digest(cert) for name, cert in cases()}
    want = {name: GOLDEN[f"{cases.__name__[:-6]}: {name}"] for name in got}
    assert got == want
