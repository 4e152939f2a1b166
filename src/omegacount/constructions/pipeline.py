"""End-to-end chain: pad-code the input language, compile to one counter,
wrap the lambda moves away.

Stage 1 would compile a 2-counter machine to the 8-counter pad-coded
acceptor; stage 2 takes one flat union of its block-coded 1-counter form
(side 0) with the coding defect acceptors D1-D4 (sides 1-4); stage 3 hides
the remaining lambda bursts behind a filler cadence.  Stage 1's 8-counter
output needs eight distinct primes in stage 2, whose block lengths make
stage 2's control astronomically large, so compose_pipeline refuses any
call that would run stage 1, before building anything.  Desk-scale work
passes primes=(2, 3) and skip_realtime8=True to run stages 2-3 directly.

Each stage's automaton is the record its builder returned, linked to what
it was built from, so the lift walks the chain back through those links;
the script-L lift replays the block coding of the run's word.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ArityError, BuildScaleError, FreshLetterError
from ..machines import (BuchiAutomaton, Built, MachineError, Run,
                        lift_run_union, union)
from ..words import FIRST_EIGHT_PRIMES, HCoding, PhiCoding, coded_alphabet
from .certificates import RunCertificate
from .complement import _defect_sides
from .phi import build_phi_wrapper, lift_run_phi
from .script_l import build_script_L, lift_run_script_L


@dataclass(frozen=True, slots=True)
class PipelineOutput:
    """Final acceptor plus the word-coding chain and per-stage record.

    word_transform lists the coding objects to apply left to right;
    provenance holds (stage name, parameters, automaton) triples, starting
    with the untouched input.
    """

    automaton: Built
    word_transform: tuple
    provenance: tuple

    def stage(self, name: str):
        for entry in self.provenance:
            if entry[0] == name:
                return entry
        raise KeyError(name)


def _staged(name: str, fn):
    try:
        return fn()
    except BuildScaleError as e:
        raise BuildScaleError(f"stage {name}: {e.args[0]}",
                              e.estimated_states, e.cap) from e
    except (ArityError, FreshLetterError) as e:
        raise type(e)(f"stage {name}: {e}") from e
    except MachineError as e:
        raise MachineError(f"stage {name}: {e}") from e


def compose_pipeline(a: BuchiAutomaton,
                     primes: tuple[int, ...] | None = None,
                     skip_realtime8: bool = False) -> PipelineOutput:
    """Chain the builders over a 2-counter input machine.

    skip_realtime8 feeds the input to stage 2 directly (its counter count
    must then match len(primes)).  False always refuses: stage 1's output
    has 8 counters, so any other prime count is an ArityError, and eight
    distinct primes pass the script-L state cap.  A letter that the
    returned coding chain adds (h's markers and zero, phi's filler) may not
    be in the input alphabet.
    """
    primes = FIRST_EIGHT_PRIMES if primes is None else tuple(primes)
    coding = HCoding(primes)
    q = coding.q
    phi = PhiCoding(q - 1)
    # coded_alphabet refuses a coding letter that the alphabet already has
    coded_alphabet(phi, coded_alphabet(coding, a.machine.alphabet))
    if not skip_realtime8 and len(primes) != 8:
        raise ArityError(f"stage script-l: stage 1 outputs 8 counters "
                         f"but {len(primes)} primes given")

    b_main = _staged("script-l", lambda: build_script_L(a, primes))
    b_union = _staged("union", lambda: union(("L", b_main), *(
        ("R." + tag, d) for tag, d in _defect_sides(a.machine.alphabet, primes))))
    out = _staged("phi-wrapper", lambda: build_phi_wrapper(b_union, q - 1))
    return PipelineOutput(automaton=out, word_transform=(coding, phi), provenance=(
        ("input", {}, a), ("script-l", {"primes": primes}, b_main),
        ("union", {}, b_union), ("phi-wrapper", {"filler_count": q - 1}, out)))


def lift_run_pipeline(out: PipelineOutput, run: Run,
                      prefix_len: int | None = None) -> RunCertificate:
    """Compose the stage lifts: the input run becomes a validated run of
    the final one-counter wrapper, block-annotated by the coded blocks of
    the middle stage.  prefix_len counts letters of the outermost coding."""
    b_union = out.automaton.source
    cert1 = lift_run_script_L(b_union.source[0], run)
    u_run = lift_run_union(b_union, cert1.run, 0)
    cert2 = lift_run_phi(out.automaton, u_run, prefix_len=prefix_len,
                         blocks=cert1.blocks)
    return RunCertificate(run=cert2.run, stage="pipeline", blocks=cert2.blocks)
