"""
Pad-coded words and their acceptor
==================================

theta_S spreads a word out with pad runs that grow by a factor S per
block: x(1).E^S.x(2).E^(S^2)...  A small two-counter machine accepts
exactly the words of this shape by replaying the previous run length
while counting the next one.  The certificate of a genuine prefix pins
one accepting visit per completed block; corrupting a single letter
kills every run at or after the corruption.
"""

import random

from omegacount.constructions import build_theta_acceptor, theta_certificate
from omegacount.engine import exact_prefix_reach
from omegacount.machines import validate_run
from omegacount.words import LassoWord, ThetaCoding, coded_prefix

S = 2
w = LassoWord((), ("a", "b"), {"a", "b"})
b = build_theta_acceptor({"a", "b"}, S)
print(f"acceptor for S={S}: {len(b.machine.states)} states, "
      f"k={b.machine.k} counters")

# ---------------------------------------------------------------------
# the coded prefix and a certificate over its first three blocks
prefix = coded_prefix(w, (ThetaCoding(S),), 20)
print("coded prefix:", " ".join(prefix))

cert = theta_certificate(w, S, blocks=3)
coded = [st.consumed for st in cert.run.steps]
print("certificate covers", len(coded), "letters,",
      "valid:", validate_run(b.machine, coded, cert.run) is None)
print("accepting visits per block:", cert.block_visits(b.accepting))

# ---------------------------------------------------------------------
# soundness, negatively: flip one letter of a genuine prefix and watch
# the reachable-configuration frontier die
rng = random.Random(7)
good = coded_prefix(w, (ThetaCoding(S),), 35)
r = exact_prefix_reach(b, good)
print("genuine 35-letter prefix: frontier never empties:",
      r.first_empty_position() is None)

pos = rng.randrange(35)
broken = list(good)
broken[pos] = "a" if good[pos] == "E" else "E"
r = exact_prefix_reach(b, broken)
print(f"corrupted at position {pos}: frontier empties at",
      r.first_empty_position())
