"""Four-strand worked example: from an event word to an unknotting bound.

The word beta below records eight trisecant events of a four-strand braid
whose unknotting number is 2.  Fixing the base subset m = {1,2,3}, every
letter sharing two indices with m contributes a parity vector; the letter
a123 itself stamps the running parity into a free product of Z/2's.  The
image cannot be shortened by fewer than two crossing switches, which is the
certified lower bound (and here it is sharp).
"""

from braidcert.gnk import parse_gnk_word
from braidcert.parity import BaseChoice, format_hword, format_zvec, phi, psi_letter
from braidcert.switches import (
    apply_switch,
    gnk_report,
    min_switches,
    min_switches_witness,
    pi_project,
    rough_unknotting_bound,
    switch_system,
    z_pair,
)

base = BaseChoice(4, 3, (1, 2, 3))
beta = parse_gnk_word("a123 a234 a123 a134 a123 a134 a123 a234", 4, 3)

print("parity vectors of the interacting letters:")
for letter in ((2, 3, 4), (1, 3, 4), (1, 2, 4)):
    print(f"  psi(a{''.join(map(str, letter))}) = {format_zvec(psi_letter(letter, base), base)}")

y = phi(beta, base)
print()
print("phi(beta) =", format_hword(y, base))

print()
print("switch vectors: one per strand pair, xor of the parities of the")
print("k-subsets containing the pair and meeting the base in k-1 indices:")
for pair in ((1, 2), (1, 3), (2, 3), (1, 4)):
    print(f"  z{pair[0]}{pair[1]} = {format_zvec(z_pair(*pair, base), base)}")

sys = switch_system(base)
print()
print("projection bound: support", sorted(format_zvec(x, base) for x in pi_project(y)),
      "-> rough bound", rough_unknotting_bound(beta, base))

count, matching = min_switches_witness(y, sys, budget=6)
print("exact minimal switches:", count)
print("witness: an optimal non-crossing matching of the letters, each pair")
print("priced by its switch distance (the minimum of its two-letter word):")
for a, b in matching:
    print(f"  positions {a}, {b}: {format_hword((y[a], y[b]), base)},"
          f" distance {min_switches((y[a], y[b]), sys)}")
print("two switches that realise it:")
state = y
for pos, i, j in ((2, 1, 3), (1, 2, 3)):
    state = apply_switch(state, pos, i, j, sys)
    print(f"  switch z{i}{j} at position {pos}: {format_hword(state, base) or '(empty)'}")

print()
cert = gnk_report(beta, budget=6)
print("certificate best bound:", cert.best.bound,
      "witnessed by k =", cert.best.k, "m =", cert.best.base_m)
