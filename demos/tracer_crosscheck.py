"""Dynamics versus algebra: trace a moving-point motion and compare words.

The generator braid b_ij is realised twice: as letterwise algebra (the
passing-block substitution) and as an exact piecewise-linear motion whose
collinearity or concyclicity events are isolated with rational arithmetic.
Both routes must agree, and for the circle motions they agree letter for
letter with the unreduced substitution.  Each builder returns its motion
together with the events of the exact trace that validated it.
"""

from braidcert.gnk import format_gnk_word
from braidcert.parity import all_bases, format_hword, phi, psi_word
from braidcert.pbraid import map_pb_to_g3, map_pb_to_g4, parse_pb_word
from braidcert.trace import event_log, event_word, simulate_bij_circle, simulate_bij_parabola

print("circle motion for b13 on four strands:")
traj, events = simulate_bij_circle(1, 3, 4)
word = event_word(traj.n, 3, events)
formula = map_pb_to_g3(parse_pb_word("b13", 4), reduced=False)
print("  traced word: ", format_gnk_word(word))
print("  substitution:", format_gnk_word(formula))
print("  letter-exact match:", word.letters == formula.letters)
for base in all_bases(4, 3):
    assert psi_word(word, base) == psi_word(formula, base)
    assert phi(word, base) == phi(formula, base)
print("  parity images agree over all four bases")

print()
print("event log (isolating intervals are exact rationals):")
for entry in event_log(events)[:4]:
    print(" ", entry)
print("  ...")

print()
print("parabola motion for b12 on four strands:")
traj, events = simulate_bij_parabola(1, 2, 4)
word = event_word(traj.n, 4, events)
formula = map_pb_to_g4(parse_pb_word("b12", 4), reduced=False)
print("  traced word: ", format_gnk_word(word))
print("  substitution:", format_gnk_word(formula))
base = all_bases(4, 4)[0]
print("  phi image either way:", format_hword(phi(word, base), base) or "(empty)")
