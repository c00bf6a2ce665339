"""Braid complexity certificates.

Exact computation of parity images of pure braids inside involution groups
indexed by k-element strand subsets, with the resulting lower bounds on
trisecant counts, circled-quadrisecant counts and unknotting numbers, plus an
exact-rational geometric oracle and trajectory tracers that cross-validate
the algebra against moving-point dynamics.

Names are imported from their modules (``from braidcert.switches import
unknotting_report``): the package root holds none.
"""

__version__ = "0.1.0"
