"""Braid complexity certificates.

Exact computation of parity images of pure braids inside involution groups
indexed by k-element strand subsets, with the resulting lower bounds on
trisecant counts, circled-quadrisecant counts and unknotting numbers, plus an
exact-rational geometric oracle and trajectory tracers that cross-validate
the algebra against moving-point dynamics.
"""

from .certificates import Certificate, ContextReport
from .errors import (
    BraidCertError,
    DegenerateInput,
    InvalidBudget,
    InvalidContext,
    InvalidPair,
    NoCircle,
    NonGenericTrajectory,
    NotAGroupElement,
    NotEvenWord,
    ParseError,
    UnorderedConfiguration,
    VerticalTangent,
)
from .gnk import GnkWord, c_full, far_commutes, generators, relators
from .parity import (
    BaseChoice,
    all_bases,
    act_letter,
    format_hword,
    format_zvec,
    is_even,
    phi,
    phi_all_bases,
    phi_at,
    psi_letter,
    psi_word,
    quadrisecant_lower_bound,
    trisecant_lower_bound,
)
from .pbraid import (
    PBLetter,
    PBWord,
    even_to_pb3,
    g3_c,
    g4_c,
    g4_c_components,
    map_pb_to_g3,
    map_pb_to_g4,
    pb3_to_even,
    pb_letter,
    pb_relators,
)
from .switches import (
    SwitchSystem,
    apply_switch,
    c_max,
    gnk_report,
    min_switches,
    min_switches_witness,
    pi_project,
    rough_unknotting_bound,
    switch_feasibility_necessary,
    switch_system,
    unknotting_report,
    z_pair,
)
from .words import (
    complexity,
    cyclic_reduce,
    reduce_involutive,
    toy_normal_form,
    toy_switch_feasible,
    toy_switch_lower_bound,
)

__version__ = "0.1.0"
