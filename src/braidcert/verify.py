"""Verification suites: checks of the paper's claims that the CLI runs as
``braidcert verify --suite relators|appendix|tracer``.

Each suite returns its checks as (name, ok) pairs, in a fixed order; a
check that fails is reported by name and makes the command exit 1.

- relator_checks(n, k): every relator of G_n^k, and the image of every
  relator of PB_n, acts trivially on Z x H, so PB_n -> G_n^k is a
  homomorphism (k = 3, 4).
- appendix_checks(seed): the exact geometry of the appendix on seeded
  random inputs and on the canonical growth sequence.
- tracer_checks(n): the words traced off the circle motions of every b_ij,
  and off the parabola motion of b12, have the parity images of the
  algebraic maps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import geometry, gnk, parity, pbraid, trace
from .errors import InvalidContext, NotEvenWord

# Largest n of the relators suite, a bound on its run time, which grows with
# the number of checks.  At k = 4 the whole suite took 0.18-0.29 s at n = 9
# (7287 checks), 0.72-0.98 s at n = 11 and 1.6-2.3 s with a 64 MB peak
# (VmHWM) at n = 12 (117062 checks), and, with the limit lifted, 3.8-5.5 s
# and 110 MB at n = 13.  Three fresh processes each, on a shared 2-vCPU x86
# machine with CPython 3.11.
_RELATORS_MAX_N = 12


def _same_phi(u: gnk.GnkWord, v: gnk.GnkWord) -> bool:
    """Whether ``u`` is even and has the parity image of ``v`` on every base
    of their context.  The tracer suite compares with an even ``v``, an
    unreduced map image, and ``psi`` vanishes on even words, so from the
    zero state both words end in (0, their image): equal images mean equal
    states.  Each word is walked once for all bases (parity.phi_all_bases),
    which checks its evenness once."""
    try:
        images = parity.phi_all_bases(u)
    except NotEvenWord:
        return False
    return images == parity.phi_all_bases(v)


def relator_checks(n: int, k: int) -> list[tuple[str, bool]]:
    """Each relator of G_n^k, and the image of each braid relator, must act
    trivially on Z x H from every start state (x0, 1).  It is checked from
    x0 = 0 alone, which covers every x0 by translation:

        phi_at(w, b, x0) == (x0 ^ X, tuple(v ^ x0 for v in Y)),
        where (X, Y) = phi_at(w, b, 0).

    Proof, by induction on the letters.  ``act_letter`` picks its branch by
    comparing the letter with the base, which involves no state.  Beyond
    that it only compares indices with each other (the first letter of y
    with x) and xors them (psi of the letter into x), and it prepends x to
    y or drops the first letter of y.  Each of these commutes with xor by
    x0 on x and on every letter of y.  Hence a word acts trivially from
    every state iff it does so from 0, that is, iff X = 0 and Y is empty.
    For an even word, as every relator and its image is, X = psi(w) = 0, so
    the check is ``phi(w) == ()``.

    A group relator is checked by parity.acts_trivially, on the bases its
    letters reach.  A braid relator l = r is checked as
    ``phi_pb_all_bases(l r^-1, k) == trivial``, without mapping the word.
    That is the same predicate as ``phi`` of its image on every base: the
    image map(l r^-1) of a pure braid word is even, since each generator's
    image A c c A^-1 holds every letter an even number of times, so the
    image is never refused as odd; and by the lemma of
    parity.phi_pb_all_bases, its images on every base are those of the
    letters' cached images, concatenated and freely reduced.

    Beyond _RELATORS_MAX_N the suite is refused before any relator is
    built.  The relator words are built without re-checking their letters
    (PBWord._unchecked, GnkWord._unchecked).
    """
    if n > _RELATORS_MAX_N:
        raise InvalidContext(f"the relators suite needs n <= {_RELATORS_MAX_N}, got {n}")
    checks = [(f"group relator {idx} acts trivially", parity.acts_trivially(r))
              for idx, r in enumerate(gnk.relators(n, k))]
    trivial = parity.phi_all_bases(gnk.GnkWord(n, k, ()))
    for rel in pbraid.pb_relators(n):
        if rel.tag != "printed_vacuous":
            checks.append((f"braid relator {rel.left} = {rel.right} maps to 1",
                           parity.phi_pb_all_bases(rel.left * rel.right.inverse(), k) == trivial))
    return checks


def appendix_checks(seed: int) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    checks: list[tuple[str, bool]] = []

    ok = True
    for _ in range(1000):
        xs = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000)) for _ in range(4)]
        if geometry.delta_det(*xs) != geometry.delta_factored(*xs):
            ok = False
            break
    checks.append(("determinant equals its product factorisation (1000 random)", ok))

    ok = True
    for _ in range(200):
        xs = sorted(rng.sample(range(1, 10**6), 3))
        xs4 = -(xs[0] + xs[1] + xs[2])
        ok = ok and geometry.concyclic_on_parabola(xs4, *xs)
        ok = ok and (geometry.delta_det(xs4, *xs) == 0)
        ok = ok and not geometry.concyclic_on_parabola(xs4 + 1, *xs)
    checks.append(("concyclic iff abscissas sum to zero", ok))

    ok = True
    for _ in range(200):
        ts = sorted(Fraction(rng.randint(1, 10**6), rng.randint(1, 100)) for _ in range(3))
        if len(set(ts)) < 3:
            continue
        s = geometry.fourth_intersection(*ts)
        ok = ok and s < 0
        center, r2 = geometry.circle_through(*((t, t * t) for t in ts))
        ok = ok and ((s - center[0]) ** 2 + (s * s - center[1]) ** 2 == r2)
    checks.append(("fourth intersection negative and on the circle", ok))

    cfg = geometry.growth_sequence_case1(5)
    ok = True
    for l in range(1, 6):
        for m in range(l + 1, 6):
            for kk in range(m + 1, 6):
                kappa = geometry.slope_kappa(cfg.t(kk), cfg.t(l), cfg.t(m))
                ok = ok and (-(cfg.t(l) + cfg.t(m) + 1) < kappa < -(cfg.t(l) + cfg.t(m)))
    checks.append(("slope bounds on the canonical growth sequence", ok))

    ok = True
    for j in range(3, 6):
        expected = [(l, m) for m in range(2, j) for l in range(1, m)]
        ok = ok and geometry.crossing_order(cfg, j, 1) == expected
    checks.append(("case-1 order matches the closed form", ok))

    cfg23 = geometry.upgrade_to_case23(cfg)
    ok = True
    for j in range(2, 5):
        expected2 = [(l, m) for l in range(j - 1, 0, -1) for m in range(j + 1, 6)]
        ok = ok and geometry.crossing_order(cfg23, j, 2) == expected2
    for j in range(1, 4):
        expected3 = [(l, m) for l in range(4, j, -1) for m in range(5, l, -1)]
        ok = ok and geometry.crossing_order(cfg23, j, 3) == expected3
    checks.append(("case-2/3 orders match their printed lists", ok))
    return checks


def tracer_checks(n: int) -> list[tuple[str, bool]]:
    if n < 3:
        raise InvalidContext(f"the tracer suite needs n >= 3, got {n}")

    # built first, so its n <= 7 limit stops the suite at once; reported last
    parabola_events = trace.simulate_bij_parabola(1, 2, n)[1] if n >= 4 else None
    checks: list[tuple[str, bool]] = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            w = pbraid.PBWord._unchecked(n, (pbraid.PBLetter(i, j, 1),))
            _, events = trace.simulate_bij_circle(i, j, n)
            traced = trace.event_word(n, 3, events)
            image = pbraid.map_pb_to_g3(w, reduced=False)
            checks.append((f"circle trace of b{i}{j} matches the k=3 image",
                           _same_phi(traced, image)))
    if parabola_events is not None:
        traced = trace.event_word(n, 4, parabola_events)
        b12 = pbraid.PBWord._unchecked(n, (pbraid.PBLetter(1, 2, 1),))
        checks.append(("parabola trace of b12 matches the k=4 image",
                       _same_phi(traced, pbraid.map_pb_to_g4(b12, reduced=False))))
    return checks
