"""Command line front end.

Subcommands: reduce, map, phi, bounds, verify, simulate, geometry.  All
output is deterministic for fixed inputs and flags (stable orderings, sorted
JSON keys, no timestamps); randomized verification suites take --seed.

Exit codes: 0 success, 1 suite failure, 2 parse error, 3 precondition
violation or an unwritable output path.  Parabola motions are limited to
n <= 7 (at n = 8, 12 of the 28 generators fail the letter-exact word
check), so `simulate --kind parabola` and `verify --suite tracer` with
n >= 8 exit 3 at once.  So does `simulate --kind circle` beyond n = 32, a
bound on its trace time; `bounds` beyond n = 32, a bound on its memory
(0.64 GB at n = 32, and more than 3 GB at n = 64); `verify
--suite relators` beyond n = 9, a bound on its run time (4 s at n = 10,
k = 4); `geometry --op growth` beyond n = 12 (n = 7 with --case23), whose
last abscissa would not print in decimal; and `geometry --op order --case
2|3` beyond n = 7, whose case-2/3 upgrade would run for seconds and more.
`geometry` and `reduce --toy` exit 3 with an empty stdout when an input
number or a result has more than 4300 digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import certificates, geometry, gnk, parity, pbraid, switches, trace, words
from .errors import BraidCertError, InvalidContext, NotEvenWord, ParseError


def _parse_base(text: str | None, n: int, k: int) -> parity.BaseChoice:
    if text is None:
        return parity.BaseChoice(n, k, tuple(range(1, k + 1)))
    try:
        m = tuple(sorted(int(x) for x in text.split(",")))
    except ValueError:
        raise ParseError(f"bad base {text!r}; expected comma-separated integers") from None
    return parity.BaseChoice(n, k, m)


# `geometry` refuses values, exponents and results beyond this many digits,
# and `reduce --toy` exponents and results.
_DIGITS_MAX = words.DIGITS_MAX


def _check_digits(numbers) -> None:
    """Refuse a result that would not print: an int or Fraction with a
    numerator or denominator of more than _DIGITS_MAX digits."""
    limit = 10 ** _DIGITS_MAX
    if any(abs(v.numerator) >= limit or v.denominator >= limit for v in numbers):
        raise InvalidContext(f"a result has more than {_DIGITS_MAX} digits")


def _rationals(text: str, count: int, message: str) -> list[Fraction]:
    """Exactly ``count`` rationals separated by commas or semicolons.  An
    exponent beyond +-_DIGITS_MAX is refused before Fraction expands it into
    a power of ten (which takes seconds at 1e10000000), and a numerator or
    denominator of more than _DIGITS_MAX digits as written before Fraction
    fails on it with a parse error that would echo the whole list."""
    tokens = [tok for tok in text.replace(";", ",").split(",") if tok]
    for tok in tokens:
        mantissa, _, exp = tok.lower().partition("e")
        exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
        # without leading zeros, five digits or more exceed the limit
        if exp.isdecimal() and int(exp[:5]) > _DIGITS_MAX:
            raise InvalidContext(f"value exponents must lie within -{_DIGITS_MAX}..{_DIGITS_MAX}")
        if any(sum(c.isdecimal() for c in part) > _DIGITS_MAX for part in mantissa.split("/")):
            raise InvalidContext(f"a value has more than {_DIGITS_MAX} digits")
    try:
        values = [Fraction(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational list {text!r}") from None
    if len(values) != count:
        raise ParseError(message)
    return values


# ---------------------------------------------------------------------------
# reduce

def cmd_reduce(args) -> int:
    if args.toy is not None:
        word = words.parse_toy_word(args.toy)
        normal = words.toy_normal_form(word)
        feasible = words.toy_switch_feasible(word)
        bound = words.toy_switch_lower_bound(word)
        _check_digits([bound, *(exp for _, exp in normal)])
        print("reduced:", words.format_toy_word(normal) or "(empty)")
        print("feasible:", "true" if feasible else "false")
        print("switch_lower_bound:", bound)
        return 0
    if args.gnk is not None:
        w = gnk.parse_gnk_word(args.gnk, args.n, args.k).reduced()
        text = gnk.format_gnk_word(w)
    elif args.even is not None:
        w = words.reduce_involutive(pbraid.parse_even_word(args.even))
        text = pbraid.format_even_word(w)
    else:
        w = words.reduce_involutive(words.parse_inv_word(args.inv))
        text = words.format_inv_word(w)
    print("reduced:", text or "(empty)")
    print("complexity:", len(w))
    return 0


# ---------------------------------------------------------------------------
# map

def cmd_map(args) -> int:
    w = pbraid.parse_pb_word(args.word, args.n)
    mapper = pbraid.map_pb_to_g3 if args.k == 3 else pbraid.map_pb_to_g4
    image = mapper(w)
    print("image:", gnk.format_gnk_word(image) or "(empty)")
    print("even:", "true" if parity.is_even(image) else "false")
    return 0


# ---------------------------------------------------------------------------
# phi

def cmd_phi(args) -> int:
    w = gnk.parse_gnk_word(args.word, args.n, args.k)
    base = _parse_base(args.base, args.n, args.k)
    y = parity.phi(w, base)
    print("phi:", parity.format_hword(y, base) or "(empty)")
    print("complexity:", len(y))
    return 0


# ---------------------------------------------------------------------------
# bounds

# Largest n of `bounds`: memory grows as C(n, 4) k (n - k) whatever the word.
# As fresh processes with --budget 0, 10 random letters took 3.1 s and 163 MB
# peak (VmHWM) at n = 24, 13.5 s and 636 MB at n = 32, and 2 letters 6.6 s
# and 688 MB at n = 33, while 2 letters at n = 64 ran out of a 3 GB
# address-space cap (shared 2-vCPU x86 machine, CPython 3.11).
_BOUNDS_MAX_N = 32


def cmd_bounds(args) -> int:
    if args.n > _BOUNDS_MAX_N:
        raise InvalidContext(f"bounds needs n <= {_BOUNDS_MAX_N}, got {args.n}")
    if args.gnk:
        w = gnk.parse_gnk_word(args.word, args.n, args.k)
        cert = switches.gnk_report(w, budget=args.budget)
    else:
        w = pbraid.parse_pb_word(args.word, args.n)
        cert = switches.unknotting_report(w, budget=args.budget)
    path, text = certificates.persist(cert, args.out_dir)
    print(text)
    print(f"saved: {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify suites

_RELATORS_MAX_N = 9


def _same_phi(u: gnk.GnkWord, v: gnk.GnkWord) -> bool:
    """Whether ``u`` is even and has the parity image of ``v`` on every base
    of their context.  Both suites compare with an even ``v`` (the empty
    word, whose images the relators suite computes once per call, or an
    unreduced map image), and ``psi`` vanishes on even words, so from the
    zero state both words end in (0, their image): equal images mean equal
    states.  Each word is walked once for all bases (parity.phi_all_bases),
    which checks its evenness once."""
    images = _even_phi(u)
    return images is not None and images == parity.phi_all_bases(v)


def _even_phi(u: gnk.GnkWord) -> tuple | None:
    """The parity images of ``u`` on every base, or None if ``u`` is odd."""
    try:
        return parity.phi_all_bases(u)
    except NotEvenWord:
        return None


def _suite_relators(n: int, k: int) -> list[tuple[str, bool]]:
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

    Beyond n = 9 the suite is refused before any relator is built.  The
    limit bounds the run time, which grows with the number of checks:
    lifted, the whole suite took 1.1 s at n = 10, k = 3 (6870 checks),
    4.2 s at n = 10, k = 4 (20547 checks) and 1.5 s at n = 11, k = 3.
    """
    if n > _RELATORS_MAX_N:
        raise InvalidContext(f"the relators suite needs n <= {_RELATORS_MAX_N}, got {n}")
    trivial = parity.phi_all_bases(gnk.GnkWord(n, k, ()))
    checks = [(f"group relator {idx} acts trivially", _even_phi(r) == trivial)
              for idx, r in enumerate(gnk.relators(n, k))]
    mapper = pbraid.map_pb_to_g3 if k == 3 else pbraid.map_pb_to_g4
    for rel in pbraid.pb_relators(n):
        if rel.tag != "printed_vacuous":
            image = mapper(rel.left * rel.right.inverse())
            checks.append((f"braid relator {rel.left} = {rel.right} maps to 1",
                           _even_phi(image) == trivial))
    return checks


def _suite_appendix(seed: int) -> list[tuple[str, bool]]:
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


def _suite_tracer(n: int) -> list[tuple[str, bool]]:
    if n < 3:
        raise InvalidContext(f"the tracer suite needs n >= 3, got {n}")

    # built first, so its n <= 7 limit stops the suite at once; reported last
    parabola_events = trace.simulate_bij_parabola(1, 2, n)[1] if n >= 4 else None
    checks: list[tuple[str, bool]] = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            w = pbraid.PBWord(n, (pbraid.pb_letter(i, j),))
            _, events = trace.simulate_bij_circle(i, j, n)
            traced = trace.event_word(n, 3, events)
            image = pbraid.map_pb_to_g3(w, reduced=False)
            checks.append((f"circle trace of b{i}{j} matches the k=3 image",
                           _same_phi(traced, image)))
    if parabola_events is not None:
        traced = trace.event_word(n, 4, parabola_events)
        image = pbraid.map_pb_to_g4(pbraid.PBWord(n, (pbraid.pb_letter(1, 2),)), reduced=False)
        checks.append(("parabola trace of b12 matches the k=4 image",
                       _same_phi(traced, image)))
    return checks


def cmd_verify(args) -> int:
    if args.suite == "relators":
        checks = _suite_relators(args.n, args.k)
    elif args.suite == "appendix":
        checks = _suite_appendix(args.seed)
    else:
        checks = _suite_tracer(args.n)
    failed = [name for name, ok in checks if not ok]
    summary = {
        "suite": args.suite,
        "checks": len(checks),
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "failures": failed,
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    k = 3 if args.kind == "circle" else 4
    build = trace.simulate_bij_circle if k == 3 else trace.simulate_bij_parabola
    traj, events = build(args.i, args.j, args.n)
    payload = trace.trajectory_to_json(traj)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"saved: {args.out}", file=sys.stderr)
    else:
        print(payload)
    if args.trace:
        word = trace.event_word(traj.n, k, events)
        print("word:", gnk.format_gnk_word(word) or "(empty)")
        print("events:", json.dumps(trace.event_log(events), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# geometry

def _growth_sequence(n: int, case23: bool) -> geometry.ParabolaConfig:
    """The canonical growth sequence, upgraded to case 2/3 if asked, refused
    before any work beyond n = 12 (n = 7 upgraded): t_13 and the upgraded t_8
    do not print in decimal, and the upgrade alone runs for seconds at n = 8
    and longer beyond."""
    limit = geometry._CASE23_MAX_N if case23 else geometry._CASE1_MAX_N
    if n > limit:
        kind = "case-2/3 growth" if case23 else "growth"
        raise InvalidContext(f"{kind} sequences need n <= {limit}, got {n}")
    cfg = geometry.growth_sequence_case1(n)
    return geometry.upgrade_to_case23(cfg) if case23 else cfg


def cmd_geometry(args) -> int:
    """Every result line is computed first, and printed only if no number in
    it has a numerator or denominator of more than _DIGITS_MAX digits."""
    if args.op == "delta":
        xs = _rationals(args.values, 4, "delta needs four abscissas")
        lines = [("delta", geometry.delta_det(*xs)), ("factored", geometry.delta_factored(*xs)),
                 ("concyclic", "true" if geometry.concyclic_on_parabola(*xs) else "false")]
    elif args.op == "fourth":
        ts = _rationals(args.values, 3, "fourth needs three abscissas")
        lines = [("fourth_intersection", geometry.fourth_intersection(*ts))]
    elif args.op == "circle":
        vals = _rationals(args.values, 6, "circle needs three points: x1,y1;x2,y2;x3,y3")
        pts = [(vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5])]
        center, r2 = geometry.circle_through(*pts)
        lines = [("center", *center), ("radius_sq", r2)]
    elif args.op == "slope":
        ts = _rationals(args.values, 3, "slope needs tk,tl,tm")
        lines = [("kappa", geometry.slope_kappa(*ts))]
    elif args.op == "growth":
        cfg = _growth_sequence(args.n, args.case23)
        lines = [("ts", *cfg.ts),
                 ("case1", "true" if geometry.check_growth_case1(cfg) else "false")]
        if cfg.n >= 3:
            lines.append(("case23", "true" if geometry.check_growth_case23(cfg) else "false"))
    else:  # order
        cfg = _growth_sequence(args.n, case23=args.case != 1)
        order = geometry.crossing_order(cfg, args.j, args.case)
        lines = [("order", " ".join(f"({l},{m})" for l, m in order))]
    _check_digits(v for _, *vals in lines for v in vals if not isinstance(v, str))
    for label, *vals in lines:
        print(f"{label}:", ",".join(str(v) for v in vals))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcert",
        description="Braid complexity certificates from parity images and exact geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a word and print its complexity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gnk", metavar="WORD", help="word in k-subset generators")
    group.add_argument("--toy", metavar="WORD", help="toy word, tokens like a^4 b^-2")
    group.add_argument("--even", metavar="WORD", help="word in a1 a2 a3")
    group.add_argument("--inv", metavar="WORD", help="word over an opaque involutive alphabet")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("map", help="image of a pure braid word in the k-subset group")
    p.add_argument("word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, choices=(3, 4), default=3)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("phi", help="parity image of an even k-subset word")
    p.add_argument("word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, choices=(3, 4), default=3)
    p.add_argument("--base", help="comma-separated base subset (default 1..k)")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("bounds", help="full certificate with unknotting lower bounds")
    p.add_argument("word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, choices=(3, 4), default=3,
                   help="context for --gnk input")
    p.add_argument("--gnk", action="store_true", help="input is a k-subset word")
    p.add_argument("--budget", type=int, default=6)
    p.add_argument("--out-dir", default="certificates")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("relators", "appendix", "tracer"), required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, choices=(3, 4), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="build a generator motion as a trajectory")
    p.add_argument("--kind", choices=("circle", "parabola"), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write trajectory JSON here instead of stdout")
    p.add_argument("--trace", action="store_true", help="also trace and print the word")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("geometry", help="exact geometric predicates")
    p.add_argument("--op", choices=("delta", "fourth", "circle", "slope", "growth", "order"),
                   required=True)
    p.add_argument("--values", default="", help="comma/semicolon separated rationals")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--case", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--case23", action="store_true", help="upgrade growth to case 2/3")
    p.set_defaults(func=cmd_geometry)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (BraidCertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
