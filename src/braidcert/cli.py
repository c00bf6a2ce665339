"""Command line front end.

Subcommands: reduce, map, phi, bounds, verify, simulate, geometry.  All
output is deterministic for fixed inputs and flags (stable orderings, sorted
JSON keys, no timestamps); randomized verification suites take --seed.

Exit codes: 0 success, 1 suite failure, 2 parse error, 3 precondition
violation or an unwritable output path.  Each size limit exits 3 with an
empty stdout before the work that it bounds:

- `map` and `bounds` beyond _IMAGES_MAX_N strands, and `phi` beyond
  _PHI_MAX_N;
- `verify --suite relators` beyond verify._RELATORS_MAX_N;
- `simulate --kind circle` beyond trace._CIRCLE_MAX_N, and parabola
  motions (`simulate --kind parabola`, `verify --suite tracer`) beyond
  trace._PARABOLA_MAX_N;
- `geometry --op growth|order` beyond geometry._CASE1_MAX_N, or
  geometry._CASE23_MAX_N for case 2/3;
- `bounds` with a positive --budget on a parity image of even length
  longer than switches._SEARCH_MAX_LEN letters, after the parity pass and
  before any exact switch minimum; `--budget 0` gives the other bounds;
- `geometry` and `reduce --toy` on an input number or a result of more
  than words.DIGITS_MAX digits.

The measurements behind each limit sit beside its constant.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import certificates, geometry, gnk, parity, pbraid, switches, trace, verify, words
from .errors import BraidCertError, InvalidContext, ParseError


def _parse_base(text: str | None, n: int, k: int) -> parity.BaseChoice:
    if text is None:
        return parity.BaseChoice(n, k, tuple(range(1, k + 1)))
    try:
        m = tuple(sorted(int(x) for x in text.split(",")))
    except ValueError:
        raise ParseError(f"bad base {text!r}; expected comma-separated integers") from None
    return parity.BaseChoice(n, k, m)


def _check_digits(numbers) -> None:
    """Refuse a result that would not print: an int or Fraction with a
    numerator or denominator of more than words.DIGITS_MAX digits."""
    limit = 10 ** words.DIGITS_MAX
    if any(abs(v.numerator) >= limit or v.denominator >= limit for v in numbers):
        raise InvalidContext(f"a result has more than {words.DIGITS_MAX} digits")


def _rationals(text: str, count: int, message: str) -> list[Fraction]:
    """Exactly ``count`` rationals separated by commas or semicolons.  An
    exponent beyond +-words.DIGITS_MAX is refused before Fraction expands
    it into a power of ten (which takes seconds at 1e10000000), and a
    numerator or denominator of more than words.DIGITS_MAX digits as
    written before Fraction fails on it with a parse error that would echo
    the whole list."""
    tokens = [tok for tok in text.replace(";", ",").split(",") if tok]
    for tok in tokens:
        mantissa, _, exp = tok.lower().partition("e")
        exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
        # without leading zeros, five digits or more exceed the limit
        if exp.isdecimal() and int(exp[:5]) > words.DIGITS_MAX:
            raise InvalidContext(
                f"value exponents must lie within -{words.DIGITS_MAX}..{words.DIGITS_MAX}")
        if any(sum(c.isdecimal() for c in part) > words.DIGITS_MAX for part in mantissa.split("/")):
            raise InvalidContext(f"a value has more than {words.DIGITS_MAX} digits")
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

# Largest n of `map` and `bounds`, which maps the same images for its images
# field.  `bounds` grows as C(n, 4) k (n - k) whatever the word: with
# --budget 0, 10 random letters took 2.2-2.8 s and 157 MB peak (VmHWM) at
# n = 24 and 8.2-9.9 s and 613 MB at n = 32, and, with the limit lifted,
# 2 letters took 6.3-7.6 s and 673-694 MB at n = 33.  `map` grows with the
# image: that of b{1,n} at k = 4 has 2700 letters at n = 16 and 26908 at
# n = 32, and took 0.15-0.23 s at n = 32, 0.55-0.68 s at n = 64 and
# 3.9-4.6 s (309 MB) at n = 128.  Three fresh processes each, on a shared
# 2-vCPU x86 machine with CPython 3.11.
_IMAGES_MAX_N = 32


def cmd_map(args) -> int:
    if args.n > _IMAGES_MAX_N:
        raise InvalidContext(f"map needs n <= {_IMAGES_MAX_N}, got {args.n}")
    w = pbraid.parse_pb_word(args.word, args.n)
    mapper = pbraid.map_pb_to_g3 if args.k == 3 else pbraid.map_pb_to_g4
    image = mapper(w)
    print("image:", gnk.format_gnk_word(image) or "(empty)")
    print("even:", "true" if parity.is_even(image) else "false")
    return 0


# ---------------------------------------------------------------------------
# phi

# Largest n of `phi`.  psi is read off each letter (parity.psi_letter), so
# memory does not grow with n for its own sake; what grows is the output,
# (k - 1)(n - k) characters per image letter, and the int of as many bits
# that each image letter holds.  A word of four letters with a two-letter
# image took 0.10-0.16 s and 22-23 MB peak (VmHWM) at n = 10^5, k = 3 and 4
# (0.4 and 0.6 MB of stdout), and, with the limit lifted, 0.12-0.19 s and
# 31-36 MB at n = 10^6 (3.8 and 5.7 MB of stdout).  Three fresh processes
# each, on a shared 2-vCPU x86 machine with CPython 3.11.
_PHI_MAX_N = 100_000


def cmd_phi(args) -> int:
    if args.n > _PHI_MAX_N:
        raise InvalidContext(f"phi needs n <= {_PHI_MAX_N}, got {args.n}")
    w = gnk.parse_gnk_word(args.word, args.n, args.k)
    base = _parse_base(args.base, args.n, args.k)
    y = parity.phi(w, base)
    print("phi:", parity.format_hword(y, base) or "(empty)")
    print("complexity:", len(y))
    return 0


# ---------------------------------------------------------------------------
# bounds

def cmd_bounds(args) -> int:
    if args.n > _IMAGES_MAX_N:
        raise InvalidContext(f"bounds needs n <= {_IMAGES_MAX_N}, got {args.n}")
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
# verify

def cmd_verify(args) -> int:
    if args.suite == "relators":
        checks = verify.relator_checks(args.n, args.k)
    elif args.suite == "appendix":
        checks = verify.appendix_checks(args.seed)
    else:
        checks = verify.tracer_checks(args.n)
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
        certificates.rewrite(args.out, payload + "\n")
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

def cmd_geometry(args) -> int:
    """Every result line is computed first, and printed only if no number in
    it has a numerator or denominator of more than words.DIGITS_MAX digits."""
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
        cfg = geometry.growth_sequence(args.n, args.case23)
        lines = [("ts", *cfg.ts),
                 ("case1", "true" if geometry.check_growth_case1(cfg) else "false")]
        if cfg.n >= 3:
            lines.append(("case23", "true" if geometry.check_growth_case23(cfg) else "false"))
    else:  # order
        cfg = geometry.growth_sequence(args.n, case23=args.case != 1)
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
