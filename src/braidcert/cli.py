"""Command line front end.

Subcommands: reduce, map, phi, bounds, verify, simulate, geometry.  All
output is deterministic for fixed inputs and flags (stable orderings, sorted
JSON keys, no timestamps); randomized verification suites take --seed.

Exit codes: 0 success, 1 suite failure, 2 parse error, 3 precondition
violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import certificates, geometry, gnk, parity, pbraid, switches, trace, words
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

_PARSE_ERRORS = (ParseError,)
_PRECONDITION_ERRORS = (
    NotEvenWord,
    NotAGroupElement,
    InvalidBudget,
    InvalidContext,
    InvalidPair,
    DegenerateInput,
    NoCircle,
    VerticalTangent,
    UnorderedConfiguration,
    NonGenericTrajectory,
)


def _parse_base(text: str | None, n: int, k: int) -> parity.BaseChoice:
    if text is None:
        return parity.BaseChoice(n, k, tuple(range(1, k + 1)))
    try:
        m = tuple(sorted(int(x) for x in text.split(",")))
    except ValueError:
        raise ParseError(f"bad base {text!r}; expected comma-separated integers") from None
    return parity.BaseChoice(n, k, m)


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok) for tok in text.replace(";", ",").split(",") if tok]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational list {text!r}") from None


# ---------------------------------------------------------------------------
# reduce

def cmd_reduce(args) -> int:
    if args.toy is not None:
        word = words.parse_toy_word(args.toy)
        normal = words.toy_normal_form(word)
        print("reduced:", words.format_toy_word(normal) or "(empty)")
        print("feasible:", "true" if words.toy_switch_feasible(word) else "false")
        print("switch_lower_bound:", words.toy_switch_lower_bound(word))
        return 0
    if args.gnk is not None:
        w = gnk.parse_gnk_word(args.gnk, args.n, args.k).reduced()
        print("reduced:", gnk.format_gnk_word(w) or "(empty)")
        print("complexity:", len(w))
        return 0
    if args.even is not None:
        w = words.reduce_involutive(pbraid.parse_even_word(args.even))
        print("reduced:", pbraid.format_even_word(w) or "(empty)")
        print("complexity:", len(w))
        return 0
    w = words.reduce_involutive(words.parse_inv_word(args.inv))
    print("reduced:", words.format_inv_word(w) or "(empty)")
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

def cmd_bounds(args) -> int:
    if args.gnk:
        w = gnk.parse_gnk_word(args.word, args.n, args.k)
        cert = switches.gnk_report(w, budget=args.budget)
    else:
        w = pbraid.parse_pb_word(args.word, args.n)
        cert = switches.unknotting_report(w, budget=args.budget)
    path = certificates.persist(cert, args.out_dir)
    print(cert.to_json())
    print(f"saved: {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify suites

def _suite_relators(n: int, k: int) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    bases = parity.all_bases(n, k)
    for idx, r in enumerate(gnk.relators(n, k)):
        ok = all(
            parity.phi_at(r, base, x) == (x, ())
            for base in bases
            for x in range(1 << bases[0].dim)
        )
        checks.append((f"group relator {idx} acts trivially", ok))
    mappers = {3: pbraid.map_pb_to_g3, 4: pbraid.map_pb_to_g4}
    if n >= k and k in mappers:
        for rel in pbraid.pb_relators(n):
            if rel.tag == "printed_vacuous":
                continue
            diff = rel.left * rel.right.inverse()
            image = mappers[k](diff)
            ok = parity.is_even(image) and all(
                parity.psi_word(image, base) == 0 and parity.phi(image, base) == ()
                for base in bases
            )
            checks.append((f"braid relator {rel.left} = {rel.right} maps to 1", ok))
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
    checks: list[tuple[str, bool]] = []
    bases = parity.all_bases(n, 3)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            w = pbraid.PBWord(n, (pbraid.pb_letter(i, j),))
            traced = trace.trisecant_trace(trace.simulate_bij_circle(i, j, n))
            image = pbraid.map_pb_to_g3(w, reduced=False)
            ok = parity.is_even(traced) and all(
                parity.psi_word(traced, b) == parity.psi_word(image, b)
                and parity.phi(traced, b) == parity.phi(image, b)
                for b in bases
            )
            checks.append((f"circle trace of b{i}{j} matches the k=3 image", ok))
    if n >= 4:
        traced = trace.concyclic_trace(trace.simulate_bij_parabola(1, 2, n))
        image = pbraid.map_pb_to_g4(pbraid.PBWord(n, (pbraid.pb_letter(1, 2),)), reduced=False)
        ok = parity.is_even(traced) and all(
            parity.psi_word(traced, b) == parity.psi_word(image, b)
            and parity.phi(traced, b) == parity.phi(image, b)
            for b in parity.all_bases(n, 4)
        )
        checks.append(("parabola trace of b12 matches the k=4 image", ok))
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
    if args.kind == "circle":
        traj = trace.simulate_bij_circle(args.i, args.j, args.n)
    else:
        traj = trace.simulate_bij_parabola(args.i, args.j, args.n)
    payload = trace.trajectory_to_json(traj)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"saved: {args.out}", file=sys.stderr)
    else:
        print(payload)
    if args.trace:
        k = 3 if args.kind == "circle" else 4
        events = trace.trace_events(traj, k)
        word = gnk.GnkWord(traj.n, k, tuple(ev.participants for ev in events))
        print("word:", gnk.format_gnk_word(word) or "(empty)")
        print("events:", json.dumps(trace.event_log(events), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# geometry

def cmd_geometry(args) -> int:
    if args.op == "delta":
        xs = _parse_fractions(args.values)
        if len(xs) != 4:
            raise ParseError("delta needs four abscissas")
        print("delta:", geometry.delta_det(*xs))
        print("factored:", geometry.delta_factored(*xs))
        print("concyclic:", "true" if geometry.concyclic_on_parabola(*xs) else "false")
    elif args.op == "fourth":
        ts = _parse_fractions(args.values)
        if len(ts) != 3:
            raise ParseError("fourth needs three abscissas")
        print("fourth_intersection:", geometry.fourth_intersection(*ts))
    elif args.op == "circle":
        vals = _parse_fractions(args.values)
        if len(vals) != 6:
            raise ParseError("circle needs three points: x1,y1;x2,y2;x3,y3")
        pts = [(vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5])]
        center, r2 = geometry.circle_through(*pts)
        print(f"center: {center[0]},{center[1]}")
        print("radius_sq:", r2)
    elif args.op == "slope":
        ts = _parse_fractions(args.values)
        if len(ts) != 3:
            raise ParseError("slope needs tk,tl,tm")
        print("kappa:", geometry.slope_kappa(*ts))
    elif args.op == "growth":
        cfg = geometry.growth_sequence_case1(args.n)
        if args.case23:
            cfg = geometry.upgrade_to_case23(cfg)
        print("ts:", ",".join(str(t) for t in cfg.ts))
        print("case1:", "true" if geometry.check_growth_case1(cfg) else "false")
        if cfg.n >= 3:
            print("case23:", "true" if geometry.check_growth_case23(cfg) else "false")
    else:  # order
        cfg = geometry.growth_sequence_case1(args.n)
        if args.case != 1:
            cfg = geometry.upgrade_to_case23(cfg)
        order = geometry.crossing_order(cfg, args.j, args.case)
        print("order:", " ".join(f"({l},{m})" for l, m in order))
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BraidCertError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
