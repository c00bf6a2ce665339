"""Exact real-root isolation for rational-coefficient polynomials.

Polynomials are tuples of Fractions, low degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Root counting uses Sturm
chains, so everything is exact: no floating point anywhere.

Roots are represented either as exact rationals or as (squarefree polynomial,
open isolating interval with rational endpoints, neither endpoint a root).
Two roots can always be compared exactly: equality of algebraic numbers
reduces to a gcd having a root in the overlap interval, after which distinct
roots separate under bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs: Iterable) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly((a[t] if t < len(a) else 0) + (b[t] if t < len(b) else 0) for t in range(n))


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for s, ca in enumerate(a):
        for t, cb in enumerate(b):
            out[s + t] += ca * cb
    return poly(out)


def poly_scale(a: Poly, c) -> Poly:
    return poly(x * Fraction(c) for x in a)


def poly_deriv(a: Poly) -> Poly:
    return poly(t * a[t] for t in range(1, len(a)))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for shift in range(len(rem) - len(b), -1, -1):
        coef = rem[shift + len(b) - 1] * inv_lead
        if coef == 0:
            continue
        quo[shift] = coef
        for t, cb in enumerate(b):
            rem[shift + t] -= coef * cb
    return poly(quo), poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def squarefree_part(p: Poly) -> Poly:
    if len(p) <= 1:
        return p
    g = poly_gcd(p, poly_deriv(p))
    if len(g) <= 1:
        return p
    return poly_divmod(p, g)[0]


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, poly_deriv(p)]
    while chain[-1]:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(poly_neg(rem))
    return [q for q in chain if q]


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = [s for s in (_sign(poly_eval(q, x)) for q in chain) if s != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(p: Poly, lo: Fraction, hi: Fraction, chain: Sequence[Poly] | None = None) -> int:
    """Number of distinct real roots of squarefree p in (lo, hi].
    Callers arrange that lo is not a root, making the interval effectively
    open on both ends whenever hi is not a root either."""
    if not p:
        raise ValueError("zero polynomial has no isolated roots")
    if len(p) == 1:
        return 0
    if chain is None:
        chain = sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def _sign_lin_sqrt(a: Fraction, b: Fraction, d: Fraction) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b and rational d >= 0."""
    if d < 0:
        raise ValueError("negative radicand")
    if b == 0 or d == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    return _sign(a) if lhs > rhs else _sign(b)


def _sign_two_sqrt(r: Fraction, u: Fraction, d1: Fraction,
                   v: Fraction, d2: Fraction) -> int:
    """Exact sign of r + u*sqrt(d1) + v*sqrt(d2), d1, d2 >= 0."""
    # sign of S = u sqrt(d1) + v sqrt(d2) = sqrt(d2) (v + u sqrt(d1/d2))
    s_sign = _sign_lin_sqrt(v, u, Fraction(d1, d2)) if d2 else _sign_lin_sqrt(Fraction(0), u, d1)
    if r == 0:
        return s_sign
    if s_sign == 0:
        return _sign(r)
    if _sign(r) == s_sign:
        return s_sign
    # opposite signs: compare r^2 against S^2 = u^2 d1 + v^2 d2 + 2uv sqrt(d1 d2)
    L = r * r - u * u * d1 - v * v * d2
    cmp = _sign_lin_sqrt(L, -2 * u * v, d1 * d2)  # sign of r^2 - S^2
    if cmp == 0:
        return 0
    return _sign(r) if cmp > 0 else s_sign


def _normal_quadratic(p: Poly) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(c0, c1, c2, disc) of a quadratic c0 + c1 t + c2 t^2, signs flipped so
    that c2 > 0 (same roots), with disc = c1^2 - 4 c2 c0."""
    c0, c1, c2 = p
    if c2 < 0:
        c0, c1, c2 = -c0, -c1, -c2
    return c0, c1, c2, c1 * c1 - 4 * c2 * c0


@dataclass(frozen=True)
class RealRoot:
    """One real algebraic number: either exact == True and lo == hi is the
    value, or the unique root of the squarefree ``minimal`` in (lo, hi) with
    nonzero values at both endpoints."""

    minimal: Poly
    lo: Fraction
    hi: Fraction
    exact: bool

    @staticmethod
    def from_rational(x) -> "RealRoot":
        x = Fraction(x)
        return RealRoot((-x, Fraction(1)), x, x, True)

    def quadratic_surd(self) -> tuple[Fraction, Fraction, Fraction, int] | None:
        """For a degree-2 minimal polynomial, the root written as
        (-B + e*sqrt(D)) / (2A) with A > 0: returns (A, B, D, e)."""
        if self.exact or len(self.minimal) != 3:
            return None
        c0, c1, c2, disc = _normal_quadratic(self.minimal)
        # squarefree quadratic over Q with a real root has disc > 0; which of
        # the two roots sits in (lo, hi) is read off the endpoint sign: with
        # positive leading coefficient, the parabola is positive left of the
        # smaller root and negative between the roots
        lo_sign = _sign(poly_eval((c0, c1, c2), self.lo))
        e = -1 if lo_sign > 0 else 1
        return c2, c1, disc, e

    def refined(self) -> "RealRoot":
        if self.exact:
            return self
        mid = (self.lo + self.hi) / 2
        val = poly_eval(self.minimal, mid)
        if val == 0:
            return RealRoot(self.minimal, mid, mid, True)
        if _sign(val) == _sign(poly_eval(self.minimal, self.lo)):
            return RealRoot(self.minimal, mid, self.hi, False)
        return RealRoot(self.minimal, self.lo, mid, False)


def _isolate_quadratic(p: Poly, lo: Fraction, hi: Fraction) -> list[RealRoot]:
    """Direct isolation for squarefree quadratics: membership of each closed-
    form root in (lo, hi) is decided by exact surd-sign tests, and the vertex
    splits the two roots, so no bisection is ever needed."""
    _, c1, c2, disc = _normal_quadratic(p)
    if disc <= 0:
        return []  # squarefree quadratics have disc != 0; disc < 0: no real roots
    vertex = -c1 / (2 * c2)
    out = []
    for e in (-1, 1):
        # root = (-c1 + e sqrt(disc)) / (2 c2); root - q has the sign of
        # (-c1 - 2 c2 q) + e sqrt(disc) since 2 c2 > 0
        above_lo = _sign_lin_sqrt(-c1 - 2 * c2 * lo, Fraction(e), disc)
        below_hi = _sign_lin_sqrt(-c1 - 2 * c2 * hi, Fraction(e), disc)
        if above_lo > 0 and below_hi < 0:
            a = max(lo, vertex) if e > 0 else lo
            b = hi if e > 0 else min(hi, vertex)
            out.append(RealRoot(p, a, b, False))
    return out


def isolate_roots(p: Poly, lo: Fraction, hi: Fraction) -> list[RealRoot]:
    """Isolating descriptions of every root of p in the open interval
    (lo, hi).  Requires p squarefree with p(lo) != 0 != p(hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not p:
        raise ValueError("zero polynomial")
    if poly_eval(p, lo) == 0 or poly_eval(p, hi) == 0:
        raise ValueError("interval endpoints must not be roots")
    if len(p) == 2:
        root = -p[0] / p[1]
        return [RealRoot.from_rational(root)] if lo < root < hi else []
    if len(p) == 3:
        return _isolate_quadratic(p, lo, hi)
    chain = sturm_chain(p)
    out: list[RealRoot] = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        k = count_roots(p, a, b, chain)
        if k == 0:
            continue
        if k == 1:
            out.append(RealRoot(p, a, b, False))
            continue
        mid = (a + b) / 2
        if poly_eval(p, mid) == 0:
            out.append(RealRoot(p, mid, mid, True))
            # shrink a window around mid until mid is the only root in it and
            # neither end is a root; the halves outside it keep every other root
            eps = (b - a) / 4
            while (poly_eval(p, mid - eps) == 0 or poly_eval(p, mid + eps) == 0
                   or count_roots(p, mid - eps, mid + eps, chain) != 1):
                eps /= 2
            stack.append((a, mid - eps))
            stack.append((mid + eps, b))
        else:
            stack.append((a, mid))
            stack.append((mid, b))
    return sorted(out, key=lambda r: (r.lo, r.hi))


def root_compare(r1: RealRoot, r2: RealRoot) -> int:
    """Exact comparison: -1, 0 or +1."""
    if r1.exact and r2.exact:
        return _sign(r1.lo - r2.lo)
    if r1.exact:
        return -root_compare(r2, r1)
    if r2.exact:
        q = r2.lo
        if q <= r1.lo:
            return 1
        if q >= r1.hi:
            return -1
        val = poly_eval(r1.minimal, q)
        if val == 0:
            return 0
        # root of r1 lies on the side of q where the sign still changes
        if _sign(val) == _sign(poly_eval(r1.minimal, r1.lo)):
            return 1  # root in (q, hi), so root > q
        return -1
    q1, q2 = r1.quadratic_surd(), r2.quadratic_surd()
    if q1 is not None and q2 is not None:
        # (-B1 + e1 sqrt(D1)) / (2A1)  vs  (-B2 + e2 sqrt(D2)) / (2A2)
        a1, b1, d1, e1 = q1
        a2, b2, d2, e2 = q2
        return _sign_two_sqrt(
            2 * (a1 * b2 - a2 * b1),
            2 * a2 * Fraction(e1), d1,
            -2 * a1 * Fraction(e2), d2,
        )
    # refined() keeps the minimal polynomials, so their common part is fixed
    g = r1.minimal if r1.minimal == r2.minimal else poly_gcd(r1.minimal, r2.minimal)
    common = squarefree_part(g) if len(g) > 1 else None
    a, b = r1, r2
    for _ in range(4096):
        if a.hi <= b.lo:
            return -1
        if b.hi <= a.lo:
            return 1
        if common is not None:
            lo = max(a.lo, b.lo)
            hi = min(a.hi, b.hi)
            # overlap endpoints are endpoints of isolating intervals, hence
            # not roots of either minimal polynomial nor of their gcd
            if poly_eval(common, lo) != 0 and poly_eval(common, hi) != 0 and count_roots(common, lo, hi) > 0:
                return 0
        a, b = a.refined(), b.refined()
    raise RuntimeError("root comparison failed to converge")  # pragma: no cover
