"""Exact real-root isolation on integer polynomials.

Polynomials are tuples of coefficients, low degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  The algorithms work on
primitive integer polynomials: each first rescales its input by a positive
rational factor (clear the denominators, then divide out the content), so a
rational input is accepted too.  A positive factor moves no root and flips
no sign, so every count, interval and comparison is the one of the input.
Signs at a rational point come from an integer homogeneous Horner, Sturm
chains and gcds from sign-preserving pseudo-remainders (the divisor's
leading coefficient enters by its absolute value) reduced to primitive
parts, and a polynomial of degree <= 2 is squarefree exactly when its
discriminant is nonzero.  Every division of integers goes through Fraction:
no floating point anywhere.

Roots are represented either as exact rationals or as (squarefree polynomial,
open isolating interval with rational endpoints, neither endpoint a root).
Two roots can always be compared exactly: equality of algebraic numbers
reduces to a gcd having a root in the overlap interval, after which distinct
roots separate under bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Poly = tuple  # of int (or, as input, Fraction) coefficients


def _trim(out: list) -> Poly:
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly(coeffs: Iterable) -> Poly:
    return _trim([c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs])


def primitive(p: Poly) -> Poly:
    """The primitive integer polynomial c * p for the one c > 0 that clears
    every denominator of p and then the gcd of the numerators."""
    if not p:
        return ()
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    content = gcd(*ints)
    return tuple(c // content for c in ints)


def sign_at(p: Poly, x: Fraction) -> int:
    """Sign of the integer polynomial p at the rational x = u/v (v > 0):
    v^deg(p) p(u/v), evaluated by a homogeneous Horner in integers, has the
    sign of p(x)."""
    u, v = x.numerator, x.denominator
    acc, w = 0, 1
    for c in reversed(p):
        acc = acc * u + c * w
        w *= v
    return (acc > 0) - (acc < 0)


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim([(a[t] if t < len(a) else 0) + (b[t] if t < len(b) else 0) for t in range(n)])


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for s, ca in enumerate(a):
        for t, cb in enumerate(b):
            out[s + t] += ca * cb
    return _trim(out)


def poly_deriv(a: Poly) -> Poly:
    return _trim([t * a[t] for t in range(1, len(a))])


def pseudo_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Sign-preserving pseudo-division of integer polynomials: (q, r) with
    |lc(b)|^(deg a - deg b + 1) a = q b + r and deg r < deg b.  The factor
    is positive, so q and r are positive multiples of the rational quotient
    and remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    lead = b[-1]
    scale, flip = abs(lead), (1 if lead > 0 else -1)
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        # scale * rem - coef * x^shift * b cancels the top term, since
        # coef * lead = flip * lead * rem_top = scale * rem_top
        coef = flip * rem[shift + len(b) - 1]
        if scale != 1:
            rem = [scale * c for c in rem]
            quo = [scale * c for c in quo]
        quo[shift] = coef
        for t, cb in enumerate(b):
            rem[shift + t] -= coef * cb
    return _trim(quo), _trim(rem[:len(b) - 1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd as a primitive integer polynomial with positive leading
    coefficient, by the primitive pseudo-remainder sequence."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(pseudo_divmod(a, b)[1])
    return poly_neg(a) if a and a[-1] < 0 else a


def squarefree_part(p: Poly) -> Poly:
    """The primitive integer polynomial with the distinct roots of p, each
    simple: p itself when squarefree, else p / gcd(p, p').  Up to degree 2
    the discriminant decides: c0 + c1 t + c2 t^2 with c1^2 = 4 c0 c2 is
    c2 (t + c1 / (2 c2))^2."""
    p = primitive(p)
    if len(p) <= 2:
        return p
    if len(p) == 3:
        c0, c1, c2 = p
        return primitive((c1, 2 * c2)) if c1 * c1 == 4 * c0 * c2 else p
    g = poly_gcd(p, poly_deriv(p))
    if len(g) <= 1:
        return p
    return primitive(pseudo_divmod(p, g)[0])


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of p with every member a positive multiple of the
    classical one (primitive parts of sign-preserving pseudo-remainders), so
    its sign variations at any point are the classical ones."""
    p = primitive(p)
    chain = [p, primitive(poly_deriv(p))]
    while chain[-1]:
        rem = pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(poly_neg(primitive(rem)))
    return [q for q in chain if q]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = [s for s in (sign_at(q, x) for q in chain) if s != 0]
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
    # sign of S = u sqrt(d1) + v sqrt(d2) = sqrt(d2) / d2 (v d2 + u sqrt(d1 d2))
    s_sign = _sign_lin_sqrt(v * d2, u, d1 * d2) if d2 else _sign_lin_sqrt(0, u, d1)
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


def _normal_quadratic(p: Poly) -> tuple[int, int, int, int]:
    """(c0, c1, c2, disc) of an integer quadratic c0 + c1 t + c2 t^2, signs
    flipped so that c2 > 0 (same roots), with disc = c1^2 - 4 c2 c0."""
    c0, c1, c2 = p
    if c2 < 0:
        c0, c1, c2 = -c0, -c1, -c2
    return c0, c1, c2, c1 * c1 - 4 * c2 * c0


@dataclass(frozen=True)
class RealRoot:
    """One real algebraic number: either exact == True and lo == hi is the
    value, or the unique root of the squarefree integer polynomial
    ``minimal`` in (lo, hi) with nonzero values at both endpoints."""

    minimal: Poly
    lo: Fraction
    hi: Fraction
    exact: bool

    @staticmethod
    def from_rational(x) -> "RealRoot":
        x = Fraction(x)
        return RealRoot((-x.numerator, x.denominator), x, x, True)

    def quadratic_surd(self) -> tuple[int, int, int, int] | None:
        """For a degree-2 minimal polynomial, the root written as
        (-B + e*sqrt(D)) / (2A) with A > 0: returns (A, B, D, e)."""
        if self.exact or len(self.minimal) != 3:
            return None
        c0, c1, c2, disc = _normal_quadratic(self.minimal)
        # squarefree quadratic over Q with a real root has disc > 0; which of
        # the two roots sits in (lo, hi) is read off the endpoint sign: with
        # positive leading coefficient, the parabola is positive left of the
        # smaller root and negative between the roots
        e = -1 if sign_at((c0, c1, c2), self.lo) > 0 else 1
        return c2, c1, disc, e

    def refined(self) -> "RealRoot":
        if self.exact:
            return self
        mid = (self.lo + self.hi) / 2
        s = sign_at(self.minimal, mid)
        if s == 0:
            return RealRoot(self.minimal, mid, mid, True)
        if s == sign_at(self.minimal, self.lo):
            return RealRoot(self.minimal, mid, self.hi, False)
        return RealRoot(self.minimal, self.lo, mid, False)


def _isolate_quadratic(p: Poly, lo: Fraction, hi: Fraction) -> list[RealRoot]:
    """Direct isolation for squarefree integer quadratics: membership of each
    closed-form root in (lo, hi) is decided by exact surd-sign tests, and the
    vertex splits the two roots, so no bisection is ever needed."""
    _, c1, c2, disc = _normal_quadratic(p)
    if disc <= 0:
        return []  # squarefree quadratics have disc != 0; disc < 0: no real roots
    vertex = Fraction(-c1, 2 * c2)
    out = []
    for e in (-1, 1):
        # root = (-c1 + e sqrt(disc)) / (2 c2); for q = u / v with v > 0,
        # root - q has the sign of (-c1 v - 2 c2 u) + e v sqrt(disc)
        above_lo = _sign_lin_sqrt(-c1 * lo.denominator - 2 * c2 * lo.numerator,
                                  e * lo.denominator, disc)
        below_hi = _sign_lin_sqrt(-c1 * hi.denominator - 2 * c2 * hi.numerator,
                                  e * hi.denominator, disc)
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
    p = primitive(p)
    if sign_at(p, lo) == 0 or sign_at(p, hi) == 0:
        raise ValueError("interval endpoints must not be roots")
    if len(p) == 1:
        return []
    if len(p) == 2:
        root = Fraction(-p[0], p[1])
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
        if sign_at(p, mid) == 0:
            out.append(RealRoot(p, mid, mid, True))
            # shrink a window around mid until mid is the only root in it and
            # neither end is a root; the halves outside it keep every other root
            eps = (b - a) / 4
            while (sign_at(p, mid - eps) == 0 or sign_at(p, mid + eps) == 0
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
        s = sign_at(r1.minimal, q)
        if s == 0:
            return 0
        # root of r1 lies on the side of q where the sign still changes
        if s == sign_at(r1.minimal, r1.lo):
            return 1  # root in (q, hi), so root > q
        return -1
    q1, q2 = r1.quadratic_surd(), r2.quadratic_surd()
    if q1 is not None and q2 is not None:
        # (-B1 + e1 sqrt(D1)) / (2A1)  vs  (-B2 + e2 sqrt(D2)) / (2A2)
        a1, b1, d1, e1 = q1
        a2, b2, d2, e2 = q2
        return _sign_two_sqrt(2 * (a1 * b2 - a2 * b1), 2 * a2 * e1, d1, -2 * a1 * e2, d2)
    # refined() keeps the minimal polynomials, so their common part is fixed
    g = r1.minimal if r1.minimal == r2.minimal else poly_gcd(r1.minimal, r2.minimal)
    common = squarefree_part(g) if len(g) > 1 else None
    chain = sturm_chain(common) if common is not None else None
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
            if (sign_at(common, lo) != 0 and sign_at(common, hi) != 0
                    and count_roots(common, lo, hi, chain) > 0):
                return 0
        a, b = a.refined(), b.refined()
    raise RuntimeError("root comparison failed to converge")  # pragma: no cover
