"""Exception types shared across the package."""


class BraidCertError(Exception):
    """Base class for all package-specific errors."""


class InvalidContext(BraidCertError, ValueError):
    """A (n, k) context or strand index is out of range."""


class InvalidPair(BraidCertError, ValueError):
    """A strand pair (i, j) is degenerate or out of range."""


class NotAGroupElement(BraidCertError, ValueError):
    """A word cannot represent an element of the requested group."""


class NotEvenWord(BraidCertError, ValueError):
    """The word is outside the even subgroup, so the parity image is undefined."""


class DegenerateInput(BraidCertError, ValueError):
    """A geometric predicate received repeated or otherwise degenerate data."""


class NoCircle(BraidCertError, ValueError):
    """Three collinear points determine no circle."""


class VerticalTangent(BraidCertError, ZeroDivisionError):
    """The tangent-slope formula has a vanishing denominator."""


class UnorderedConfiguration(BraidCertError, ValueError):
    """The abscissa sequence grows too slowly to pin down the crossing order."""


class NonGenericTrajectory(BraidCertError, RuntimeError):
    """An event tracer hit a degenerate moment (simultaneous, tangential or
    boundary events, or coinciding particles).

    Carries enough detail to name the offending tuple and time slab.
    """

    def __init__(self, reason: str, participants=None, slab=None):
        self.reason = reason
        self.participants = tuple(participants) if participants is not None else None
        self.slab = slab
        detail = reason
        if participants is not None:
            detail += f" (points {self.participants})"
        if slab is not None:
            detail += f" in time slab [{slab[0]}, {slab[1]}]"
        super().__init__(detail)


class ParseError(BraidCertError, ValueError):
    """A word or number written in one of the text grammars failed to parse."""


class InvalidBudget(BraidCertError, ValueError):
    """A search budget is negative."""
