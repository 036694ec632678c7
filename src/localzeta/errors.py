"""Exception types shared across the package."""


class LocalZetaError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidPrime(LocalZetaError):
    """The modulus handed to a p-adic context is not prime."""


class NegativeValuation(LocalZetaError):
    """Residue mod p**m requested for a rational with p in its denominator."""


class ParseError(LocalZetaError):
    """Polynomial text does not conform to the input grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroPolynomial(LocalZetaError):
    """The zero polynomial has no factorization."""


class ConstantPolynomial(LocalZetaError):
    """A nonzero constant has no roots to factor."""


class SplittingFieldNotQ(LocalZetaError):
    """A nonconstant factor without rational roots remains."""


class RecursionDepthExceeded(LocalZetaError):
    """The residue-class recursion ran deeper than the depth bound allows."""


class NegativeShift(LocalZetaError):
    """Series coefficients requested for a function with a negative t-shift."""


class NonIntegralCount(LocalZetaError):
    """A solution count came out non-integral or negative (upstream bug)."""


class InvariantViolation(LocalZetaError):
    """An internal consistency check failed (upstream bug); the message names the stage."""


class MalformedDocument(LocalZetaError):
    """A JSON document does not describe a valid object; the message names the reader."""


class CapExceeded(LocalZetaError):
    """Brute-force enumeration would exceed the configured residue cap."""


class IntegralityError(LocalZetaError):
    """Solution counts are defined only for polynomials with integer coefficients."""


class PoleAtPoint(LocalZetaError):
    """Rational function evaluated (or expanded) at a pole."""


class DegenerateTaps(LocalZetaError):
    """The highest register tap is zero, so no rational-function correspondence."""


class DegreeViolation(LocalZetaError):
    """Rational function outside the deg(numerator) < deg(denominator) regime."""
