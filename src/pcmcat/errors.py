"""Exception types shared across the package."""


class PcmcatError(Exception):
    """Base class for all library errors."""


class DuplicateLabelError(PcmcatError):
    """A family was given two entries with the same label."""


class UnknownLabelError(PcmcatError):
    """A label was requested that the family does not contain."""


class NotBijectiveError(PcmcatError):
    """A relabeling map is not a bijection on the family's label set."""


class TooLargeError(PcmcatError):
    """Exhaustive enumeration was requested above the supported bound."""


class CarrierMismatchError(PcmcatError):
    """An element does not belong to the summation's carrier."""


class NotAMonoidError(PcmcatError):
    """A binary operation failed a monoid law on checked data."""


class NotCommutativeError(NotAMonoidError):
    """A binary operation failed commutativity on checked data."""


class ShapeMismatchError(PcmcatError):
    """Matrix composition with incompatible shapes."""


class NotSummableError(PcmcatError):
    """A summation that the construction guarantees was rejected by the oracle."""


class NotFailingError(PcmcatError):
    """Counterexample minimization was applied to a passing report."""


class UnboundedStreamError(PcmcatError):
    """A coefficient stream has infinite support and no declared bound."""


class NotPrimeError(PcmcatError):
    """The given modulus is not prime."""


class BadResidueError(PcmcatError):
    """A residue is outside the permitted range."""


class ParseError(PcmcatError):
    """Malformed input text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(PcmcatError):
    """Structurally well-formed input that violates a required law."""


class UnknownIndexArrowError(ParseError):
    """A coefficient line references an arrow the index category lacks."""


class ScalarParseError(ParseError):
    """A scalar literal does not match the base category's carrier."""
