"""Exception hierarchy shared by all matconj modules."""


class MatconjError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatch(MatconjError):
    """Two values from different fields were combined."""


class DivisionByZero(MatconjError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatch(MatconjError):
    """Matrix/vector shapes do not line up for the requested operation."""


class IndexOutOfRange(MatconjError, IndexError):
    """A 1-based index fell outside the valid range."""


class SingularMatrix(MatconjError):
    """Inverse (or a scalar quotient) of a rank-deficient matrix was requested."""


class UnsupportedQuery(MatconjError):
    """The oracle backing cannot answer the requested evaluation."""


class EmptyKernel(MatconjError):
    """The projector difference is injective, or the corner image is not of
    rank 1: the input pair cannot come from an algebra automorphism."""


class SingularConjugator(MatconjError):
    """The assembled candidate conjugator is not invertible: the input pair
    cannot come from an algebra automorphism."""


class GenerationExhausted(MatconjError):
    """Rejection sampling hit its retry cap without finding an invertible matrix."""


class ParseError(MatconjError):
    """A textual scalar, matrix, or problem file failed to parse."""


class OutputError(MatconjError):
    """A report could not be written to the requested output file."""


class ValueTooLarge(MatconjError):
    """A scalar has too many digits to be written out as text."""
