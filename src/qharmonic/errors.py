"""Exception types shared across the package, and the size check index_sized."""
import sys


class QHarmonicError(Exception):
    """Base class for all domain errors raised by this package."""


class NonInvertible(QHarmonicError):
    """A negative power of h was requested at a non-invertible value."""


class NotInH1(QHarmonicError):
    """A word does not end in b, so it has no e-basis expansion."""


class BadLetter(QHarmonicError):
    """A word has a letter, or an index an entry, that the operation has no rule for."""


class NotInH0(QHarmonicError):
    """An index starts with an unbarred 1: it lies outside I0-hat, and its
    e-basis element outside the subalgebra Hhat0."""


class EmptyIndex(QHarmonicError):
    """The operation needs a nonempty index."""


class HasBarEntry(QHarmonicError):
    """An index has a 1bar entry where the operation takes indices without one."""


class BadEntry(QHarmonicError):
    """An index entry is outside the range the operation accepts."""


class OrderMismatch(QHarmonicError):
    """Two truncated series of different orders were combined."""


class BadConstantTerm(QHarmonicError):
    """exp needs constant term 0; log needs constant term 1."""


class NotInMzvH1(QHarmonicError):
    """A word over {x, y} does not end in y."""


class OutOfRange(QHarmonicError):
    """A numeric parameter lies outside its documented range."""


class BadDenominator(QHarmonicError):
    """A rational coefficient has a denominator divisible by the prime."""


class PreconditionViolated(QHarmonicError):
    """The theorem being checked does not apply to these parameters."""


class UsageError(QHarmonicError):
    """A command line flag the command would ignore, or one that selects nothing."""


def index_sized(n: int, name: str) -> None:
    """OutOfRange for a size n past sys.maxsize, where Python raises OverflowError."""
    if n > sys.maxsize:
        raise OutOfRange(f"{name} must be at most {sys.maxsize}, got {n}")
