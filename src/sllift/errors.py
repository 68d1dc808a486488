"""Exception types shared across the package, and its one reader of
integer arguments."""

import operator


class SlliftError(Exception):
    """Base class for all errors raised by this package."""


class FactorLimitExceeded(SlliftError):
    """A cofactor survived the configured factoring effort budget."""


class NotCoprime(SlliftError):
    """CRT moduli share a common factor."""


class NotUnit(SlliftError):
    """Operand is not invertible modulo the given modulus."""


class PrimeTooLarge(SlliftError):
    """A prime factor exceeds the exhaustive-scan bound."""


class TooManyRoots(SlliftError):
    """The root set would exceed the configured cap."""


class NotSquare(SlliftError):
    """Matrix operation requires a square matrix."""


class NotInvertible(SlliftError):
    """Matrix determinant is not 1 modulo q."""


class BadShape(SlliftError):
    """Matrix has the wrong dimensions for this operation."""


class DependentRows(SlliftError):
    """Rows are linearly dependent over the rationals."""


class NotExtendableModQ(SlliftError):
    """Rows cannot be extended to SL_n(Z/qZ)."""


class NotExtendable(SlliftError):
    """Integer rows cannot be completed to an SL_n(Z) matrix."""


class SearchExhausted(SlliftError):
    """Search budget ran out before a witness was found."""


class InvalidInput(SlliftError, ValueError):
    """Input violates a documented precondition.  A ValueError as well, so
    callers that catch a bad value the builtin way still catch it."""


class BudgetExceeded(SlliftError):
    """Candidate space exceeds the configured enumeration budget."""


class SieveExhausted(SlliftError):
    """Prime budget ran out before enough pairs were found."""


class NoUnitAlpha(SlliftError):
    """No admissible unit exists within the search budget."""


def as_ints(values) -> tuple[int, ...]:
    """values as a tuple of ints, by operator.index, so ints and bools pass
    and a float or a string is refused, not truncated: InvalidInput names it."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next((v for v in values if not hasattr(type(v), "__index__")), values)
        raise InvalidInput(f"need integers, got {bad!r}") from None


def as_int(value, low: int | None = None, name: str = "value") -> int:
    """value as an int (as_ints), refused below low with "need name >= low";
    an exact int skips the conversion."""
    if type(value) is not int:
        (value,) = as_ints((value,))
    if low is not None and value < low:
        raise InvalidInput(f"need {name} >= {low}, got {value}")
    return value
