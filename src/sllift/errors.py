"""Exception types shared across the package (every input fault an
InvalidInput, every other one a limit), and its one reader of integer arguments."""

import operator


class SlliftError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(SlliftError, ValueError):
    """Input violates a documented precondition.  A ValueError as well, so
    callers that catch a bad value the builtin way still catch it."""


class NotCoprime(InvalidInput):
    """CRT moduli share a common factor."""


class NotUnit(InvalidInput):
    """Operand is not invertible modulo the given modulus."""


class BadShape(InvalidInput):
    """Matrix has the wrong dimensions for this operation."""


class NotSquare(BadShape):
    """Matrix operation requires a square matrix."""


class NotInvertible(InvalidInput):
    """Matrix determinant is not 1 modulo q."""


class DependentRows(InvalidInput):
    """Rows are linearly dependent over the rationals."""


class NotExtendableModQ(InvalidInput):
    """Rows cannot be extended to SL_n(Z/qZ)."""


class NotExtendable(InvalidInput):
    """Integer rows cannot be completed to an SL_n(Z) matrix."""


class FactorLimitExceeded(SlliftError):
    """A cofactor survived the configured factoring effort budget."""


class PrimeTooLarge(SlliftError):
    """A prime factor exceeds the exhaustive-scan bound."""


class TooManyRoots(SlliftError):
    """The root set would exceed the configured cap."""


class SearchExhausted(SlliftError):
    """Search budget ran out before a witness was found."""


class BudgetExceeded(SlliftError):
    """Candidate space exceeds the configured enumeration budget."""


class SieveExhausted(SlliftError):
    """Prime budget ran out before enough pairs were found."""


class NoUnitAlpha(SlliftError):
    """No admissible unit exists within the search budget."""


def as_ints(values, item=operator.index) -> tuple:
    """values as a tuple of ints, by operator.index, so ints and bools pass
    and a float, a string or a non-iterable is refused, not truncated:
    InvalidInput names it.  item reads each value instead: as_ints reads
    integer rows."""
    try:
        values = tuple(values)
        return tuple(map(item, values))
    except TypeError:
        if isinstance(values, tuple):
            values = next((v for v in values if not hasattr(type(v), "__index__")), values)
        raise InvalidInput(f"need integers, got {values!r}") from None


def as_int(value, low: int | None = None, name: str = "value") -> int:
    """value as an int (as_ints), refused below low with "need name >= low";
    an exact int skips the conversion."""
    if type(value) is not int:
        (value,) = as_ints((value,))
    if low is not None and value < low:
        raise InvalidInput(f"need {name} >= {low}, got {value}")
    return value
