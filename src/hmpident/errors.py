"""Exception types raised by the identification pipeline.

Everything derives from ValueError so callers that do not care about the
fine-grained category can catch a single base class.  check_order is the one
check on integer arguments (string lengths, block orders, state counts).
"""


class ValidationError(ValueError):
    """A distribution table or parameter set violates a structural invariant."""


class MissingKeyError(ValidationError):
    """The key set of a distribution table is not exactly {0,1}^n."""


class NegativeEntryError(ValidationError):
    """A table entry is below the negative tolerance floor."""


class EntryOutOfRangeError(ValidationError):
    """A table entry exceeds 1 beyond tolerance."""


class SumNotOneError(ValidationError):
    """The table entries do not sum to 1 within tolerance."""


class NonFiniteError(ValidationError):
    """A number that must be finite is NaN or infinite, or is not a number at all."""


class InvalidParamsError(ValidationError):
    """Transition/emission/initial data is ragged, not real, or not row-stochastic."""


class LengthError(ValueError):
    """A string length, block order or state count is not an integer in range."""


def check_order(name: str, value, low: int, high: int | None = None):
    """Raise LengthError unless value is an integer, not a bool, in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < low or (high is not None and value > high):
        bounds = f"in [{low}, {high}]" if high is not None else f">= {low}"
        raise LengthError(f"{name} must be an integer {bounds}, got {value!r}")


class AlphabetError(ValueError):
    """A string contains characters outside {0, 1}."""


class CapExceededError(ValueError):
    """A full-table expansion was requested beyond the configured cap."""


class DuplicateEigenvalueError(ValueError):
    """Requested diagonal values are too close to be pairwise distinct."""


class InvalidPermutationError(ValueError):
    """A state relabeling is not a permutation of range(d)."""


class DimensionMismatchError(ValueError):
    """Two parameter sets with different state counts were compared."""


class StateCountTooLargeError(ValueError):
    """An exhaustive permutation search was requested for too many states."""


class RankDeficientError(ValueError):
    """A block has no rank-e part above the relative rank cut to project onto."""


class DegenerateNormalizationError(ValueError):
    """The right fixed vector is numerically zero; no unit-sum rescaling exists."""


class TooManyMinorsError(ValueError):
    """A minor scan would exceed the enumeration budget."""


class WrongVerdictError(ValueError):
    """An operation that needs a positive verdict was given a different one."""
