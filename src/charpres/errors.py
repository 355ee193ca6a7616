"""Exception types shared across the library.

Every domain failure is a `CharpresError`; any other exception is a bug.
Every error message states the mathematical reason for the failure so CLI
traces can carry it verbatim.
"""


class CharpresError(Exception):
    """Base class for all library-specific failures."""


class InputError(CharpresError, ValueError):
    """Raised on an argument outside the domain of an operation."""


class InvariantError(AssertionError):
    """Raised when an internal consistency check fails: a bug, not bad input.

    Unlike a bare `assert`, the check runs under `python -O` as well.
    """


class PolyParseError(CharpresError):
    """Raised when polynomial text does not conform to the input syntax."""


class SceneParseError(CharpresError):
    """Raised on malformed scene files; carries a 1-based line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class CommandError(CharpresError):
    """Raised when a scene script command cannot be executed."""


class PermissibilityError(CharpresError):
    """Raised when a blowup center fails a permissibility requirement."""


class NotMonicError(CharpresError):
    """Raised when a section polynomial is not monic in its section variable."""


class DegenerateSlopeError(CharpresError):
    """Raised when normalization cannot terminate (slope unbounded)."""


class DominationError(CharpresError):
    """Raised when a p-presentation's elimination part does not dominate a
    cleaned middle coefficient, so its reduced H-order formula does not apply."""


class NotNormalFormError(CharpresError):
    """Raised when an operation requires a presentation in normal form."""


class NonMonomialElimError(CharpresError):
    """Raised when the strong-monomial test needs a monomial elimination part."""


class BudgetError(CharpresError):
    """Raised before the step of a computation that would take it past a
    fixed budget."""


class TrackingError(CharpresError):
    """Raised when monomial-exponent tracking hits an inconsistent tower."""
