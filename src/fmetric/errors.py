"""Shared exception types."""


class FmetricError(Exception):
    """Base class for package errors."""


class DomainError(FmetricError):
    """A function or map was evaluated outside its domain."""


class UnknownFunctionError(FmetricError, KeyError):
    """Registry lookup for an unregistered function name."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


class SpaceAxiomError(FmetricError, ValueError):
    """A precondition on the space (identity/symmetry) does not hold."""


class SpaceFormatError(FmetricError, ValueError):
    """A space file could not be parsed into a distance matrix."""
