"""Exception types shared across the package."""


class ParetoStarError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(ParetoStarError):
    """Operands live in different ambient dimensions."""


class MissingSocietyError(ParetoStarError):
    """The operation needs a society agent and the profile has none."""


class PreconditionError(ParetoStarError):
    """A structural hypothesis of the requested check is not satisfied."""


class CapExceededError(ParetoStarError):
    """A configured size cap (combo count, facet-enumeration dimension) was hit."""


class DocumentError(ParetoStarError):
    """An on-disk document failed to parse or validate."""


class InternalError(ParetoStarError, RuntimeError):
    """A certificate or invariant the engine derived failed its own re-check."""
