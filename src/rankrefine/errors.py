"""Exception hierarchy shared across the package."""


class RankRefineError(Exception):
    """Base class for all errors raised by this package."""


class LoadError(RankRefineError):
    """CSV or schema file could not be loaded."""


class JoinError(RankRefineError):
    """Natural join is not defined for the given relations."""


class KindMismatchError(RankRefineError):
    """A value of one kind was compared against the other kind."""


class QuerySyntaxError(RankRefineError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class UnsupportedQueryError(RankRefineError):
    """Query text parses but falls outside the supported conjunctive
    SPJ-with-ORDER-BY class (unions, nesting, disjunction across attributes)."""


class ConstraintValidationError(RankRefineError):
    """Constraint file failed validation."""


class PreconditionError(RankRefineError):
    """An operation was called outside its stated preconditions."""


class InternalConsistencyError(RankRefineError):
    """A solver result failed post-hoc re-verification; never returned silently."""
