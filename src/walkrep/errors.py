"""Exception types shared across the package."""


class WalkrepError(Exception):
    """Base class for all package errors."""


class EncodingError(WalkrepError):
    """An element value is not a valid canonical encoding for its group."""


class CapacityError(WalkrepError):
    """A ball or convolution support would exceed the configured cap."""


class EmbeddingError(WalkrepError):
    """Generator images do not define (or cannot verify) a homomorphism."""


class DomainError(WalkrepError):
    """An evaluation domain is empty or an argument is out of range."""


class DegenerateRestrictionError(WalkrepError):
    """Restricting a weight to a subgroup produced zero total mass."""


class TowerConstructionError(WalkrepError):
    """No marker event satisfies the requested tower parameters."""


class StageError(WalkrepError):
    """A stage of the inductive model construction is infeasible."""


class ConfigError(WalkrepError):
    """An experiment configuration is malformed."""


class ConvergenceError(WalkrepError):
    """An iterative solver reached its iteration cap without converging."""
