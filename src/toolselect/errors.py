"""Exception types shared across the package."""


class ToolSelectError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(ToolSelectError):
    """Operands have incompatible shapes."""


class NoValidCandidateError(ToolSelectError):
    """Every candidate in the panel is masked out."""


class NonFiniteScoreError(ToolSelectError):
    """The selector scored a valid candidate NaN or infinite."""


class EmptyReferenceSetError(ToolSelectError):
    """Attention requested over an empty reference set."""


class InvalidPredictionError(ToolSelectError):
    """A raw categorical prediction is not on the probability simplex."""


class NoValidPanelError(ToolSelectError):
    """Panel resampling exhausted its attempt budget without a valid tool."""


class CheckpointError(ToolSelectError):
    """Checkpoint file is corrupt, truncated, or has an unsupported version."""


class ConfigError(ToolSelectError):
    """Run configuration file is malformed or carries unknown keys."""
