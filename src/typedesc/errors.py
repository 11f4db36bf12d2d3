"""Exception types shared across the package."""


class TypedescError(ValueError):
    """Base class for all domain errors raised by typedesc."""


class CorpusError(TypedescError):
    """Malformed corpus input or an operation on an unusable corpus."""


class AnnotationError(TypedescError):
    """Annotation or template application failed."""


class ShapeMismatch(TypedescError):
    """Tensor operands have incompatible shapes."""


class CheckpointError(TypedescError):
    """Checkpoint file is unreadable or has the wrong version."""


class TrainingDiverged(TypedescError):
    """Training produced a non-finite loss or gradient."""
