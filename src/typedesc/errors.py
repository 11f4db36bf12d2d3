"""Exception types shared across the package."""


class TypedescError(ValueError):
    """Malformed input or an unusable state; `cli.main` reports it as one error line."""


class TrainingDiverged(TypedescError):
    """Training produced a non-finite loss or gradient."""
