"""Exception hierarchy shared across the package."""


class FofcastError(Exception):
    """Base class for all package-specific errors (with the input line when known)."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ParseError(FofcastError):
    """Malformed input text."""


class SchemaError(FofcastError):
    """Input file does not match the expected column schema."""


class ValidationError(FofcastError):
    """Parsed data violates a structural invariant."""


class LengthError(FofcastError):
    """A storm is too short for the requested window."""


class ShapeError(FofcastError):
    """Inconsistent array or window dimensions."""


class DomainError(FofcastError):
    """Evaluation point lies outside a basis domain."""


class NumericalError(FofcastError):
    """A computation gave no usable result (exit 3)."""


class SingularityError(NumericalError):
    """A least-squares system is rank deficient; suggests a remedy."""


class StormLookupError(FofcastError):
    """Requested storm id is not present in the dataset."""
