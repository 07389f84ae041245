"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for ordinary argument errors; the classes here
mark conditions callers may want to dispatch on (the CLI maps them to exit
codes).
"""


class FormatError(ValueError):
    """File does not look like a supported NIfTI-1 single file."""


class UnsupportedDataTypeError(FormatError):
    """NIfTI datatype code outside the supported {uint8, int16, float32} set."""


class CorruptFileError(FormatError):
    """Header parsed but the data section is truncated or inconsistent."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but the operation is undefined on it
    (constant volume, empty mesh, zero-variance ranks, ...)."""


class GeometryMismatchError(ValueError):
    """Operands do not share dims/spacing/affine."""


class FitError(ValueError):
    """Model fit cannot proceed (rank-deficient design, too few subjects)."""


class JoinError(ValueError):
    """Tables cannot be joined; ``missing_keys`` lists the offending keys."""

    def __init__(self, message, missing_keys=()):
        super().__init__(message)
        self.missing_keys = list(missing_keys)
