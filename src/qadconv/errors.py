"""Exception hierarchy.

Everything raised on purpose by this package derives from QadconvError so
callers (and the CLI) can map failures to exit codes without fishing for
stdlib exception types.
"""


class QadconvError(Exception):
    """Base class for all package errors."""


class RegisterError(QadconvError):
    """Bad qubit index, overlapping registers, or wiring collisions."""


class DimensionError(QadconvError):
    """Mismatched state sizes or non power-of-two data."""


class ResourceLimitError(QadconvError):
    """Requested simulation exceeds the qubit cap."""


class UnitaryError(QadconvError):
    """A supplied matrix or phase table is not unitary."""


class NormalizationError(QadconvError):
    """Input vector norm is unusable for the requested operation, including
    input with NaN or inf entries."""


class DegenerateBranchError(QadconvError):
    """Postselection on a zero-probability branch."""


class CodecRangeError(QadconvError):
    """Value outside the fixed-point codec's representable window."""


class OracleDomainError(QadconvError):
    """A function oracle cannot be built: an unknown activation name, a
    function that leaves the output codec's range, or a table of the wrong
    size."""


class ZeroSuccessError(QadconvError):
    """A probabilistic protocol has nothing to succeed on (all-zero target)."""


class ConfigError(QadconvError):
    """Invalid experiment configuration."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class VerificationError(QadconvError):
    """An oracle-vs-simulation comparison exceeded its tolerance."""
