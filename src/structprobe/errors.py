"""Exception types shared across the package.

Each class carries the exit code the CLI returns for it: configuration
problems exit 1, data problems exit 2, training divergence exits 3, and
any other error of the package exits 2.
"""


class StructProbeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ValidationError(StructProbeError):
    """Invalid configuration: bad manifest, bad flag combination, bad schema."""

    exit_code = 1


class DataError(StructProbeError):
    """Malformed or inconsistent input data (files, records, pairings)."""

    exit_code = 2


class TrainingDiverged(StructProbeError):
    """Training produced a non-finite loss or gradient."""

    exit_code = 3
