"""Shared exception types.

Each class carries the process exit code the command line layer maps it to,
so library code can raise precise errors without importing the CLI.
"""


class GswfError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class FormatError(GswfError):
    """Malformed input bytes: WAV container, F0 text file, feature file."""

    exit_code = 2


class ValidationError(GswfError):
    """Well-formed input that violates a contract (lengths, ranges, order)."""

    exit_code = 3


class ConfigError(GswfError):
    """Invalid configuration value or combination."""

    exit_code = 4


class DetectionError(ValidationError):
    """GCI detection could not produce a consistent track."""


class RowError(ValidationError):
    """A contract violation in some rows of a batched computation.

    `rows` holds the indices of the failing rows in order, so a caller that
    knows what each row stands for can name the first one."""

    def __init__(self, reason: str, rows, n_rows: int):
        self.reason = reason
        self.rows = [int(i) for i in rows]
        self.n_rows = n_rows
        super().__init__(f"{reason} (row {self.rows[0]}; "
                         f"{len(self.rows)} of {n_rows} rows fail)")
