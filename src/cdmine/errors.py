"""Exception types raised across the package."""


class CdmineError(Exception):
    """Base class for all package-specific errors."""


class AllMissing(CdmineError):
    """Fewer than two non-missing values in a column."""


class NonFinite(CdmineError):
    """A non-missing value is NaN or infinite."""


class DegenerateVariable(CdmineError):
    """Constant column: the mid-rank spread is zero."""


class RankDeficient(CdmineError):
    """Too few distinct values to build the requested number of score functions."""


class OutOfDomain(CdmineError):
    """Evaluation point outside the open unit interval."""


class EmptyClass(CdmineError):
    """One of the two classes has fewer than two members."""


class TooFewItems(CdmineError):
    """No variables to analyze, or too few scores to estimate a null
    distribution."""


class ZeroSpread(CdmineError):
    """Null scale estimate came out zero."""


class ParseError(CdmineError):
    """CSV cell could not be parsed; carries row/column location, which
    also leads the message, and ``reason``, the message without it."""

    def __init__(self, message, row=None, column=None):
        where = [f"row {row}"] if row is not None else []
        if column is not None:
            where.append(f"column {column!r}")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
        self.reason = message
        self.row = row
        self.column = column


class LabelError(CdmineError):
    """Label column is absent or not binary."""


class ConfigError(CdmineError):
    """Invalid configuration (flags, config file, or programmatic config).

    ``fields`` names the settings a range rule read, so that a caller can
    point at where they were set.
    """

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)
