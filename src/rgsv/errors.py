"""Exception hierarchy. Every error carries a machine-readable category
that the CLI maps to an exit code."""


class GsvError(Exception):
    """Base class for all rgsv errors."""

    category = "error"


class DimensionError(GsvError):
    """Incompatible or invalid matrix dimensions."""

    category = "dimension"


class ValidationError(GsvError):
    """Invalid configuration value or malformed numeric data."""

    category = "validation"


class ParseError(GsvError):
    """Unreadable input file."""

    category = "parse"


class RankDeficiencyError(GsvError):
    """A matrix (or stacked pair) required to have full column rank does not."""

    category = "rank"


class ConvergenceError(GsvError):
    """An iterative dense kernel (SVD) failed to converge."""

    category = "numerical"


class DegenerateSpectrumError(GsvError):
    """A spectrum with a vanishing alpha- or beta-energy was supplied."""

    category = "degenerate"


class InfeasibleRankError(GsvError):
    """Requested synthetic rank configuration cannot produce a valid pair."""

    category = "infeasible"
