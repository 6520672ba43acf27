"""Exception types shared across the package.

Every error raised deliberately by this package derives from SymtestError,
so callers can catch the whole family with one clause.  Configuration and
data-file problems carry their own subclasses because the command line
interface maps them to distinct exit codes.  The input checks shared by the
statistics and the tests live here too, so every module can import them.
"""

import numbers

import numpy as np


class SymtestError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# group algebra


class DimensionMismatch(SymtestError):
    """Operands act on spaces of different dimension."""


class VariantMismatch(SymtestError):
    """Group elements of incompatible kinds were combined."""


class UnsupportedFamily(SymtestError):
    """The operation is not implemented for this group family."""


class UnsupportedKind(SymtestError):
    """Unknown maximal-invariant or kernel kind."""


class ZeroVector(SymtestError):
    """A representative inversion was requested at a point with no free orbit."""


class InvalidRotation(SymtestError):
    """A matrix that should be a rotation is not one."""


# ---------------------------------------------------------------------------
# kernels / statistics


class SampleTooSmall(SymtestError):
    """Fewer observations than the statistic requires."""


class AllPointsIdentical(SymtestError):
    """Median pairwise distance is zero, so no bandwidth can be derived."""


class BadLandmarkCount(SymtestError):
    """Landmark count for the low-rank statistic is out of range."""


class BadMonteCarloBudget(SymtestError):
    """Monte Carlo iteration counts must be positive integers."""


class BadProjectionCount(SymtestError):
    """Number of projection directions must be positive."""


class BadParameters(SymtestError):
    """Parameter values outside their admissible range."""


class DegenerateDensity(SymtestError):
    """A kernel density estimate vanished where it must be positive."""


class RankDeficientDesign(SymtestError):
    """Regression design matrix does not have full column rank."""


class EmptyGrid(SymtestError):
    """A tuning grid with no candidate combinations."""


class TooFewValues(SymtestError):
    """Not enough values for the requested summary."""


# ---------------------------------------------------------------------------
# configuration and data files


class ConfigInvalid(SymtestError):
    """Experiment configuration failed validation."""


class DataFileMissing(SymtestError):
    """Input data file does not exist."""


class SchemaMismatch(SymtestError):
    """Data file columns do not match the declared schema."""


class ParseError(SymtestError):
    """A cell in a data file could not be parsed."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class RangeError(SymtestError):
    """A parsed value lies outside its admissible range."""


class IoError(SymtestError):
    """Reading or writing a report failed."""


# ---------------------------------------------------------------------------
# input checks


def _check_finite(*arrays):
    """Raise BadParameters unless every entry of the arrays is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise BadParameters("the sample holds NaN or infinite values")


def _require_rng(rng):
    """Raise BadParameters unless a random generator was passed."""
    if rng is None:
        raise BadParameters("a numpy random Generator must be passed as rng")


def _check_budget(B, name="B"):
    """Raise BadMonteCarloBudget unless B is a positive integer (not a bool)."""
    if isinstance(B, bool) or not isinstance(B, (int, np.integer)) or B < 1:
        raise BadMonteCarloBudget(
            f"the Monte Carlo budget {name} must be a positive integer"
        )


def _check_alpha(alpha):
    """Raise BadParameters unless the level alpha is a number in (0, 1)."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) \
            or not 0 < alpha < 1:
        raise BadParameters("alpha must lie in (0, 1)")


def _checked_sample(X, B, rng, alpha):
    """X as a float array, once its size, values, B, rng and alpha pass."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise SampleTooSmall("need at least two observations")
    _check_finite(X)
    _check_budget(B)
    _require_rng(rng)
    _check_alpha(alpha)
    return X
