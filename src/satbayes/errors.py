"""Exception hierarchy shared across the package.

Three branches map onto the CLI exit-code contract: configuration
problems (exit 1), data problems (exit 2), numerical problems (exit 3).
Library code raises the most specific subclass it can.
"""

from __future__ import annotations


class SatBayesError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(SatBayesError):
    """Invalid configuration, argument, or hyperparameter."""

    exit_code = 1


class InvalidClassCountError(ConfigError):
    """Class count outside the supported range (need at least two)."""


class InvalidHyperparameterError(ConfigError):
    """Hyperparameter outside its documented domain."""


class InvalidThresholdError(ConfigError):
    """Threshold vector violates its ordering or endpoint contract."""


class DataError(SatBayesError):
    """Input data missing, malformed, or inconsistent."""

    exit_code = 2


class ShapeError(DataError):
    """Array dimensions disagree with the documented contract."""


class BoundsError(DataError):
    """Region or index falls outside the raster bounds."""


class LoadError(DataError):
    """A referenced file is missing, truncated, or malformed."""


class SplitError(DataError):
    """Train/test date split is not a disjoint subset of stack dates."""


class InsufficientDataError(DataError):
    """Too few samples to fit the requested model."""


class EvaluationError(DataError):
    """Evaluation impossible, e.g. no ground truth or empty input."""


class ModelOutputError(DataError, ValueError):
    """A model output holds a non-finite or negative value, or a pixel's
    class weights sum past float64; also a ValueError."""


class NumericalError(SatBayesError):
    """Numerical contract violated at run time."""

    exit_code = 3


class DegenerateLikelihoodError(NumericalError):
    """Likelihood vector is all zero; carries no class information."""
