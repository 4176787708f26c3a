"""Recursive Bayesian classification of multiband satellite image time series.

The package converts instantaneous per-pixel classifiers (spectral-index
Gaussian banks, Gaussian mixtures, multinomial logistic regression, or
externally supplied posterior rasters) into online classifiers by
propagating per-pixel class beliefs through a symmetric hidden-Markov
transition model, one acquisition date at a time.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .classifiers import (
    ExternalPosteriorSource,
    IndexClassifier,
    LogisticClassifier,
    MixtureClassifier,
    SpectralIndexKind,
    fit_logistic_classifier,
    fit_mixture_classifier,
    load_model,
    pseudo_labels,
    save_model,
    spectral_index,
)
from .config import ExperimentConfig, parse_config, serialize_config
from .core import (
    Frame,
    ImageStack,
    LabelRaster,
    MultibandImage,
    TransitionModel,
    build_transition_model,
    uniform_pmf,
)
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    SatBayesError,
)
from .evaluation import (
    balanced_accuracy,
    epsilon_sweep,
    error_map,
    timing_bench,
)
from .experiment import run_experiment
from .pipeline import (
    ReferenceRegion,
    StackManifest,
    bias_correct,
    crop,
    filter_frames,
    load_stack,
    parse_manifest,
    split_dates,
)
from .recursion import classify_stack, regularize
from .synth import SynthSpec, generate_synthetic, parse_synth_spec

__all__ = [
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "ExternalPosteriorSource",
    "Frame",
    "ImageStack",
    "IndexClassifier",
    "LabelRaster",
    "LogisticClassifier",
    "MixtureClassifier",
    "MultibandImage",
    "NumericalError",
    "ReferenceRegion",
    "SatBayesError",
    "SpectralIndexKind",
    "StackManifest",
    "SynthSpec",
    "TransitionModel",
    "balanced_accuracy",
    "bias_correct",
    "build_transition_model",
    "classify_stack",
    "crop",
    "epsilon_sweep",
    "error_map",
    "filter_frames",
    "fit_logistic_classifier",
    "fit_mixture_classifier",
    "generate_synthetic",
    "load_model",
    "load_stack",
    "parse_config",
    "parse_manifest",
    "parse_synth_spec",
    "pseudo_labels",
    "regularize",
    "run_experiment",
    "save_model",
    "serialize_config",
    "spectral_index",
    "split_dates",
    "timing_bench",
    "uniform_pmf",
]
