"""Experiment configuration: plain-text parsing and lossless round-trip.

A config file is ``key = value`` text (see `textio`). Example::

    name = charles_2class
    manifest = stacks/charles/manifest.txt
    classes = land, water
    classifier = gmm            # index | gmm | logistic | external
    index = mndwi               # index kind used for thresholds/pseudo-labels
    thresholds = -1, 0.13, 1
    epsilon = 0.05
    lambda = 0.8
    seed = 7
    gmm_components = 3
    train_dates = 2021-01-05, 2021-01-10
    test_dates = 2021-02-04, 2021-02-09
    crop = 10 20 64 64          # x y w h, applied before everything else
    bias_region = 0 0 16 16     # coordinates in the cropped grid
    cloud_threshold = 0.1
    exclude_dates = 2021-03-01
    out = runs/charles

Paths are kept as written and resolved against the config file's
directory at run time, so serializing a parsed config reproduces the
original values exactly. The retired key ``mode`` is accepted with any
value and ignored, with one warning; it is never serialized.
"""

from __future__ import annotations

import datetime as dt
import enum
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

from .classifiers import SpectralIndexKind
from .errors import ConfigError
from .pipeline import ReferenceRegion
from .textio import (
    Key,
    format_float,
    parse_date,
    parse_float,
    parse_int,
    parse_keys,
    parse_list,
    parse_text,
    read_text,
)

CLASSIFIER_KINDS = ("index", "gmm", "logistic", "external")

# Classifiers that are trained on pseudo-labeled pixels.
TRAINED_CLASSIFIERS = ("gmm", "logistic")

DEFAULT_LAMBDA = 0.8
DEFAULT_GMM_COMPONENTS = 3


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: str
    classes: tuple[str, ...]
    classifier: str
    epsilon: float
    seed: int
    test_dates: tuple[dt.date, ...]
    name: str = "experiment"
    index: SpectralIndexKind | None = None
    thresholds: tuple[float, ...] | None = None
    lam: float = DEFAULT_LAMBDA
    train_dates: tuple[dt.date, ...] = ()
    feature_bands: tuple[str, ...] | None = None
    gmm_components: int = DEFAULT_GMM_COMPONENTS
    crop: ReferenceRegion | None = None
    bias_region: ReferenceRegion | None = None
    cloud_threshold: float | None = None
    exclude_dates: tuple[dt.date, ...] = ()
    out: str | None = None
    base_dir: Path = field(default=Path("."), compare=False)

    def __post_init__(self) -> None:
        if not self.manifest:
            raise ConfigError("config needs a manifest path")
        if len(self.classes) < 2 or len(set(self.classes)) != len(self.classes):
            raise ConfigError(f"bad class list: {self.classes}")
        if len(self.classes) > 255:  # labels and cube headers hold K in one byte
            raise ConfigError(f"at most 255 classes are supported, got {len(self.classes)}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise ConfigError(
                f"classifier must be one of {CLASSIFIER_KINDS}, got {self.classifier!r}"
            )
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (0.0 <= self.lam < float("inf")):  # NaN fails too
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if len(self.classes) * (1.0 + self.lam) == float("inf"):  # a smoothed sum overflows
            raise ConfigError(
                f"lambda {self.lam} overflows the smoothed sum of {len(self.classes)} classes"
            )
        if not self.test_dates:
            raise ConfigError("config needs at least one test date")
        if len(set(self.test_dates)) != len(self.test_dates):
            raise ConfigError("duplicate test dates")
        if len(set(self.train_dates)) != len(self.train_dates):
            raise ConfigError("duplicate train dates")
        if set(self.train_dates) & set(self.test_dates):
            raise ConfigError("train and test dates overlap")
        needs_thresholds = self.classifier in ("index",) + TRAINED_CLASSIFIERS
        if needs_thresholds:
            if self.index is None or self.thresholds is None:
                raise ConfigError(
                    f"classifier {self.classifier!r} needs 'index' and 'thresholds'"
                )
            if len(self.thresholds) != len(self.classes) + 1:
                raise ConfigError(
                    f"{len(self.classes)} classes need "
                    f"{len(self.classes) + 1} thresholds, got {len(self.thresholds)}"
                )
        if self.classifier in TRAINED_CLASSIFIERS and not self.train_dates:
            raise ConfigError(f"classifier {self.classifier!r} needs train_dates")
        if self.gmm_components < 1:
            raise ConfigError(
                f"gmm_components must be >= 1, got {self.gmm_components}"
            )
        if self.cloud_threshold is not None and not (
            0.0 <= self.cloud_threshold <= 1.0
        ):
            raise ConfigError(
                f"cloud_threshold must lie in [0, 1], got {self.cloud_threshold}"
            )

    def resolved_manifest(self) -> Path:
        path = Path(self.manifest)
        return path if path.is_absolute() else self.base_dir / path


def _member(kind: type[enum.Enum]) -> Callable[[str, str, str], enum.Enum]:
    def parse(value: str, key: str, where: str) -> enum.Enum:
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"{where}: unknown {key} {value!r}") from None

    return parse


def _parse_floats(value: str, key: str, where: str) -> tuple[float, ...]:
    return tuple(parse_float(v, key, where) for v in parse_list(value, key, where))


def _parse_dates(value: str, key: str, where: str) -> tuple[dt.date, ...]:
    return tuple(parse_date(v, key, where) for v in parse_list(value, key, where))


def _parse_region(value: str, key: str, where: str) -> ReferenceRegion:
    parts = value.split()
    if len(parts) != 4:
        raise ConfigError(f"{where}: region needs 'x y w h', got {value!r}")
    x, y, w, h = (parse_int(p, key, where) for p in parts)
    return ReferenceRegion(x=x, y=y, width=w, height=h)


def _format_region(region: ReferenceRegion) -> str:
    return f"{region.x} {region.y} {region.width} {region.height}"


def _format_floats(values: tuple[float, ...]) -> str:
    return ", ".join(format_float(v) for v in values)


def _format_dates(dates: tuple[dt.date, ...]) -> str:
    return ", ".join(d.isoformat() for d in dates)


_VALUE = attrgetter("value")

# Every config key, in the order `serialize_config` writes them.
CONFIG_KEYS = {
    "name": Key("name", parse_text),
    "manifest": Key("manifest", parse_text, required=True),
    "classes": Key("classes", parse_list, ", ".join, required=True),
    "classifier": Key("classifier", parse_text, required=True),
    "epsilon": Key("epsilon", parse_float, format_float, required=True),
    "lambda": Key("lam", parse_float, format_float),
    "seed": Key("seed", parse_int, required=True),
    "index": Key("index", _member(SpectralIndexKind), _VALUE),
    "thresholds": Key("thresholds", _parse_floats, _format_floats),
    "train_dates": Key("train_dates", _parse_dates, _format_dates),
    "test_dates": Key("test_dates", _parse_dates, _format_dates, required=True),
    "feature_bands": Key("feature_bands", parse_list, ", ".join),
    "gmm_components": Key("gmm_components", parse_int),
    "crop": Key("crop", _parse_region, _format_region),
    "bias_region": Key("bias_region", _parse_region, _format_region),
    "cloud_threshold": Key("cloud_threshold", parse_float, format_float),
    "exclude_dates": Key("exclude_dates", _parse_dates, _format_dates),
    "out": Key("out", parse_text),
}

# Keys that no longer have an effect: accepted with a warning, never written.
RETIRED_KEYS = ("mode",)


def parse_config_text(text: str, source: str = "<str>") -> ExperimentConfig:
    missing = "missing required keys: {}"
    values = parse_keys(text, CONFIG_KEYS, "config", missing, source, RETIRED_KEYS)
    return ExperimentConfig(**values)


def parse_config(path: str | Path) -> ExperimentConfig:
    src = Path(path)
    config = parse_config_text(read_text(src), source=str(src))
    object.__setattr__(config, "base_dir", src.parent)
    return config


def serialize_config(config: ExperimentConfig) -> str:
    """Config back to text; parsing the result reproduces the config.

    Fields that hold None, or the empty tuple they default to, are left out.
    """
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    lines = []
    for name, key in CONFIG_KEYS.items():
        value = getattr(config, key.field)
        if value is None or (value == () and defaults[key.field] == ()):
            continue
        lines.append(f"{name} = {key.format(value)}")
    return "\n".join(lines) + "\n"
