"""Experiment configuration: plain-text parsing and lossless round-trip.

A config file is ``key = value`` text (see `textio`). Example::

    name = charles_2class
    manifest = stacks/charles/manifest.txt
    classes = land, water
    classifier = gmm            # index | gmm | logistic | external
    mode = generative           # optional; gmm defaults generative
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
original values exactly.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path

from .classifiers import SpectralIndexKind
from .errors import ConfigError
from .pipeline import ReferenceRegion
from .recursion import RecursionMode
from .textio import (
    format_float,
    iter_kv_lines,
    parse_float,
    parse_int,
    read_text,
    split_list,
)

CLASSIFIER_KINDS = ("index", "gmm", "logistic", "external")

# Classifiers that are trained on pseudo-labeled pixels.
TRAINED_CLASSIFIERS = ("gmm", "logistic")

DEFAULT_LAMBDA = 0.8
DEFAULT_GMM_COMPONENTS = 3


def default_mode(classifier: str) -> RecursionMode:
    return (
        RecursionMode.GENERATIVE
        if classifier == "gmm"
        else RecursionMode.DISCRIMINATIVE
    )


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: str
    classes: tuple[str, ...]
    classifier: str
    epsilon: float
    seed: int
    test_dates: tuple[dt.date, ...]
    name: str = "experiment"
    mode: RecursionMode | None = None
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
        if self.classifier not in CLASSIFIER_KINDS:
            raise ConfigError(
                f"classifier must be one of {CLASSIFIER_KINDS}, got {self.classifier!r}"
            )
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.lam < 0.0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
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
        mode = self.mode or default_mode(self.classifier)
        if mode is RecursionMode.GENERATIVE and self.classifier != "gmm":
            raise ConfigError(
                f"classifier {self.classifier!r} has no generative form"
            )
        object.__setattr__(self, "mode", mode)

    def resolved_manifest(self) -> Path:
        path = Path(self.manifest)
        return path if path.is_absolute() else self.base_dir / path


def _parse_dates(value: str, where: str) -> tuple[dt.date, ...]:
    out = []
    for item in split_list(value):
        try:
            out.append(dt.date.fromisoformat(item))
        except ValueError:
            raise ConfigError(f"{where}: bad date {item!r}") from None
    return tuple(out)


def _parse_region(value: str, where: str) -> ReferenceRegion:
    parts = value.split()
    if len(parts) != 4:
        raise ConfigError(f"{where}: region needs 'x y w h', got {value!r}")
    x, y, w, h = (parse_int(p, "region", where) for p in parts)
    return ReferenceRegion(x=x, y=y, width=w, height=h)


def parse_config_text(text: str, source: str = "<str>") -> ExperimentConfig:
    values: dict = {}
    seen: set[str] = set()
    for lineno, key, value in iter_kv_lines(text, source):
        where = f"{source}:{lineno}"
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        seen.add(key)
        if key == "name":
            values["name"] = value
        elif key == "manifest":
            values["manifest"] = value
        elif key == "classes":
            values["classes"] = tuple(split_list(value))
        elif key == "classifier":
            values["classifier"] = value
        elif key == "mode":
            try:
                values["mode"] = RecursionMode(value)
            except ValueError:
                raise ConfigError(f"{where}: unknown mode {value!r}") from None
        elif key == "index":
            try:
                values["index"] = SpectralIndexKind(value)
            except ValueError:
                raise ConfigError(f"{where}: unknown index {value!r}") from None
        elif key == "thresholds":
            values["thresholds"] = tuple(
                parse_float(v, key, where) for v in split_list(value)
            )
        elif key == "epsilon":
            values["epsilon"] = parse_float(value, key, where)
        elif key == "lambda":
            values["lam"] = parse_float(value, key, where)
        elif key == "seed":
            values["seed"] = parse_int(value, key, where)
        elif key == "train_dates":
            values["train_dates"] = _parse_dates(value, where)
        elif key == "test_dates":
            values["test_dates"] = _parse_dates(value, where)
        elif key == "feature_bands":
            values["feature_bands"] = tuple(split_list(value))
        elif key == "gmm_components":
            values["gmm_components"] = parse_int(value, key, where)
        elif key == "crop":
            values["crop"] = _parse_region(value, where)
        elif key == "bias_region":
            values["bias_region"] = _parse_region(value, where)
        elif key == "cloud_threshold":
            values["cloud_threshold"] = parse_float(value, key, where)
        elif key == "exclude_dates":
            values["exclude_dates"] = _parse_dates(value, where)
        elif key == "out":
            values["out"] = value
        else:
            raise ConfigError(f"{where}: unknown config key {key!r}")
    required = ("manifest", "classes", "classifier", "epsilon", "seed", "test_dates")
    missing = [k for k in required if k not in values]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {missing}")
    return ExperimentConfig(**values)


def parse_config(path: str | Path) -> ExperimentConfig:
    src = Path(path)
    config = parse_config_text(read_text(src), source=str(src))
    object.__setattr__(config, "base_dir", src.parent)
    return config


def serialize_config(config: ExperimentConfig) -> str:
    """Config back to text; parsing the result reproduces the config."""
    lines = [
        f"name = {config.name}",
        f"manifest = {config.manifest}",
        "classes = " + ", ".join(config.classes),
        f"classifier = {config.classifier}",
        f"mode = {config.mode.value}",
        f"epsilon = {format_float(config.epsilon)}",
        f"lambda = {format_float(config.lam)}",
        f"seed = {config.seed}",
    ]
    if config.index is not None:
        lines.append(f"index = {config.index.value}")
    if config.thresholds is not None:
        lines.append(
            "thresholds = " + ", ".join(format_float(t) for t in config.thresholds)
        )
    if config.train_dates:
        lines.append(
            "train_dates = " + ", ".join(d.isoformat() for d in config.train_dates)
        )
    lines.append("test_dates = " + ", ".join(d.isoformat() for d in config.test_dates))
    if config.feature_bands is not None:
        lines.append("feature_bands = " + ", ".join(config.feature_bands))
    lines.append(f"gmm_components = {config.gmm_components}")
    for key, region in (("crop", config.crop), ("bias_region", config.bias_region)):
        if region is not None:
            lines.append(
                f"{key} = {region.x} {region.y} {region.width} {region.height}"
            )
    if config.cloud_threshold is not None:
        lines.append(f"cloud_threshold = {format_float(config.cloud_threshold)}")
    if config.exclude_dates:
        lines.append(
            "exclude_dates = " + ", ".join(d.isoformat() for d in config.exclude_dates)
        )
    if config.out is not None:
        lines.append(f"out = {config.out}")
    return "\n".join(lines) + "\n"
