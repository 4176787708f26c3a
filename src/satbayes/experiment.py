"""End-to-end experiment orchestration.

`run_experiment` turns one config into artifacts on disk: label rasters
(recursive and instantaneous, one per test date), posterior cubes,
per-date accuracy tables and error maps when truth is available, the
trained model, and a small metadata record. The run's sink on
`classify_stack` writes each date's posterior planes to the two cubes,
its two label rasters and, for a date with truth, its two error maps,
while the step holds that date's labels: no posterior or label array of
the whole stack is held, nor a band or truth array, since each date's
planes and truth are read when the recursion reaches it and dropped
after its step. Every artifact is written under a staging directory
(`textio.staged`) and moves into the output directory only when the run
succeeds, so a run that fails, as on a plane holding NaN, leaves the
output directory as it was. The metadata record is written last. Reruns
with the same config and seed produce byte-identical artifacts; nothing
time- or machine-dependent is written.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import (
    ExternalPosteriorSource,
    IndexClassifier,
    fit_logistic_classifier,
    fit_mixture_classifier,
    pseudo_labels,
    save_model,
)
from .config import ExperimentConfig, serialize_config
from .core import Frame, ImageStack, LabelRaster, build_transition_model
from .errors import ConfigError, DataError
from .evaluation import (
    FrameScore,
    error_map,
    frame_accuracies,
    write_accuracy_table,
)
from .pipeline import (
    StackManifest,
    bias_correct,
    crop_stack,
    filter_frames,
    open_stack,
    parse_manifest,
    posterior_cube_writer,
    split_dates,
    write_label_raster,
    write_posterior_cube,  # noqa: F401  (perfbench/tracing.py wraps this name)
)
from .recursion import FrameStep, StackClassification, classify_stack
from .textio import staged, write_lines


@dataclass(frozen=True)
class PreparedStacks:
    """Preprocessed data for one config: train may be empty."""

    manifest: StackManifest
    train: ImageStack
    test: ImageStack


def prepare_stacks(config: ExperimentConfig) -> PreparedStacks:
    """Open and preprocess the stack: crop, bias, filter, date split.

    The frames are deferred (`open_stack`): each date's planes and truth
    are read when a caller loads that frame, and a date that is filtered
    out or neither trained nor tested is never read. Bias correction
    reads the first frame's reference region now.
    """
    manifest = parse_manifest(config.resolved_manifest())
    stack = open_stack(manifest)
    if config.crop is not None:
        stack = crop_stack(stack, config.crop)
    if config.bias_region is not None:
        stack = bias_correct(stack, config.bias_region)
    if config.cloud_threshold is not None or config.exclude_dates:
        stack = filter_frames(
            stack,
            max_cloud_fraction=config.cloud_threshold,
            exclude_dates=config.exclude_dates,
        )
    if config.train_dates:
        train, test = split_dates(stack, config.train_dates, config.test_dates)
    else:
        train = ImageStack(())
        test = stack.subset(config.test_dates)
    return PreparedStacks(manifest=manifest, train=train, test=test)


def build_classifier(config: ExperimentConfig, kind: str, train: ImageStack):
    """Construct (and train, if applicable) one classifier kind.

    Each training date's bands and pseudo-labels go into its rows of one
    float64 matrix and one uint8 vector, allocated once: per training
    pixel 8 B a band (24 B at three) and 1 B of label, plus the fit's
    work arrays. The GMM's class samples are cut out, then the matrix
    is dropped before EM.
    """
    k = len(config.classes)
    if kind == "index":
        return IndexClassifier.from_thresholds(config.thresholds, config.index)
    if kind == "external":
        return ExternalPosteriorSource(num_classes=k)
    if kind not in ("gmm", "logistic"):
        raise ConfigError(f"unknown classifier kind {kind!r}")
    if not train.frames:
        raise DataError(f"classifier {kind!r} needs a nonempty training stack")
    bands = tuple(config.feature_bands or train.bands)
    size = train.shape[0] * train.shape[1]
    pixels = np.empty((len(train) * size, len(bands)))
    labels = np.empty(len(train) * size, dtype=np.uint8)
    for t, frame in enumerate(train.frames):
        image = frame.load().image
        rows = slice(t * size, (t + 1) * size)
        labels[rows] = pseudo_labels(image, config.index, config.thresholds).labels.ravel()
        for j, name in enumerate(bands):
            pixels[rows, j] = image.band(name).ravel()
    if kind == "gmm":
        samples = [pixels[labels == c] for c in range(k)]
        del pixels, labels
        return fit_mixture_classifier(
            samples,
            bands=bands,
            components=config.gmm_components,
            seed=config.seed,
        )
    return fit_logistic_classifier(pixels, labels, num_classes=k, bands=bands)


def config_digest(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentResult:
    """What one run did; ``classification`` holds the per-date counts."""

    config: ExperimentConfig
    out_dir: Path
    epsilon: float
    classification: StackClassification
    scores: tuple[FrameScore, ...] | None


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    epsilon: float | None = None,
) -> ExperimentResult:
    """Execute one config end to end and write artifacts under ``out_dir``.

    ``epsilon`` overrides the config's transition probability without
    touching the config file; ``out_dir`` falls back to the config's
    ``out`` key.
    """
    if out_dir is None:
        if config.out is None:
            raise ConfigError("no output directory: pass --out or set 'out'")
        out_dir = config.base_dir / config.out
    eps = config.epsilon if epsilon is None else float(epsilon)
    if not (0.0 < eps < 1.0):
        raise ConfigError(f"epsilon must lie in (0, 1), got {eps}")
    with staged(out_dir) as stage:
        prepared = prepare_stacks(config)
        model = build_classifier(config, config.classifier, prepared.train)
        transition = build_transition_model(len(config.classes), eps)
        k = model.num_classes
        height, width = prepared.test.shape
        shape = (len(prepared.test), k, height, width)
        cube_dir = stage / "posteriors"
        with posterior_cube_writer(cube_dir / "recursive.cube", shape) as write_rec, \
                posterior_cube_writer(cube_dir / "instantaneous.cube", shape) as write_inst:

            def sink(t: int, step: FrameStep, frame: Frame) -> None:
                write_rec(step.post[0].reshape(shape[1:]))
                write_inst(step.inst.reshape(shape[1:]))
                tag = frame.date.isoformat()
                for track, row in (("recursive", 1), ("instantaneous", 0)):
                    labels = step.labels[row].reshape(height, width)
                    raster = LabelRaster(labels, k)
                    write_label_raster(stage / "labels" / f"{track}_{tag}.lbl", raster)
                    if frame.truth is not None:
                        error = error_map(labels, frame.truth)
                        write_label_raster(stage / "maps" / f"error_{track}_{tag}.lbl", error)

            classification = classify_stack(
                prepared.test, model, [transition], config.lam, sink=sink
            )

        if config.classifier != "external":
            save_model(stage / "models" / f"{config.classifier}.model", model)
        scores: tuple[FrameScore, ...] | None = None
        if any(fr.has_truth for fr in prepared.test.frames):
            scores = frame_accuracies(classification, prepared.test)
            write_accuracy_table(scores, stage / "metrics" / "accuracy.csv")
        metadata = [
            f"name = {config.name}",
            f"package_version = {__version__}",
            f"numpy_version = {np.__version__}",
            f"config_sha256_16 = {config_digest(config)}",
            f"classifier = {config.classifier}",
            f"epsilon = {eps!r}",
            f"lambda = {config.lam!r}",
            f"seed = {config.seed}",
            f"test_frames = {len(classification.dates)}",
            f"pixels = {height * width}",
        ]
        write_lines(stage / "run.txt", metadata)

    return ExperimentResult(
        config=config,
        out_dir=Path(out_dir),
        epsilon=eps,
        classification=classification,
        scores=scores,
    )
