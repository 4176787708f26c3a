"""End-to-end experiment orchestration.

`run_experiment` turns one config into artifacts on disk: label rasters
(recursive and instantaneous, one per test date), posterior cubes,
per-date accuracy tables and error maps when truth is available, the
trained model, and a small metadata record. Before the recursion
starts, the run creates every date's two label rasters and, for a date
with truth, its two error maps, each as its header. `classify_stack`
then runs the dates of each row strip on the strip's worker, and the
run's sink writes each strip's float32 posterior rows into the two
cubes, and its label and error-map rows into the date's files, at their
offsets (`container_writer`) while the strip is in cache; a date's file
is open only while its rows are written, so a run holds the two cubes
and at most one date file per worker open, however many dates it has.
No posterior, label, band or truth array of a whole date is held, since
each strip reads only its own rows of a date and drops them after its
step. Every file is closed however the
run ends, and every artifact is written under a staging directory
(`textio.staged`) and moves into the output directory only when the run
succeeds, so a run that fails, as on a plane holding NaN, leaves the
output directory as it was. The metadata record is written last. Reruns
with the same config and seed produce byte-identical artifacts; nothing
time- or machine-dependent is written.
"""

from __future__ import annotations

import hashlib
from contextlib import ExitStack
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
from .core import Frame, ImageStack, _without_truth, build_transition_model
from .errors import ConfigError, DataError
from .evaluation import FrameScore, frame_accuracies, write_accuracy_table
from .pipeline import (
    StackManifest,
    bias_correct,
    container_writer,
    crop_stack,
    filter_frames,
    open_stack,
    parse_manifest,
    split_dates,
    write_label_raster,  # noqa: F401  (perfbench/tracing.py wraps these names)
    write_posterior_cube,  # noqa: F401
)
from .recursion import StackClassification, TileSink, classify_stack
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
    is dropped before EM. Training reads no truth raster.
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
        image = _without_truth(frame).load().image
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
        height, width = grid = prepared.test.shape
        shape = (len(prepared.test), k, height, width)
        tracks = (("recursive", 1), ("instantaneous", 0))  # label row of each
        rasters = []  # per date: (path, classes) of each label raster, then each error map
        for frame in prepared.test.frames:
            tag = frame.date.isoformat()
            names = [(f"labels/{track}_{tag}.lbl", k) for track, _ in tracks]
            if frame.has_truth:
                names += [(f"maps/error_{track}_{tag}.lbl", 2) for track, _ in tracks]
            rasters.append([(stage / name, classes) for name, classes in names])
            for path, classes in rasters[-1]:
                with container_writer(path, grid, classes):
                    pass  # the header; the strips write the rows
        with ExitStack() as files:
            cubes = [
                files.enter_context(container_writer(stage / f"posteriors/{track}.cube", shape))
                for track, _ in tracks
            ]

            def sink(t: int, frame: Frame) -> TileSink:
                truth = None if frame.truth is None else frame.truth.labels.reshape(-1)

                def tile(pixels: slice, inst, post, labels) -> None:
                    for write, plane in zip(cubes, (post[0], inst)):
                        write(t * k, pixels.start, plane)
                    rows = [labels[row] for _, row in tracks]
                    if truth is not None:  # the strip's truth: its pixels are the tile's
                        rows += [(labels[row] != truth).view(np.uint8) for _, row in tracks]
                    for (path, classes), values in zip(rasters[t], rows):
                        with container_writer(path, grid, classes, create=False) as write:
                            write(0, pixels.start, values)

                return tile

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
