"""Accuracy metrics, sensitivity sweeps, and timing benchmarks.

Balanced accuracy (mean per-class recall over the classes actually
present in the truth raster) is the headline score everywhere, so
class-imbalanced scenes do not reward majority-class collapse.
"""

from __future__ import annotations

import datetime as dt
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ImageStack, LabelRaster, build_transition_model
from .errors import ConfigError, EvaluationError, ShapeError
from .recursion import (
    FrameStep,
    RecursionMode,
    StackClassification,
    TransitionModel,
    model_output,
)
from .textio import format_float, write_lines

# ============================================================
# per-raster metrics
# ============================================================


def _as_labels(raster: LabelRaster | np.ndarray, what: str) -> np.ndarray:
    """The label array; a NaN, infinite or fractional label is an error."""
    if isinstance(raster, LabelRaster):
        return raster.labels
    labels = np.asarray(raster)
    if labels.dtype.kind not in "biu":
        bad = labels[~np.isfinite(labels) | (labels != np.round(labels))]
        if bad.size:
            raise EvaluationError(f"{what} label {bad[0]} is not an integer")
    return labels


def confusion_matrix(
    pred: LabelRaster | np.ndarray, truth: LabelRaster | np.ndarray, num_classes: int
) -> np.ndarray:
    """Truth-by-prediction counts; a label outside [0, num_classes) is an error."""
    p = _as_labels(pred, "prediction").ravel()
    t = _as_labels(truth, "truth").ravel()
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != truth shape {t.shape}")
    for what, labels in (("prediction", p), ("truth", t)):
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            bad = labels[(labels < 0) | (labels >= num_classes)][0]
            raise EvaluationError(f"{what} label {bad} outside [0, {num_classes})")
    index = t.astype(np.intp)  # the one widened copy: truth * K + prediction
    index *= num_classes
    np.add(index, p, out=index, casting="unsafe")  # integral labels, checked above
    return np.bincount(index, minlength=num_classes**2).reshape(num_classes, num_classes)


def balanced_accuracy(
    pred: LabelRaster | np.ndarray, truth: LabelRaster | np.ndarray
) -> float:
    """Mean per-class recall over the classes present in the truth."""
    p = _as_labels(pred, "prediction")
    t = _as_labels(truth, "truth")
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != truth shape {t.shape}")
    if t.size == 0:
        raise EvaluationError("empty truth raster")
    num_classes = int(max(p.max(), t.max())) + 1
    matrix = confusion_matrix(p, t, num_classes)
    idx = np.flatnonzero(matrix.sum(axis=1) > 0)
    recalls = matrix[idx, idx] / matrix[idx].sum(axis=1)
    return float(recalls.mean())


def error_map(
    pred: LabelRaster | np.ndarray, truth: LabelRaster | np.ndarray
) -> LabelRaster:
    """Binary raster: 1 where prediction and truth disagree."""
    p = _as_labels(pred, "prediction")
    t = _as_labels(truth, "truth")
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != truth shape {t.shape}")
    return LabelRaster((p != t).astype(np.uint8), num_classes=2)


# ============================================================
# per-frame scores and the epsilon sweep
# ============================================================


@dataclass(frozen=True)
class FrameScore:
    date: dt.date
    recursive: float
    instantaneous: float


def frame_accuracies(
    classification: StackClassification, stack: ImageStack
) -> tuple[FrameScore, ...]:
    """Balanced accuracy per ground-truth-carrying frame."""
    if classification.dates != stack.dates:
        raise ShapeError("classification and stack cover different dates")
    scores = []
    for idx, frame in enumerate(stack.frames):
        if frame.truth is None:
            continue
        scores.append(
            FrameScore(
                date=frame.date,
                recursive=balanced_accuracy(
                    classification.recursive_labels[idx], frame.truth
                ),
                instantaneous=balanced_accuracy(
                    classification.instantaneous_labels[idx], frame.truth
                ),
            )
        )
    if not scores:
        raise EvaluationError("no frames carry ground truth")
    return tuple(scores)


@dataclass(frozen=True)
class SweepResult:
    """Mean balanced accuracy across truth frames per (algorithm, epsilon)."""

    grid: tuple[float, ...]
    algorithms: tuple[str, ...]
    recursive_accuracy: np.ndarray  # shape (algorithms, grid)
    instantaneous_accuracy: tuple[float, ...]  # per algorithm, epsilon-free

    def best_epsilon(self, algorithm: str) -> float:
        """Grid value maximizing mean accuracy; ties -> smallest epsilon."""
        row = self.recursive_accuracy[self.algorithms.index(algorithm)]
        return self.grid[int(np.argmax(row))]


def check_epsilon_grid(grid: Sequence[float]) -> tuple[float, ...]:
    """The grid as floats: non-empty, strictly increasing, inside (0, 1)."""
    eps = tuple(float(e) for e in grid)
    if not eps:
        raise ConfigError("epsilon grid is empty")
    if any(not (0.0 < e < 1.0) for e in eps):
        raise ConfigError(f"epsilon values must lie in (0, 1): {eps}")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ConfigError(f"epsilon grid must strictly increase: {eps}")
    return eps


def epsilon_sweep(
    stack: ImageStack,
    models: Mapping[str, object],
    modes: Mapping[str, RecursionMode],
    lam: float,
    grid: Sequence[float],
) -> SweepResult:
    """Run the recursion across a grid of transition probabilities.

    Every model in ``models`` is swept over every epsilon in ``grid``
    (strictly increasing, each within (0, 1)); the score is the mean
    balanced accuracy over the stack's ground-truth frames. The sweep is
    one pass over the frames per model: one `FrameStep` advances a
    belief per grid value from a single model evaluation per frame, and
    labels are scored as they come. Each date is evaluated and stepped
    in the step's row tiles on its workers, as in `classify_stack`.
    Scores equal those of one `classify_stack` run per grid value, bit
    for bit, and a bad model output raises the same error, naming the
    frame's date.
    """
    eps = check_epsilon_grid(grid)
    if not models:
        raise ConfigError("no models to sweep")
    if set(models) != set(modes):
        raise ConfigError("models and modes must list the same algorithms")
    if not any(fr.truth is not None for fr in stack.frames):
        raise EvaluationError("no frames carry ground truth")

    height, width = stack.shape
    pixels = height * width
    algorithms = tuple(models)
    accuracy = np.zeros((len(algorithms), len(eps)))
    instantaneous = []
    for a, name in enumerate(algorithms):
        model = models[name]
        evaluate = model_output(model, modes[name])
        transitions = [build_transition_model(model.num_classes, e) for e in eps]
        scores = []  # per truth frame: instantaneous, then one per epsilon
        with FrameStep(transitions, lam, pixels, width) as step:
            for frame in stack.frames:
                step(lambda rows: evaluate(frame.window(rows)), frame.date)
                if frame.truth is not None:
                    scores.append([
                        balanced_accuracy(row.reshape(height, width), frame.truth)
                        for row in step.labels
                    ])
        means = [float(np.mean(column)) for column in zip(*scores)]
        instantaneous.append(means[0])
        accuracy[a] = means[1:]
    return SweepResult(
        grid=eps,
        algorithms=algorithms,
        recursive_accuracy=accuracy,
        instantaneous_accuracy=tuple(instantaneous),
    )


# ============================================================
# timing bench
# ============================================================


@dataclass(frozen=True)
class TimingRecord:
    """Wall-time medians for one algorithm on one stack.

    ``baseline_seconds`` times one instantaneous model evaluation of a
    frame, over the `FrameStep` row tiles on its workers as
    `classify_stack` does; ``recursion_seconds`` times one `FrameStep`
    call (the step `classify_stack` runs per frame: validation,
    smoothing, update and MAP decision, tile by tile) given a
    precomputed model output;
    ``step_seconds[t]`` is the per-step median at step index t across
    repetitions.
    """

    algorithm: str
    baseline_seconds: float
    recursion_seconds: float
    step_seconds: tuple[float, ...]
    pixels: int
    repetitions: int


def check_repetitions(repetitions: int) -> None:
    if repetitions < 3:
        raise ConfigError(f"repetitions must be >= 3, got {repetitions}")


def timing_bench(
    stack: ImageStack,
    models: Mapping[str, object],
    modes: Mapping[str, RecursionMode],
    transition: TransitionModel,
    lam: float,
    repetitions: int = 5,
) -> tuple[TimingRecord, ...]:
    """Measure recursion overhead against the instantaneous baseline.

    Model outputs are computed once outside the timed region, so the
    recursion numbers isolate the recursion step. One `FrameStep` per
    algorithm is `reset` before each repetition, so repetitions reuse its
    buffers. The baseline evaluations and the steps run on the step's
    own row tiles and workers, as in `classify_stack`. Medians over
    ``repetitions`` (>= 3) keep scheduler noise out.
    """
    check_repetitions(repetitions)
    if not stack.frames:
        raise EvaluationError("cannot bench an empty stack")
    if set(models) != set(modes):
        raise ConfigError("models and modes must list the same algorithms")
    height, width = stack.shape
    pixels = height * width
    first = stack.frames[0]
    records = []
    for name, model in models.items():
        evaluate = model_output(model, modes[name])
        outputs = [evaluate(frame) for frame in stack.frames]
        baseline_samples = []
        step_samples = np.empty((repetitions, len(outputs)))
        with FrameStep([transition], lam, pixels, width) as step:

            def baseline(w: int, i: int) -> None:
                evaluate(first.window(step.rows[i]))

            step.map(baseline)  # warmup
            for _ in range(repetitions):
                start = time.perf_counter()
                step.map(baseline)
                baseline_samples.append(time.perf_counter() - start)
            for rep in range(repetitions):
                step.reset()
                for t, (raw, date) in enumerate(zip(outputs, stack.dates)):
                    start = time.perf_counter()
                    step(raw, date)
                    step_samples[rep, t] = time.perf_counter() - start

        records.append(
            TimingRecord(
                algorithm=name,
                baseline_seconds=float(np.median(baseline_samples)),
                recursion_seconds=float(np.median(step_samples)),
                step_seconds=tuple(float(v) for v in np.median(step_samples, axis=0)),
                pixels=pixels,
                repetitions=repetitions,
            )
        )
    return tuple(records)


# ============================================================
# table writers
# ============================================================


def write_accuracy_table(scores: Sequence[FrameScore], path: str | Path) -> Path:
    lines = ["date,recursive,instantaneous"]
    lines += [
        f"{s.date.isoformat()},{format_float(s.recursive)},{format_float(s.instantaneous)}"
        for s in scores
    ]
    return write_lines(path, lines)


def write_sweep_table(result: SweepResult, path: str | Path) -> Path:
    lines = ["epsilon,algorithm,balanced_accuracy"]
    for a, name in enumerate(result.algorithms):
        for e, eps in enumerate(result.grid):
            lines.append(
                f"{format_float(eps)},{name},"
                f"{format_float(result.recursive_accuracy[a, e])}"
            )
    return write_lines(path, lines)


def write_bench_table(records: Sequence[TimingRecord], path: str | Path) -> Path:
    """One column per algorithm; recursion row above baseline row."""
    names = [r.algorithm for r in records]
    lines = [
        "metric," + ",".join(names),
        "recursion_seconds,"
        + ",".join(format_float(r.recursion_seconds) for r in records),
        "baseline_seconds,"
        + ",".join(format_float(r.baseline_seconds) for r in records),
    ]
    return write_lines(path, lines)
