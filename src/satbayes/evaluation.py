"""Accuracy metrics, sensitivity sweeps, and timing benchmarks.

Balanced accuracy (mean per-class recall over the classes actually
present in the truth raster) is the headline score everywhere, so
class-imbalanced scenes do not reward majority-class collapse. One
formula, `_balanced`, turns per-class hits and truth totals into that
score: `balanced_accuracy` takes them from a confusion matrix, while
`frame_accuracies` and `epsilon_sweep` take the counts that
`FrameStep` made as it decided each date's labels, and scan no label
raster.
"""

from __future__ import annotations

import datetime as dt
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ImageStack, LabelRaster, _without_truth, build_transition_model
from .errors import ConfigError, EvaluationError, ShapeError
from .recursion import FrameStep, StackClassification, TransitionModel, classify_stack
from .textio import format_float, write_lines

# ============================================================
# per-raster metrics
# ============================================================


def _label_pair(
    pred: LabelRaster | np.ndarray, truth: LabelRaster | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two label arrays, of one shape; a NaN, infinite or fractional label is an error."""
    p, t = (r.labels if isinstance(r, LabelRaster) else np.asarray(r) for r in (pred, truth))
    for what, labels in (("prediction", p), ("truth", t)):
        if labels.dtype.kind not in "biu":
            bad = labels[~np.isfinite(labels) | (labels != np.round(labels))]
            if bad.size:
                raise EvaluationError(f"{what} label {bad[0]} is not an integer")
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != truth shape {t.shape}")
    return p, t


def confusion_matrix(
    pred: LabelRaster | np.ndarray, truth: LabelRaster | np.ndarray, num_classes: int
) -> np.ndarray:
    """Truth-by-prediction counts; a label outside [0, num_classes) is an error."""
    return _confusion(*_label_pair(pred, truth), num_classes)


def _confusion(p: np.ndarray, t: np.ndarray, num_classes: int) -> np.ndarray:
    """`confusion_matrix` of a `_label_pair`."""
    p, t = p.ravel(), t.ravel()
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
    p, t = _label_pair(pred, truth)
    if t.size == 0:
        raise EvaluationError("empty truth raster")
    matrix = _confusion(p, t, int(max(p.max(), t.max())) + 1)
    return _balanced(np.diagonal(matrix), matrix.sum(axis=1))


def _balanced(hits: np.ndarray, totals: np.ndarray) -> float:
    """Mean of hits[c] / totals[c] over the classes c with totals[c] > 0."""
    idx = np.flatnonzero(totals > 0)
    if not idx.size:
        raise EvaluationError("empty truth raster")
    return float(np.mean(hits[idx] / totals[idx]))


def error_map(
    pred: LabelRaster | np.ndarray, truth: LabelRaster | np.ndarray
) -> LabelRaster:
    """Binary raster: 1 where prediction and truth disagree."""
    p, t = _label_pair(pred, truth)
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
    """Balanced accuracy per ground-truth-carrying frame.

    Each score comes from the counts `classify_stack` made of that
    date's labels against the frame's truth, so ``classification`` must
    come from ``stack``; a truth frame it holds no counts for is an
    EvaluationError. No label raster is read.
    """
    if classification.dates != stack.dates:
        raise ShapeError("classification and stack cover different dates")
    scores = []
    for frame, counts in zip(stack.frames, classification.counts):
        if not frame.has_truth:
            continue
        if counts is None:
            raise EvaluationError(f"{frame.date.isoformat()}: classified without its truth")
        hits, totals = counts
        scores.append(
            FrameScore(
                date=frame.date,
                recursive=_balanced(hits[1], totals),
                instantaneous=_balanced(hits[0], totals),
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
    lam: float,
    grid: Sequence[float],
) -> SweepResult:
    """Run the recursion across a grid of transition probabilities.

    Every model in ``models`` is swept over every epsilon in ``grid``
    (strictly increasing, each within (0, 1)); the score is the mean
    balanced accuracy over the stack's ground-truth frames. The sweep is
    one `classify_stack` pass per model with one transition model per
    grid value: each date is read and the model evaluated once, a belief
    per grid value advances from that output, and each label row is
    scored from the counts the step made against the frame's truth,
    without scanning a label raster. Scores equal those of one
    `classify_stack` run per grid value, bit for bit, and a bad model
    output raises the same error, naming the frame's date.
    """
    eps = check_epsilon_grid(grid)
    if not models:
        raise ConfigError("no models to sweep")
    if not any(fr.has_truth for fr in stack.frames):
        raise EvaluationError("no frames carry ground truth")

    algorithms = tuple(models)
    accuracy = np.zeros((len(algorithms), len(eps)))
    instantaneous = []
    for a, model in enumerate(models.values()):
        transitions = [build_transition_model(model.num_classes, e) for e in eps]
        counts = filter(None, classify_stack(stack, model, transitions, lam).counts)
        # per truth frame: instantaneous, then one per epsilon
        scores = [[_balanced(row, totals) for row in hits] for hits, totals in counts]
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
    smoothing, update and MAP decision, tile by tile) given the date's
    model output, computed just before and outside the timed call;
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
    transition: TransitionModel,
    lam: float,
    repetitions: int = 5,
) -> tuple[TimingRecord, ...]:
    """Measure recursion overhead against the instantaneous baseline.

    In every repetition each date is read and its model output computed
    just before its step, outside the timed region: the recursion
    numbers isolate the step, neither number times a file read, and one
    date's output is held at a time; no truth raster is read. One
    `FrameStep` per algorithm is `reset` before each repetition, so
    repetitions reuse its filter state. The baseline evaluations and the
    steps run on the step's own row tiles and workers, as in
    `classify_stack`. Medians over ``repetitions`` (>= 3) keep scheduler
    noise out.
    """
    check_repetitions(repetitions)
    if not stack.frames:
        raise EvaluationError("cannot bench an empty stack")
    height, width = stack.shape
    pixels = height * width
    frames = [_without_truth(frame) for frame in stack.frames]  # nothing is scored
    first = frames[0].load()
    records = []
    for name, model in models.items():
        baseline_samples = []
        step_samples = np.empty((repetitions, len(stack)))
        step = FrameStep([transition], lam, pixels, width)

        def baseline(i: int) -> None:
            model.frame_posterior(first.window(step.rows[i]))

        step.map(baseline)  # warmup
        for _ in range(repetitions):
            start = time.perf_counter()
            step.map(baseline)
            baseline_samples.append(time.perf_counter() - start)
        for rep in range(repetitions):
            step.reset()
            for t, frame in enumerate(frames):
                raw = model.frame_posterior(frame.load())
                start = time.perf_counter()
                step(raw, frame.date)
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
