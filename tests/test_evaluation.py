"""Metric, sweep, and benchmark contracts."""

from __future__ import annotations

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from helpers import WATER_THRESHOLDS, collect_stack, date_of, make_stack
from satbayes import evaluation, recursion
from satbayes.classifiers import (
    ExternalPosteriorSource,
    GaussianMixture,
    IndexClassifier,
    MixtureClassifier,
    SpectralIndexKind,
)
from satbayes.core import Frame, ImageStack, LabelRaster, MultibandImage, build_transition_model
from satbayes.errors import ConfigError, EvaluationError, ShapeError
from satbayes.evaluation import (
    balanced_accuracy,
    confusion_matrix,
    epsilon_sweep,
    error_map,
    frame_accuracies,
    timing_bench,
    write_accuracy_table,
    write_bench_table,
    write_sweep_table,
)
from satbayes.recursion import FrameStep, classify_stack


def _sic():
    return IndexClassifier.from_thresholds(WATER_THRESHOLDS, SpectralIndexKind.MNDWI)


class TestConfusionMatrix:
    def test_counts(self):
        truth = np.array([0, 0, 1, 1, 1])
        pred = np.array([0, 1, 1, 1, 0])
        matrix = confusion_matrix(pred, truth, 2)
        assert_array_equal(matrix, [[1, 1], [1, 2]])

    # the transposed raster has the same six pixels, but none pairs up
    @pytest.mark.parametrize(
        ("pred", "truth"),
        [
            (np.zeros(3, dtype=int), np.zeros(4, dtype=int)),
            (np.array([[0, 1, 0], [1, 0, 1]]), np.array([[0, 1], [0, 1], [0, 1]])),
        ],
        ids=["length", "transposed"],
    )
    def test_shape_mismatch(self, pred, truth):
        message = f"prediction shape {pred.shape} != truth shape {truth.shape}"
        message = f"^{re.escape(message)}$"
        with pytest.raises(ShapeError, match=message):
            confusion_matrix(pred, truth, 2)
        with pytest.raises(ShapeError, match=message):
            balanced_accuracy(pred, truth)

    @pytest.mark.parametrize(
        ("pred", "truth", "message"),
        [
            ([2, 0], [0, 1], "prediction label 2 outside [0, 2)"),
            ([0, 1], [1, 2], "truth label 2 outside [0, 2)"),
            ([0, -1], [1, 0], "prediction label -1 outside [0, 2)"),
            ([0, 1], [-3, 0], "truth label -3 outside [0, 2)"),
        ],
        ids=["prediction-high", "truth-high", "prediction-negative", "truth-negative"],
    )
    def test_out_of_range_label_is_named(self, pred, truth, message):
        # a label >= num_classes used to be counted under the next truth row
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
            confusion_matrix(np.array(pred), np.array(truth), 2)

    @pytest.mark.parametrize(
        ("pred", "truth", "message"),
        [
            ([0.7, 1.9], [0, 1], "prediction label 0.7 is not an integer"),
            ([0.0, 1.0], [0.0, 1.5], "truth label 1.5 is not an integer"),
            ([0.0, np.nan], [0, 1], "prediction label nan is not an integer"),
            ([0, 1], [np.inf, 0.0], "truth label inf is not an integer"),
        ],
        ids=["fraction", "truth-fraction", "nan", "inf"],
    )
    def test_non_integral_label_is_named(self, pred, truth, message):
        # a fractional label used to be truncated: [0.7, 1.9] scored as [0, 1]
        for score in (lambda p, t: confusion_matrix(p, t, 2), balanced_accuracy):
            with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
                score(np.array(pred), np.array(truth))

    def test_255_classes_match_a_scatter_count(self):
        rng = np.random.default_rng(30)
        pred, truth = rng.integers(0, 255, size=(2, 64, 64), dtype=np.uint8)
        expected = np.zeros((255, 255), dtype=np.int64)
        np.add.at(expected, (truth.ravel(), pred.ravel()), 1)
        assert_array_equal(confusion_matrix(pred, truth, 255), expected)

    def test_integral_float_labels_are_counted(self):
        matrix = confusion_matrix(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0]), 2)
        assert_array_equal(matrix, [[1, 1], [0, 1]])


class TestBalancedAccuracy:
    def test_worked_example(self):
        # class 0 recall 0.8 (8/10), class 1 recall 0.9 (18/20)
        truth = np.array([0] * 10 + [1] * 20)
        pred = np.array([0] * 8 + [1] * 2 + [1] * 18 + [0] * 2)
        assert balanced_accuracy(pred, truth) == pytest.approx(0.85, abs=1e-12)

    def test_perfect(self):
        labels = np.array([[0, 1], [2, 1]])
        assert balanced_accuracy(labels, labels) == 1.0

    def test_constant_prediction_scores_chance(self):
        truth = np.array([0] * 30 + [1] * 70)
        pred = np.zeros(100, dtype=int)
        assert balanced_accuracy(pred, truth) == pytest.approx(0.5, abs=1e-12)

    def test_pixel_permutation_invariance(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, size=500)
        pred = rng.integers(0, 3, size=500)
        perm = rng.permutation(500)
        assert balanced_accuracy(pred, truth) == pytest.approx(
            balanced_accuracy(pred[perm], truth[perm]), abs=1e-15
        )

    def test_absent_class_ignored(self):
        truth = np.array([0, 0, 2, 2])  # class 1 never occurs
        pred = np.array([0, 0, 2, 1])
        assert balanced_accuracy(pred, truth) == pytest.approx(0.75, abs=1e-12)

    def test_matches_hand_oracle(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 4, size=1000)
        pred = np.where(rng.uniform(size=1000) < 0.7, truth, rng.integers(0, 4, size=1000))
        assert balanced_accuracy(pred, truth) == pytest.approx(
            oracles.balanced_accuracy_by_hand(pred, truth), abs=1e-12
        )


class TestErrorMap:
    def test_marks_disagreements(self):
        pred = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        truth = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        out = error_map(pred, truth)
        assert out.num_classes == 2
        assert_array_equal(out.labels, [[0, 1], [0, 1]])


class TestFrameAccuracies:
    def test_only_truth_frames_scored(self, benchmark_stack):
        partial = make_stack(
            ("green", "swir1"),
            [
                [fr.image.band("green"), fr.image.band("swir1")]
                for fr in benchmark_stack.frames[:4]
            ],
            truths=[
                benchmark_stack.frames[0].truth.labels,
                None,
                benchmark_stack.frames[2].truth.labels,
                None,
            ],
        )
        result = classify_stack(
            partial,
            _sic(),
            [build_transition_model(2, 0.1)],
            0.8,
        )
        scores = frame_accuracies(result, partial)
        assert [s.date for s in scores] == [partial.dates[0], partial.dates[2]]

    def test_no_truth_rejected(self):
        stack = make_stack(("green", "swir1"), [[np.full((2, 2), 0.2), np.full((2, 2), 0.1)]])
        result = classify_stack(
            stack, _sic(), [build_transition_model(2, 0.1)], 0.0
        )
        with pytest.raises(EvaluationError):
            frame_accuracies(result, stack)


def _external_stack(k, truth_kind, height=20, width=7, dates=4):
    """Random external posteriors over ``k`` classes; frame 1 carries no truth.

    ``truth_kind`` "mixed" draws each truth label from [0, k), "wide"
    also puts a label k + 1 in the first row only, and "single" labels
    every pixel k - 1. With tiles of a few rows, the wide label is in
    the first tile alone.
    """
    rng = np.random.default_rng(k)
    frames = []
    for t in range(dates):
        truth = rng.integers(0, k, size=(height, width))
        if truth_kind == "wide":
            truth[0, 3] = k + 1
        elif truth_kind == "single":
            truth[:] = k - 1
        posterior = rng.uniform(0.01, 1.0, size=(k, height, width))
        frames.append(Frame(
            date=date_of(t),
            image=MultibandImage(("a",), rng.uniform(size=(1, height, width))),
            truth=None if t == 1 else LabelRaster(truth, max(k, int(truth.max()) + 1)),
            external_posterior=posterior / posterior.sum(axis=0),
        ))
    return ImageStack(tuple(frames))


class TestStepCounts:
    """`FrameStep` counts each date's label rows against its truth as
    `confusion_matrix` would, and `frame_accuracies` and `epsilon_sweep`
    score from those counts, added over 3-row strips, alone."""

    KINDS = ["mixed", "wide", "single"]

    @pytest.fixture(autouse=True)
    def tiles(self, monkeypatch):
        monkeypatch.setattr(recursion, "_TILE_PIXELS", 3 * 7)  # 3-row tiles
        monkeypatch.setattr(recursion, "_workers", lambda: 2)

    @pytest.mark.parametrize("truth_kind", KINDS)
    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_counts_equal_confusion_matrix(self, k, truth_kind):
        stack = _external_stack(k, truth_kind)
        height, width = stack.shape
        transitions = [build_transition_model(k, e) for e in (0.01, 0.3)]
        step = FrameStep(transitions, 0.8, height * width)
        for frame in stack.frames:
            raw = frame.external_posterior.reshape(k, -1)
            if frame.truth is None:
                step(raw, frame.date)
                assert step.hits is None and step.totals is None
                continue
            truth = frame.truth.labels.ravel()
            _, labels = step(raw, frame.date, truth)
            classes = max(k, int(truth.max()) + 1)
            assert step.hits.shape == (3, classes) and step.totals.shape == (classes,)
            for row, hits in zip(labels, step.hits):
                matrix = confusion_matrix(row, truth, classes)
                assert_array_equal(hits, np.diagonal(matrix))
                assert_array_equal(step.totals, matrix.sum(axis=1))

    @pytest.mark.parametrize("truth_kind", KINDS)
    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_scores_equal_rescanned_labels(self, k, truth_kind):
        stack = _external_stack(k, truth_kind)
        model = ExternalPosteriorSource(k)
        result = collect_stack(stack, model, build_transition_model(k, 0.05), 0.8)
        assert result.counts[1] is None
        scores = frame_accuracies(result, stack)
        assert scores == oracles.rescanned_frame_scores(result, stack)
        grid = [0.01, 0.3]
        sweep = epsilon_sweep(stack, {"m": model}, 0.8, grid)
        accuracy, instantaneous = oracles.per_epsilon_sweep(stack, {"m": model}, 0.8, grid)
        assert sweep.recursive_accuracy.tolist() == accuracy.tolist()
        assert sweep.instantaneous_accuracy == instantaneous

    def test_no_label_raster_is_read_after_the_step(self, monkeypatch):
        stack = _external_stack(3, "wide")
        model = ExternalPosteriorSource(3)
        trans = build_transition_model(3, 0.05)
        expect = oracles.rescanned_frame_scores(collect_stack(stack, model, trans, 0.8), stack)
        result = classify_stack(stack, model, [trans], 0.8)  # holds no label raster

        def scan(*args):
            raise AssertionError("a label raster was scanned")

        for name in ("balanced_accuracy", "confusion_matrix"):
            monkeypatch.setattr(evaluation, name, scan)
        assert frame_accuracies(result, stack) == expect
        epsilon_sweep(stack, {"m": model}, 0.8, [0.05])

    def test_truth_frame_classified_without_truth(self):
        stack = _external_stack(2, "mixed")
        bare = ImageStack(tuple(dataclasses.replace(fr, truth=None) for fr in stack.frames))
        trans = build_transition_model(2, 0.05)
        result = classify_stack(bare, ExternalPosteriorSource(2), [trans], 0.8)
        with pytest.raises(EvaluationError, match="classified without its truth"):
            frame_accuracies(result, stack)

    def test_empty_truth_raster(self):
        frame = Frame(
            date=date_of(0),
            image=MultibandImage(("a",), np.zeros((1, 0, 5))),
            truth=LabelRaster(np.zeros((0, 5), dtype=np.uint8), 2),
            external_posterior=np.zeros((2, 0, 5)),
        )
        stack = ImageStack((frame,))
        model = ExternalPosteriorSource(2)
        result = classify_stack(stack, model, [build_transition_model(2, 0.05)], 0.8)
        with pytest.raises(EvaluationError, match="^empty truth raster$"):
            frame_accuracies(result, stack)
        with pytest.raises(EvaluationError, match="^empty truth raster$"):
            epsilon_sweep(stack, {"m": model}, 0.8, [0.05])

    def test_truth_of_another_shape(self):
        step = FrameStep([build_transition_model(2, 0.05)], 0.8, 6)
        with pytest.raises(ShapeError, match="truth has shape"):
            step(np.ones((2, 6)), truth=np.zeros(5, dtype=np.uint8))


class TestEpsilonSweep:
    def test_half_epsilon_matches_instantaneous(self, benchmark_stack):
        result = epsilon_sweep(
            benchmark_stack,
            {"sic": _sic()},
            lam=0.8,
            grid=[0.01, 0.5],
        )
        half = result.recursive_accuracy[0, 1]
        assert half == pytest.approx(result.instantaneous_accuracy[0], abs=1e-12)

    def test_deterministic(self, benchmark_stack):
        kwargs = dict(
            models={"sic": _sic()},
            lam=0.8,
            grid=[0.05, 0.2],
        )
        a = epsilon_sweep(benchmark_stack, **kwargs)
        b = epsilon_sweep(benchmark_stack, **kwargs)
        assert a.recursive_accuracy.tobytes() == b.recursive_accuracy.tobytes()

    def test_best_epsilon_tie_breaks_low(self):
        from satbayes.evaluation import SweepResult

        result = SweepResult(
            grid=(0.01, 0.1, 0.3),
            algorithms=("sic",),
            recursive_accuracy=np.array([[0.9, 0.9, 0.8]]),
            instantaneous_accuracy=(0.7,),
        )
        assert result.best_epsilon("sic") == 0.01

    @pytest.mark.parametrize(
        "grid", [[], [0.5, 0.1], [0.0, 0.1], [0.1, 1.0], [0.1, 0.1]]
    )
    def test_bad_grid_rejected(self, benchmark_stack, grid):
        with pytest.raises(ConfigError):
            epsilon_sweep(
                benchmark_stack,
                {"sic": _sic()},
                lam=0.8,
                grid=grid,
            )

    def test_truthless_stack_rejected(self):
        stack = make_stack(
            ("green", "swir1"), [[np.full((2, 2), 0.2), np.full((2, 2), 0.1)]]
        )
        with pytest.raises(EvaluationError):
            epsilon_sweep(
                stack,
                {"sic": _sic()},
                lam=0.8,
                grid=[0.1],
            )


def _gmm():
    """Generative engine from the benchmark scene's class statistics, unfitted."""
    cov = np.diag([0.05**2, 0.05**2])[np.newaxis]
    return MixtureClassifier(
        bands=("green", "swir1"),
        mixtures=(
            GaussianMixture(np.ones(1), np.array([[0.12, 0.28]]), cov),
            GaussianMixture(np.ones(1), np.array([[0.30, 0.06]]), cov),
        ),
    )


def _drop_truth(stack, every=3):
    """The stack with truth removed from every ``every``-th frame, from frame 1."""
    return ImageStack(frames=tuple(
        dataclasses.replace(fr, truth=None) if t % every == 1 else fr
        for t, fr in enumerate(stack.frames)
    ))


class TestEpsilonSweepMatchesPerEpsilonRuns:
    """The sweep equals one `classify_stack` run per grid value, exactly."""

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("partial_truth", [False, True])
    def test_equals_oracle(self, benchmark_stack, partial_truth, lam):
        stack = _drop_truth(benchmark_stack) if partial_truth else benchmark_stack
        kwargs = dict(
            models={"sic": _sic(), "gmm": _gmm()},
            lam=lam,
            grid=[0.001, 0.05, 0.3, 0.5, 0.7],
        )
        result = epsilon_sweep(stack, **kwargs)
        accuracy, instantaneous = oracles.per_epsilon_sweep(stack, **kwargs)
        assert result.algorithms == ("sic", "gmm")
        assert result.grid == (0.001, 0.05, 0.3, 0.5, 0.7)
        assert result.recursive_accuracy.shape == accuracy.shape
        assert result.recursive_accuracy.tolist() == accuracy.tolist()
        assert result.instantaneous_accuracy == instantaneous


class TestTimingBench:
    def test_records_and_layout(self, benchmark_stack, tmp_path):
        records = timing_bench(
            benchmark_stack,
            {"sic": _sic()},
            transition=build_transition_model(2, 0.1),
            lam=0.8,
            repetitions=3,
        )
        assert len(records) == 1
        rec = records[0]
        assert rec.algorithm == "sic"
        assert rec.baseline_seconds > 0.0
        assert rec.recursion_seconds > 0.0
        assert len(rec.step_seconds) == len(benchmark_stack)
        assert rec.pixels == 64 * 64

        table = write_bench_table(records, tmp_path / "bench.csv")
        lines = table.read_text().splitlines()
        assert lines[0] == "metric,sic"
        assert lines[1].startswith("recursion_seconds,")
        assert lines[2].startswith("baseline_seconds,")

    def test_peak_memory_does_not_grow_with_the_dates(self):
        # each date's model output is made just before its step: keeping
        # them all breaks the bound, 18 more dates of (2, 128 x 128) float64
        side, peaks = 128, {}
        rng = np.random.default_rng(6)
        trans = build_transition_model(2, 0.1)
        for frames in (6, 24):
            planes = [rng.uniform(0.0, 0.4, size=(2, side, side)) for _ in range(frames)]
            stack = make_stack(("green", "swir1"), planes)
            tracemalloc.start()
            try:
                timing_bench(stack, {"sic": _sic()}, trans, 0.8, repetitions=3)
                peaks[frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[24] - peaks[6] < 18 * 2 * side * side * 8 / 2, peaks

    def test_too_few_repetitions(self, benchmark_stack):
        with pytest.raises(ConfigError):
            timing_bench(
                benchmark_stack,
                {"sic": _sic()},
                transition=build_transition_model(2, 0.1),
                lam=0.8,
                repetitions=2,
            )


class TestTableWriters:
    def test_accuracy_table(self, benchmark_stack, tmp_path):
        result = classify_stack(
            benchmark_stack,
            _sic(),
            [build_transition_model(2, 0.05)],
            0.8,
        )
        scores = frame_accuracies(result, benchmark_stack)
        path = write_accuracy_table(scores, tmp_path / "acc.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "date,recursive,instantaneous"
        assert len(lines) == 1 + len(scores)
        date, rec, inst = lines[1].split(",")
        assert date == scores[0].date.isoformat()
        assert float(rec) == scores[0].recursive
        assert float(inst) == scores[0].instantaneous

    def test_sweep_table(self, benchmark_stack, tmp_path):
        result = epsilon_sweep(
            benchmark_stack,
            {"sic": _sic()},
            lam=0.8,
            grid=[0.05, 0.2],
        )
        path = write_sweep_table(result, tmp_path / "sweep.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "epsilon,algorithm,balanced_accuracy"
        assert len(lines) == 1 + 2
        eps, name, acc = lines[1].split(",")
        assert float(eps) == 0.05
        assert name == "sic"
        assert float(acc) == result.recursive_accuracy[0, 0]
