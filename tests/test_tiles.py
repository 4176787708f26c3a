"""Row tiles: every tiling and worker count gives the single-tile results, bit for bit."""

from __future__ import annotations

import errno
import os
import re
import struct
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from helpers import Tiles, collect_stack, date_of
from oracles import matrix_logistic_posterior
from satbayes import recursion
from satbayes.classifiers import (
    ExternalPosteriorSource,
    IndexClassifier,
    SpectralIndexKind,
    fit_logistic_classifier,
    fit_mixture_classifier,
)
from satbayes.core import (
    Frame,
    ImageStack,
    LabelRaster,
    MultibandImage,
    build_transition_model,
    normalize_columns,
)
from satbayes.config import parse_config
from satbayes.errors import DataError, DegenerateLikelihoodError
from satbayes.evaluation import epsilon_sweep, frame_accuracies, timing_bench
from satbayes.experiment import build_classifier, prepare_stacks, run_experiment
from satbayes.pipeline import ReferenceRegion, bias_correct
from satbayes.recursion import FrameStep, classify_stack
from satbayes.synth import generate_synthetic, parse_synth_spec

BANDS = ("nir", "red")
HEIGHT, WIDTH, DATES, K = 70, 9, 4, 3
TILE_HEIGHTS = [1, 7, 64, HEIGHT]
GRID = [0.01, 0.1, 0.4]
ENGINES = ["external", "gmm", "index", "logistic", "scaled"]


def _frame(t, rng, posterior=None):
    planes = rng.uniform(0.0, 0.5, size=(len(BANDS), HEIGHT, WIDTH))
    if posterior is None:
        posterior = rng.uniform(0.01, 1.0, size=(K, HEIGHT, WIDTH))
        posterior /= posterior.sum(axis=0)
    truth = LabelRaster(rng.integers(0, K, size=(HEIGHT, WIDTH)), K)
    return Frame(
        date=date_of(t),
        image=MultibandImage(BANDS, planes),
        truth=truth,
        external_posterior=posterior,
    )


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(120)
    stack = ImageStack(tuple(_frame(t, rng) for t in range(DATES)))
    centers = [(0.1, 0.4), (0.4, 0.1), (0.3, 0.3)]
    x = np.concatenate([rng.normal(c, 0.05, size=(60, 2)) for c in centers])
    y = np.repeat(np.arange(K), 60)
    models = {
        "index": IndexClassifier.from_thresholds((-1.0, -0.05, 0.35, 1.0), SpectralIndexKind.NDVI),
        "gmm": fit_mixture_classifier([x[y == c] for c in range(K)], BANDS, components=2),
        "logistic": fit_logistic_classifier(x, y, K, BANDS),
        "external": ExternalPosteriorSource(K),
        "scaled": ScaledPosteriors(),
    }
    scales = [
        models["scaled"].frame_posterior(f) / f.external_posterior.reshape(K, -1)
        for f in stack.frames
    ]
    assert np.min(scales) == 2.0**-20 and np.max(scales) == 2.0**20
    return stack, models


def _tiled(monkeypatch, height, workers):
    monkeypatch.setattr(recursion, "_TILE_PIXELS", height * WIDTH)
    monkeypatch.setattr(recursion, "_workers", lambda: workers)


def _outputs(stack, model):
    trans = build_transition_model(K, 0.05)
    run = collect_stack(stack, model, trans, 0.8)
    sweep = epsilon_sweep(stack, {"m": model}, 0.8, GRID)
    labels = [r.labels for r in run.recursive_labels + run.instantaneous_labels]
    return (
        run.recursive_posteriors.tobytes(),
        run.instantaneous_posteriors.tobytes(),
        np.stack(labels).tobytes(),
        frame_accuracies(run, stack),
        sweep.recursive_accuracy.tobytes(),
        sweep.instantaneous_accuracy,
    )


class TestTilesMatchOneTile:
    """`classify_stack` cubes and labels and `epsilon_sweep` scores do not
    depend on the tile height or the worker count, and the scaled model's
    unnormalized evidence gives the external model's results."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("height", TILE_HEIGHTS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical(self, scene, monkeypatch, engine, height, workers):
        stack, models = scene
        _tiled(monkeypatch, HEIGHT, 1)
        expect = _outputs(stack, models["external" if engine == "scaled" else engine])
        _tiled(monkeypatch, height, workers)
        assert _outputs(stack, models[engine]) == expect

    def test_more_workers_than_cores_switching_every_microsecond(self, scene, monkeypatch):
        stack, models = scene
        _tiled(monkeypatch, HEIGHT, 1)
        expect = _outputs(stack, models["gmm"])
        _tiled(monkeypatch, 1, 2 * len(os.sched_getaffinity(0)) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _outputs(stack, models["gmm"])
        finally:
            sys.setswitchinterval(interval)
        assert got == expect

    @pytest.mark.parametrize("workers", [1, 2])
    def test_model_sees_row_bands_on_every_worker(self, scene, monkeypatch, workers):
        stack, models = scene
        seen = []

        class Recorder:
            num_classes = K

            def frame_posterior(self, frame):
                seen.append((frame.image.shape, frame.truth.shape, frame.date,
                             threading.get_ident()))
                return models["external"].frame_posterior(frame)

        _tiled(monkeypatch, 7, workers)
        classify_stack(stack, Recorder(), [build_transition_model(K, 0.05)], 0.8)
        assert len(seen) == DATES * 10
        assert {image for image, _, _, _ in seen} == {(7, WIDTH)}
        assert {truth for _, truth, _, _ in seen} == {(7, WIDTH)}
        for date in stack.dates:  # each date's call starts its own threads
            assert len({thread for _, _, day, thread in seen if day == date}) == workers


@pytest.mark.parametrize("workers", [1, 2])
def test_logistic_columns_match_the_pixel_matrix_route(scene, monkeypatch, workers):
    stack, models = scene
    corrected = bias_correct(stack, ReferenceRegion(x=1, y=2, width=4, height=5))
    assert corrected.frames[1].image.shift is not None
    pairs = []

    class Both:
        num_classes = K

        def frame_posterior(self, frame):
            got = models["logistic"].frame_posterior(frame)
            pairs.append((got, matrix_logistic_posterior(models["logistic"], frame)))
            return got

    _tiled(monkeypatch, 7, workers)
    classify_stack(corrected, Both(), [build_transition_model(K, 0.05)], 0.8)
    assert len(pairs) == DATES * 10
    for got, want in pairs:  # the engine's evidence, normalized as the step does
        assert_array_equal(normalize_columns(got), want, strict=True)


class ScaledPosteriors:
    """A third-party model with only ``frame_posterior``: the external
    posteriors with each pixel's column times a power of two from 2^-20
    to 2^20, read from its nir value so that any row window agrees."""

    num_classes = K

    def frame_posterior(self, frame):
        exponent = np.rint(frame.image.band("nir").ravel() * 80.0) - 20.0
        return frame.external_posterior.reshape(K, -1) * np.exp2(exponent)


class TestTileErrors:
    """A bad date raises the whole-frame error; `reset` makes the step usable again."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lowest_fault_over_all_tiles(self, scene, monkeypatch, workers):
        stack, _ = scene
        rng = np.random.default_rng(121)
        posterior = np.full((K, HEIGHT, WIDTH), 1.0 / K)
        posterior[1, 2, 3] = -0.5  # tile 0: rows 0-6
        posterior[0, 23, 4] = np.nan  # tile 3: rows 21-27
        frames = list(stack.frames)
        frames[2] = _frame(2, rng, posterior)
        bad = ImageStack(tuple(frames))
        trans = build_transition_model(K, 0.05)
        model = ExternalPosteriorSource(K)
        messages = []
        for height, count in ((HEIGHT, 1), (7, workers)):
            _tiled(monkeypatch, height, count)
            with pytest.raises(ValueError) as raised:
                classify_stack(bad, model, [trans], 0.8)
            assert type(raised.value) is ValueError
            messages.append(str(raised.value))
        assert messages[1] == messages[0]
        assert messages[0] == f"{date_of(2).isoformat()}: likelihood vector has non-finite entries"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_tile_leaves_every_tile(self, monkeypatch, workers):
        """The bad tile fails its date after every tile was visited, and
        after `reset` the good dates give a fresh step's states."""
        _tiled(monkeypatch, 7, workers)
        rng = np.random.default_rng(122)
        pixels = HEIGHT * WIDTH
        goods = [rng.uniform(0.01, 1.0, size=(K, pixels)) for _ in range(2)]
        bad = rng.uniform(0.01, 1.0, size=(K, pixels))
        bad[:, 5 * 7 * WIDTH + 2] = 0.0  # one all-zero pixel column in tile 5
        transitions = [build_transition_model(K, e) for e in GRID]

        def states(step):
            out, tiles = [], Tiles(step)
            for t, good in enumerate(goods):
                step(good, date_of(t), sink=tiles)
                out.append([a.tobytes() for a in (tiles.inst, step.post, tiles.labels)])
            return out

        def tile(rows):
            visited.append(rows.start)
            return bad[:, rows.start * WIDTH : rows.stop * WIDTH]

        fresh = states(FrameStep(transitions, 0.8, pixels, WIDTH))
        step, visited = FrameStep(transitions, 0.8, pixels, WIDTH), []
        step(goods[0], date_of(0))
        with pytest.raises(DegenerateLikelihoodError, match=r"^2021-01-15: all-zero"):
            step(tile, date_of(1))
        assert sorted(visited) == list(range(0, HEIGHT, 7))
        step.reset()
        assert states(step) == fresh


class TestTileWorkers:
    def test_workers_follow_the_cpu_affinity(self):
        assert recursion._workers() == len(os.sched_getaffinity(0))

    def test_error_waits_for_every_worker(self, monkeypatch):
        _tiled(monkeypatch, 1, 2)
        done = []

        def task(i):
            if i % 2 == 0:  # worker 0's tiles
                raise RuntimeError(f"tile {i}")
            time.sleep(0.05)
            done.append(i)

        raised = []

        def run():
            step = FrameStep([build_transition_model(K, 0.05)], 0.8, 4 * WIDTH, WIDTH)
            try:
                step.map(task)
            except RuntimeError as exc:
                raised.append((str(exc), sorted(done)))

        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert raised == [("tile 0", [1, 3])]

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_thread_outlives_a_call(self, scene, monkeypatch, fails):
        stack, models = scene

        class TileFailure:
            num_classes = K

            def frame_posterior(self, frame):
                # whole frames pass, so timing_bench fails inside its step
                if fails and frame.image.shape[0] < HEIGHT:
                    raise RuntimeError("tile")
                return models["external"].frame_posterior(frame)

        _tiled(monkeypatch, 7, 2)
        model = TileFailure()
        trans = build_transition_model(K, 0.05)
        calls = [
            lambda: classify_stack(stack, model, [trans], 0.8),
            lambda: epsilon_sweep(stack, {"m": model}, 0.8, GRID),
            lambda: timing_bench(stack, {"m": model}, trans, 0.8, 3),
        ]
        for call in calls:
            before = threading.active_count()
            if fails:
                with pytest.raises(RuntimeError, match="^tile$"):
                    call()
            else:
                call()
            assert threading.active_count() == before


# A 13-row scene of 6-pixel rows whose date 2 has no truth raster
RUN_HEIGHT, RUN_WIDTH, RUN_DATES, NO_TRUTH = 13, 6, 5, 2
RUN_SPEC = f"""\
classes = land, water
width = {RUN_WIDTH}
height = {RUN_HEIGHT}
frames = {RUN_DATES}
start_date = 2021-01-05
cadence_days = 10
seed = 11
bands = green, swir1
stat = land green 0.12 0.05
stat = land swir1 0.28 0.05
stat = water green 0.30 0.05
stat = water swir1 0.06 0.05
corrupt = 3 0.4
"""
RUN_CONFIG = f"""\
name = tiles
manifest = data/manifest.txt
classes = land, water
classifier = index
index = mndwi
thresholds = -1, 0.13, 1
epsilon = 0.05
lambda = 0.8
seed = 3
test_dates = {", ".join(date_of(t).isoformat() for t in range(RUN_DATES))}
"""


@pytest.fixture(scope="module")
def run_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("run-tiles")
    (root / "scene.txt").write_text(RUN_SPEC)
    manifest = generate_synthetic(parse_synth_spec(root / "scene.txt"), root / "data")
    tag = date_of(NO_TRUTH).isoformat()
    text = re.sub(rf"(?m)^(frame = {tag}) truth=\S+", r"\1", manifest.read_text())
    manifest.write_text(text)
    (root / "exp.cfg").write_text(RUN_CONFIG)
    return parse_config(root / "exp.cfg")


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _whole_frame_files(config):
    """The run's cubes, label rasters and error maps, built from whole-frame
    arrays and the container layouts, without the run's writer."""
    prepared = prepare_stacks(config)
    model = build_classifier(config, config.classifier, prepared.train)
    transition = build_transition_model(2, config.epsilon)
    run = collect_stack(prepared.test, model, transition, config.lam)
    label_head = b"RBCL" + struct.pack("<BIIB", 1, RUN_WIDTH, RUN_HEIGHT, 2)
    cube_head = b"RBCP" + struct.pack("<BIIBI", 1, RUN_WIDTH, RUN_HEIGHT, 2, RUN_DATES)
    files = {
        f"posteriors/{track}.cube":
            cube_head + getattr(run, f"{track}_posteriors").astype("<f4").tobytes()
        for track in ("recursive", "instantaneous")
    }
    for t, frame in enumerate(prepared.test.frames):
        tag, truth = frame.date.isoformat(), frame.load().truth
        for track in ("recursive", "instantaneous"):
            labels = getattr(run, f"{track}_labels")[t].labels
            files[f"labels/{track}_{tag}.lbl"] = label_head + labels.tobytes()
            if truth is not None:
                errors = (labels != truth.labels).astype(np.uint8)
                files[f"maps/error_{track}_{tag}.lbl"] = label_head + errors.tobytes()
    return files


def _run_tiled(monkeypatch, config, out, height, workers):
    monkeypatch.setattr(recursion, "_TILE_PIXELS", height * RUN_WIDTH)
    monkeypatch.setattr(recursion, "_workers", lambda: workers)
    run_experiment(config, out)
    return _tree(out)


class TestRunTreeMatchesWholeFrames:
    """`run` writes each tile's cube, label and error-map rows in place; its
    tree is byte-identical to one written from whole-frame arrays."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "height", [1, 4, RUN_HEIGHT], ids=["13-tiles", "ragged", "one-tile"]
    )
    def test_byte_identical(self, run_config, tmp_path, monkeypatch, height, workers):
        expect = _whole_frame_files(run_config)
        missing = [f"maps/error_{track}_{date_of(NO_TRUTH).isoformat()}.lbl"
                   for track in ("recursive", "instantaneous")]
        assert len(expect) == 2 + 4 * RUN_DATES - 2 and not set(missing) & set(expect)
        reference = _run_tiled(monkeypatch, run_config, tmp_path / "one", RUN_HEIGHT, 1)
        got = _run_tiled(monkeypatch, run_config, tmp_path / "tiled", height, workers)
        assert got == reference
        assert {name: got[name] for name in expect} == expect
        assert set(got) - set(expect) == {
            "run.txt", "metrics/accuracy.csv", "models/index.model"
        }

    def test_more_workers_than_cores_switching_every_microsecond(
        self, run_config, tmp_path, monkeypatch
    ):
        reference = _run_tiled(monkeypatch, run_config, tmp_path / "one", RUN_HEIGHT, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = 2 * len(os.sched_getaffinity(0)) + 1
            got = _run_tiled(monkeypatch, run_config, tmp_path / "tiled", 1, workers)
        finally:
            sys.setswitchinterval(interval)
        assert got == reference


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestRunFailureLeavesNothing:
    """A run whose model fails on its last date or on one tile of it, or
    whose tile write fails, leaves ``out`` as it was and no file
    descriptor open."""

    FAULTS = {
        "late-date": (RuntimeError, "^late date$"),
        "one-tile": (ValueError, "non-finite"),
        "tile-write": (DataError, "No space left on device"),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_out_and_descriptors_as_they_were(self, run_config, tmp_path, monkeypatch,
                                              fault, workers):
        out = tmp_path / "out"
        (out / "labels").mkdir(parents=True)
        (out / "labels" / "earlier.lbl").write_bytes(b"an earlier run's file")
        before = _tree(out)
        last, calls, writes = date_of(RUN_DATES - 1), [], []
        evaluate, pwrite = IndexClassifier.frame_posterior, os.pwrite

        def failing(self, frame):
            posterior = evaluate(self, frame)
            if frame.date == last:
                calls.append(frame.date)
                if fault == "late-date":
                    raise RuntimeError("late date")
                if fault == "one-tile" and len(calls) == 2:
                    posterior[0, 0] = np.nan
            return posterior

        def failing_write(fd, data, offset):
            writes.append(offset)
            # 2 cube headers, then per date 4 file headers and 32 tile rows
            if fault == "tile-write" and len(writes) == 45:  # a tile row on date 1
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return pwrite(fd, data, offset)

        monkeypatch.setattr(IndexClassifier, "frame_posterior", failing)
        monkeypatch.setattr(os, "pwrite", failing_write)
        monkeypatch.setattr(recursion, "_TILE_PIXELS", 4 * RUN_WIDTH)
        monkeypatch.setattr(recursion, "_workers", lambda: workers)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        error, message = self.FAULTS[fault]
        with pytest.raises(error, match=message):
            run_experiment(run_config, out)
        assert calls if fault != "tile-write" else len(writes) >= 45
        assert sorted(os.listdir("/proc/self/fd")) == descriptors
        assert _tree(out) == before
        assert sorted(os.listdir(out)) == ["labels"]
