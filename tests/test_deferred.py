"""Deferred frames: each date's band planes are read when the filter reaches it."""

from __future__ import annotations

import collections
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from satbayes import pipeline
from satbayes.cli import main
from satbayes.config import parse_config
from satbayes.core import DeferredImage, ImageStack, build_transition_model
from satbayes.classifiers import save_model
from satbayes.errors import DataError
from satbayes.evaluation import balanced_accuracy, timing_bench
from satbayes.experiment import build_classifier, prepare_stacks
from satbayes.pipeline import (
    ReferenceRegion,
    bias_correct,
    crop_stack,
    load_stack,
    open_stack,
    parse_manifest,
    read_label_raster,
)

from helpers import date_of
from oracles import gathered_classifier

# four bands, so a date's planes outweigh its truth and label rows
SPEC = """\
classes = land, water
width = {size}
height = {size}
frames = {frames}
start_date = 2021-01-05
cadence_days = 10
seed = 7
bands = green, swir1, red, nir
stat = land green 0.12 0.05
stat = land swir1 0.28 0.05
stat = land red 0.20 0.05
stat = land nir 0.30 0.05
stat = water green 0.30 0.05
stat = water swir1 0.06 0.05
stat = water red 0.05 0.02
stat = water nir 0.03 0.02
corrupt = 2 0.3
"""

BANDS = ("green", "swir1", "red", "nir")


def dates(*indices: int) -> str:
    return ", ".join(date_of(t).isoformat() for t in indices)


# date 0 trains, dates 2-6 are tested, date 1 is excluded and date 7 unused
CONFIG = f"""\
name = deferred
manifest = data/manifest.txt
classes = land, water
classifier = index
index = mndwi
thresholds = -1, 0.13, 1
epsilon = 0.05
lambda = 0.8
seed = 3
feature_bands = green, swir1, nir
train_dates = {dates(0)}
test_dates = {dates(2, 3, 4, 5, 6)}
exclude_dates = {dates(1)}
"""

# three training dates, the last two bias-corrected when a region is set
TRAIN_3 = CONFIG.replace(
    f"train_dates = {dates(0)}", f"train_dates = {dates(0, 3, 7)}"
).replace(f"test_dates = {dates(2, 3, 4, 5, 6)}", f"test_dates = {dates(2, 4, 5, 6)}")


def make_scene(root: Path, frames: int = 8, size: int = 16, config: str = CONFIG) -> Path:
    """A synthetic scene under ``root``; returns its config path."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "scene.txt").write_text(SPEC.format(size=size, frames=frames))
    assert main(["synth", "--spec", str(root / "scene.txt"), "--out", str(root / "data")]) == 0
    (root / "exp.cfg").write_text(config)
    return root / "exp.cfg"


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    return make_scene(tmp_path_factory.mktemp("deferred"))


@pytest.fixture
def reads(monkeypatch):
    """Counts `read_band_plane` calls per date index, over every band."""
    counts = collections.Counter()
    original = pipeline.read_band_plane

    def counting(path, *args, **kwargs):
        counts[int(re.search(r"f(\d+)_", Path(path).name).group(1))] += 1
        return original(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "read_band_plane", counting)
    return counts


@pytest.fixture
def truth_reads(monkeypatch):
    """Counts a frame's truth-raster reads (`pipeline._read_truth` calls) per date index."""
    counts = collections.Counter()
    original = pipeline._read_truth

    def counting(path, *args, **kwargs):
        counts[int(re.search(r"f(\d+)\.lbl", Path(path).name).group(1))] += 1
        return original(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_read_truth", counting)
    return counts


def per_date(**reads: int) -> dict[int, int]:
    """Expected plane reads per date index: ``d3=2`` means date 3 twice."""
    return {int(k[1:]): n * len(BANDS) for k, n in reads.items() if n}


def copy_scene(scene: Path, tmp_path: Path, config: str = CONFIG) -> Path:
    shutil.copytree(scene.parent / "data", tmp_path / "data")
    (tmp_path / "exp.cfg").write_text(config)
    return tmp_path / "exp.cfg"


class TestReadsPerDate:
    @pytest.mark.parametrize("classifier, trained", [("index", 0), ("logistic", 1)])
    def test_run_reads_each_test_date_once(self, scene, tmp_path, reads, classifier, trained):
        config = copy_scene(
            scene, tmp_path, CONFIG.replace("classifier = index", f"classifier = {classifier}")
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert dict(reads) == per_date(d0=trained, d2=1, d3=1, d4=1, d5=1, d6=1)

    def test_sweep_reads_each_test_date_once_per_algorithm(self, scene, tmp_path, reads):
        argv = ["sweep", "--config", str(scene), "--eps", "0.01,0.05,0.3",
                "--algos", "index,logistic", "--out", str(tmp_path / "sweep")]
        assert main(argv) == 0
        assert dict(reads) == per_date(d0=1, d2=2, d3=2, d4=2, d5=2, d6=2)

    def test_bias_correction_reads_only_the_reference_date_more(self, scene, tmp_path, reads):
        # and each corrected date's region rows once, for its shift
        config = copy_scene(
            scene, tmp_path, CONFIG + "crop = 2 1 12 14\nbias_region = 0 0 5 4\n"
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert dict(reads) == per_date(d0=1, d2=2, d3=2, d4=2, d5=2, d6=2)

    def test_ingest_reads_every_date_once(self, scene, reads):
        assert main(["ingest", "--manifest", str(scene.parent / "data" / "manifest.txt")]) == 0
        assert dict(reads) == {t: len(BANDS) for t in range(8)}


class TestTruthReads:
    """Only scoring reads truth rasters: training and `bench` read none."""

    @pytest.mark.parametrize("classifier", ["gmm", "logistic"])
    def test_train_reads_no_truth(self, scene, tmp_path, truth_reads, classifier):
        config = copy_scene(
            scene, tmp_path, TRAIN_3.replace("classifier = index", f"classifier = {classifier}")
        )
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert dict(truth_reads) == {}

    def test_bench_reads_no_truth(self, scene, tmp_path, truth_reads):
        argv = ["bench", "--config", str(scene), "--reps", "3",
                "--algos", "index,logistic", "--out", str(tmp_path / "bench")]
        assert main(argv) == 0
        assert dict(truth_reads) == {}

    @pytest.mark.parametrize("extra", ["", "bias_region = 0 0 5 4\n"])
    def test_run_reads_each_test_date_truth_once(self, scene, tmp_path, truth_reads, extra):
        config = copy_scene(
            scene, tmp_path, TRAIN_3.replace("classifier = index", "classifier = logistic") + extra
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert dict(truth_reads) == {2: 1, 4: 1, 5: 1, 6: 1}

    def test_truncated_truth_on_a_training_date(self, scene, tmp_path, capsys):
        config = copy_scene(
            scene, tmp_path, CONFIG.replace("classifier = index", "classifier = logistic")
        )
        truth = tmp_path / "data" / "truth" / "f000.lbl"  # date 0 trains
        truth.write_bytes(truth.read_bytes()[:6])
        for command in ("train", "run"):
            argv = [command, "--config", str(config), "--out", str(tmp_path / command)]
            assert main(argv) == 0
        assert "error" not in capsys.readouterr().err
        manifest = tmp_path / "data" / "manifest.txt"
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == f"error: {truth}: truncated label raster header\n"


def test_bench_times_no_file_read(scene, monkeypatch):
    # every plane read takes 50 ms; a 16x16 step or evaluation takes far less
    original = pipeline.read_band_plane

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "read_band_plane", slow)
    config = parse_config(scene)
    test = prepare_stacks(config).test
    model = build_classifier(config, "index", ImageStack(()))
    (record,) = timing_bench(test, {"index": model}, build_transition_model(2, 0.05), 0.8, 3)
    assert max(record.baseline_seconds, record.recursion_seconds, *record.step_seconds) < 0.05


class TestDeferredEqualsEager:
    @pytest.mark.parametrize(
        "extra",
        ["", "crop = 2 1 12 14\n", "bias_region = 3 2 6 5\n",
         "crop = 2 1 12 14\nbias_region = 0 3 7 4\n"],
        ids=["whole", "crop", "bias", "crop-bias"],
    )
    def test_loaded_frames_equal_the_eager_chain(self, scene, tmp_path, extra):
        config = parse_config(copy_scene(scene, tmp_path, CONFIG + extra))
        prepared = prepare_stacks(config)
        assert all(isinstance(fr.image, DeferredImage) for fr in prepared.test.frames)
        eager = load_stack(prepared.manifest)
        if config.crop is not None:
            eager = crop_stack(eager, config.crop)
        if config.bias_region is not None:
            eager = bias_correct(eager, config.bias_region)
        want = {fr.date: fr for fr in eager.frames}
        assert prepared.test.shape == eager.shape
        for deferred in prepared.test.frames:
            got, ref = deferred.load(), want[deferred.date]
            assert got.image.values().tobytes() == ref.image.values().tobytes()
            assert got.image.shift is None or ref.image.shift is not None
            if ref.image.shift is not None:
                assert got.image.shift.tobytes() == ref.image.shift.tobytes()
            assert got.truth.labels.tobytes() == ref.truth.labels.tobytes()
            assert deferred.image.data.tobytes() == ref.image.data.tobytes()

    def test_overflowing_shift_surfaces_when_the_date_is_read(self, tmp_path):
        # the shift itself is finite; one pixel outside the region overflows
        first, later = np.zeros((2, 2), "<f4"), np.zeros((2, 2), "<f4")
        first[0, 0] = later[1, 1] = 3e38
        first.tofile(tmp_path / "a.f32")
        later.tofile(tmp_path / "b.f32")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "width = 2\nheight = 2\nscale = 5e269\nbands = green:10\n"
            f"frame = {date_of(0).isoformat()} green=a.f32\n"
            f"frame = {date_of(1).isoformat()} green=b.f32\n"
        )
        stack = open_stack(parse_manifest(manifest))
        out = bias_correct(stack, ReferenceRegion(x=0, y=0, width=1, height=1))
        message = f"{date_of(1).isoformat()}: bias-corrected frame has non-finite values"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            out.frames[1].load()


# both routes hit EM's iteration limit on this scene's unimodal classes
@pytest.mark.filterwarnings("ignore:class .* EM stopped:RuntimeWarning")
@pytest.mark.parametrize("kind", ["gmm", "logistic"])
@pytest.mark.parametrize(
    "extra", ["", "crop = 2 1 12 14\nbias_region = 0 3 7 4\n"], ids=["whole", "crop-bias"]
)
def test_training_matrix_matches_the_concatenated_gather(scene, tmp_path, kind, extra):
    config = parse_config(copy_scene(scene, tmp_path, TRAIN_3 + extra))
    train = prepare_stacks(config).train
    assert len(train) == 3
    assert all(isinstance(fr.image, DeferredImage) for fr in train.frames)
    if extra:
        assert train.frames[-1].load().image.shift is not None
    got = save_model(tmp_path / "got.model", build_classifier(config, kind, train))
    want = save_model(tmp_path / "want.model", gathered_classifier(config, kind, train))
    assert got.read_bytes() == want.read_bytes()


class TestRunErrors:
    @staticmethod
    def _corrupt(tmp_path: Path, date: int, value: float) -> Path:
        plane = tmp_path / "data" / "bands" / f"f{date:03d}_swir1.f32"
        values = np.fromfile(plane, dtype="<f4")
        values[5] = value
        values.tofile(plane)
        return plane

    def test_nan_plane_on_a_test_date_exits_2_and_leaves_no_cube(self, scene, tmp_path, capsys):
        config = copy_scene(scene, tmp_path)
        plane = self._corrupt(tmp_path, 4, np.nan)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {plane}: band 'swir1' on {date_of(4).isoformat()} "
            "has non-finite values at scale 1\n"
        )
        assert list(out.iterdir()) == []  # the staged cubes went with the run

    @pytest.mark.parametrize("date", [1, 7])
    def test_nan_plane_on_an_unread_date_exits_0(self, scene, tmp_path, capsys, date):
        config = copy_scene(scene, tmp_path)
        self._corrupt(tmp_path, date, np.nan)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "error" not in capsys.readouterr().err

    def test_junk_truth_on_an_unread_date_is_never_read(self, scene, tmp_path, capsys):
        config = copy_scene(scene, tmp_path)
        truth = tmp_path / "data" / "truth" / "f007.lbl"
        truth.write_bytes(b"junk")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "error" not in capsys.readouterr().err
        manifest = tmp_path / "data" / "manifest.txt"
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == f"error: {truth}: truncated label raster header\n"

    def test_short_plane_exits_2_before_any_output(self, scene, tmp_path, capsys):
        config = copy_scene(scene, tmp_path)
        plane = tmp_path / "data" / "bands" / f"f{6:03d}_red.f32"
        plane.write_bytes(plane.read_bytes()[:-4])
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {plane}: expected {4 * 16 * 16} bytes for 16x16 float32, "
            f"got {4 * 16 * 16 - 4}\n"
        )
        assert not [p for p in out.rglob("*") if p.is_file()]


def test_cropped_bias_corrected_error_maps_use_the_truth_window(scene, tmp_path):
    # crop x y w h = 2 1 12 14: rows 1..14 and columns 2..13 of the 16x16 grid
    config = copy_scene(scene, tmp_path, CONFIG + "crop = 2 1 12 14\nbias_region = 0 0 5 4\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert len(list((out / "maps").iterdir())) == 2 * 5
    scores = {}
    for t in (2, 3, 4, 5, 6):
        truth = read_label_raster(tmp_path / "data" / "truth" / f"f{t:03d}.lbl")
        window = truth.labels[1:15, 2:14]
        tag = date_of(t).isoformat()
        for track in ("recursive", "instantaneous"):
            labels = read_label_raster(out / "labels" / f"{track}_{tag}.lbl").labels
            error = read_label_raster(out / "maps" / f"error_{track}_{tag}.lbl")
            assert (error.num_classes, error.shape) == (2, (14, 12))
            assert_array_equal(error.labels, labels != window)
            scores[tag, track] = balanced_accuracy(labels, window)
    rows = (out / "metrics" / "accuracy.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        tag, rec, inst = row.split(",")
        assert float(rec) == scores[tag, "recursive"]
        assert float(inst) == scores[tag, "instantaneous"]


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
def test_peak_rss_does_not_grow_with_the_planes_of_more_dates(tmp_path):
    # each run's peak RSS is read from its own process
    src = str(Path(pipeline.__file__).resolve().parents[1])
    rss = {}
    for frames in (6, 24):
        config = (
            "manifest = data/manifest.txt\nclasses = land, water\nclassifier = index\n"
            "index = mndwi\nthresholds = -1, 0.13, 1\nepsilon = 0.05\nseed = 3\n"
            f"test_dates = {dates(*range(frames))}\n"
        )
        path = make_scene(tmp_path / f"t{frames}", frames=frames, size=256, config=config)
        child = subprocess.Popen(
            [sys.executable, "-m", "satbayes.cli", "run", "--config", str(path),
             "--out", str(tmp_path / f"out{frames}")],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        assert child.returncode == 0
        rss[frames] = usage.ru_maxrss * 1024
    extra_plane_bytes = (24 - 6) * len(BANDS) * 256 * 256 * 4
    assert rss[24] - rss[6] < extra_plane_bytes / 2, (rss, extra_plane_bytes)


class TestManifestResolutions:
    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize(
        "bands, band, why",
        [
            ("green:nan, swir1:10, red:10, nir:10", "green",
             "resolution must be finite and > 0, got nan"),
            ("green:10, swir1:inf, red:10, nir:10", "swir1",
             "resolution must be finite and > 0, got inf"),
            ("green:1e-320, swir1:10, red:10, nir:10", "swir1",
             "resolution 10.0 over the finest resolution 1e-320 is not finite"),
        ],
        ids=["nan", "inf", "ratio-overflow"],
    )
    def test_non_finite_resolution_or_ratio_is_config_exit(
        self, scene, tmp_path, capsys, command, bands, band, why
    ):
        config = copy_scene(scene, tmp_path)
        manifest = tmp_path / "data" / "manifest.txt"
        text = re.sub(r"(?m)^bands = .*$", f"bands = {bands}", manifest.read_text())
        manifest.write_text(text)
        argv = {
            "ingest": ["ingest", "--manifest", str(manifest)],
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "out")],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {manifest}: band {band!r}: {why}\n"
