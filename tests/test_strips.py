"""Strip-major recursion: each worker runs every date of its own row strips.

Outputs do not depend on the strip height or the worker count, a
windowed load reads exactly the window of a whole load, errors are the
ones a date-by-date pass raises first, and a run's open files do not
grow with its dates.
"""

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

from helpers import date_of
from satbayes import pipeline, recursion
from satbayes.classifiers import ExternalPosteriorSource
from satbayes.cli import main
from satbayes.config import parse_config
from satbayes.core import build_transition_model
from satbayes.errors import LoadError, ModelOutputError
from satbayes.experiment import prepare_stacks, run_experiment
from satbayes.pipeline import read_posterior_cube, write_posterior_cube
from satbayes.recursion import classify_stack
from satbayes.synth import generate_synthetic, parse_synth_spec

SPEC = """\
classes = land, water
width = {width}
height = {height}
frames = {frames}
start_date = 2021-01-05
cadence_days = 10
seed = 13
bands = green, swir1
stat = land green 0.12 0.05
stat = land swir1 0.28 0.05
stat = water green 0.30 0.05
stat = water swir1 0.06 0.05
corrupt = 3 0.4
"""

CONFIG = """\
name = strips
manifest = data/manifest.txt
classes = land, water
classifier = {classifier}
index = mndwi
thresholds = -1, 0.13, 1
epsilon = 0.05
lambda = 0.8
seed = 3
test_dates = {dates}
"""

# A 16x8 grid whose swir1 band is stored at half resolution, cropped to
# rows 1-13 and columns 1-6: 4-row strips of the 13 rows start at odd grid
# rows, so each reads native rows beyond its own; the bias region spans
# two 4-row strips, and date 2 has no truth
GRID_HEIGHT, GRID_WIDTH, DATES, NO_TRUTH = 16, 8, 5, 2
CROP_HEIGHT, CROP_WIDTH = 13, 6
EXTRA = "crop = 1 1 6 13\nbias_region = 0 2 3 4\n"
EPS = "0.001,0.01,0.05,0.1,0.3,0.5,0.7"
WORKERS = [1, 2, 2 * len(os.sched_getaffinity(0)) + 1]


def make_scene(root: Path, height: int, width: int, frames: int) -> Path:
    """A synthetic scene under ``root`` with a posterior cube per date; returns its manifest."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "scene.txt").write_text(SPEC.format(height=height, width=width, frames=frames))
    manifest = generate_synthetic(parse_synth_spec(root / "scene.txt"), root / "data")
    rng = np.random.default_rng(31)
    (root / "data" / "post").mkdir()
    lines = []
    for line in manifest.read_text().splitlines():
        if line.startswith("frame = "):
            tag = line.split()[2]
            cube = rng.uniform(0.01, 1.0, size=(1, 2, height, width))
            write_posterior_cube(root / "data" / "post" / f"{tag}.cube", cube)
            line += f" posterior=post/{tag}.cube"
        lines.append(line)
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def write_config(root: Path, classifier: str, extra: str = "", frames: int = DATES) -> Path:
    dates = ", ".join(date_of(t).isoformat() for t in range(frames))
    path = root / f"{classifier}.cfg"
    path.write_text(CONFIG.format(classifier=classifier, dates=dates) + extra)
    return path


@pytest.fixture(scope="module")
def cropped(tmp_path_factory):
    """The cropped, bias-corrected scene with a half-resolution band; returns its root."""
    root = tmp_path_factory.mktemp("strips")
    manifest = make_scene(root, GRID_HEIGHT, GRID_WIDTH, DATES)
    for t in range(DATES):
        path = root / "data" / "bands" / f"f{t:03d}_swir1.f32"
        plane = np.fromfile(path, dtype="<f4").reshape(GRID_HEIGHT, GRID_WIDTH)
        plane[::2, ::2].tofile(path)
    text = manifest.read_text().replace("swir1:10.0", "swir1:20.0")
    text = re.sub(rf"(?m)^(frame = {date_of(NO_TRUTH).isoformat()}) truth=\S+", r"\1", text)
    manifest.write_text(text)
    for classifier in ("index", "external"):
        write_config(root, classifier, EXTRA)
    return root


def _strips(monkeypatch, height: int, workers: int) -> None:
    monkeypatch.setattr(recursion, "_TILE_PIXELS", height * CROP_WIDTH)
    monkeypatch.setattr(recursion, "_workers", lambda: workers)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _outputs(root: Path, out: Path) -> dict[str, bytes]:
    """Both engines' run trees and the 7-epsilon sweep table."""
    for classifier in ("index", "external"):
        run_experiment(parse_config(root / f"{classifier}.cfg"), out / classifier)
    argv = ["sweep", "--config", str(root / "index.cfg"), "--eps", EPS, "--out", str(out / "sweep")]
    assert main(argv) == 0
    return _tree(out)


class TestStripsMatchOneStrip:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize(
        "height", [1, 4, CROP_HEIGHT], ids=["13-strips", "ragged", "one-strip"]
    )
    def test_byte_identical(self, cropped, tmp_path, monkeypatch, height, workers):
        _strips(monkeypatch, CROP_HEIGHT, 1)
        reference = _outputs(cropped, tmp_path / "one")
        assert "sweep/sweep.csv" in reference
        assert len([name for name in reference if name.startswith("index/maps/")]) == 8
        _strips(monkeypatch, height, workers)
        assert _outputs(cropped, tmp_path / "strips") == reference

    def test_each_shift_is_read_once_under_switching_workers(
        self, cropped, tmp_path, monkeypatch
    ):
        _strips(monkeypatch, CROP_HEIGHT, 1)
        reference = _outputs(cropped, tmp_path / "one")
        shifts, original = collections.Counter(), pipeline._shift

        def counting(frame, *args):
            shifts[frame.date] += 1
            time.sleep(0.01)  # other strips reach the date meanwhile
            return original(frame, *args)

        monkeypatch.setattr(pipeline, "_shift", counting)
        _strips(monkeypatch, 1, WORKERS[-1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _outputs(cropped, tmp_path / "strips")
        finally:
            sys.setswitchinterval(interval)
        assert got == reference
        # once per date of each bias-corrected stack: two runs and a sweep
        assert shifts == {date_of(t): 3 for t in range(1, DATES)}

    @pytest.mark.parametrize("height", [1, 4])
    def test_window_loads_equal_the_whole_load(self, cropped, height):
        test = prepare_stacks(parse_config(cropped / "external.cfg")).test
        for frame in test.frames:
            whole = frame.load()
            for start in range(0, CROP_HEIGHT, height):
                rows = slice(start, min(start + height, CROP_HEIGHT))
                got, want = frame.window(rows).load(), whole.window(rows)
                assert got.image.values().tobytes() == want.image.values().tobytes()
                shifts = [f.image.shift for f in (got, want)]
                assert (shifts[0] is None) == (shifts[1] is None) == (frame is test.frames[0])
                assert shifts[0] is None or shifts[0].tobytes() == shifts[1].tobytes()
                assert got.external_posterior.tobytes() == want.external_posterior.tobytes()
                if frame.date == date_of(NO_TRUTH):
                    assert got.truth is None and want.truth is None
                else:
                    assert got.truth.labels.tobytes() == want.truth.labels.tobytes()


# Error order: faults planted in strips of a 13x6 scene of 4-row strips
HEIGHT, WIDTH = 13, 6
MARK = 7.0  # a posterior value of MARK + s makes the model raise in strip s


class Marked:
    """The external engine, raising where a frame's posterior holds a mark."""

    num_classes = 2

    def frame_posterior(self, frame):
        marks = frame.external_posterior[frame.external_posterior >= MARK]
        if marks.size:
            raise RuntimeError(f"mark {marks.min():g}")
        return ExternalPosteriorSource(2).frame_posterior(frame)


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    root = tmp_path_factory.mktemp("plain")
    make_scene(root, HEIGHT, WIDTH, DATES)
    return root


def _plant(root: Path, kind: str, t: int, strip: int) -> tuple[type, str]:
    """Puts a fault of ``kind`` into the first row of ``strip`` on date ``t``;
    returns the error it raises alone."""
    row, tag = 4 * strip, date_of(t).isoformat()
    if kind in ("nan-green", "nan-swir1"):
        band = kind[4:]
        path = root / "data" / "bands" / f"f{t:03d}_{band}.f32"
        values = np.fromfile(path, dtype="<f4")
        values[row * WIDTH + 1] = np.nan
        values.tofile(path)
        return LoadError, f"{path}: band {band!r} on {tag} has non-finite values at scale 1"
    path = root / "data" / "post" / f"{tag}.cube"
    cube = read_posterior_cube(path)
    value, error, message = {
        "raise": (MARK + strip, RuntimeError, f"mark {MARK + strip:g}"),
        "nan-output": (np.nan, ModelOutputError, f"{tag}: likelihood vector has non-finite entries"),
        "negative": (-0.25, ModelOutputError, f"{tag}: likelihood vector has negative entries"),
    }[kind]
    cube[0, 1, row, 2] = value
    write_posterior_cube(path, cube)
    return error, message


def _raised(root: Path, monkeypatch, workers: int) -> tuple[type, str]:
    monkeypatch.setattr(recursion, "_TILE_PIXELS", 4 * WIDTH)
    monkeypatch.setattr(recursion, "_workers", lambda: workers)
    test = prepare_stacks(parse_config(write_config(root, "external"))).test
    with pytest.raises(Exception) as raised:
        classify_stack(test, Marked(), [build_transition_model(2, 0.05)], 0.8)
    return type(raised.value), str(raised.value)


KINDS = ["nan-green", "raise", "nan-output"]


class TestErrorOrderAcrossStrips:
    """The error is the one a date-by-date pass raises first: that of the
    earliest failing date, whatever its strip; on one date a reading error,
    then a model's exception, then the lowest-ranked bad output, each of
    the lowest strip."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("later", KINDS)
    @pytest.mark.parametrize("earlier", KINDS)
    def test_earlier_date_wins(self, plain, tmp_path, monkeypatch, earlier, later, workers):
        shutil.copytree(plain / "data", tmp_path / "data")
        want = _plant(tmp_path, earlier, 3, strip=3)  # the last strip's one row
        _plant(tmp_path, later, 4, strip=0)
        assert _raised(tmp_path, monkeypatch, workers) == want

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "high, low",
        [("nan-swir1", "nan-green"), ("nan-green", "raise"), ("nan-swir1", "nan-output"),
         ("raise", "raise"), ("raise", "nan-output"), ("nan-output", "negative")],
        ids=["read-read", "read-raise", "read-output", "raise-raise", "raise-output",
             "output-rank"],
    )
    def test_same_date_precedence(self, plain, tmp_path, monkeypatch, high, low, workers):
        """``high`` in strip 2 wins over ``low`` in strip 1 only by its kind or
        rank; of two faults of one kind, strip 1's wins."""
        shutil.copytree(plain / "data", tmp_path / "data")
        first = _plant(tmp_path, high, 3, strip=2)
        second = _plant(tmp_path, low, 3, strip=1)
        same = high == low or {high, low} == {"nan-swir1", "nan-green"}
        assert _raised(tmp_path, monkeypatch, workers) == (second if same else first)


@pytest.mark.skipif(sys.platform != "linux", reason="sets RLIMIT_NOFILE")
def test_open_files_do_not_grow_with_the_dates(tmp_path):
    """A 70-date run fits under a limit of 32 open descriptors and writes the
    tree of a run without a limit: no date's file stays open across strips."""
    frames = 70
    make_scene(tmp_path, 12, 16, frames)
    config = write_config(tmp_path, "index", frames=frames)
    src = str(Path(recursion.__file__).resolve().parents[1])
    script = (
        "import resource, sys\n"
        "if sys.argv[1] != 'unlimited':\n"
        "    limit = int(sys.argv[1])\n"
        "    resource.setrlimit(resource.RLIMIT_NOFILE, (limit, limit))\n"
        "from satbayes.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    for limit in ("32", "unlimited"):
        argv = ["run", "--config", str(config), "--out", str(tmp_path / f"out-{limit}")]
        child = subprocess.run(
            [sys.executable, "-c", script, limit, *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert child.returncode == 0, child.stderr
    limited, unlimited = _tree(tmp_path / "out-32"), _tree(tmp_path / "out-unlimited")
    assert len(limited) == 2 + 4 * frames + 3
    assert limited == unlimited
