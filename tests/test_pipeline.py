"""Container round-trips, manifest handling, preprocessing contracts."""

from __future__ import annotations

import datetime as dt
import os
import re
import struct
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import date_of, make_stack
from oracles import whole_frame_bias_shifts, widened_band_values
from satbayes.core import Frame, ImageStack, LabelRaster, MultibandImage
from satbayes.errors import (
    BoundsError,
    ConfigError,
    DataError,
    LoadError,
    ShapeError,
    SplitError,
)
from satbayes.pipeline import (
    ManifestFrame,
    ReferenceRegion,
    StackManifest,
    bias_correct,
    container_writer,
    crop,
    crop_stack,
    filter_frames,
    load_stack,
    parse_manifest,
    read_band_plane,
    read_label_raster,
    read_posterior_cube,
    split_dates,
    write_band_plane,
    write_label_raster,
    write_manifest,
    write_posterior_cube,
)
from satbayes.textio import (
    open_output,
    read_bytes,
    read_text,
    staged,
    write_bytes,
    write_lines,
)


# ------------------------------------------------------------------
# binary containers
# ------------------------------------------------------------------


class TestBandPlane:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        plane = rng.uniform(0.0, 1.0, size=(6, 9)).astype(np.float32)
        path = write_band_plane(tmp_path / "b.f32", plane)
        back = read_band_plane(path, 6, 9)
        assert back.tobytes() == plane.tobytes()

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.f32"
        path.write_bytes(bytes(10))
        with pytest.raises(LoadError):
            read_band_plane(path, 4, 4)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(LoadError):
            read_band_plane(tmp_path / "absent.f32", 4, 4)


class TestLabelContainer:
    def test_round_trip(self, tmp_path):
        labels = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint8)
        raster = LabelRaster(labels=labels, num_classes=3)
        back = read_label_raster(write_label_raster(tmp_path / "r.lbl", raster))
        assert back.num_classes == 3
        assert_array_equal(back.labels, labels)

    def test_write_read_write_stable(self, tmp_path):
        labels = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        raster = LabelRaster(labels=labels, num_classes=2)
        p1 = write_label_raster(tmp_path / "a.lbl", raster)
        back = read_label_raster(p1)
        p2 = write_label_raster(tmp_path / "b.lbl", back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lbl"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(LoadError):
            read_label_raster(path)

    def test_truncated_payload(self, tmp_path):
        raster = LabelRaster(labels=np.zeros((4, 4), dtype=np.uint8), num_classes=2)
        path = write_label_raster(tmp_path / "t.lbl", raster)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(LoadError):
            read_label_raster(path)


class TestPosteriorCube:
    def test_round_trip_float32_payload(self, tmp_path):
        rng = np.random.default_rng(2)
        cube = rng.uniform(0.0, 1.0, size=(3, 2, 4, 5))
        cube /= cube.sum(axis=1, keepdims=True)
        path = write_posterior_cube(tmp_path / "c.cube", cube)
        back = read_posterior_cube(path)
        assert back.dtype == np.float64
        assert back.shape == cube.shape
        # storage is float32; a second write of the read-back is bit-stable
        path2 = write_posterior_cube(tmp_path / "c2.cube", back)
        assert path.read_bytes() == path2.read_bytes()
        assert_allclose(back, cube, atol=1e-7)

    def test_truncated_rejected(self, tmp_path):
        cube = np.full((1, 2, 2, 2), 0.5)
        path = write_posterior_cube(tmp_path / "t.cube", cube)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(LoadError):
            read_posterior_cube(path)


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestContainerWriter:
    """Blocks of (plane, pixel range) land at their offsets, in any order
    and from any thread; the file is closed however the block ends."""

    SHAPE = (3, 2, 4, 5)

    def cube(self) -> np.ndarray:
        return np.random.default_rng(4).uniform(0.0, 1.0, size=self.SHAPE)

    def test_bytes_match_the_container_layout(self, tmp_path):
        cube = self.cube()
        t, k, height, width = cube.shape
        expected = (
            b"RBCP" + struct.pack("<BIIBI", 1, width, height, k, t)
            + cube.astype("<f4").tobytes()
        )
        planes = cube.reshape(t * k, height * width)
        blocks = [(p, s) for p in range(0, t * k, 2) for s in range(0, 20, 5)]
        with container_writer(tmp_path / "w.cube", cube.shape) as write:
            # two row-tile workers, each writing every other block, last first
            workers = [
                threading.Thread(target=lambda mine: [
                    write(p, s, planes[p : p + 2, s : s + 5]) for p, s in reversed(mine)
                ], args=(blocks[w::2],))
                for w in range(2)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        assert (tmp_path / "w.cube").read_bytes() == expected
        assert write_posterior_cube(tmp_path / "c.cube", cube).read_bytes() == expected

    def test_label_raster_rows(self, tmp_path):
        labels = np.random.default_rng(5).integers(0, 3, size=(4, 5)).astype(np.uint8)
        expected = write_label_raster(tmp_path / "r.lbl", LabelRaster(labels, 3)).read_bytes()
        with container_writer(tmp_path / "w.lbl", labels.shape, 3) as write:
            write(0, 10, labels.ravel()[10:])
            write(0, 0, labels.ravel()[:10])
        assert (tmp_path / "w.lbl").read_bytes() == expected
        truth = np.zeros(20, dtype=np.uint8)
        with container_writer(tmp_path / "e.lbl", labels.shape, 2) as write:
            write(0, 0, labels.ravel() != truth)  # an error map's rows, as bools
        assert read_label_raster(tmp_path / "e.lbl").labels.tolist() == (labels != 0).tolist()

    @pytest.mark.parametrize(
        "plane, start, shape",
        [(0, 0, (2, 4, 5)), (5, 0, (2, 20)), (0, 15, (1, 6)), (-1, 0, (20,))],
        ids=["3-d", "past-the-last-plane", "past-the-last-pixel", "negative-plane"],
    )
    def test_block_outside_is_shape_error(self, tmp_path, plane, start, shape):
        path = tmp_path / "w.cube"
        with container_writer(path, self.SHAPE) as write:
            with pytest.raises(ShapeError, match=f"^{re.escape(str(path))}: .*does not fit"):
                write(plane, start, np.zeros(shape))
        assert path.stat().st_size == 18  # the header alone

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_error_inside_block_propagates_and_closes_the_file(self, tmp_path):
        path = tmp_path / "w.cube"
        before = _open_descriptors()
        with pytest.raises(KeyError, match="boom"):
            with container_writer(path, self.SHAPE) as write:
                assert _open_descriptors() == before + 1
                write(0, 0, self.cube()[0].reshape(2, 20))
                raise KeyError("boom")
        assert _open_descriptors() == before
        assert path.stat().st_size == 18 + 2 * 20 * 4  # what was written stays

    def test_unwritable_path_is_data_error(self, tmp_path):
        (tmp_path / "blocker").write_text("not a directory\n")
        path = tmp_path / "blocker" / "w.cube"
        with pytest.raises(DataError, match=str(path)):
            with container_writer(path, self.SHAPE):
                pytest.fail("the block must not run")


CONTAINERS = {
    "label raster": (
        read_label_raster,
        lambda p: write_label_raster(p, LabelRaster(np.zeros((2, 3), np.uint8), 2)),
    ),
    "posterior cube": (
        read_posterior_cube,
        lambda p: write_posterior_cube(p, np.full((1, 2, 2, 3), 0.5)),
    ),
}


class TestContainerHeaders:
    """Both containers reject a bad header with the same message shapes."""

    @pytest.mark.parametrize("what", sorted(CONTAINERS))
    def test_header_messages(self, tmp_path, what):
        read, write = CONTAINERS[what]
        blob = write(tmp_path / "ok.bin").read_bytes()
        cases = {
            "short": (blob[:7], f"truncated {what} header"),
            "magic": (b"XXXX" + blob[4:], f"not a {what} (bad magic)"),
            "version": (blob[:4] + b"\x07" + blob[5:], f"unsupported {what} version 7"),
        }
        for name, (data, message) in cases.items():
            path = tmp_path / f"{name}.bin"
            path.write_bytes(data)
            with pytest.raises(LoadError) as info:
                read(path)
            assert str(info.value) == f"{path}: {message}"


class TestFileBoundary:
    """textio maps OS and decoding failures to data errors naming the path."""

    def test_write_lines_creates_parents_and_returns_path(self, tmp_path):
        path = write_lines(tmp_path / "a" / "b" / "t.txt", ["x = 1", "y = 2"])
        assert path == tmp_path / "a" / "b" / "t.txt"
        assert path.read_bytes() == b"x = 1\ny = 2\n"

    def test_failure_inside_open_output_is_data_error(self, tmp_path):
        path = tmp_path / "full.bin"
        with pytest.raises(DataError, match="full.bin.*No space left"):
            with open_output(path) as fh:
                fh.write(b"partial")
                raise OSError(28, "No space left on device")

    def test_other_errors_pass_through_open_output(self, tmp_path):
        with pytest.raises(ShapeError):
            with open_output(tmp_path / "x.bin"):
                raise ShapeError("not an I/O failure")

    def test_write_below_a_file_is_data_error(self, tmp_path):
        (tmp_path / "f").write_text("")
        for path, write in ((tmp_path / "f" / "x.bin", lambda p: write_bytes(p, b"")),
                            (tmp_path / "f" / "d", lambda p: staged(p).__enter__())):
            with pytest.raises(DataError) as info:
                write(path)
            assert str(info.value).startswith(f"{path}: ")

    def test_staged_entries_move_whole_or_file_by_file(self, tmp_path):
        out = tmp_path / "out"
        (out / "keep").mkdir(parents=True)
        (out / "keep" / "old.txt").write_text("old")
        (out / "keep" / "same.txt").write_text("old")
        with staged(out) as stage:
            assert stage == out / ".partial" and stage.is_dir()
            write_bytes(stage / "keep" / "same.txt", b"new")
            write_bytes(stage / "fresh" / "a.txt", b"a")
            write_bytes(stage / "top.txt", b"t")
        tree = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert tree == {
            "keep/old.txt": b"old", "keep/same.txt": b"new", "fresh/a.txt": b"a", "top.txt": b"t"
        }
        assert not stage.exists()

    @pytest.mark.parametrize("stale", ["dir", "file"])
    def test_staged_failure_keeps_out_and_a_stale_stage_goes(self, tmp_path, stale):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.txt").write_text("a")
        if stale == "dir":
            (out / ".partial" / "d").mkdir(parents=True)
            (out / ".partial" / "d" / "junk").write_text("junk")
        else:
            (out / ".partial").write_text("junk")
        with pytest.raises(ShapeError, match="not an I/O failure"):
            with staged(out) as stage:
                assert list(stage.iterdir()) == []
                write_bytes(stage / "a.txt", b"b")
                raise ShapeError("not an I/O failure")
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [("a.txt", "a")]

    def test_read_failures_are_load_errors(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"\xff\xfe")
        with pytest.raises(LoadError, match="bad.txt.*utf-8"):
            read_text(tmp_path / "bad.txt")
        with pytest.raises(LoadError, match="absent"):
            read_bytes(tmp_path / "absent")
        with pytest.raises(LoadError):
            read_text(tmp_path)


# ------------------------------------------------------------------
# manifests
# ------------------------------------------------------------------


def _demo_manifest(tmp_path, scale=1.0):
    rng = np.random.default_rng(5)
    frames = []
    for t in range(3):
        paths = []
        for band, res_factor in (("green", 1), ("swir1", 2)):
            rel = f"f{t}_{band}.f32"
            side_h, side_w = 4 // res_factor, 6 // res_factor
            write_band_plane(
                tmp_path / rel, rng.uniform(0, 1, size=(side_h, side_w))
            )
            paths.append((band, rel))
        truth_rel = f"f{t}.lbl"
        write_label_raster(
            tmp_path / truth_rel,
            LabelRaster(rng.integers(0, 2, size=(4, 6)).astype(np.uint8), 2),
        )
        frames.append(
            ManifestFrame(
                date=date_of(t),
                band_paths=tuple(paths),
                cloud_fraction=0.1 * t,
                truth_path=truth_rel,
            )
        )
    return StackManifest(
        width=6,
        height=4,
        scale=scale,
        bands=(("green", 10.0), ("swir1", 20.0)),
        frames=tuple(frames),
        base_dir=tmp_path,
    )


class TestManifest:
    def test_write_parse_round_trip(self, tmp_path):
        manifest = _demo_manifest(tmp_path)
        path = write_manifest(manifest, tmp_path / "manifest.txt")
        back = parse_manifest(path)
        assert back.width == manifest.width
        assert back.height == manifest.height
        assert back.scale == manifest.scale
        assert back.bands == manifest.bands
        assert back.frames == manifest.frames

    def test_frames_sorted_by_date(self, tmp_path):
        manifest = _demo_manifest(tmp_path)
        path = tmp_path / "manifest.txt"
        text = write_manifest(manifest, path).read_text().splitlines()
        frame_lines = [ln for ln in text if ln.startswith("frame")]
        other = [ln for ln in text if not ln.startswith("frame")]
        path.write_text("\n".join(other + frame_lines[::-1]) + "\n")
        back = parse_manifest(path)
        assert [f.date for f in back.frames] == sorted(f.date for f in back.frames)

    def test_duplicate_date_rejected(self, tmp_path):
        manifest = _demo_manifest(tmp_path)
        path = write_manifest(manifest, tmp_path / "manifest.txt")
        text = path.read_text()
        dup = [ln for ln in text.splitlines() if ln.startswith("frame")][0]
        path.write_text(text + dup + "\n")
        with pytest.raises(DataError):
            parse_manifest(path)

    def test_missing_band_rejected(self, tmp_path):
        manifest = _demo_manifest(tmp_path)
        path = write_manifest(manifest, tmp_path / "manifest.txt")
        text = path.read_text().replace("green=f1_green.f32 ", "")
        path.write_text(text)
        with pytest.raises(DataError):
            parse_manifest(path)

    def test_resample_factors(self, tmp_path):
        manifest = _demo_manifest(tmp_path)
        assert manifest.resample_factors() == {"green": 1, "swir1": 2}

    def test_non_integer_factor_rejected(self, tmp_path):
        manifest = _demo_manifest(tmp_path)
        bad = StackManifest(
            width=manifest.width,
            height=manifest.height,
            scale=manifest.scale,
            bands=(("green", 10.0), ("swir1", 15.0)),
            frames=manifest.frames,
            base_dir=manifest.base_dir,
        )
        with pytest.raises(ConfigError):
            bad.resample_factors()


MANIFEST_TEXT = """\
width = 6
height = 4
scale = 1.0
bands = green:10.0, swir1:20.0
frame = 2021-01-05 green=a.f32 swir1=b.f32
"""


class TestManifestParsing:
    """Exact messages of the manifest parser; the line is named."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("bands = blue", "band entry needs name:resolution"),
            ("bands = blue:x", "key 'bands': not a number: 'x'"),
            ("frame = 2021-01-06 green", "frame token needs key=value, got 'green'"),
            ("frame = 2021-02-30 green=c.f32", "bad frame date '2021-02-30'"),
            ("frame =", "empty frame entry"),
            ("frame = 2021-01-06 cloud=lots", "key 'cloud': not a number: 'lots'"),
            ("bogus = 1", "unknown manifest key 'bogus'"),
        ],
    )
    def test_line_error_messages(self, tmp_path, extra, message):
        path = tmp_path / "manifest.txt"
        path.write_text(MANIFEST_TEXT + extra + "\n")
        with pytest.raises(ConfigError) as info:
            parse_manifest(path)
        assert str(info.value) == f"{path}:6: {message}"

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_missing_grid_size(self, tmp_path, key):
        path = tmp_path / "manifest.txt"
        path.write_text(MANIFEST_TEXT.replace(f"{key} =", f"# {key} ="))
        with pytest.raises(ConfigError) as info:
            parse_manifest(path)
        assert str(info.value) == f"{path}: manifest needs width and height"

    def test_single_valued_key_given_twice(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text(MANIFEST_TEXT + "width = 8\n")
        with pytest.raises(ConfigError) as info:
            parse_manifest(path)
        assert str(info.value) == f"{path}:6: duplicate key 'width'"

    def test_band_and_frame_lines_accumulate(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text(
            MANIFEST_TEXT.replace("bands = green:10.0, swir1:20.0",
                                  "bands = green:10.0\nbands = swir1:20.0")
            + "frame = 2021-01-06 cloud=0.5 truth=t.lbl posterior=p.cube "
            "green=c.f32 swir1=d.f32\n"
        )
        manifest = parse_manifest(path)
        assert manifest.bands == (("green", 10.0), ("swir1", 20.0))
        assert [fr.date for fr in manifest.frames] == [
            dt.date(2021, 1, 5), dt.date(2021, 1, 6)
        ]
        second = manifest.frames[1]
        assert second.cloud_fraction == 0.5
        assert second.truth_path == "t.lbl"
        assert second.posterior_path == "p.cube"
        assert second.band_paths == (("green", "c.f32"), ("swir1", "d.f32"))

    def test_scale_defaults_to_one(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text(MANIFEST_TEXT.replace("scale = 1.0\n", ""))
        assert parse_manifest(path).scale == 1.0


class TestLoadStack:
    def test_scale_applied(self, tmp_path):
        write_band_plane(tmp_path / "g.f32", np.full((2, 2), 2000.0))
        write_band_plane(tmp_path / "s.f32", np.full((2, 2), 1000.0))
        manifest = StackManifest(
            width=2,
            height=2,
            scale=1e-4,
            bands=(("green", 10.0), ("swir1", 10.0)),
            frames=(
                ManifestFrame(
                    date=date_of(0),
                    band_paths=(("green", "g.f32"), ("swir1", "s.f32")),
                ),
            ),
            base_dir=tmp_path,
        )
        stack = load_stack(manifest)
        assert stack.frames[0].image.band("green")[0, 0] == pytest.approx(0.2, abs=1e-4)

    def test_coarse_band_upsampled(self, tmp_path):
        manifest = _demo_manifest(tmp_path)
        stack = load_stack(manifest)
        assert stack.shape == (4, 6)
        swir = stack.frames[0].image.band("swir1")
        # nearest-neighbor blocks: 2x2 repeats of the native 2x3 grid
        assert_array_equal(swir[0::2, 0::2], swir[1::2, 1::2])

    def test_truth_attached(self, tmp_path):
        stack = load_stack(_demo_manifest(tmp_path))
        assert all(fr.truth is not None for fr in stack.frames)

    def test_external_posterior_single_date_enforced(self, tmp_path):
        manifest = _demo_manifest(tmp_path)
        cube = np.full((2, 2, 4, 6), 0.5)  # two dates: invalid per-frame file
        write_posterior_cube(tmp_path / "p.cube", cube)
        frames = tuple(
            ManifestFrame(
                date=f.date,
                band_paths=f.band_paths,
                cloud_fraction=f.cloud_fraction,
                truth_path=f.truth_path,
                posterior_path="p.cube",
            )
            for f in manifest.frames
        )
        bad = StackManifest(
            width=manifest.width,
            height=manifest.height,
            scale=manifest.scale,
            bands=manifest.bands,
            frames=frames,
            base_dir=manifest.base_dir,
        )
        with pytest.raises(LoadError):
            load_stack(bad)

    def test_persist_reload_bit_exact(self, tmp_path):
        # float32 planes in, float64 values out, float32 back to disk
        manifest = _demo_manifest(tmp_path)
        stack = load_stack(manifest)
        out = tmp_path / "copy"
        out.mkdir()
        for t, frame in enumerate(stack.frames):
            for band in stack.bands:
                write_band_plane(out / f"f{t}_{band}.f32", frame.image.band(band))
        manifest2 = StackManifest(
            width=manifest.width,
            height=manifest.height,
            scale=manifest.scale,
            bands=(("green", 10.0), ("swir1", 10.0)),  # already upsampled
            frames=tuple(
                ManifestFrame(date=f.date, band_paths=tuple(
                    (band, f"f{t}_{band}.f32") for band in stack.bands
                ))
                for t, f in enumerate(manifest.frames)
            ),
            base_dir=out,
        )
        again = load_stack(manifest2)
        for a, b in zip(stack.frames, again.frames):
            assert a.image.values().tobytes() == b.image.values().tobytes()

    def test_planes_stay_float32_and_corrections_share_them(self, tmp_path):
        stack = load_stack(_demo_manifest(tmp_path))
        height, width = stack.shape
        for frame in stack.frames:
            assert frame.image.data.dtype == np.float32
            assert frame.image.data.nbytes == len(stack.bands) * height * width * 4
        out = bias_correct(stack, ReferenceRegion(x=0, y=0, width=2, height=2))
        for before, after in zip(stack.frames, out.frames):
            assert np.shares_memory(before.image.data, after.image.data)

    def _two_band_frame(self, tmp_path, swir1, scale):
        np.ones((1, 3), dtype="<f4").tofile(tmp_path / "g.f32")
        np.asarray([swir1], dtype="<f4").tofile(tmp_path / "s.f32")
        frame = ManifestFrame(
            date=date_of(0), band_paths=(("green", "g.f32"), ("swir1", "s.f32"))
        )
        return StackManifest(
            width=3, height=1, scale=scale,
            bands=(("green", 10.0), ("swir1", 10.0)),
            frames=(frame,), base_dir=tmp_path,
        )

    @pytest.mark.parametrize(
        "swir1, scale",
        [
            ([1.0, 2.0, 3.0], 6e307),  # only the maximum overflows once scaled
            ([-3.0, 1.0, 2.0], 6e307),  # only the minimum does
            ([1.0, np.nan, 2.0], 1.0),
            ([1.0, np.inf, 2.0], 1.0),
            ([-np.inf, 1.0, 2.0], 1.0),
        ],
    )
    def test_non_finite_values_name_the_plane(self, tmp_path, swir1, scale):
        manifest = self._two_band_frame(tmp_path, swir1, scale)
        message = (
            f"{tmp_path / 's.f32'}: band 'swir1' on {date_of(0).isoformat()} "
            f"has non-finite values at scale {scale:g}"
        )
        with pytest.raises(LoadError, match=f"^{re.escape(message)}$"):
            load_stack(manifest)

    def test_extremes_just_below_overflow_load(self, tmp_path):
        manifest = self._two_band_frame(tmp_path, [-2.99, 0.0, 2.99], 6e307)
        values = load_stack(manifest).frames[0].image.band("swir1")
        assert np.isfinite(values).all() and values.max() > 1.79e308


# float32 values the widening must carry bit for bit
_SPECIAL_VALUES = np.array([-0.75, 0.0, -0.0, 1e-40, -1e-45, 0.3], dtype=np.float32)


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("cropped", [False, True])
@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("scale", [1.0, 0.37, 1e-4])
def test_band_values_match_the_float64_chain(tmp_path, scale, factor, cropped, corrected):
    rng = np.random.default_rng(11)
    factors = (1, factor)
    planes, entries = [], []
    for t in range(3):
        frame = []
        for band, f in zip(("green", "swir1"), factors):
            plane = rng.uniform(-1.0, 1.0, size=(8 // f, 12 // f)).astype(np.float32)
            plane[4 // f, :6] = _SPECIAL_VALUES
            write_band_plane(tmp_path / f"f{t}_{band}.f32", plane)
            frame.append(plane)
        planes.append(frame)
        entries.append(ManifestFrame(date=date_of(t), band_paths=tuple(
            (band, f"f{t}_{band}.f32") for band in ("green", "swir1")
        )))
    stack = load_stack(StackManifest(
        width=12, height=8, scale=scale,
        bands=(("green", 10.0), ("swir1", 10.0 * factor)),
        frames=tuple(entries), base_dir=tmp_path,
    ))
    crop = bias = None
    if cropped:
        region = ReferenceRegion(x=1, y=2, width=9, height=5)
        stack, crop = crop_stack(stack, region), region.slices()
    if corrected:
        region = ReferenceRegion(x=0, y=1, width=5, height=3)
        stack, bias = bias_correct(stack, region), region.slices()
    expected = widened_band_values(planes, scale, factors, crop, bias)
    for frame, values in zip(stack.frames, expected):
        for band, want in zip(stack.bands, values):
            got = frame.image.band(band)
            assert got.dtype == np.float64
            assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# ------------------------------------------------------------------
# preprocessing
# ------------------------------------------------------------------


class TestCrop:
    def test_values_match_slice(self):
        rng = np.random.default_rng(6)
        planes = [[rng.uniform(size=(8, 10)), rng.uniform(size=(8, 10))] for _ in range(2)]
        stack = make_stack(("green", "swir1"), planes)
        region = ReferenceRegion(x=2, y=1, width=5, height=4)
        cropped = crop_stack(stack, region)
        assert cropped.shape == (4, 5)
        assert_array_equal(
            cropped.frames[0].image.band("green"),
            stack.frames[0].image.band("green")[1:5, 2:7],
        )

    def test_out_of_bounds_rejected(self):
        stack = make_stack(("green",), [[np.zeros((4, 4))]])
        with pytest.raises(BoundsError):
            crop_stack(stack, ReferenceRegion(x=2, y=2, width=4, height=1))

    def test_truth_cropped_with_image(self):
        truth = np.arange(16, dtype=np.uint8).reshape(4, 4) % 2
        stack = make_stack(("green",), [[np.zeros((4, 4))]], truths=[truth])
        region = ReferenceRegion(x=1, y=0, width=2, height=3)
        cropped = crop_stack(stack, region)
        assert_array_equal(cropped.frames[0].truth.labels, truth[0:3, 1:3])


    def test_column_window_keeps_truth_and_posterior_contiguous(self):
        rng = np.random.default_rng(8)
        h, w = 5, 6
        frames = []
        for t in range(2):
            post = rng.uniform(0.1, 1.0, size=(3, h, w))
            frames.append(Frame(
                date=date_of(t),
                image=MultibandImage(("green", "swir1"), rng.uniform(size=(2, h, w))),
                truth=LabelRaster(rng.integers(0, 3, size=(h, w)), 3),
                external_posterior=post / post.sum(axis=0),
            ))
        stack = ImageStack(tuple(frames))
        region = ReferenceRegion(x=1, y=0, width=w - 2, height=h)
        cropped = crop_stack(stack, region)
        cols = slice(1, w - 1)
        for fr, cut in zip(stack.frames, cropped.frames):
            labels, post = cut.truth.labels, cut.external_posterior
            for got in (labels, post):
                assert got.flags.c_contiguous and not got.flags.writeable
            assert_array_equal(labels, fr.truth.labels[:, cols])
            assert_array_equal(post, fr.external_posterior[:, :, cols])
            assert (cut.date, cut.truth.num_classes) == (fr.date, 3)
            want = crop(fr.image, region)
            assert cut.image.bands == want.bands
            assert_array_equal(cut.image.data, want.data)
            assert_array_equal(cut.image.values(), want.values())


class TestBiasCorrect:
    def _drifting_stack(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(0.2, 0.6, size=(6, 6))
        planes = [[base], [base + 0.05], [base - 0.11]]
        return make_stack(("green",), planes)

    def test_reference_frame_unchanged(self):
        stack = self._drifting_stack()
        region = ReferenceRegion(x=0, y=0, width=6, height=6)
        out = bias_correct(stack, region)
        assert (
            out.frames[0].image.values().tobytes()
            == stack.frames[0].image.values().tobytes()
        )

    def test_region_means_aligned(self):
        stack = self._drifting_stack()
        region = ReferenceRegion(x=1, y=1, width=4, height=4)
        out = bias_correct(stack, region)
        ys, xs = region.slices()
        ref = out.frames[0].image.band("green")[ys, xs].mean()
        for frame in out.frames[1:]:
            assert frame.image.band("green")[ys, xs].mean() == pytest.approx(
                ref, abs=1e-12
            )

    def test_idempotent(self):
        stack = self._drifting_stack()
        region = ReferenceRegion(x=0, y=0, width=6, height=6)
        once = bias_correct(stack, region)
        twice = bias_correct(once, region)
        for a, b in zip(once.frames, twice.frames):
            assert_allclose(a.image.values(), b.image.values(), atol=1e-12)

    def test_constant_shift_removed(self):
        stack = self._drifting_stack()
        region = ReferenceRegion(x=0, y=0, width=6, height=6)
        out = bias_correct(stack, region)
        assert_allclose(
            out.frames[1].image.values(), out.frames[0].image.values(), atol=1e-12
        )

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_shift_names_the_date(self, sign):
        # the shift itself is finite; one pixel outside the region overflows
        first, later = np.zeros((2, 2)), np.zeros((2, 2))
        first[0, 0] = later[1, 1] = sign * 1e308
        stack = make_stack(("green",), [[first], [later]])
        region = ReferenceRegion(x=0, y=0, width=1, height=1)
        message = f"{date_of(1).isoformat()}: bias-corrected frame has non-finite values"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            bias_correct(stack, region)


    def test_overflowing_reference_names_the_first_date(self):
        # frame 0's region mean overflows: the fault is in the reference,
        # not in the later frame that would be shifted by it
        rng = np.random.default_rng(8)
        base = rng.uniform(0.2, 0.6, size=(6, 6))
        stack = make_stack(("green",), [[np.full((6, 6), 1e307)], [base], [base + 0.05]])
        region = ReferenceRegion(x=0, y=0, width=6, height=6)
        with pytest.raises(DataError, match=rf"^{date_of(0).isoformat()}: .*non-finite"):
            bias_correct(stack, region)


class TestBiasCorrectRegionMeans:
    """Region means over the region's rows equal those over the whole frame, bit for bit."""

    @staticmethod
    def _image(rng, bands, shape, scale, shifted):
        data = rng.uniform(-2.0, 3.0, size=(bands, *shape)).astype(np.float32)
        shift = rng.normal(0.0, 0.5, size=bands) if shifted else None
        return MultibandImage(tuple(f"b{i}" for i in range(bands)), data, scale, shift)

    @pytest.mark.parametrize("scale", [1.0, 0.37, 1e-4])
    @pytest.mark.parametrize("seed", range(8))
    def test_shifts_match_whole_frame_oracle(self, seed, scale):
        rng = np.random.default_rng(seed)
        for case in range(12):
            height, width = (int(v) for v in rng.integers(1, 160, size=2))
            region_height = int(rng.integers(1, height + 1))
            # full-width and single-column regions as well as random ones
            region_width = [width, 1, int(rng.integers(1, width + 1))][case % 3]
            region = ReferenceRegion(
                x=int(rng.integers(0, width - region_width + 1)),
                y=int(rng.integers(0, height - region_height + 1)),
                width=region_width,
                height=region_height,
            )
            bands = int(rng.integers(1, 4))
            images = [self._image(rng, bands, (height, width), scale, shifted=case % 2 == 1)
                      for _ in range(3)]
            stack = ImageStack(tuple(Frame(date_of(t), im) for t, im in enumerate(images)))
            out = bias_correct(stack, region)
            expected = whole_frame_bias_shifts(images, *region.slices())
            for frame, shift in zip(out.frames[1:], expected):
                assert frame.image.shift.tobytes() == shift.tobytes()


class TestFilterFrames:
    def _cloudy_stack(self):
        planes = [[np.full((2, 2), 0.1 * t)] for t in range(4)]
        return make_stack(("green",), planes, clouds=[0.0, 0.6, None, 0.2])

    def test_cloud_threshold(self):
        out = filter_frames(self._cloudy_stack(), max_cloud_fraction=0.5)
        assert [f.cloud_fraction for f in out.frames] == [0.0, None, 0.2]

    def test_unknown_cloud_passes(self):
        out = filter_frames(self._cloudy_stack(), max_cloud_fraction=0.0)
        assert [f.cloud_fraction for f in out.frames] == [0.0, None]

    def test_exclude_dates(self):
        stack = self._cloudy_stack()
        out = filter_frames(stack, exclude_dates=(stack.dates[2],))
        assert out.dates == stack.dates[:2] + stack.dates[3:]

    def test_unknown_excluded_date_rejected(self):
        with pytest.raises(DataError):
            filter_frames(self._cloudy_stack(), exclude_dates=(dt.date(1990, 1, 1),))

    def test_order_preserved(self):
        stack = self._cloudy_stack()
        out = filter_frames(stack, max_cloud_fraction=0.9)
        assert list(out.dates) == sorted(out.dates)

    def test_empty_result_warns(self):
        stack = self._cloudy_stack()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = filter_frames(stack, exclude_dates=stack.dates)
        assert len(out) == 0
        assert any("frames" in str(w.message) for w in caught)


class TestSplitDates:
    def test_split(self):
        stack = make_stack(("green",), [[np.zeros((2, 2))] for _ in range(4)])
        train, test = split_dates(stack, stack.dates[:2], stack.dates[2:])
        assert train.dates == stack.dates[:2]
        assert test.dates == stack.dates[2:]

    def test_overlap_rejected(self):
        stack = make_stack(("green",), [[np.zeros((2, 2))] for _ in range(3)])
        with pytest.raises(SplitError):
            split_dates(stack, stack.dates[:2], stack.dates[1:])

    def test_unknown_date_rejected(self):
        stack = make_stack(("green",), [[np.zeros((2, 2))] for _ in range(3)])
        with pytest.raises(SplitError):
            split_dates(stack, (dt.date(1990, 1, 1),), stack.dates[1:])

    def test_empty_side_rejected(self):
        stack = make_stack(("green",), [[np.zeros((2, 2))] for _ in range(3)])
        with pytest.raises(SplitError):
            split_dates(stack, (), stack.dates[1:])
