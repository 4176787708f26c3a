"""Core type contracts: probability vectors, transition model."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from helpers import date_of, make_image, make_stack
from satbayes.core import (
    PROB_FLOOR,
    Frame,
    ImageStack,
    LabelRaster,
    MultibandImage,
    TransitionModel,
    build_transition_model,
    column_sums,
    floor_normalize_columns,
    normalize_columns,
    uniform_pmf,
    validate_pmf,
)
from satbayes.errors import (
    BoundsError,
    ConfigError,
    InvalidClassCountError,
    InvalidHyperparameterError,
    ShapeError,
)
from satbayes.pipeline import (
    ManifestFrame,
    ReferenceRegion,
    StackManifest,
    bias_correct,
    crop,
    load_stack,
    write_band_plane,
)


class TestProbabilityVectors:
    def test_uniform(self):
        assert_array_equal(uniform_pmf(4), np.full(4, 0.25))
        with pytest.raises(InvalidClassCountError):
            uniform_pmf(1)

    def test_validate_accepts_valid(self):
        out = validate_pmf(np.array([0.25, 0.75]))
        assert out.dtype == np.float64

    def test_validate_rejects(self):
        with pytest.raises(ValueError):
            validate_pmf(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            validate_pmf(np.array([0.5, np.nan]))
        with pytest.raises(ValueError):
            validate_pmf(np.array([0.5, 0.6]))
        with pytest.raises(ShapeError):
            validate_pmf(np.array(1.0))

    def test_floor_normalize_handles_zeros(self):
        out = floor_normalize_columns(np.array([[0.0], [2.0]]))
        assert np.all(out > 0.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_floor_normalize_keeps_ratios(self):
        out = floor_normalize_columns(np.array([[1.0], [3.0]]))
        assert_allclose(out[:, 0], [0.25, 0.75], atol=1e-15)

    def test_floor_normalize_rows(self):
        # one pixel per column: (1, 1) and (0, 5)
        out = floor_normalize_columns(np.array([[1.0, 0.0], [1.0, 5.0]]))
        assert_allclose(out.sum(axis=0), 1.0, atol=1e-15)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_floor_normalize_always_valid(self, k, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 5.0, size=(k, 3))
        out = floor_normalize_columns(raw)
        validate_pmf(out.T)


class TestColumnArithmetic:
    """The class-major column helpers equal their pixel-major forms bit for bit."""

    ROWS = [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 130, 300]

    @pytest.mark.parametrize("rows", ROWS)
    def test_column_sums_match_pixel_major_rows(self, rows):
        a = np.random.default_rng(rows).uniform(0.0, 1.0, size=(rows, 257))
        expect = np.ascontiguousarray(a.T).sum(axis=-1)
        assert_array_equal(column_sums(a), expect, strict=True)

    @pytest.mark.parametrize("rows", ROWS[1:])
    def test_floor_normalize_matches_pixel_major_rows(self, rows):
        rng = np.random.default_rng(50 + rows)
        a = rng.uniform(0.0, 1.0, size=(rows, 101))
        a[:, ::7] *= PROB_FLOOR * rng.uniform(0.0, 5.0, size=(rows, 15))
        expect = oracles.floor_normalize(np.ascontiguousarray(a.T)).T
        out = np.empty_like(a)
        assert floor_normalize_columns(a, out) is out
        assert_array_equal(out, expect)
        assert floor_normalize_columns(a) is a  # in place
        assert_array_equal(a, expect)

    @pytest.mark.parametrize("rows", [2, 3, 9])
    def test_normalize_columns(self, rows):
        a = np.random.default_rng(rows).uniform(0.5, 2.0, size=(rows, 40))
        rows_major = np.ascontiguousarray(a.T)
        sums = rows_major.sum(axis=-1)
        assert normalize_columns(a) is a  # in place
        assert_array_equal(a, (rows_major / sums[:, np.newaxis]).T)


class TestTransitionModel:
    def test_two_class_example(self):
        model = build_transition_model(2, 0.2)
        assert_array_equal(model.matrix, [[0.8, 0.2], [0.2, 0.8]])

    def test_half_is_symmetric(self):
        model = build_transition_model(2, 0.5)
        assert_array_equal(model.matrix, np.full((2, 2), 0.5))

    def test_three_class_split(self):
        model = build_transition_model(3, 0.04)
        off = model.matrix[~np.eye(3, dtype=bool)]
        assert_allclose(off, 0.02, atol=1e-15)
        assert_allclose(np.diag(model.matrix), 0.96, atol=1e-15)
        assert_allclose(model.matrix.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("eps", [0.001, 0.01, 0.1, 0.49])
    def test_rows_sum_to_one(self, k, eps):
        model = build_transition_model(k, eps)
        assert_allclose(model.matrix.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("k,eps", [(2, 0.2), (3, 0.04), (5, 0.3), (10, 0.49)])
    def test_matches_entrywise_oracle(self, k, eps):
        model = build_transition_model(k, eps)
        assert_allclose(model.matrix, oracles.symmetric_transition(k, eps), atol=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(InvalidHyperparameterError):
            build_transition_model(2, eps)

    def test_rejects_single_class(self):
        with pytest.raises(InvalidClassCountError):
            build_transition_model(1, 0.1)

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            TransitionModel(matrix=np.array([[0.9, 0.2], [0.2, 0.8]]), change_prob=0.2)
        with pytest.raises(ShapeError):
            TransitionModel(matrix=np.ones((2, 3)) / 3.0, change_prob=0.2)

    def test_matrix_is_read_only(self):
        model = build_transition_model(2, 0.2)
        with pytest.raises(ValueError):
            model.matrix[0, 0] = 0.0

    @given(
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_sums_property(self, k, eps):
        model = build_transition_model(k, eps)
        assert np.all(np.abs(model.matrix.sum(axis=1) - 1.0) <= 1e-12)
        assert model.matrix.min() >= 0.0


class TestLabelRaster:
    def test_roundtrip_values(self):
        arr = np.array([[0, 1], [2, 1]], dtype=np.uint8)
        raster = LabelRaster(labels=arr, num_classes=3)
        assert raster.shape == (2, 2)
        assert_array_equal(raster.labels, arr)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabelRaster(labels=np.array([[0, 3]], dtype=np.uint8), num_classes=3)

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            LabelRaster(labels=np.zeros(4, dtype=np.uint8), num_classes=2)


class TestMultibandImage:
    def test_band_accessor_and_pixel_layout(self):
        img = make_image(("green", "swir1"), [[[1.0, 2.0]], [[3.0, 4.0]]])
        assert_array_equal(img.band("green"), [[1.0, 2.0]])
        assert_array_equal(img.data[:, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_unknown_band(self):
        img = make_image(("green",), [[[1.0]]])
        with pytest.raises(ConfigError):
            img.band("red")

    def test_rejects_duplicate_bands(self):
        with pytest.raises(ConfigError):
            make_image(("green", "green"), [[[1.0]], [[2.0]]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            make_image(("green",), [[[np.nan]]])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_infinity(self, value):
        with pytest.raises(ValueError):
            make_image(("green",), [[[1.0, value]]])

    def test_pixels_are_read_only(self):
        img = make_image(("green",), [[[1.0]]])
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 2.0

    @pytest.mark.parametrize("source", ["crop", "bias_correct", "load_stack"])
    def test_pipeline_images_are_read_only(self, tmp_path, source):
        # the engines read frame pixels without checking them again
        planes = np.arange(32.0).reshape(2, 4, 4)
        region = ReferenceRegion(x=1, y=1, width=2, height=2)
        if source == "load_stack":
            write_band_plane(tmp_path / "g.f32", planes[0])
            frame = ManifestFrame(date=date_of(0), band_paths=(("green", "g.f32"),))
            manifest = StackManifest(
                width=4, height=4, scale=1.0, bands=(("green", 10.0),),
                frames=(frame,), base_dir=tmp_path,
            )
            image = load_stack(manifest).frames[0].image
        elif source == "bias_correct":
            stack = make_stack(("green", "swir1"), [planes, planes + 1.0])
            image = bias_correct(stack, region).frames[1].image
        else:
            image = crop(make_image(("green", "swir1"), planes), region)
        assert np.isfinite(image.values()).all()
        with pytest.raises(ValueError, match="read-only"):
            image.data[0, 0, 0] = 2.0
        if image.shift is not None:
            with pytest.raises(ValueError, match="read-only"):
                image.shift[0] = 2.0

    def test_caller_array_is_copied(self):
        a = np.ones((1, 2, 2))
        view = a[:]
        img = MultibandImage(("green",), a)
        view[0, 0, 0] = np.nan
        assert_array_equal(img.band("green"), np.ones((2, 2)))
        assert a.flags.writeable

    @pytest.mark.parametrize(
        "dtype, kept", [(np.float32, np.float32), (np.float64, np.float64),
                        (np.int16, np.float64), (np.float16, np.float64)]
    )
    def test_planes_keep_float32_and_widen_the_rest(self, dtype, kept):
        img = MultibandImage(("green",), np.full((1, 2, 3), 3, dtype=dtype))
        assert img.data.dtype == kept
        assert img.band("green").dtype == np.float64

    def test_values_are_scaled_then_shifted(self):
        data = np.array([[[0.1, -0.2]], [[0.3, 0.4]]], dtype=np.float32)
        img = MultibandImage(("green", "swir1"), data, scale=0.37, shift=[0.5, -1e-3])
        want = data.astype(np.float64) * 0.37 + np.array([0.5, -1e-3])[:, None, None]
        assert img.values().tobytes() == want.tobytes()
        assert img.band("swir1").tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError, match="scale"):
            MultibandImage(("green",), np.ones((1, 1, 1)), scale=scale)

    def test_rejects_wrong_shift_shape(self):
        with pytest.raises(ShapeError):
            MultibandImage(("green",), np.ones((1, 1, 1)), shift=[0.0, 1.0])

    @pytest.mark.parametrize(
        "scale, shift",
        [(1e308, None), (1.0, [np.inf]), (3e269, [1e308]), (3e269, [-1e308])],
    )
    def test_rejects_values_that_overflow(self, scale, shift):
        data = np.array([[[-3e38, 0.0, 3e38]]], dtype=np.float32)
        with pytest.raises(ValueError, match="^image has non-finite pixel values$"):
            MultibandImage(("green",), data, scale=scale, shift=shift)

    def test_empty_planes_are_accepted(self):
        img = MultibandImage(("green",), np.ones((1, 0, 3), np.float32), shift=[2.0])
        assert img.band("green").shape == (0, 3)


class TestFrame:
    def test_cloud_fraction_bounds(self):
        img = make_image(("green",), [[[1.0]]])
        with pytest.raises(ValueError):
            Frame(date=dt.date(2021, 1, 1), image=img, cloud_fraction=1.5)

    def test_truth_shape_checked(self):
        img = make_image(("green",), [[[1.0, 2.0]]])
        truth = LabelRaster(labels=np.zeros((2, 2), dtype=np.uint8), num_classes=2)
        with pytest.raises(ShapeError):
            Frame(date=dt.date(2021, 1, 1), image=img, truth=truth)

    def test_external_posterior_shape_checked(self):
        img = make_image(("green",), [[[1.0]]])
        with pytest.raises(ShapeError):
            Frame(
                date=dt.date(2021, 1, 1),
                image=img,
                external_posterior=np.ones((2, 3, 3)) / 2.0,
            )


class TestImageStack:
    def test_dates_must_increase(self):
        img = make_image(("green",), [[[1.0]]])
        frames = (
            Frame(date=dt.date(2021, 1, 2), image=img),
            Frame(date=dt.date(2021, 1, 1), image=img),
        )
        with pytest.raises(ValueError):
            ImageStack(frames=frames)

    def test_band_consistency(self):
        a = Frame(date=dt.date(2021, 1, 1), image=make_image(("green",), [[[1.0]]]))
        b = Frame(date=dt.date(2021, 1, 2), image=make_image(("red",), [[[1.0]]]))
        with pytest.raises(ShapeError):
            ImageStack(frames=(a, b))

    def test_subset_keeps_order(self):
        stack = make_stack(("green",), [[[[0.1]]], [[[0.2]]], [[[0.3]]]])
        sub = stack.subset([stack.dates[2], stack.dates[0]])
        assert sub.dates == (stack.dates[0], stack.dates[2])

    def test_subset_unknown_date(self):
        stack = make_stack(("green",), [[[[0.1]]]])
        with pytest.raises(BoundsError):
            stack.subset([dt.date(1999, 1, 1)])

    def test_empty_stack_geometry_raises(self):
        stack = ImageStack(frames=())
        assert len(stack) == 0
        with pytest.raises(ShapeError):
            _ = stack.shape
        with pytest.raises(ShapeError):
            _ = stack.bands
