"""Classifier contracts: index bank, mixtures, logistic model, persistence."""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
import re
import struct
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
import satbayes.classifiers as classifiers
from helpers import make_image, pixel_frame
from satbayes.classifiers import (
    EM_MAX_ITER,
    ExternalPosteriorSource,
    GaussianMixture,
    IndexClassifier,
    LogisticClassifier,
    MixtureClassifier,
    SpectralIndexKind,
    fit_logistic_classifier,
    fit_mixture_classifier,
    load_model,
    logistic_loss_grad,
    pseudo_labels,
    save_model,
    spectral_index,
    _logsumexp_columns,
)
from satbayes.core import Frame, floor_normalize_columns
from satbayes.errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    InvalidThresholdError,
    LoadError,
    NumericalError,
)

WATER_TAU = (-1.0, 0.13, 1.0)
DEFOREST_TAU = (-1.0, 0.65, 1.0)
LANDCOVER_TAU = (-1.0, -0.05, 0.35, 1.0)


# ------------------------------------------------------------------
# spectral indices and pseudo-labels
# ------------------------------------------------------------------


class TestSpectralIndex:
    def test_water_index_example(self):
        img = make_image(("green", "swir1"), [[[0.2]], [[0.1]]])
        values, flags = spectral_index(img, SpectralIndexKind.MNDWI)
        assert values[0, 0] == pytest.approx(0.3333, abs=1e-4)
        assert not flags.any()

    def test_vegetation_index_example(self):
        img = make_image(("nir", "red"), [[[0.4]], [[0.1]]])
        values, _ = spectral_index(img, SpectralIndexKind.NDVI)
        assert values[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_band_pairs(self):
        assert SpectralIndexKind.MNDWI.band_pair == ("green", "swir1")
        assert SpectralIndexKind.NDWI.band_pair == ("green", "nir")
        assert SpectralIndexKind.NDVI.band_pair == ("nir", "red")

    def test_zero_denominator_flagged(self):
        img = make_image(("green", "swir1"), [[[0.0, 0.2]], [[0.0, 0.1]]])
        values, flags = spectral_index(img, SpectralIndexKind.MNDWI)
        assert flags[0, 0] and not flags[0, 1]
        assert values[0, 0] == 0.0

    def test_range_for_nonnegative_reflectance(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(0.0, 1.0, size=(16, 16)) + 1e-9
        s = rng.uniform(0.0, 1.0, size=(16, 16)) + 1e-9
        values, _ = spectral_index(
            make_image(("green", "swir1"), [g, s]), SpectralIndexKind.MNDWI
        )
        assert values.min() >= -1.0 and values.max() <= 1.0

    def test_missing_band(self):
        img = make_image(("green", "red"), [[[0.2]], [[0.1]]])
        with pytest.raises(ConfigError):
            spectral_index(img, SpectralIndexKind.MNDWI)


class TestPseudoLabels:
    def test_interval_partition(self):
        img = make_image(
            ("green", "swir1"),
            [[[0.1, 0.3, 0.5]], [[0.3, 0.1, 0.1]]],  # indices -0.5, 0.5, 2/3
        )
        raster = pseudo_labels(img, SpectralIndexKind.MNDWI, WATER_TAU)
        assert_array_equal(raster.labels, [[0, 1, 1]])

    def test_lower_endpoint_is_class_zero(self):
        # index exactly -1 (green 0, positive swir)
        img = make_image(("green", "swir1"), [[[0.0]], [[0.4]]])
        raster = pseudo_labels(img, SpectralIndexKind.MNDWI, WATER_TAU)
        assert raster.labels[0, 0] == 0

    def test_threshold_value_joins_lower_class(self):
        classifier = IndexClassifier.from_thresholds(LANDCOVER_TAU, SpectralIndexKind.NDVI)
        # -0.05 sits at the boundary: (tau_0, tau_1] owns it
        tau = np.asarray(LANDCOVER_TAU)
        idx = np.searchsorted(tau, -0.05, side="left") - 1
        assert idx == 0
        assert classifier.num_classes == 3

    def test_out_of_range_clamps(self):
        # bias correction can push reflectance negative: index outside [-1, 1]
        img = make_image(("green", "swir1"), [[[0.3, -0.05]], [[-0.1, 0.3]]])
        values, _ = spectral_index(img, SpectralIndexKind.MNDWI)
        assert values[0, 0] > 1.0 and values[0, 1] < -1.0
        raster = pseudo_labels(img, SpectralIndexKind.MNDWI, WATER_TAU)
        assert_array_equal(raster.labels, [[1, 0]])


# ------------------------------------------------------------------
# index classifier
# ------------------------------------------------------------------


class TestIndexClassifier:
    @pytest.mark.parametrize(
        "tau,mu,sigma",
        [
            (WATER_TAU, [-0.435, 0.565], [0.565, 0.435]),
            (DEFOREST_TAU, [-0.175, 0.825], [0.825, 0.175]),
            (LANDCOVER_TAU, [-0.525, 0.149, 0.675], [0.475, 0.19, 0.325]),
        ],
    )
    def test_published_parameter_tables(self, tau, mu, sigma):
        classifier = IndexClassifier.from_thresholds(tau, SpectralIndexKind.MNDWI)
        assert_allclose(classifier.means, mu, atol=2e-2)
        assert_allclose(classifier.sigmas, sigma, atol=2e-2)

    @pytest.mark.parametrize("tau", [WATER_TAU, DEFOREST_TAU, LANDCOVER_TAU])
    def test_interval_formula_exact(self, tau):
        classifier = IndexClassifier.from_thresholds(tau, SpectralIndexKind.MNDWI)
        arr = np.asarray(tau)
        widths = np.diff(arr)
        assert_allclose(classifier.means, arr[:-1] + widths / 2.0, atol=1e-12)
        assert_allclose(classifier.sigmas, widths / 2.0, atol=1e-12)

    def test_posterior_at_class_center(self):
        classifier = IndexClassifier.from_thresholds(WATER_TAU, SpectralIndexKind.MNDWI)
        post = classifier.posterior_from_index(0.565)
        assert post[1] == pytest.approx(0.8615, abs=1e-3)

    def test_posterior_at_threshold(self):
        classifier = IndexClassifier.from_thresholds(WATER_TAU, SpectralIndexKind.MNDWI)
        post = classifier.posterior_from_index(0.13)
        assert post[1] == pytest.approx(0.565, abs=1e-3)

    def test_symmetric_thresholds_give_even_split(self):
        classifier = IndexClassifier.from_thresholds((-1.0, 0.0, 1.0), SpectralIndexKind.NDWI)
        assert_allclose(classifier.posterior_from_index(0.0), [0.5, 0.5], atol=1e-12)

    def test_posterior_matches_density_ratio(self):
        # independent route: explicit normal densities
        classifier = IndexClassifier.from_thresholds(WATER_TAU, SpectralIndexKind.MNDWI)
        y = 0.565
        dens = [
            oracles.gaussian_density(
                np.array([y]), np.array([m]), np.array([[s * s]])
            )
            for m, s in zip(classifier.means, classifier.sigmas)
        ]
        assert_allclose(
            classifier.posterior_from_index(y), np.array(dens) / sum(dens), atol=1e-12
        )

    def test_posterior_normalized_for_many_values(self):
        rng = np.random.default_rng(8)
        classifier = IndexClassifier.from_thresholds(LANDCOVER_TAU, SpectralIndexKind.NDVI)
        post = classifier.posterior_from_index(rng.uniform(-1.0, 1.0, size=1000))
        assert post.shape == (3, 1000)
        assert_allclose(post.sum(axis=0), 1.0, atol=1e-9)
        assert post.min() >= 0.0

    @pytest.mark.parametrize(
        "tau",
        [
            (-1.0, 1.0),                 # too short
            (0.0, 0.5, 1.0),             # does not start at -1
            (-1.0, 0.5, 0.9),            # does not end at 1
            (-1.0, 0.5, 0.5, 1.0),       # not strictly increasing
            (-1.0, 0.7, 0.3, 1.0),       # decreasing interior
        ],
    )
    def test_bad_thresholds_rejected(self, tau):
        with pytest.raises(InvalidThresholdError):
            IndexClassifier.from_thresholds(tau, SpectralIndexKind.MNDWI)

    def test_frame_posterior_layout(self):
        img = make_image(("green", "swir1"), [[[0.3, 0.1]], [[0.05, 0.3]]])
        classifier = IndexClassifier.from_thresholds(WATER_TAU, SpectralIndexKind.MNDWI)
        values, _ = spectral_index(img, SpectralIndexKind.MNDWI)
        from satbayes.core import Frame
        import datetime as dt

        frame = Frame(date=dt.date(2021, 1, 1), image=img)
        assert_allclose(
            classifier.frame_posterior(frame),
            classifier.posterior_from_index(values.ravel()),
            atol=1e-15,
        )


# ------------------------------------------------------------------
# Gaussian mixtures
# ------------------------------------------------------------------


def _log_density(mix, points):
    """Log mixture density at the rows of ``points`` (N, B), through the
    band-major kernel."""
    return mix._log_density(np.ascontiguousarray(points.T, dtype=np.float64))


class TestGaussianMixture:
    def test_density_at_mean_identity_cov(self):
        for dim in (1, 2, 3):
            mix = GaussianMixture(
                weights=np.array([1.0]),
                means=np.zeros((1, dim)),
                covariances=np.eye(dim)[np.newaxis],
            )
            expect = (2.0 * math.pi) ** (-dim / 2.0)
            density = np.exp(_log_density(mix, np.zeros((1, dim))))
            assert_allclose(density[0], expect, atol=1e-12)

    def test_density_matches_direct_sum(self):
        rng = np.random.default_rng(12)
        weights = np.array([0.3, 0.7])
        means = rng.normal(size=(2, 2))
        covs = np.stack([np.eye(2) * 0.5, np.array([[1.0, 0.3], [0.3, 0.8]])])
        mix = GaussianMixture(weights=weights, means=means, covariances=covs)
        points = rng.normal(size=(25, 2))
        direct = [
            oracles.mixture_density(p, weights, means, covs) for p in points
        ]
        assert_allclose(np.exp(_log_density(mix, points)), direct, atol=1e-12)


def _longdouble_log_density(mix, x):
    """Log mixture density at the rows of x, evaluated in np.longdouble
    by textbook Cholesky and forward substitution on centred pixels."""
    x = np.asarray(x, dtype=np.longdouble)
    b = x.shape[1]
    terms = []
    for w, mu, cov in zip(mix.weights, mix.means, mix.covariances):
        cov = cov.astype(np.longdouble)
        chol = np.zeros_like(cov)
        for i in range(b):
            for k in range(i + 1):
                s = cov[i, k] - np.sum(chol[i, :k] * chol[k, :k])
                chol[i, k] = np.sqrt(s) if i == k else s / chol[k, k]
        diff = x - mu.astype(np.longdouble)
        z = np.empty_like(diff)
        for i in range(b):
            z[:, i] = (diff[:, i] - np.sum(z[:, :i] * chol[i, :i], axis=1)) / chol[i, i]
        logdet = 2 * np.sum(np.log(np.diagonal(chol)))
        log_2pi = np.log(8 * np.arctan(np.longdouble(1)))
        maha = np.sum(z * z, axis=1)
        terms.append(np.log(np.longdouble(w)) - (b * log_2pi + logdet + maha) / 2)
    terms = np.stack(terms)
    top = terms.max(axis=0)
    return top + np.log(np.sum(np.exp(terms - top), axis=0))


class TestMixtureKernelAccuracy:
    """The mixture kernel keeps its precision on data far from the origin
    and, to a known limit, on components far apart."""

    @pytest.mark.parametrize("offset", [1e2, 1e4])
    def test_log_density_matches_longdouble(self, offset):
        # A precision factor applied to uncentred pixels cancels two
        # values near offset / spread and loses ~1e-10 at offset 1e4.
        rng = np.random.default_rng(90)
        spread = 0.05
        shape = rng.normal(size=(2, 3, 3))
        covs = spread**2 * (shape @ shape.transpose(0, 2, 1) / 3.0 + 0.5 * np.eye(3))
        mix = GaussianMixture(
            weights=np.array([0.4, 0.6]),
            means=offset + rng.normal(0.0, spread, size=(2, 3)),
            covariances=covs,
        )
        x = offset + rng.normal(0.0, spread, size=(600, 3))
        expect = _longdouble_log_density(mix, x).astype(np.float64)
        assert_allclose(_log_density(mix, x), expect, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("separation", [10.0, 100.0])
    def test_separated_components_match_longdouble(self, separation):
        # The features are centred at the mixture's mean, so at a
        # component's mean terms of about |z|² / 2 cancel, z the whitened
        # offset of that mean from the mixture's: here 0.08 and 0.18 times
        # separation². At a separation of 1000 the error reaches ~5e-11.
        rng = np.random.default_rng(94)
        spread = 0.05
        means = 0.3 + np.outer([0.0, separation * spread], np.ones(3) / math.sqrt(3.0))
        mix = GaussianMixture(
            weights=np.array([0.4, 0.6]),
            means=means,
            covariances=np.stack([spread**2 * np.eye(3)] * 2),
        )
        x = np.concatenate([mean + rng.normal(0.0, spread, size=(300, 3)) for mean in means])
        expect = _longdouble_log_density(mix, x).astype(np.float64)
        assert_allclose(_log_density(mix, x), expect, rtol=0.0, atol=1e-12)


class TestMixtureFit:
    def test_recovers_separated_means(self):
        rng = np.random.default_rng(21)
        a = rng.normal(0.0, 0.1, size=(400, 1))
        b = rng.normal(1.0, 0.1, size=(400, 1))
        model = fit_mixture_classifier([a, b], ("gray",), components=1, seed=5)
        assert abs(model.mixtures[0].means[0, 0] - 0.0) < 0.05
        assert abs(model.mixtures[1].means[0, 0] - 1.0) < 0.05

    def test_recovers_bimodal_class(self):
        rng = np.random.default_rng(22)
        lo = rng.normal(-1.0, 0.1, size=(300, 1))
        hi = rng.normal(1.0, 0.1, size=(300, 1))
        mixed = np.concatenate([lo, hi])
        rng.shuffle(mixed)
        other = rng.normal(5.0, 0.1, size=(600, 1))
        model = fit_mixture_classifier([mixed, other], ("gray",), components=2, seed=9)
        found = np.sort(model.mixtures[0].means[:, 0])
        assert_allclose(found, [-1.0, 1.0], atol=0.1)

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(23)
        x = rng.normal(0.3, 0.2, size=(200, 2))
        other = rng.normal(2.0, 0.2, size=(200, 2))
        model = fit_mixture_classifier([x, other], ("a", "b"), components=1, seed=1)
        mix = model.mixtures[0]
        assert_allclose(mix.means[0], x.mean(axis=0), atol=1e-9)
        centered = x - x.mean(axis=0)
        biased_cov = centered.T @ centered / x.shape[0]
        assert_allclose(mix.covariances[0], biased_cov + 1e-6 * np.eye(2), atol=1e-9)

    def test_loglik_trace_monotone(self):
        rng = np.random.default_rng(24)
        a = np.concatenate(
            [rng.normal(-1.0, 0.3, size=(150, 1)), rng.normal(1.0, 0.3, size=(150, 1))]
        )
        b = rng.normal(4.0, 0.3, size=(300, 1))
        model = fit_mixture_classifier([a, b], ("gray",), components=2, seed=2)
        for trace in model.ll_traces:
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs >= -1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(25)
        data = [rng.normal(0, 1, size=(100, 1)), rng.normal(3, 1, size=(100, 1))]
        m1 = fit_mixture_classifier(data, ("gray",), components=2, seed=7)
        m2 = fit_mixture_classifier(data, ("gray",), components=2, seed=7)
        for a, b in zip(m1.mixtures, m2.mixtures):
            assert_array_equal(a.means, b.means)
            assert_array_equal(a.covariances, b.covariances)
            assert_array_equal(a.weights, b.weights)

    def test_min_samples_enforced(self):
        rng = np.random.default_rng(26)
        # 2 components x 2 bands needs 40 samples; 39 must fail
        thin = rng.normal(size=(39, 2))
        fat = rng.normal(size=(100, 2))
        with pytest.raises(InsufficientDataError):
            fit_mixture_classifier([thin, fat], ("a", "b"), components=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("components", [1, 2])
    def test_non_finite_samples_are_data_error(self, components, bad):
        rng = np.random.default_rng(30)
        data = [rng.normal(0, 1, size=(100, 2)), rng.normal(3, 1, size=(100, 2))]
        data[1][40, 0] = bad
        with pytest.raises(
            DataError, match=r"^class 1: training samples contain non-finite values$"
        ):
            fit_mixture_classifier(data, ("a", "b"), components=components)

    def test_empty_class_rejected(self):
        rng = np.random.default_rng(28)
        with pytest.raises(InsufficientDataError):
            fit_mixture_classifier(
                [np.empty((0, 1)), rng.normal(size=(50, 1))], ("gray",), components=1
            )

    def test_frame_posterior_is_the_class_likelihood(self):
        # unnormalized: proportional, per pixel, to the uniform-prior posterior
        rng = np.random.default_rng(29)
        data = [rng.normal(0, 0.4, size=(120, 1)), rng.normal(2, 0.4, size=(120, 1))]
        model = fit_mixture_classifier(data, ("gray",), components=1, seed=0)
        pixels = rng.normal(1.0, 1.0, size=(30, 1))
        frame = _frame(("gray",), [pixels.reshape(5, 6)])
        lik = model.frame_posterior(frame)
        assert lik.min() >= 0.0
        assert lik.shape == (2, 30)
        planes = [frame.image.band("gray").ravel()]
        expect = np.stack([np.exp(mix._log_density(planes)) for mix in model.mixtures])
        assert_array_equal(lik, expect, strict=True)
        norm = lik / lik.sum(axis=0, keepdims=True)
        assert_allclose(floor_normalize_columns(lik), norm, atol=1e-12)

    def test_em_at_iteration_limit_warns_and_keeps_the_fit(self):
        # class 0 of this scene is still improving after EM_MAX_ITER iterations
        samples = _clustered_classes(np.random.default_rng(203), 1, (120, 205, 333))
        with pytest.warns(RuntimeWarning) as record:
            model = fit_mixture_classifier(samples, ("b0",), components=3, seed=3)
        assert [len(t) for t in model.ll_traces] == [EM_MAX_ITER, 36, 93]
        assert len(record) == 1
        assert str(record[0].message) == (
            f"class 0: EM stopped at the {EM_MAX_ITER}-iteration limit before "
            f"converging; final mean log-likelihood {model.ll_traces[0][-1]:.6g}"
        )

    def test_converged_em_is_silent(self):
        rng = np.random.default_rng(21)
        data = [rng.normal(0.0, 0.1, size=(400, 1)), rng.normal(1.0, 0.1, size=(400, 1))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_mixture_classifier(data, ("gray",), components=2, seed=5)

    def test_collinear_bands_are_numerical_error(self):
        # the second band doubles the first: at this scale the covariance
        # jitter is lost and the covariance is singular
        rng = np.random.default_rng(23)
        samples = []
        for center in (0.1, 0.3):
            band = rng.normal(center, 0.05, size=200) * 1e9
            samples.append(np.stack([band, 2.0 * band], axis=1))
        with pytest.raises(NumericalError, match=r"^class 0: mixture covariance is not positive definite"):
            fit_mixture_classifier(samples, ("green", "nir"), components=2, seed=0)


def _awkward_columns(rng, m, n=400):
    """(M, N) log terms with ties, -inf, all--inf, +inf and NaN columns."""
    a = rng.normal(0.0, 20.0, size=(m, n))
    a[:, :60] = np.round(a[:, :60] / 20.0)  # small integers: many ties
    if m >= 2:
        a[1, 60:80] = a[0, 60:80]  # 2-way tie at an arbitrary value
        a[0, 80:100] = -np.inf
    if m >= 3:
        a[2, 100:120] = a[1, 100:120] = a[0, 100:120]  # 3-way tie
    a[:, 120:130] = -np.inf
    a[m - 1, 130:140] = np.inf
    a[0, 140:145] = np.nan
    a[m - 1, 145:150] = -np.inf
    a[0, 145:150] = np.inf
    a[:, 150:155] = 1e308
    a[:, 155:160] = -1e308
    return a


LOGSUMEXP_ROWS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 130, 300]


def _logsumexp_columns_strict(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _logsumexp_columns(a)


class TestLogsumexpColumns:
    """`_logsumexp_columns` is the max-shift, about as accurate as scipy's logsumexp."""

    @pytest.mark.parametrize("m", LOGSUMEXP_ROWS)
    def test_non_finite_columns_equal_scipy(self, m):
        from scipy.special import logsumexp

        a = _awkward_columns(np.random.default_rng(m), m)
        got = _logsumexp_columns_strict(a)
        expect = logsumexp(np.ascontiguousarray(a.T), axis=1)
        bad = ~np.isfinite(expect)
        assert bad.sum() >= 20
        assert np.isfinite(got[~bad]).all()
        assert np.array_equal(got[bad], expect[bad], equal_nan=True)

    @pytest.mark.parametrize("m", LOGSUMEXP_ROWS)
    def test_finite_columns_as_accurate_as_scipy(self, m):
        # Error against a long-double max-shift: no more than scipy's own,
        # plus 2 ulp of the largest of 1, the column max and the result.
        # The floor of 1 is the rounding of the shifted sum, which is at
        # least 1: where the max is 0, scipy's log1p keeps bits below it.
        from scipy.special import logsumexp

        a = _awkward_columns(np.random.default_rng(m), m)
        fin = np.isfinite(logsumexp(np.ascontiguousarray(a.T), axis=1))
        a = a[:, fin]
        got = _logsumexp_columns_strict(a)
        expect = logsumexp(np.ascontiguousarray(a.T), axis=1)
        wide = a.astype(np.longdouble)
        wide_max = wide.max(axis=0)
        ref = np.log(np.sum(np.exp(wide - wide_max), axis=0)) + wide_max
        scale = np.maximum(np.maximum(np.abs(a.max(axis=0)), np.abs(got)), 1.0)
        slack = np.abs(expect - ref) + 2 * np.spacing(scale).astype(np.longdouble)
        assert np.all(np.abs(got - ref) <= slack)

    @pytest.mark.parametrize("m", LOGSUMEXP_ROWS)
    def test_columns_equal_the_max_shift_of_pixel_major_rows(self, m):
        a = _awkward_columns(np.random.default_rng(m), m)
        expect = oracles.max_shift_logsumexp(np.ascontiguousarray(a.T))
        assert_array_equal(_logsumexp_columns_strict(a), expect)
        assert_array_equal(
            _logsumexp_columns_strict(np.ascontiguousarray(a.T).T), expect
        )


def _clustered_classes(rng, num_bands, sizes):
    """Training pixels per class: each class a blend of three blobs."""
    samples = []
    for k, size in enumerate(sizes):
        centers = rng.normal(2.0 * k, 1.0, size=(3, num_bands))
        picks = rng.integers(3, size=size)
        samples.append(centers[picks] + rng.normal(0.0, 0.3, size=(size, num_bands)))
    return samples


# The mixture engine works in natural-parameter form, the oracles
# evaluate each Gaussian directly, so the two round differently. Stated
# tolerances, each a margin of 7x or more over the largest difference
# measured on these tests:
FIT_RTOL = 1e-12  # fitted parameters, relative to each array's largest entry
TRACE_RTOL = 1e-11  # mean log-likelihood traces, entry by entry
LOG_RTOL = 2e-13  # log likelihoods, densities and posteriors (absolute below 1)
# 9 bands and 9 components, whose fits hold components with covariance
# eigenvalues near COV_JITTER
WIDE_LOG_RTOL = 1e-10


def _assert_matches_reference(model, samples, components, seed):
    expect = oracles.reference_fit_mixtures(samples, components, seed)
    assert len(model.mixtures) == len(expect)
    for mix, trace, (weights, means, covs, ll) in zip(
        model.mixtures, model.ll_traces, expect
    ):
        assert len(trace) == len(ll)
        assert_allclose(trace, ll, rtol=TRACE_RTOL, atol=0.0)
        for got, want in [(mix.weights, weights), (mix.means, means), (mix.covariances, covs)]:
            assert_allclose(got, want, rtol=0.0, atol=FIT_RTOL * np.max(np.abs(want)))


def _assert_log_close(got, expect, rtol):
    """Densities or probabilities ``got`` equal ``expect`` in log space:
    exactly 0 where ``expect`` underflows to 0, elsewhere positive with
    logs within ``rtol`` (relative, and absolute for logs below 1)."""
    assert got.shape == expect.shape
    assert got.dtype == np.float64
    zero = expect == 0.0
    assert_array_equal(got[zero], 0.0)
    assert np.all(got[~zero] > 0.0)
    assert_allclose(np.log(got[~zero]), np.log(expect[~zero]), rtol=rtol, atol=rtol)


class TestClassMajorMatchesPixelMajor:
    """EM and mixture density match the reference oracles to the stated
    tolerances; the softmax loss equals its oracle bit for bit."""

    @pytest.mark.parametrize("seed", [0, 4, 11])
    @pytest.mark.parametrize("num_bands", [1, 2, 3])
    @pytest.mark.parametrize("components", [1, 2, 3])
    def test_fit_mixture_classifier(self, components, num_bands, seed):
        rng = np.random.default_rng(100 + seed)
        samples = _clustered_classes(rng, num_bands, (120, 205, 333))
        bands = tuple(f"b{i}" for i in range(num_bands))
        model = fit_mixture_classifier(samples, bands, components=components, seed=seed)
        _assert_matches_reference(model, samples, components, seed)

    @pytest.mark.parametrize("seed", [0, 4, 11])
    @pytest.mark.parametrize("num_bands", [1, 2, 3])
    @pytest.mark.parametrize("components", [1, 2, 3])
    def test_fit_mixture_classifier_in_blocks(self, monkeypatch, components, num_bands, seed):
        # 120, 205 and 333 samples make 2, 4 and 6 blocks of 64, each
        # with a remainder: the per-block sums match the reference at
        # the same tolerances and the same trace lengths
        monkeypatch.setattr(classifiers, "_FIT_BLOCK", 64)
        rng = np.random.default_rng(100 + seed)
        samples = _clustered_classes(rng, num_bands, (120, 205, 333))
        bands = tuple(f"b{i}" for i in range(num_bands))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_mixture_classifier(samples, bands, components=components, seed=seed)
        _assert_matches_reference(model, samples, components, seed)
        # trace lengths match the reference's: a class warns exactly when
        # its reference fit ran to the limit
        limited = [k for k, ll in enumerate(model.ll_traces) if len(ll) == EM_MAX_ITER]
        warned = [int(re.match(r"class (\d+): EM stopped", str(w.message))[1]) for w in caught]
        assert warned == limited

    def test_wide_mixture(self):
        # 9 bands and 9 components: numpy sums runs of 8 or more values
        # pairwise, not left to right.
        rng = np.random.default_rng(42)
        samples = _clustered_classes(rng, 9, (820, 905))
        bands = tuple(f"b{i}" for i in range(9))
        model = fit_mixture_classifier(samples, bands, components=9, seed=2)
        _assert_matches_reference(model, samples, 9, 2)

    @pytest.mark.parametrize(("components", "num_bands"), [(1, 1), (3, 3), (9, 9)])
    def test_likelihood(self, components, num_bands):
        rng = np.random.default_rng(43)
        needed = 10 * components * num_bands
        samples = _clustered_classes(rng, num_bands, (needed + 17, needed + 40))
        bands = tuple(f"b{i}" for i in range(num_bands))
        model = fit_mixture_classifier(samples, bands, components=components, seed=1)
        pixels = np.concatenate(
            [
                rng.normal(1.0, 2.0, size=(500, num_bands)),
                rng.normal(0.0, 40.0, size=(20, num_bands)),  # densities underflow
                model.mixtures[0].means,  # a component's own mean
            ]
        )
        rtol = WIDE_LOG_RTOL if num_bands == 9 else LOG_RTOL
        expect = oracles.pixel_major_likelihood(model, pixels).T
        assert (expect == 0.0).any()
        _assert_log_close(_posterior(model, pixels), expect, rtol)
        for mix in model.mixtures:
            assert_allclose(
                _log_density(mix, pixels),
                oracles.pixel_major_log_density(mix, pixels),
                rtol=rtol,
                atol=rtol,
            )

    @pytest.mark.parametrize("num_classes", [2, 3, 9])
    def test_logistic_loss_grad(self, num_classes):
        rng = np.random.default_rng(44 + num_classes)
        n, b = 700, 4
        aug = np.hstack([rng.normal(size=(n, b)), np.ones((n, 1))])
        onehot = np.zeros((n, num_classes))
        onehot[np.arange(n), rng.integers(num_classes, size=n)] = 1.0
        for scale in (0.0, 0.5, 30.0):
            w = rng.normal(scale=scale, size=num_classes * (b + 1))
            loss, grad, _ = logistic_loss_grad(w, aug, onehot, 1e-4)
            expect_loss, expect_grad = oracles.reference_logistic_loss_grad(w, aug, onehot, 1e-4)
            assert loss == expect_loss
            assert_array_equal(grad, expect_grad)


INDEX_TAUS = {
    2: WATER_TAU,
    3: LANDCOVER_TAU,
    9: (-1.0, -0.8, -0.55, -0.3, -0.1, 0.05, 0.3, 0.5, 0.77, 1.0),
}


def _index_values(classifier, rng):
    """Thresholds, class centers, values inside and outside [-1, 1], and
    values far enough out that every class density underflows to 0: at
    z = ±1.5e154 against each class z² overflows and (-0.5·z)·z does not."""
    return np.concatenate(
        [
            classifier.thresholds,
            classifier.means,
            rng.uniform(-1.0, 1.0, size=300),
            rng.uniform(-3.0, 3.0, size=40),
            [0.0, -0.0, -1.5, 1.5, -40.0, 40.0, 1e6],
            [1.4e154, -1.4e154, 2e154, 1e300, -1e300, np.inf, -np.inf],
            classifier.means + 1.5e154 * classifier.sigmas,
            classifier.means - 1.5e154 * classifier.sigmas,
        ]
    )


def _assert_index_posterior_pinned(classifier, probe):
    """`posterior_from_index` equals the pixel-major oracle bit for bit,
    and no warning escapes it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classifier.posterior_from_index(probe)
    with np.errstate(over="ignore"):  # the oracle's (-0.5·z)·z may overflow
        expect = oracles.pixel_major_index_posterior(classifier, probe)
    assert_array_equal(got, np.moveaxis(expect, -1, 0), strict=True)


def _frame(bands, planes, **side):
    return Frame(date=dt.date(2021, 1, 1), image=make_image(bands, planes), **side)


def _posterior(model, pixels):
    """An engine's ``frame_posterior`` at the rows of ``pixels`` (N, B)."""
    return model.frame_posterior(pixel_frame(model.bands, pixels))


class TestEngineOutputsMatchPixelMajor:
    """Index and logistic outputs equal the pixel-major oracles bit for
    bit; mixture outputs match theirs in log space to LOG_RTOL."""

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_index_posterior(self, k):
        classifier = IndexClassifier.from_thresholds(INDEX_TAUS[k], SpectralIndexKind.NDVI)
        values = _index_values(classifier, np.random.default_rng(50 + k))
        probes = [values, values[:340].reshape(17, 20)]
        probes += [float(v) for v in values[: 2 * k + 1]] + [np.float64(values[-1])]
        for probe in probes:
            _assert_index_posterior_pinned(classifier, probe)

    def test_index_posterior_where_z_squared_is_subnormal(self):
        # against the class whose mean is exactly 0, z = 2y and z² is
        # subnormal: z² · (-0.5) rounds twice, (-0.5·z)·z once, and on a
        # quarter of these values the two differ before exp
        classifier = IndexClassifier.from_thresholds(
            (-1.0, -0.5, 0.5, 1.0), SpectralIndexKind.NDVI
        )
        assert classifier.means[1] == 0.0
        values = np.concatenate([[1e-160, -1e-160, 5e-324], np.geomspace(1e-162, 1e-158, 40)])
        for probe in (values, 1e-160):
            _assert_index_posterior_pinned(classifier, probe)

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_index_frame_posterior(self, k):
        classifier = IndexClassifier.from_thresholds(INDEX_TAUS[k], SpectralIndexKind.NDVI)
        rng = np.random.default_rng(53 + k)
        nir, red = rng.uniform(0.0, 0.5, size=(2, 6, 7))
        nir[0, :3] = red[0, :3] = 0.0  # zero denominators
        nir[1, 0], red[1, 0] = 0.2, -0.2  # zero denominator, non-zero bands
        nir[1, 1], red[1, 1] = 0.3, -0.1  # index 2, outside [-1, 1]
        nir[1, 2], red[1, 2] = 0.3, 0.0  # index exactly 1
        frame = _frame(("nir", "red"), [nir, red])
        values, flags = spectral_index(frame.image, SpectralIndexKind.NDVI)
        assert flags.sum() == 4
        assert_array_equal(
            classifier.frame_posterior(frame),
            oracles.pixel_major_index_posterior(classifier, values.ravel()).T,
            strict=True,
        )

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_logistic_posterior(self, k):
        rng = np.random.default_rng(60 + k)
        b = 4
        pixels = rng.normal(0.2, 0.1, size=(500, b))
        for scale in (0.0, 0.5, 30.0):
            model = LogisticClassifier(
                bands=tuple(f"b{i}" for i in range(b)),
                weights=rng.normal(scale=scale, size=(k, b + 1)),
                feature_mean=rng.normal(0.2, 0.05, size=b),
                feature_std=rng.uniform(0.05, 0.2, size=b),
            )
            assert_array_equal(
                _posterior(model, pixels), oracles.pixel_major_softmax(model, pixels).T, strict=True
            )

    @pytest.mark.parametrize("k", [2, 3])
    def test_mixture_outputs(self, k):
        rng = np.random.default_rng(70 + k)
        samples = _clustered_classes(rng, 2, [90 + 30 * c for c in range(k)])
        model = fit_mixture_classifier(samples, ("a", "b"), components=2, seed=k)
        planes = rng.normal(2.0, 3.0, size=(2, 9, 11))
        planes[:, 0, :4] = 60.0  # every class density underflows
        frame = _frame(("a", "b"), planes)
        pixels = planes.reshape(2, -1).T
        expect = oracles.pixel_major_likelihood(model, pixels)
        assert (expect[:4] == 0.0).all()
        _assert_log_close(_posterior(model, pixels), expect.T, LOG_RTOL)
        _assert_log_close(model.frame_posterior(frame), expect.T, LOG_RTOL)
        _assert_log_close(
            floor_normalize_columns(model.frame_posterior(frame)),
            oracles.floor_normalize(expect).T,
            LOG_RTOL,
        )

    def test_wide_mixture_posterior(self):
        # 9 classes: numpy sums a row of 8 or more classes pairwise
        mixtures = tuple(
            GaussianMixture(np.ones(1), np.full((1, 1), 0.4 * c), np.full((1, 1, 1), 0.1))
            for c in range(9)
        )
        model = MixtureClassifier(bands=("a",), mixtures=mixtures)
        planes = np.random.default_rng(79).uniform(-1.0, 5.0, size=(1, 12, 15))
        planes[0, 0, :3] = 90.0  # every class density underflows
        frame = _frame(("a",), planes)
        expect = oracles.pixel_major_likelihood(model, planes.reshape(1, -1).T)
        assert (expect[:3] == 0.0).all()
        _assert_log_close(model.frame_posterior(frame), expect.T, LOG_RTOL)
        _assert_log_close(
            floor_normalize_columns(model.frame_posterior(frame)),
            oracles.floor_normalize(expect).T,
            LOG_RTOL,
        )

    def test_overflowing_features_have_density_zero(self):
        # Every value is finite, but a squared distance (or its product
        # with a precision entry) overflows float64; opposite signs would
        # give inf - inf in the log terms. No warning escapes.
        rng = np.random.default_rng(74)
        samples = _clustered_classes(rng, 2, (90, 120, 150))
        model = fit_mixture_classifier(samples, ("a", "b"), components=2, seed=1)
        pixels = rng.normal(2.0, 3.0, size=(40, 2))
        far = [(1e160, 0.2), (-1e160, 1e160), (1e160, 1e160), (3.0, -1e300), (1e154, -1e154)]
        pixels[: len(far)] = far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            likelihood = _posterior(model, pixels)
            posterior = floor_normalize_columns(likelihood.copy())
        assert_array_equal(likelihood[:, : len(far)], 0.0)
        assert_allclose(posterior[:, : len(far)], 1.0 / 3.0, rtol=1e-15)
        expect = oracles.pixel_major_likelihood(model, pixels[len(far) :])
        _assert_log_close(likelihood[:, len(far) :], expect.T, LOG_RTOL)

    def test_outputs_are_c_ordered_class_major_buffers(self):
        # what `FrameStep` reads best: (K, N), C-ordered float64
        rng = np.random.default_rng(80)
        bands = ("nir", "red")
        planes = rng.uniform(0.0, 0.5, size=(2, 5, 6))
        frame = _frame(bands, planes, external_posterior=np.full((3, 5, 6), 1.0 / 3.0))
        x, y = _blobs(rng, [(0.1, 0.4), (0.4, 0.1), (0.3, 0.3)], 60, spread=0.05)
        index = IndexClassifier.from_thresholds(LANDCOVER_TAU, SpectralIndexKind.NDVI)
        gmm = fit_mixture_classifier([x[y == c] for c in range(3)], bands, components=1)
        logistic = fit_logistic_classifier(x, y, 3, bands)
        outputs = {
            "index": index.frame_posterior(frame),
            "gmm": gmm.frame_posterior(frame),
            "logistic": logistic.frame_posterior(frame),
            "external": ExternalPosteriorSource(3).frame_posterior(frame),
        }
        for name, output in outputs.items():
            assert output.shape == (3, 30), name
            assert output.dtype == np.float64, name
            assert output.flags.c_contiguous, name


SCRATCH_BANDS = ("nir", "red")
SCRATCH_ENGINES = ["index", "gmm", "logistic"]


def _scratch_engine(name):
    """A fitted engine."""
    rng = np.random.default_rng(90)
    x, y = _blobs(rng, [(0.1, 0.4), (0.4, 0.1), (0.3, 0.3)], 60, spread=0.05)
    if name == "index":
        model = IndexClassifier.from_thresholds(LANDCOVER_TAU, SpectralIndexKind.NDVI)
    elif name == "logistic":
        model = fit_logistic_classifier(x, y, 3, SCRATCH_BANDS)
    else:
        model = fit_mixture_classifier(
            [x[y == c] for c in range(3)], SCRATCH_BANDS, components=2
        )
    return model


class TestFrameScratch:
    """No engine keeps frame scratch: each returns fresh C-ordered arrays
    and one instance can be shared between threads."""

    @pytest.mark.parametrize("name", SCRATCH_ENGINES)
    def test_consecutive_outputs_are_fresh(self, name):
        model = _scratch_engine(name)
        rng = np.random.default_rng(91)
        frames = [
            _frame(SCRATCH_BANDS, rng.uniform(0.0, 0.5, size=(2, 16, 16)))
            for _ in range(2)
        ]
        outputs = [model.frame_posterior(frame) for frame in frames]
        assert not np.shares_memory(outputs[0], outputs[1])
        assert "_scratch" not in vars(model)
        for frame, output in zip(frames, outputs):
            assert output.flags.c_contiguous
            fresh = dataclasses.replace(model)
            assert_array_equal(output, fresh.frame_posterior(frame), strict=True)

    @pytest.mark.parametrize("name", SCRATCH_ENGINES)
    def test_pixel_count_change_matches_fresh_instances(self, name):
        model = _scratch_engine(name)
        planes = np.random.default_rng(92).uniform(0.0, 0.5, size=(2, 16, 16))
        full = _frame(SCRATCH_BANDS, planes)
        crop = _frame(SCRATCH_BANDS, planes[:, 4:12, 4:12])
        for frame in (full, crop, full):
            fresh = dataclasses.replace(model)
            assert_array_equal(
                model.frame_posterior(frame), fresh.frame_posterior(frame), strict=True
            )

    @pytest.mark.parametrize("name", SCRATCH_ENGINES)
    def test_evaluation_leaves_the_instance_as_it_was(self, name):
        model = _scratch_engine(name)
        before = (repr(model), set(vars(model)))
        model.frame_posterior(_frame(SCRATCH_BANDS, np.full((2, 4, 4), 0.2)))
        assert (repr(model), set(vars(model))) == before

    @pytest.mark.parametrize("name", SCRATCH_ENGINES)
    def test_engine_shared_between_threads(self, name):
        # four threads, each on its own frame, switching every microsecond
        model = _scratch_engine(name)
        rng = np.random.default_rng(94)
        frames = [
            _frame(SCRATCH_BANDS, rng.uniform(0.0, 0.5, size=(2, 96, 96)))
            for _ in range(4)
        ]
        serial = [model.frame_posterior(frame) for frame in frames]
        start = threading.Barrier(len(frames), timeout=60)

        def evaluate(frame):
            start.wait()
            return [model.frame_posterior(frame) for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(frames)) as pool:
                futures = [pool.submit(evaluate, frame) for frame in frames]
                runs = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for expect, outputs in zip(serial, runs):
            for output in outputs:
                assert_array_equal(output, expect, strict=True)
        assert "_scratch" not in vars(model)

    @pytest.mark.parametrize("fit", ["gmm", "logistic"])
    def test_fit_scratch_is_freed_on_return(self, fit):
        rng = np.random.default_rng(93)
        x, y = _blobs(rng, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)], 40000)

        def run(x, y):
            if fit == "logistic":
                return fit_logistic_classifier(x, y, 3, ("a", "b"))
            samples = [x[y == c] for c in range(3)]
            return fit_mixture_classifier(samples, ("a", "b"), components=2)

        # imports and first-call caches stay outside the traced window; a
        # smaller warm-up fit leaves nothing of the right size to reuse
        run(x[::10], y[::10])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = run(x, y)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_kn_array = 3 * len(x) * 8
        assert peak - before > len(x) * 8  # the fit's work arrays are traced
        assert after - before <= one_kn_array
        if fit == "logistic":
            # features, one-hot, one probability array and the loss and
            # gradient temporaries: the accepted probabilities of the last
            # step are released before the next line search
            assert peak - before < 5.5 * one_kn_array
        assert model.num_classes == 3


# ------------------------------------------------------------------
# logistic classifier
# ------------------------------------------------------------------


def _blobs(rng, centers, count, spread=0.3):
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(center, spread, size=(count, len(center))))
        ys.append(np.full(count, label))
    return np.concatenate(xs), np.concatenate(ys).astype(np.intp)


class TestLogisticFit:
    def test_newton_failure_warns_and_keeps_the_fit(self, monkeypatch):
        import satbayes.classifiers as classifiers

        rng = np.random.default_rng(30)
        x, y = _blobs(rng, [(0.0, 0.0), (1.0, 0.5)], 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            converged = fit_logistic_classifier(x, y, 2, ("a", "b"))
        monkeypatch.setattr(classifiers, "LR_MAX_ITER", 2)
        with pytest.warns(
            RuntimeWarning, match=r"^logistic fit: Newton did not converge in 2 iterations"
        ) as record:
            model = fit_logistic_classifier(x, y, 2, ("a", "b"))
        assert len(record) == 1
        assert not np.array_equal(model.weights, converged.weights)

    def test_overflowing_statistics_name_the_band(self):
        rng = np.random.default_rng(33)
        x, y = _blobs(rng, [(0.0, 0.0), (1.0, 0.5)], 100)
        x[:, 1] *= 1e160  # finite, but its squared deviations overflow
        with pytest.raises(
            NumericalError,
            match=r"^band\(s\) b: standard deviation overflows float64$",
        ):
            fit_logistic_classifier(x, y, 2, ("a", "b"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_name_the_band(self, bad):
        # checked before the standard deviations, whose overflow is a
        # NumericalError
        rng = np.random.default_rng(33)
        x, y = _blobs(rng, [(0.0, 0.0, 0.0), (1.0, 0.5, 0.5)], 100)
        x[7, 1] = x[40, 2] = bad
        with pytest.raises(
            DataError,
            match=r"^band\(s\) b, c: training samples contain non-finite values$",
        ):
            fit_logistic_classifier(x, y, 2, ("a", "b", "c"))

    @pytest.mark.parametrize("bad", [0.5, 1.25, np.nan])
    def test_fractional_labels_rejected(self, bad):
        # astype(intp) would have read 0.5 as class 0
        rng = np.random.default_rng(38)
        x, y = _blobs(rng, [(0.0, 0.0), (1.0, 0.5)], 20)
        labels = y.astype(np.float64)
        labels[3] = bad
        with pytest.raises(DataError, match=r"^labels must be whole class indices"):
            fit_logistic_classifier(x, labels, 2, ("a", "b"))

    def test_whole_float_labels_fit_as_integers(self):
        rng = np.random.default_rng(38)
        x, y = _blobs(rng, [(0.0, 0.0), (1.0, 0.5)], 20)
        expect = fit_logistic_classifier(x, y, 2, ("a", "b"))
        model = fit_logistic_classifier(x, y.astype(np.float64), 2, ("a", "b"))
        assert_array_equal(model.weights, expect.weights)

    def test_separable_blobs_high_accuracy(self):
        rng = np.random.default_rng(31)
        x, y = _blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], 100)
        model = fit_logistic_classifier(x, y, 3, ("a", "b"))
        pred = np.argmax(_posterior(model, x), axis=0)
        assert np.mean(pred == y) >= 0.99

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        x, y = _blobs(rng, [(0.0, 0.0), (1.5, 1.0)], 40)
        aug = np.hstack([x, np.ones((x.shape[0], 1))])
        onehot = np.zeros((x.shape[0], 2))
        onehot[np.arange(x.shape[0]), y] = 1.0
        point = rng.normal(scale=0.5, size=2 * 3)

        def loss_only(w):
            return logistic_loss_grad(w, aug, onehot, 1e-4)[0]

        _, grad, _ = logistic_loss_grad(point, aug, onehot, 1e-4)
        numeric = oracles.central_difference_gradient(loss_only, point)
        assert_allclose(grad, numeric, rtol=1e-5, atol=1e-10)

    @pytest.mark.parametrize("scale", [0.5, 30.0])
    @pytest.mark.parametrize("num_classes", [2, 3, 9])
    def test_gradient_matches_finite_differences_where_the_shift_matters(
        self, num_classes, scale
    ):
        # at scale 30 the scores span hundreds, so each pixel's softmax
        # rests on the max shift
        rng = np.random.default_rng(39 + num_classes)
        n, b = 60, 3
        aug = np.hstack([rng.normal(size=(n, b)), np.ones((n, 1))])
        onehot = np.zeros((n, num_classes))
        onehot[np.arange(n), rng.integers(num_classes, size=n)] = 1.0
        point = rng.normal(scale=scale, size=num_classes * (b + 1))

        def loss_only(w):
            return logistic_loss_grad(w, aug, onehot, 1e-4)[0]

        _, grad, _ = logistic_loss_grad(point, aug, onehot, 1e-4)
        numeric = oracles.central_difference_gradient(loss_only, point)
        assert_allclose(grad, numeric, rtol=1e-5, atol=1e-6)

    def test_loss_value_matches_by_hand(self):
        rng = np.random.default_rng(33)
        x, y = _blobs(rng, [(0.0, 0.0), (2.0, 1.0)], 20)
        aug = np.hstack([x, np.ones((x.shape[0], 1))])
        onehot = np.zeros((x.shape[0], 2))
        onehot[np.arange(x.shape[0]), y] = 1.0
        w = rng.normal(scale=0.3, size=(2, 3))
        loss, _, _ = logistic_loss_grad(w.ravel(), aug, onehot, 1e-4)
        assert loss == pytest.approx(
            oracles.softmax_loss_by_hand(w, aug, y, 1e-4), abs=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(34)
        x, y = _blobs(rng, [(0.0, 0.0), (3.0, 1.0)], 80)
        probe = rng.normal(1.5, 1.0, size=(20, 2))
        base = fit_logistic_classifier(x, y, 2, ("a", "b"))
        perm = rng.permutation(x.shape[0])
        shuffled = fit_logistic_classifier(x[perm], y[perm], 2, ("a", "b"))
        assert_allclose(_posterior(base, probe), _posterior(shuffled, probe), atol=1e-8)

    def test_reordered_samples_give_the_same_labels(self):
        rng = np.random.default_rng(45)
        x, y = _blobs(rng, [(0.0, 0.0, 0.5), (1.5, 0.5, 0.0), (0.5, 1.5, 1.0)], 150, 0.6)
        bands = ("a", "b", "c")
        probe = rng.normal(0.7, 1.0, size=(400, 3))
        base = fit_logistic_classifier(x, y, 3, bands)
        perm = rng.permutation(x.shape[0])
        shuffled = fit_logistic_classifier(x[perm], y[perm], 3, bands)
        fortran = fit_logistic_classifier(np.asfortranarray(x), y, 3, bands)
        labels = np.argmax(_posterior(base, probe), axis=0)
        assert set(labels.tolist()) == {0, 1, 2}
        for model in (shuffled, fortran):
            assert_array_equal(np.argmax(_posterior(model, probe), axis=0), labels)

    def test_feature_shift_invariance(self):
        rng = np.random.default_rng(35)
        x, y = _blobs(rng, [(0.0, 0.0), (2.5, 2.5)], 60)
        probe = rng.normal(1.0, 1.0, size=(15, 2))
        base = fit_logistic_classifier(x, y, 2, ("a", "b"))
        shifted = fit_logistic_classifier(x + 5.0, y, 2, ("a", "b"))
        assert_allclose(_posterior(base, probe), _posterior(shifted, probe + 5.0), atol=1e-12)

    def test_zero_weights_give_uniform(self):
        model = LogisticClassifier(
            bands=("a", "b"),
            weights=np.zeros((3, 3)),
            feature_mean=np.zeros(2),
            feature_std=np.ones(2),
        )
        post = _posterior(model, np.random.default_rng(0).normal(size=(10, 2)))
        assert_allclose(post, 1.0 / 3.0, atol=1e-15)

    def test_posterior_matches_direct_softmax(self):
        rng = np.random.default_rng(36)
        x, y = _blobs(rng, [(0.0, 0.0), (3.0, 0.5)], 50)
        model = fit_logistic_classifier(x, y, 2, ("a", "b"))
        probe = rng.normal(1.0, 1.5, size=(12, 2))
        std = (probe - model.feature_mean) / model.feature_std
        scores = std @ model.weights[:, :-1].T + model.weights[:, -1]
        expect = np.exp(scores - scores.max(axis=1, keepdims=True))
        expect /= expect.sum(axis=1, keepdims=True)
        assert_allclose(_posterior(model, probe), expect.T, atol=1e-12)

    def test_single_class_labels_rejected(self):
        rng = np.random.default_rng(37)
        with pytest.raises(InsufficientDataError):
            fit_logistic_classifier(rng.normal(size=(30, 2)), np.ones(30, dtype=int), 2, ("a", "b"))

    def test_out_of_range_labels_rejected(self):
        rng = np.random.default_rng(38)
        labels = np.array([0, 1, 2] * 10)
        with pytest.raises(DataError):
            fit_logistic_classifier(rng.normal(size=(30, 2)), labels, 2, ("a", "b"))


def _softmax_point(rng, n, num_bands, num_classes, scale=0.5):
    """Augmented features (n, B+1), one-hot labels and random weights."""
    aug = np.hstack([rng.normal(size=(n, num_bands)), np.ones((n, 1))])
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), rng.integers(num_classes, size=n)] = 1.0
    w = rng.normal(scale=scale, size=num_classes * (num_bands + 1))
    return aug, onehot, w


class TestLogisticHessian:
    """The blocked one-GEMM Hessian against the per-pair oracle, its own
    symmetry and the gradient's central differences."""

    @pytest.mark.parametrize("num_classes", [2, 3, 9])
    def test_matches_per_pair_reference(self, num_classes):
        # three blocks and a remainder
        n = 3 * classifiers._FIT_BLOCK + 17
        aug, onehot, w = _softmax_point(np.random.default_rng(60 + num_classes), n, 3, num_classes)
        probs = logistic_loss_grad(w, aug, onehot, 1e-4)[2]
        got = classifiers._logistic_hessian(aug, probs, 1e-4)
        expect = oracles.reference_logistic_hessian(aug, probs, 1e-4)
        assert got.shape == expect.shape == (4 * num_classes, 4 * num_classes)
        assert_allclose(got, expect, rtol=0.0, atol=1e-14 * np.max(np.abs(expect)))
        assert_array_equal(got, got.T)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_matches_central_differences_of_the_gradient(self, monkeypatch, num_classes):
        monkeypatch.setattr(classifiers, "_FIT_BLOCK", 64)
        aug, onehot, w = _softmax_point(np.random.default_rng(70), 3 * 64 + 17, 2, num_classes)
        probs = logistic_loss_grad(w, aug, onehot, 1e-4)[2]
        hess = classifiers._logistic_hessian(aug, probs, 1e-4)
        for i in range(len(w)):
            def entry(point):
                return logistic_loss_grad(point, aug, onehot, 1e-4)[1][i]

            numeric = oracles.central_difference_gradient(entry, w)
            assert_allclose(hess[i], numeric, rtol=1e-5, atol=1e-8)

    def test_working_memory_stays_per_block(self):
        # the per-pair form held a (B+1, N) temporary: 5.1 MiB here
        aug, onehot, w = _softmax_point(np.random.default_rng(80), 131_072, 3, 3)
        probs = logistic_loss_grad(w, aug, onehot, 1e-4)[2]
        classifiers._logistic_hessian(aug[:100], probs[:, :100], 1e-4)  # first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            classifiers._logistic_hessian(aug, probs, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 2.5 * 2**20


# ------------------------------------------------------------------
# model persistence
# ------------------------------------------------------------------


class TestModelRoundTrip:
    def test_index_classifier(self, tmp_path):
        model = IndexClassifier.from_thresholds(LANDCOVER_TAU, SpectralIndexKind.NDVI)
        path = save_model(tmp_path / "sic.model", model)
        loaded = load_model(path)
        assert isinstance(loaded, IndexClassifier)
        assert loaded.kind == model.kind
        assert loaded.thresholds == model.thresholds
        assert_array_equal(loaded.means, model.means)
        assert_array_equal(loaded.sigmas, model.sigmas)

    def test_mixture_classifier(self, tmp_path):
        rng = np.random.default_rng(41)
        data = [rng.normal(0, 1, size=(80, 2)), rng.normal(4, 1, size=(80, 2))]
        model = fit_mixture_classifier(data, ("a", "b"), components=2, seed=3)
        loaded = load_model(save_model(tmp_path / "gmm.model", model))
        assert isinstance(loaded, MixtureClassifier)
        assert loaded.bands == model.bands
        probe = rng.normal(2, 2, size=(40, 2))
        assert_array_equal(_posterior(loaded, probe), _posterior(model, probe))
        for a, b in zip(loaded.mixtures, model.mixtures):
            assert_array_equal(a.weights, b.weights)
            assert_array_equal(a.means, b.means)
            assert_array_equal(a.covariances, b.covariances)

    def test_logistic_classifier(self, tmp_path):
        rng = np.random.default_rng(42)
        x, y = _blobs(rng, [(0.0, 0.0), (3.0, 3.0)], 50)
        model = fit_logistic_classifier(x, y, 2, ("a", "b"))
        loaded = load_model(save_model(tmp_path / "lr.model", model))
        assert isinstance(loaded, LogisticClassifier)
        assert_array_equal(loaded.weights, model.weights)
        assert_array_equal(loaded.feature_mean, model.feature_mean)
        assert_array_equal(loaded.feature_std, model.feature_std)
        probe = rng.normal(1.5, 1.0, size=(10, 2))
        assert_array_equal(_posterior(loaded, probe), _posterior(model, probe))

    def test_truncated_file_rejected(self, tmp_path):
        model = IndexClassifier.from_thresholds(WATER_TAU, SpectralIndexKind.MNDWI)
        path = save_model(tmp_path / "sic.model", model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 4])
        with pytest.raises(LoadError):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(LoadError):
            load_model(path)

    # a model file the engines cannot use is a LoadError naming the path

    def _assert_rejected(self, path, reason):
        with pytest.raises(LoadError, match="^" + re.escape(f"{path}: {reason}")):
            load_model(path)

    def test_index_thresholds_out_of_order_rejected(self, tmp_path):
        model = IndexClassifier(
            kind=SpectralIndexKind.NDVI,
            thresholds=(-1.0, 5.0, 1.0),
            means=np.array([2.0, 3.0]),
            sigmas=np.array([3.0, 2.0]),
        )
        path = save_model(tmp_path / "sic.model", model)
        self._assert_rejected(path, "thresholds must strictly increase")

    def test_index_nan_sigma_rejected(self, tmp_path):
        model = IndexClassifier.from_thresholds(WATER_TAU, SpectralIndexKind.MNDWI)
        model = dataclasses.replace(model, sigmas=np.array([np.nan, 0.435]))
        path = save_model(tmp_path / "sic.model", model)
        self._assert_rejected(path, "model file holds a non-finite value")

    def test_index_means_not_from_thresholds_rejected(self, tmp_path):
        model = IndexClassifier.from_thresholds(WATER_TAU, SpectralIndexKind.MNDWI)
        model = dataclasses.replace(model, means=model.means + 0.01)
        path = save_model(tmp_path / "sic.model", model)
        self._assert_rejected(path, "class means and sigmas do not match the thresholds")

    def test_mixture_nan_covariance_rejected(self, tmp_path):
        good = GaussianMixture(np.ones(1), np.zeros((1, 2)), np.eye(2)[np.newaxis])
        bad = GaussianMixture(np.ones(1), np.ones((1, 2)), np.full((1, 2, 2), np.nan))
        model = MixtureClassifier(bands=("a", "b"), mixtures=(good, bad))
        path = save_model(tmp_path / "gmm.model", model)
        self._assert_rejected(path, "model file holds a non-finite value")

    @pytest.mark.parametrize("case", ["negative_weight", "negative_covariance", "no_components"])
    def test_unusable_mixture_rejected(self, tmp_path, case):
        # each loaded before, and failed or warned only once evaluated
        eye = np.eye(2)[np.newaxis]
        good = GaussianMixture(np.ones(1), np.zeros((1, 2)), eye)
        bad, reason = {
            "negative_weight": (
                GaussianMixture(np.array([-1.0]), np.zeros((1, 2)), eye),
                "class 1 mixture weights must be > 0",
            ),
            "negative_covariance": (
                GaussianMixture(np.ones(1), np.zeros((1, 2)), -eye),
                "class 1 mixture covariance is not positive definite",
            ),
            "no_components": (
                GaussianMixture(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2, 2))),
                "class 1 mixture has no components",
            ),
        }[case]
        model = MixtureClassifier(bands=("a", "b"), mixtures=(good, bad))
        path = save_model(tmp_path / "gmm.model", model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._assert_rejected(path, reason)

    def test_logistic_nan_std_rejected(self, tmp_path):
        model = LogisticClassifier(
            bands=("a", "b"),
            weights=np.zeros((2, 3)),
            feature_mean=np.zeros(2),
            feature_std=np.array([1.0, np.nan]),
        )
        path = save_model(tmp_path / "lr.model", model)
        self._assert_rejected(path, "model file holds a non-finite value")

    def test_logistic_negative_std_rejected(self, tmp_path):
        model = LogisticClassifier(
            bands=("a", "b"),
            weights=np.zeros((2, 3)),
            feature_mean=np.zeros(2),
            feature_std=np.ones(2),
        )
        path = save_model(tmp_path / "lr.model", model)
        # feature_std is the file's last value
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", -1.0))
        self._assert_rejected(path, "feature_std entries must be > 0")
