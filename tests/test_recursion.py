"""Recursion step contracts, dual-route oracles, and stack classification."""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from helpers import Tiles, collect_stack, date_of, make_stack, random_pmfs
from satbayes import recursion
from satbayes.classifiers import IndexClassifier, SpectralIndexKind, spectral_index
from satbayes.core import (
    PROB_FLOOR,
    TransitionModel,
    build_transition_model,
    uniform_pmf,
    validate_pmf,
)
from satbayes.errors import (
    ConfigError,
    DegenerateLikelihoodError,
    InvalidClassCountError,
    InvalidHyperparameterError,
    ShapeError,
)
from satbayes.evaluation import epsilon_sweep
from satbayes.recursion import (
    FrameStep,
    classify_stack,
    discriminative_update,
    generative_update,
    regularize,
)

T2 = build_transition_model(2, 0.2)


class TestPredictPrior:
    def test_worked_example(self):
        prior = oracles.predict_prior(np.array([0.9, 0.1]), T2)
        assert_allclose(prior, [0.74, 0.26], atol=1e-15)

    @pytest.mark.parametrize("eps", [0.001, 0.2, 0.49])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_uniform_is_stationary(self, k, eps):
        model = build_transition_model(k, eps)
        prior = oracles.predict_prior(uniform_pmf(k), model)
        assert_allclose(prior, uniform_pmf(k), atol=1e-15)

    def test_preserves_normalization_batch(self):
        rng = np.random.default_rng(11)
        batch = random_pmfs(rng, 50, 3)
        prior = oracles.predict_prior(batch, build_transition_model(3, 0.3))
        assert_allclose(prior.sum(axis=1), 1.0, atol=1e-12)
        assert prior.min() >= 0.0


class TestGenerativeUpdate:
    def test_worked_example(self):
        post = generative_update(np.array([0.3, 0.7]), np.array([0.9, 0.1]), T2)
        # exact: [0.3*0.74, 0.7*0.26] / 0.404 = [111/202, 91/202]
        assert_allclose(post, [111.0 / 202.0, 91.0 / 202.0], atol=1e-14)
        assert_allclose(post, [0.5495, 0.4505], atol=1e-4)

    def test_likelihood_scale_invariance(self):
        lik = np.array([0.3, 0.7])
        prev = np.array([0.9, 0.1])
        a = generative_update(lik, prev, T2)
        b = generative_update(lik * 37.5, prev, T2)
        assert_allclose(a, b, atol=1e-15)

    def test_zero_likelihood_class(self):
        post = generative_update(np.array([0.0, 0.5]), np.array([0.5, 0.5]), T2)
        assert post[0] == pytest.approx(0.0, abs=1e-280)
        assert post[1] == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateLikelihoodError):
            generative_update(np.array([0.0, 0.0]), np.array([0.5, 0.5]), T2)

    def test_chain_matches_path_enumeration(self):
        # T=5, K=2: chained steps vs brute force over every label path
        rng = np.random.default_rng(5)
        model = build_transition_model(2, 0.15)
        liks = [rng.uniform(0.05, 1.0, size=2) for _ in range(5)]
        state = uniform_pmf(2)
        for lik in liks:
            state = generative_update(lik, state, model)
        expect = oracles.enumerate_posterior(uniform_pmf(2), model.matrix, liks)
        assert_allclose(state, expect, atol=1e-10)

    @pytest.mark.parametrize("k,steps", list(itertools.product([2, 3], [2, 4, 6])))
    def test_chain_oracle_grid(self, k, steps):
        rng = np.random.default_rng(100 * k + steps)
        model = build_transition_model(k, float(rng.uniform(0.01, 0.45)))
        liks = [rng.uniform(0.02, 1.0, size=k) for _ in range(steps)]
        state = uniform_pmf(k)
        for lik in liks:
            state = generative_update(lik, state, model)
        expect = oracles.enumerate_posterior(uniform_pmf(k), model.matrix, liks)
        assert_allclose(state, expect, atol=1e-10)

    def test_batch_rows_are_independent(self):
        rng = np.random.default_rng(2)
        lik = rng.uniform(0.1, 1.0, size=(20, 3))
        prev = random_pmfs(rng, 20, 3)
        model = build_transition_model(3, 0.1)
        batch = generative_update(lik, prev, model)
        for i in range(20):
            assert_allclose(batch[i], generative_update(lik[i], prev[i], model), atol=1e-15)


class TestDiscriminativeUpdate:
    def test_worked_example_uniform_marginal(self):
        post = discriminative_update(np.array([0.6, 0.4]), np.array([0.9, 0.1]), T2)
        # exact: prior [0.74,0.26], ratios [1.2,0.8] -> [0.888,0.208]/1.096
        assert_allclose(post, [111.0 / 137.0, 26.0 / 137.0], atol=1e-14)
        assert_allclose(post, [0.8097, 0.1903], atol=1e-3)

    def test_uniform_marginal_equals_generative(self):
        rng = np.random.default_rng(9)
        for k in (2, 3, 5):
            model = build_transition_model(k, 0.1)
            inst = random_pmfs(rng, 1, k)[0]
            prev = random_pmfs(rng, 1, k)[0]
            a = discriminative_update(inst, prev, model)
            b = generative_update(inst, prev, model)
            assert_array_equal(a, b)

    def test_half_epsilon_reduces_to_instantaneous(self):
        rng = np.random.default_rng(4)
        model = build_transition_model(2, 0.5)
        inst = random_pmfs(rng, 40, 2)
        prev = random_pmfs(rng, 40, 2)
        post = discriminative_update(inst, prev, model)
        assert_allclose(post, inst, atol=1e-12)

    def test_chain_matches_enumeration(self):
        rng = np.random.default_rng(77)
        model = build_transition_model(3, 0.08)
        insts = [random_pmfs(rng, 1, 3)[0] for _ in range(4)]
        state = uniform_pmf(3)
        for inst in insts:
            state = discriminative_update(inst, state, model)
        # the uniform marginal would rescale each step weight by K; it drops out
        expect = oracles.enumerate_posterior(uniform_pmf(3), model.matrix, insts)
        assert_allclose(state, expect, atol=1e-10)


class TestRegularize:
    def test_zero_lambda_is_bit_exact_identity(self):
        pmf = np.array([0.123456789012345, 0.876543210987655])
        out = regularize(pmf, 0.0)
        assert_array_equal(out, pmf)

    def test_worked_example(self):
        out = regularize(np.array([1.0, 0.0]), 0.8)
        assert_allclose(out, [9.0 / 13.0, 4.0 / 13.0], atol=1e-14)
        assert_allclose(out, [0.6923, 0.3077], atol=1e-4)

    def test_large_lambda_approaches_uniform(self):
        out = regularize(np.array([1.0, 0.0, 0.0]), 1e6)
        assert_allclose(out, uniform_pmf(3), atol=1e-6)

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidHyperparameterError):
            regularize(np.array([0.5, 0.5]), -0.1)

    def test_lambda_whose_smoothed_sum_overflows_rejected(self):
        # K * (1 + lam) overflows: the smoothed column sum would be inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidHyperparameterError, match="overflows"):
                regularize(np.array([0.3, 0.7]), 1e308)
            with pytest.raises(InvalidHyperparameterError, match="overflows"):
                FrameStep([build_transition_model(2, 0.1)], 1e308, 4)
            assert_allclose(regularize(np.array([0.3, 0.7]), 1e300), [0.5, 0.5], rtol=0.0)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_entropy_non_decreasing_in_lambda(self, seed, k):
        rng = np.random.default_rng(seed)
        pmf = random_pmfs(rng, 1, k)[0]
        grid = [0.0, 0.2, 0.8, 5.0]
        entropies = [oracles.entropy(regularize(pmf, lam)) for lam in grid]
        for lo, hi in zip(entropies, entropies[1:]):
            assert hi >= lo - 1e-12

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_order_preserved(self, seed):
        rng = np.random.default_rng(seed)
        pmf = random_pmfs(rng, 1, 4)[0]
        out = regularize(pmf, float(rng.uniform(0.01, 5.0)))
        assert_array_equal(np.argsort(pmf), np.argsort(out))
        validate_pmf(out)


class TestMapDecision:
    def test_single_vector(self):
        assert oracles.map_decision(np.array([0.2, 0.8])) == 1

    def test_tie_takes_lowest_index(self):
        assert oracles.map_decision(np.array([0.5, 0.5])) == 0
        assert oracles.map_decision(np.array([0.2, 0.4, 0.4])) == 1

    def test_batch(self):
        batch = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert_array_equal(oracles.map_decision(batch), [0, 1])


class TestOperationCounts:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_formulas(self, k):
        assert oracles.update_operation_count(k, "likelihood") == (
            k**3 + k**2 + 2 * k
        )
        assert oracles.update_operation_count(k, "posterior") == (
            k**3 + 2 * k**2 + 2 * k
        )

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_instrumented_updates_match_formula(self, k):
        rng = np.random.default_rng(k)
        model = build_transition_model(k, 0.1)
        lik = rng.uniform(0.1, 1.0, size=k)
        prev = random_pmfs(rng, 1, k)[0]
        _, gen_ops = oracles.counted_generative_update(lik, prev, model)
        assert gen_ops == oracles.update_operation_count(k, "likelihood")
        inst = random_pmfs(rng, 1, k)[0]
        _, disc_ops = oracles.counted_discriminative_update(inst, prev, model)
        assert disc_ops == oracles.update_operation_count(k, "posterior")

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_instrumented_posterior_matches_vectorized(self, k):
        rng = np.random.default_rng(10 + k)
        model = build_transition_model(k, 0.25)
        lik = rng.uniform(0.1, 1.0, size=k)
        prev = random_pmfs(rng, 1, k)[0]
        counted, _ = oracles.counted_generative_update(lik, prev, model)
        assert_allclose(counted, generative_update(lik, prev, model), atol=1e-14)
        inst = random_pmfs(rng, 1, k)[0]
        counted, _ = oracles.counted_discriminative_update(inst, prev, model)
        assert_allclose(counted, discriminative_update(inst, prev, model), atol=1e-14)


class TestChainStability:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_long_extreme_chain_stays_normalized(self, seed):
        rng = np.random.default_rng(seed)
        model = build_transition_model(3, 0.01)
        state = uniform_pmf(3)
        for _ in range(100):
            lik = np.exp(rng.uniform(-200.0, 200.0, size=3))
            state = generative_update(lik, state, model)
            validate_pmf(state)


class _PosteriorStub:
    """Deterministic posterior source derived from one band's values."""

    num_classes = 2

    def frame_posterior(self, frame):
        vals = frame.image.band("gray").ravel()
        p1 = 1.0 / (1.0 + np.exp(-8.0 * (vals - 0.5)))
        return np.stack([1.0 - p1, p1])


def _small_stack(frames=6, side=8, seed=0):
    rng = np.random.default_rng(seed)
    planes = [[rng.uniform(0.0, 1.0, size=(side, side))] for _ in range(frames)]
    return make_stack(("gray",), planes)


class TestClassifyStack:
    def test_first_frame_equals_instantaneous_without_smoothing(self):
        # uniform initial belief + symmetric transition: frame 0 adds no history
        stack = _small_stack(frames=3)
        trans = build_transition_model(2, 0.2)
        out = collect_stack(stack, _PosteriorStub(), trans, 0.0)
        assert_allclose(
            out.recursive_posteriors[0], out.instantaneous_posteriors[0], atol=1e-12
        )

    def test_posteriors_normalized_everywhere(self):
        stack = _small_stack(frames=5)
        trans = build_transition_model(2, 0.05)
        out = collect_stack(stack, _PosteriorStub(), trans, 0.8)
        assert_allclose(out.recursive_posteriors.sum(axis=1), 1.0, atol=1e-9)
        assert_allclose(out.instantaneous_posteriors.sum(axis=1), 1.0, atol=1e-9)

    def test_repeat_runs_identical(self):
        stack = _small_stack()
        trans = build_transition_model(2, 0.1)
        runs = [
            collect_stack(stack, _PosteriorStub(), trans, 0.8)
            for _ in range(2)
        ]
        assert runs[0].recursive_posteriors.tobytes() == runs[1].recursive_posteriors.tobytes()

    def test_cube_layout_matches_pixel_order(self):
        stack = _small_stack(frames=2, side=4)
        trans = build_transition_model(2, 0.1)
        out = collect_stack(stack, _PosteriorStub(), trans, 0.0)
        direct = _PosteriorStub().frame_posterior(stack.frames[0])
        assert_allclose(
            out.instantaneous_posteriors[0, 1], direct[1].reshape(4, 4), atol=1e-15
        )


def _as_posterior(out):
    return out / out.sum(axis=0)


def _as_likelihood(out):
    # each pixel's column times a power of two from 2^-20 to 2^20
    return out * np.exp2(np.arange(out.shape[1]) % 41 - 20.0)


# The two forms of evidence that `frame_posterior` may return: each pixel's
# posterior, or class weights proportional to it, as likelihoods are
EVIDENCE = {"likelihood": _as_likelihood, "posterior": _as_posterior}


class TestClassifyStackSink:
    """A sink gives each date a tile sink, which reads each tile during its
    call; the run returns only the dates, the class count and the per-date
    counts."""

    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    def test_sink_sees_the_collected_cubes(self, evidence):
        stack = _small_stack(frames=5, side=6, seed=2)
        outputs = _scripted_outputs(np.random.default_rng(9), 5, 36, 3, evidence)
        model = _ScriptedModel(stack, outputs)
        trans = build_transition_model(3, 0.1)
        collected = collect_stack(stack, model, trans, 0.8)
        seen = []

        def sink(t, frame):
            assert frame.date == stack.dates[t]
            inst, post = np.empty((3, 36)), np.empty((3, 36))
            labels = np.empty((2, 36), dtype=np.uint8)
            seen.append((t, inst, post, labels))

            def tile(pixels, tile_inst, tile_post, tile_labels):
                assert pixels == slice(0, 36)  # one tile
                assert tile_inst.shape == (3, 36) and tile_post.shape == (1, 3, 36)
                assert tile_inst.dtype == tile_post.dtype == np.float64
                assert tile_labels.shape == (2, 36) and tile_labels.dtype == np.uint8
                inst[:, pixels], post[:, pixels] = tile_inst, tile_post[0]
                labels[:, pixels] = tile_labels

            return tile

        streamed = classify_stack(stack, model, [trans], 0.8, sink=sink)
        assert [t for t, *_ in seen] == list(range(5))
        for t, inst, post, labels in seen:
            inst_plane = collected.instantaneous_posteriors[t].reshape(3, 36)
            assert inst.tobytes() == inst_plane.tobytes()
            assert post.tobytes() == collected.recursive_posteriors[t].reshape(3, 36).tobytes()
            assert labels[0].tobytes() == collected.instantaneous_labels[t].labels.tobytes()
            assert labels[1].tobytes() == collected.recursive_labels[t].labels.tobytes()
        assert [f.name for f in dataclasses.fields(streamed)] == ["dates", "num_classes", "counts"]
        assert (streamed.dates, streamed.num_classes, streamed.counts) == (stack.dates, 3, (None,) * 5)

    def test_bank_sink_sees_each_single_run(self):
        stack = _small_stack(frames=4, side=6, seed=3)
        outputs = _scripted_outputs(np.random.default_rng(10), 4, 36, 3)
        model = _ScriptedModel(stack, outputs)
        epsilons = (0.01, 0.1, 0.4)
        posts = np.empty((4, len(epsilons), 3, 36))
        labels = np.empty((4, 1 + len(epsilons), 36), dtype=np.uint8)

        def sink(t, frame):
            def tile(pixels, inst, post, rows):
                posts[t, :, :, pixels], labels[t, :, pixels] = post, rows

            return tile

        transitions = [build_transition_model(3, e) for e in epsilons]
        classify_stack(stack, model, transitions, 0.8, sink=sink)
        for e, epsilon in enumerate(epsilons):
            ref = collect_stack(stack, model, build_transition_model(3, epsilon), 0.8)
            assert posts[:, e].tobytes() == ref.recursive_posteriors.reshape(4, 3, 36).tobytes()
            for t in range(4):
                assert_array_equal(labels[t, 0], ref.instantaneous_labels[t].labels.ravel())
                assert_array_equal(labels[t, 1 + e], ref.recursive_labels[t].labels.ravel())

    def test_peak_memory_does_not_grow_with_the_dates(self):
        # a per-date posterior plane or label row kept for the whole run
        # breaks the bound: 18 more dates of 2 x 128 x 128 uint8 labels
        side, peaks = 128, {}
        rng = np.random.default_rng(4)
        trans = build_transition_model(2, 0.1)
        for frames in (6, 24):
            planes = [[rng.uniform(0.0, 1.0, size=(side, side))] for _ in range(frames)]
            truths = [np.arange(side * side).reshape(side, side) % 2] * frames
            stack = make_stack(("gray",), planes, truths)
            tracemalloc.start()
            try:
                result = classify_stack(stack, _PosteriorStub(), [trans], 0.8)
                peaks[frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(c is not None for c in result.counts) == frames
        assert peaks[24] - peaks[6] < 18 * 2 * side * side / 2, peaks


class _ScriptedModel:
    """Returns a fixed (K, N) array per frame, indexed by the frame's position."""

    def __init__(self, stack, outputs):
        self._index = {fr.date: t for t, fr in enumerate(stack.frames)}
        self._outputs = outputs
        self.num_classes = outputs[0].shape[0]

    def frame_posterior(self, frame):
        return self._outputs[self._index[frame.date]]


def _scripted_outputs(rng, frames, pixels, k, evidence=None):
    outputs = [rng.uniform(0.05, 1.0, size=(k, pixels)) for _ in range(frames)]
    return outputs if evidence is None else [EVIDENCE[evidence](out) for out in outputs]


def _nan(out):
    out[0, 3] = np.nan
    return out


def _negative(out):
    out[1, 5] = -0.25
    return out


def _zero_pixel(out):
    out[:, 7] = 0.0
    return out


def _overflow(out):
    out[:, 2] = np.finfo(np.float64).max
    return out


def _zero_first_nan_last(out):
    # a zero pixel early and a NaN late: the whole-frame check reports the NaN
    out[:, 0] = 0.0
    out[0, -1] = np.nan
    return out


BAD_FRAMES = {
    "nan": (_nan, ValueError, "non-finite"),
    "negative": (_negative, ValueError, "negative"),
    "zero_row": (_zero_pixel, DegenerateLikelihoodError, "all-zero"),
    "overflow": (_overflow, ValueError, "sum overflows"),
    "precedence": (_zero_first_nan_last, ValueError, "non-finite"),
    "pixels": (lambda out: out[:, :-1], ShapeError, "model returned shape"),
    "classes": (lambda out: np.vstack([out, out[:1]]), ShapeError, "model returned shape"),
    "one_class": (lambda out: out[:1], ShapeError, "model returned shape"),
    "flat": (lambda out: out[0], ShapeError, "model returned shape"),
    "pixel_major": (lambda out: out.T.copy(), ShapeError, "model returned shape"),
    # (N, K) one-hot rows that never choose class 1: read class-major they
    # would hold an all-zero row, but the shape is what is wrong
    "pixel_major_absent_class": (
        lambda out: np.eye(out.shape[0])[np.zeros(out.shape[1], dtype=np.intp)],
        ShapeError,
        "model returned shape",
    ),
}


class TestClassifyStackErrors:
    """A bad model output at the first or a later frame raises the same error
    for either form of evidence."""

    @pytest.mark.parametrize("frame", [0, 2])
    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    @pytest.mark.parametrize("case", sorted(BAD_FRAMES))
    def test_bad_model_output(self, case, evidence, frame):
        corrupt, error, message = BAD_FRAMES[case]
        stack = _small_stack(frames=4)
        outputs = _scripted_outputs(np.random.default_rng(3), 4, 64, 2, evidence)
        model = _ScriptedModel(stack, outputs)  # reads K before the corruption
        outputs[frame] = corrupt(outputs[frame])
        trans = build_transition_model(2, 0.1)
        with pytest.raises(error, match=message) as raised:
            classify_stack(stack, model, [trans], 0.8)
        assert type(raised.value) is error
        assert str(raised.value).startswith(f"{stack.dates[frame].isoformat()}: ")

    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    def test_overflowing_sum_raises_without_a_warning(self, evidence):
        # under -W error a numpy overflow warning would replace the error
        stack = _small_stack(frames=2)
        outputs = _scripted_outputs(np.random.default_rng(4), 2, 64, 2, evidence)
        model = _ScriptedModel(stack, outputs)
        outputs[1] = _overflow(outputs[1])
        trans = build_transition_model(2, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum overflows float64"):
                classify_stack(stack, model, [trans], 0.8)

    def test_negative_lambda_rejected(self):
        stack = _small_stack(frames=2)
        trans = build_transition_model(2, 0.1)
        with pytest.raises(InvalidHyperparameterError):
            classify_stack(stack, _PosteriorStub(), [trans], -0.5)

    def test_model_of_another_class_count(self):
        stack = _small_stack(frames=2)
        with pytest.raises(ConfigError, match="^model has 2 classes, transition models 3$"):
            classify_stack(stack, _PosteriorStub(), [build_transition_model(3, 0.1)], 0.8)


class TestEpsilonSweepErrors:
    """A bad model output at any frame fails the sweep as it fails `classify_stack`."""

    @pytest.mark.parametrize("frame", [0, 2])
    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    @pytest.mark.parametrize("case", sorted(BAD_FRAMES))
    def test_same_error_as_classify_stack(self, case, evidence, frame):
        corrupt, error, _ = BAD_FRAMES[case]
        rng = np.random.default_rng(5)
        planes = [[rng.uniform(0.0, 1.0, size=(8, 8))] for _ in range(4)]
        truths = [rng.integers(0, 2, size=(8, 8)) for _ in range(4)]
        stack = make_stack(("gray",), planes, truths=truths)
        outputs = _scripted_outputs(rng, 4, 64, 2, evidence)
        model = _ScriptedModel(stack, outputs)  # reads K before the corruption
        outputs[frame] = corrupt(outputs[frame])
        with pytest.raises(error) as expected:
            classify_stack(stack, model, [build_transition_model(2, 0.05)], 0.8)
        with pytest.raises(error) as swept:
            epsilon_sweep(stack, {"m": model}, 0.8, [0.05, 0.2, 0.4])
        assert type(swept.value) is type(expected.value)
        assert str(swept.value) == str(expected.value)


class TestEvidenceFormsShareOneFilter:
    """Fed a pixel's posterior or that posterior times a power of two, the
    filter gives the same results, bit for bit."""

    @staticmethod
    def _scene(k):
        rng = np.random.default_rng(90 + k)
        planes = [[rng.uniform(0.0, 1.0, size=(8, 8))] for _ in range(5)]
        truths = [np.arange(64).reshape(8, 8) % k] * 5
        stack = make_stack(("gray",), planes, truths=truths)
        posteriors = _scripted_outputs(rng, 5, 64, k, "posterior")
        scaled = [_as_likelihood(out) for out in posteriors]
        return stack, _ScriptedModel(stack, posteriors), _ScriptedModel(stack, scaled)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_classify_stack(self, k):
        stack, posterior, scaled = self._scene(k)
        trans = build_transition_model(k, 0.1)
        want, got = (collect_stack(stack, model, trans, 0.8) for model in (posterior, scaled))
        for name in ("recursive_posteriors", "instantaneous_posteriors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for a, b in zip(got.recursive_labels + got.instantaneous_labels,
                        want.recursive_labels + want.instantaneous_labels):
            assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_epsilon_sweep(self, k):
        stack, posterior, scaled = self._scene(k)
        want, got = (epsilon_sweep(stack, {"m": model}, 0.8, [0.01, 0.1, 0.4])
                     for model in (posterior, scaled))
        assert got.recursive_accuracy.tobytes() == want.recursive_accuracy.tobytes()
        assert got.instantaneous_accuracy == want.instantaneous_accuracy


# The public single-step updates: one step, under the paper's two names
UPDATES, UPDATE_IDS = [generative_update, discriminative_update], ["generative", "discriminative"]


class TestSingleStepErrors:
    """The (..., K) single-step updates reject bad evidence as `FrameStep` does."""

    @pytest.mark.parametrize("update", UPDATES, ids=UPDATE_IDS)
    @pytest.mark.parametrize("case", ["nan", "negative", "zero_row", "overflow", "precedence"])
    def test_same_error_as_frame_step(self, case, update):
        corrupt, error, _ = BAD_FRAMES[case]
        raw = corrupt(_scripted_outputs(np.random.default_rng(6), 1, 64, 2)[0])
        trans = build_transition_model(2, 0.1)
        with pytest.raises(error) as stepped:
            FrameStep([trans], 0.8, 64)(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as updated:
                update(raw.T, uniform_pmf(2), trans)
        assert type(updated.value) is type(stepped.value)
        assert str(updated.value) == str(stepped.value)


class TestClassifyStackAcceptsEdgeOutputs:
    """Valid outputs that trip the fast checks still run the normal step."""

    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    @pytest.mark.parametrize("update", UPDATES, ids=UPDATE_IDS)
    def test_zero_entries_and_huge_rows(self, update, evidence):
        stack = _small_stack(frames=3)
        outputs = _scripted_outputs(np.random.default_rng(8), 3, 64, 2, evidence)
        outputs[1][0, ::3] = 0.0  # zero entries, never a whole pixel
        outputs[2][:, 5] = np.finfo(np.float64).max / 3.0  # finite pixel sum
        trans = build_transition_model(2, 0.1)
        result = collect_stack(stack, _ScriptedModel(stack, outputs), trans, 0.8)
        state = uniform_pmf(2)
        for t, raw in enumerate(outputs):
            state = update(regularize(oracles.floor_normalize(raw.T), 0.8), state, trans)
            assert_array_equal(result.recursive_posteriors[t].reshape(2, 64).T, state)

    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    def test_empty_image(self, evidence):
        stack = make_stack(("gray",), [[np.zeros((0, 4))] for _ in range(2)])
        outputs = [EVIDENCE[evidence](np.empty((2, 0))) for _ in range(2)]
        trans = build_transition_model(2, 0.1)
        result = collect_stack(stack, _ScriptedModel(stack, outputs), trans, 0.8)
        assert result.recursive_posteriors.shape == (2, 2, 0, 4)
        assert [r.labels.shape for r in result.recursive_labels] == [(0, 4)] * 2


class TestIndexEngineFloor:
    """The index engine floors its densities, so a pixel whose every class
    density underflows reaches the step as a uniform column, not as an
    all-zero one that would end the date with DegenerateLikelihoodError."""

    def test_underflowing_pixel_is_uniform(self):
        green, swir1 = np.full((2, 3), 0.3), np.full((2, 3), 0.1)
        green[1, 2], swir1[1, 2] = 1.0, -(1.0 - 2.0**-23)  # band sum 2^-23: index ~1.7e7
        stack = make_stack(("green", "swir1"), [[green, swir1]] * 3)
        model = IndexClassifier.from_thresholds((-1.0, 0.13, 1.0), SpectralIndexKind.MNDWI)
        values, flags = spectral_index(stack.frames[0].image, SpectralIndexKind.MNDWI)
        assert not flags.any() and values[1, 2] > 1e7
        raw = model.frame_posterior(stack.frames[0])
        assert (raw[:, 5] == PROB_FLOOR).all()  # every density underflowed
        result = collect_stack(stack, model, build_transition_model(2, 0.1), 0.8)
        assert_array_equal(result.instantaneous_posteriors[:, :, 1, 2], 0.5)
        assert (result.instantaneous_posteriors[:, :, 0, 0] != 0.5).all()


class TestThirdPartyModelOutputs:
    """A (K, N) output in any memory layout or real dtype runs as its C-ordered float64 copy."""

    LAYOUTS = {
        "transposed_buffer": lambda out: np.ascontiguousarray(out.T).T,
        "strided_view": lambda out: np.repeat(out, 2, axis=1)[:, ::2],
        "float32": lambda out: out.astype(np.float32),
    }

    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_same_labels_and_cubes(self, layout, evidence):
        stack = _small_stack(frames=4)
        rng = np.random.default_rng(12)
        # float32-exact values, so the float32 output holds the same numbers
        outputs = [out.astype(np.float32).astype(np.float64)
                   for out in _scripted_outputs(rng, 4, 64, 3, evidence)]
        variants = [self.LAYOUTS[layout](out) for out in outputs]
        assert not (variants[0].flags.c_contiguous and variants[0].dtype == np.float64)
        trans = build_transition_model(3, 0.1)
        want = collect_stack(stack, _ScriptedModel(stack, outputs), trans, 0.8)
        got = collect_stack(stack, _ScriptedModel(stack, variants), trans, 0.8)
        for name in ("recursive_posteriors", "instantaneous_posteriors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for a, b in zip(got.recursive_labels + got.instantaneous_labels,
                        want.recursive_labels + want.instantaneous_labels):
            assert_array_equal(a.labels, b.labels)


class TestClassifyStackPixelIndependence:
    """Each pixel is its own chain: a band of rows run alone matches the whole image."""

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_row_band_matches_whole_image(self, k, evidence, lam):
        side, rows = 8, slice(3, 6)
        stack = _small_stack(frames=4, side=side)
        outputs = _scripted_outputs(np.random.default_rng(20 + k), 4, side * side, k, evidence)
        trans = build_transition_model(k, 0.1)
        whole = collect_stack(stack, _ScriptedModel(stack, outputs), trans, lam)

        band_stack = make_stack(("gray",), [[np.zeros((3, side))] for _ in range(4)])
        pixels = slice(rows.start * side, rows.stop * side)
        band_outputs = [out[:, pixels] for out in outputs]
        band = collect_stack(
            band_stack, _ScriptedModel(band_stack, band_outputs), trans, lam
        )
        for name in ("recursive_posteriors", "instantaneous_posteriors"):
            expected = getattr(whole, name)[:, :, rows]
            assert getattr(band, name).tobytes() == np.ascontiguousarray(expected).tobytes()
        for a, b in zip(whole.recursive_labels + whole.instantaneous_labels,
                        band.recursive_labels + band.instantaneous_labels):
            assert_array_equal(a.labels[rows], b.labels)


class TestClassifyStackTies:
    """Exactly tied classes take the lowest index, as ``argmax`` does."""

    @pytest.mark.parametrize(
        "row, matrix",
        [
            ([0.5, 0.5], build_transition_model(2, 0.1).matrix),
            # equal columns 1 and 2: those classes get the same prior from
            # any belief, so their posteriors stay tied bit for bit
            ([0.2, 0.4, 0.4], [[0.6, 0.2, 0.2], [0.1, 0.45, 0.45], [0.1, 0.45, 0.45]]),
        ],
        ids=["k2", "k3"],
    )
    @pytest.mark.parametrize("evidence", sorted(EVIDENCE))
    def test_lowest_tied_class_wins(self, row, matrix, evidence):
        k, lowest = len(row), row.index(max(row))
        stack = _small_stack(frames=4)
        column = np.tile(np.array(row)[:, np.newaxis], (1, 64))
        outputs = [EVIDENCE[evidence](column) for _ in range(4)]
        trans = TransitionModel(np.array(matrix), change_prob=0.1)
        result = collect_stack(stack, _ScriptedModel(stack, outputs), trans, 0.8)
        for cube in (result.instantaneous_posteriors, result.recursive_posteriors):
            assert_array_equal(cube[:, lowest], cube[:, k - 1])  # the tie holds
        for raster in result.instantaneous_labels + result.recursive_labels:
            assert_array_equal(raster.labels, np.full((8, 8), lowest))


class TestFrameStepClassCount:
    """The uint8 label rows bound K: 255 classes work, more are rejected."""

    def test_255_classes_label_the_last_class(self):
        step = FrameStep([build_transition_model(255, 0.05)], 0.8, 2)
        raw = np.ones((255, 2))
        raw[254, 0] = raw[0, 1] = 1e3
        tiles = Tiles(step)
        step(raw, sink=tiles)
        assert tiles.labels.tolist() == [[254, 0], [254, 0]]

    @pytest.mark.parametrize("k", [256, 257])
    def test_more_classes_rejected(self, k):
        transitions = [build_transition_model(k, 0.05)]
        with pytest.raises(
            InvalidClassCountError, match=f"^at most 255 classes are supported, got {k}$"
        ):
            FrameStep(transitions, 0.8, 4)


class TestFrameStepTransitionModels:
    """A step needs transition models, all of one class count (ConfigError, exit 1)."""

    def test_none_rejected(self):
        with pytest.raises(ConfigError, match=r"one class count, got \[\]$") as raised:
            FrameStep([], 0.8, 4)
        assert raised.value.exit_code == 1

    def test_mixed_class_counts_rejected(self):
        transitions = [build_transition_model(k, 0.05) for k in (3, 3, 2)]
        with pytest.raises(ConfigError, match=r"one class count, got \[3, 3, 2\]$") as raised:
            FrameStep(transitions, 0.8, 4)
        assert raised.value.exit_code == 1


class TestFrameStepTransitionBank:
    """E transition models in one `FrameStep` each match an E = 1 run."""

    EPSILONS = (0.01, 0.07, 0.3)

    @staticmethod
    def _run(outputs, k):
        pixels = outputs[0].shape[1]
        transitions = [build_transition_model(k, e) for e in
                       TestFrameStepTransitionBank.EPSILONS]
        e_count = len(transitions)
        insts = np.empty((len(outputs), k, pixels))
        posts = np.empty((len(outputs), e_count, k, pixels))
        labels = np.empty((len(outputs), 1 + e_count, pixels), dtype=np.uint8)
        step = FrameStep(transitions, 0.8, pixels)
        tiles = Tiles(step)
        for t, raw in enumerate(outputs):
            step(raw, sink=tiles)
            insts[t], posts[t], labels[t] = tiles.inst, tiles.post, tiles.labels
        return insts, posts, labels

    @pytest.mark.parametrize("k", [2, 3])
    def test_each_belief_equals_classify_stack(self, k):
        stack = _small_stack(frames=5, side=9)
        outputs = _scripted_outputs(np.random.default_rng(50 + k), 5, 81, k)
        insts, posts, labels = self._run(outputs, k)
        for e, epsilon in enumerate(self.EPSILONS):
            trans = build_transition_model(k, epsilon)
            ref = collect_stack(stack, _ScriptedModel(stack, outputs), trans, 0.8)
            assert insts.tobytes() == ref.instantaneous_posteriors.tobytes()
            assert posts[:, e].tobytes() == ref.recursive_posteriors.tobytes()
            for t in range(5):
                inst_labels = ref.instantaneous_labels[t].labels.ravel()
                assert_array_equal(labels[t, 0], inst_labels)
                assert_array_equal(labels[t, 1 + e], ref.recursive_labels[t].labels.ravel())

    @pytest.mark.parametrize("k", [2, 3])
    def test_pixel_slices_match_whole_step(self, k):
        outputs = _scripted_outputs(np.random.default_rng(60 + k), 4, 81, k)
        whole = self._run(outputs, k)
        for cut in (slice(0, 1), slice(1, 40), slice(40, 81)):
            part = self._run([out[:, cut] for out in outputs], k)
            for got, full in zip(part, whole):
                assert got.tobytes() == np.ascontiguousarray(full[..., cut]).tobytes()


class TestFrameStepMatchesEnumeration:
    """Each belief of `FrameStep` equals exhaustive path enumeration (criterion 2's bound)."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        k=st.integers(min_value=2, max_value=6),
        steps=st.integers(min_value=1, max_value=5),
        bank=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_belief_matches_enumeration(self, seed, k, steps, bank):
        rng = np.random.default_rng(seed)
        pixels = 3
        transitions = [
            build_transition_model(k, float(rng.uniform(0.01, 0.6))) for _ in range(bank)
        ]
        outputs = [rng.uniform(0.05, 1.0, size=(k, pixels)) for _ in range(steps)]
        step = FrameStep(transitions, 0.0, pixels)
        for raw in outputs:
            step(raw)
        # each frame's normalization rescales a step's weights, which
        # drops out of the enumerated posterior
        for e, transition in enumerate(transitions):
            for p in range(pixels):
                expect = oracles.enumerate_posterior(
                    uniform_pmf(k), transition.matrix, [raw[:, p] for raw in outputs]
                )
                assert np.max(np.abs(step.post[e, :, p] - expect)) < 1e-10


class TestFrameStepState:
    """`FrameStep` owns its beliefs: `reset` restarts them, also after a bad frame."""

    TRANSITIONS = [build_transition_model(3, e) for e in (0.02, 0.2)]
    DATES = [date_of(t) for t in range(4)]

    @staticmethod
    def _states(step, outputs, dates):
        states, tiles = [], Tiles(step)
        for raw, date in zip(outputs, dates):
            step(raw, date, sink=tiles)
            states.append(b"".join(a.tobytes() for a in (tiles.inst, step.post, tiles.labels)))
        return states

    def test_reset_then_frames_equals_fresh_step(self):
        outputs = _scripted_outputs(np.random.default_rng(70), 4, 49, 3)
        fresh = self._states(FrameStep(self.TRANSITIONS, 0.8, 49), outputs, self.DATES)
        step = FrameStep(self.TRANSITIONS, 0.8, 49)
        self._states(step, outputs[::-1], self.DATES)  # some other history
        step.reset()
        assert self._states(step, outputs, self.DATES) == fresh

    def test_bad_frame_leaves_beliefs_as_they_were(self):
        """A bad frame raises; after `reset` the step is a fresh one again."""
        outputs = _scripted_outputs(np.random.default_rng(71), 4, 49, 3)
        bad = outputs[1].copy()
        bad[:, 6] = np.nan
        step = FrameStep(self.TRANSITIONS, 0.8, 49)
        step(outputs[0], self.DATES[0])
        with pytest.raises(ValueError, match=rf"^{self.DATES[1].isoformat()}: .*non-finite"):
            step(bad, self.DATES[1])
        step.reset()
        fresh = self._states(FrameStep(self.TRANSITIONS, 0.8, 49), outputs, self.DATES)
        assert self._states(step, outputs, self.DATES) == fresh


class TestFrameStepHoldsOnlyTheFilterState:
    """No array but the beliefs ``post`` lives in a `FrameStep`, whatever
    its tiles, workers and sink: its lists and tuples hold only sizes, tile
    slices and transition models, no per-worker work arrays, and the
    instantaneous posterior and the labels are each tile's own."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_only_state_arrays(self, monkeypatch, workers):
        monkeypatch.setattr(recursion, "_TILE_PIXELS", 7)
        monkeypatch.setattr(recursion, "_workers", lambda: workers)
        transitions = [build_transition_model(3, e) for e in (0.02, 0.2)]
        step = FrameStep(transitions, 0.8, 49, 7)
        for raw in _scripted_outputs(np.random.default_rng(72), 2, 49, 3):
            step(raw, sink=Tiles(step))
        state = vars(step)
        arrays = {name for name, value in state.items() if isinstance(value, np.ndarray)}
        assert arrays == {"post"}
        for name, value in state.items():
            if isinstance(value, (list, tuple)):
                assert all(isinstance(v, (int, slice, TransitionModel)) for v in value), name

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scores_are_per_date_reductions(self, monkeypatch, workers):
        monkeypatch.setattr(recursion, "_TILE_PIXELS", 7)
        monkeypatch.setattr(recursion, "_workers", lambda: workers)
        transitions = [build_transition_model(3, e) for e in (0.02, 0.2)]
        truth = np.random.default_rng(73).integers(0, 3, size=49)
        step = FrameStep(transitions, 0.8, 49, 7)
        for raw in _scripted_outputs(np.random.default_rng(72), 2, 49, 3):
            step(raw, truth=truth)
        arrays = {n: v.shape for n, v in vars(step).items() if isinstance(v, np.ndarray)}
        assert arrays == {"post": (2, 3, 49), "hits": (3, 3), "totals": (3,)}
        assert step.totals.tolist() == np.bincount(truth).tolist()


class TestFrameStepNormalization:
    """The step's instantaneous posterior is the C-ordered pixel-major
    floor-normalization, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 9, 16])
    def test_inst_equals_pixel_major_oracle(self, k):
        rng = np.random.default_rng(80 + k)
        step = FrameStep([build_transition_model(k, 0.1)], 0.8, 301)
        tiles = Tiles(step)
        for _ in range(3):
            raw = rng.uniform(0.0, 1.0, size=(k, 301))
            # some columns near the floor: entries just above, at, or below it
            raw[:, ::5] *= PROB_FLOOR * rng.uniform(0.5, 5.0, size=(k, 61))
            step(raw, sink=tiles)
            expect = oracles.floor_normalize(np.ascontiguousarray(raw.T)).T
            assert_array_equal(tiles.inst, expect)


class TestClassifyStackEquivalence:
    """`classify_stack` equals a per-frame loop over the public (..., K) API."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        k=st.integers(min_value=2, max_value=5),
        frames=st.integers(min_value=1, max_value=6),
        lam=st.sampled_from([0.0, 0.8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_public_step_loop(self, seed, k, frames, lam):
        rng = np.random.default_rng(seed)
        side = 4
        pixels = side * side
        outputs = []
        for _ in range(frames):
            out = rng.uniform(1e-3, 1.0, size=(k, pixels))
            # pixels near the floor: some entries just above, at, or below it
            tiny = rng.random(pixels) < 0.3
            out[:, tiny] *= PROB_FLOOR * rng.uniform(0.5, 5.0, size=(k, int(tiny.sum())))
            outputs.append(out)
        stack = _small_stack(frames=frames, side=side, seed=seed % 1000)
        trans = build_transition_model(k, float(rng.uniform(0.01, 0.5)))
        result = collect_stack(stack, _ScriptedModel(stack, outputs), trans, lam)

        state = np.broadcast_to(uniform_pmf(k), (pixels, k))
        for t, raw in enumerate(outputs):
            inst = oracles.floor_normalize(raw.T)
            state = generative_update(regularize(inst, lam), state, trans)
            assert_allclose(
                result.instantaneous_posteriors[t].reshape(k, pixels).T, inst,
                rtol=0.0, atol=1e-12,
            )
            assert_allclose(
                result.recursive_posteriors[t].reshape(k, pixels).T, state,
                rtol=0.0, atol=1e-12,
            )
            assert_array_equal(
                result.instantaneous_labels[t].labels.ravel(), oracles.map_decision(inst)
            )
            assert_array_equal(
                result.recursive_labels[t].labels.ravel(), oracles.map_decision(state)
            )
