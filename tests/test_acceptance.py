"""End-to-end acceptance checks.

Each test covers one shipping criterion, measures its own wall time,
and records a single verdict line; the conftest terminal-summary hook
prints the collected lines after the run so ``pytest`` output always
shows one pass/fail per criterion.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from satbayes.classifiers import (
    IndexClassifier,
    SpectralIndexKind,
    fit_logistic_classifier,
    fit_mixture_classifier,
    load_model,
    logistic_loss_grad,
    pseudo_labels,
    save_model,
)
from satbayes.config import parse_config, parse_config_text, serialize_config
from satbayes.core import LabelRaster, build_transition_model
from satbayes.evaluation import (
    epsilon_sweep,
    frame_accuracies,
    timing_bench,
    write_bench_table,
)
from satbayes.experiment import run_experiment
from satbayes.pipeline import (
    load_stack,
    parse_manifest,
    read_band_plane,
    read_label_raster,
    read_posterior_cube,
    write_band_plane,
    write_label_raster,
    write_posterior_cube,
)
from satbayes.recursion import classify_stack, generative_update, regularize
from satbayes.synth import generate_synthetic, parse_synth_spec

import oracles
from helpers import CORRUPTED_FRAMES, WATER_THRESHOLDS, collect_stack, date_of, random_pmfs


# one (number, label, passed, seconds) entry per criterion; the
# conftest terminal-summary hook prints these after the test run
RESULTS: list[tuple[int, str, bool, float]] = []

BANDS = ("green", "swir1")
SWEEP_GRID = (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7)

# frozen reference parameter vectors (3-decimal rounding) for the three
# study threshold sets
REFERENCE_KERNELS = {
    "water": {
        "thresholds": (-1.0, 0.13, 1.0),
        "kind": SpectralIndexKind.MNDWI,
        "means": (-0.435, 0.565),
        "sigmas": (0.565, 0.435),
    },
    "deforestation": {
        "thresholds": (-1.0, 0.65, 1.0),
        "kind": SpectralIndexKind.NDWI,
        "means": (-0.175, 0.825),
        "sigmas": (0.825, 0.175),
    },
    "landcover": {
        "thresholds": (-1.0, -0.05, 0.35, 1.0),
        "kind": SpectralIndexKind.NDVI,
        "means": (-0.525, 0.149, 0.675),
        "sigmas": (0.475, 0.19, 0.325),
    },
}


class _Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def verdict(num: int, label: str, ok: bool, seconds: float,
            limit: float | None = None) -> None:
    within = limit is None or seconds < limit
    final = bool(ok) and within
    RESULTS.append((num, label, final, seconds))
    line = f"criterion {num:2d} {'PASS' if final else 'FAIL'}  {label} ({seconds:.2f} s)"
    print(line)
    assert ok, line
    if not within:
        pytest.fail(f"criterion {num} exceeded its {limit:.0f} s budget: "
                    f"{seconds:.2f} s")


# models and the shared sweep are built once and reused across criteria;
# the first criterion that needs them pays the cost inside its own timer
_CACHE: dict[str, object] = {}


def _training_features(stack, frames):
    feats, labs = [], []
    for t in frames:
        frame = stack.frames[t]
        raster = pseudo_labels(frame.image, SpectralIndexKind.MNDWI,
                               WATER_THRESHOLDS)
        feats.append(np.stack(
            [frame.image.band(b).ravel() for b in BANDS], axis=1
        ))
        labs.append(raster.labels.ravel())
    return np.concatenate(feats), np.concatenate(labs)


def _benchmark_models(stack):
    if "models" not in _CACHE:
        x, y = _training_features(stack, range(4))  # frames 0..3 are clean
        _CACHE["models"] = {
            "sic": IndexClassifier.from_thresholds(
                WATER_THRESHOLDS, SpectralIndexKind.MNDWI
            ),
            "gmm": fit_mixture_classifier(
                [x[y == 0], x[y == 1]], bands=BANDS, components=3, seed=7
            ),
            "logistic": fit_logistic_classifier(x, y, 2, bands=BANDS),
        }
    return _CACHE["models"]


def _benchmark_sweep(stack):
    if "sweep" not in _CACHE:
        _CACHE["sweep"] = epsilon_sweep(
            stack, _benchmark_models(stack), 0.8, SWEEP_GRID
        )
    return _CACHE["sweep"]


# ============================================================
# criteria 1-4: closed-form and oracle checks
# ============================================================


def test_c01_threshold_kernel_parameters():
    with _Clock() as clock:
        ok = True
        for ref in REFERENCE_KERNELS.values():
            model = IndexClassifier.from_thresholds(ref["thresholds"], ref["kind"])
            tau = np.asarray(ref["thresholds"])
            widths = np.diff(tau)
            assert_allclose(model.means, tau[:-1] + widths / 2.0, atol=1e-12)
            assert_allclose(model.sigmas, widths / 2.0, atol=1e-12)
            ok &= np.allclose(model.means, ref["means"], atol=2e-2)
            ok &= np.allclose(model.sigmas, ref["sigmas"], atol=2e-2)
    verdict(1, "index classifier kernel parameters from thresholds",
            ok, clock.seconds, limit=1.0)


def test_c02_forward_recursion_matches_enumeration():
    rng = np.random.default_rng(2025)
    with _Clock() as clock:
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 4))
            steps = int(rng.integers(2, 7))
            eps = float(rng.uniform(0.01, 0.6))
            transition = build_transition_model(k, eps)
            state = random_pmfs(rng, 1, k)[0]
            weights = rng.uniform(0.05, 1.0, size=(steps, k))
            expected = oracles.enumerate_posterior(
                state, transition.matrix, weights
            )
            for row in weights:
                state = generative_update(row, state, transition)
            worst = max(worst, float(np.max(np.abs(state - expected))))
    verdict(2, "forward recursion matches exhaustive path enumeration",
            worst < 1e-10, clock.seconds, limit=10.0)


def test_c03_half_transition_probability_reduction(benchmark_stack):
    with _Clock() as clock:
        model = IndexClassifier.from_thresholds(
            WATER_THRESHOLDS, SpectralIndexKind.MNDWI
        )
        transition = build_transition_model(2, 0.5)
        result = collect_stack(benchmark_stack, model, transition, 0.0)
        decisions_ok = all(
            np.array_equal(rec.labels, inst.labels)
            for rec, inst in zip(result.recursive_labels,
                                 result.instantaneous_labels)
        )
        gap = float(np.max(np.abs(
            result.recursive_posteriors - result.instantaneous_posteriors
        )))
    verdict(3, "half transition probability reduces to the instantaneous run",
            decisions_ok and gap < 1e-12, clock.seconds, limit=30.0)


def test_c04_operation_count_formulas():
    rng = np.random.default_rng(4)
    with _Clock() as clock:
        ok = True
        for k in range(2, 11):
            ok &= oracles.update_operation_count(k, "likelihood") \
                == k**3 + k**2 + 2 * k
            ok &= oracles.update_operation_count(k, "posterior") \
                == k**3 + 2 * k**2 + 2 * k
        for k in (2, 3):
            transition = build_transition_model(k, 0.1)
            prev = random_pmfs(rng, 1, k)[0]
            lik = rng.uniform(0.1, 1.0, size=k)
            _, gen_ops = oracles.counted_generative_update(lik, prev, transition)
            _, disc_ops = oracles.counted_discriminative_update(
                random_pmfs(rng, 1, k)[0], prev, transition
            )
            ok &= gen_ops == oracles.update_operation_count(k, "likelihood")
            ok &= disc_ops == oracles.update_operation_count(k, "posterior")
    verdict(4, "per-step operation-count formulas", ok, clock.seconds)


# ============================================================
# criteria 5-6: corrupted-frame benchmark
# ============================================================


def test_c05_recursion_recovers_corrupted_frames(benchmark_stack):
    with _Clock() as clock:
        sweep = _benchmark_sweep(benchmark_stack)
        models = _benchmark_models(benchmark_stack)
        corrupted_dates = {date_of(t) for t in CORRUPTED_FRAMES}
        ok = True
        for name, model in models.items():
            best = sweep.best_epsilon(name)
            result = classify_stack(
                benchmark_stack, model, [build_transition_model(2, best)], 0.8
            )
            scores = frame_accuracies(result, benchmark_stack)
            corrupted = [s for s in scores if s.date in corrupted_dates]
            clean = [s for s in scores if s.date not in corrupted_dates]
            corrupted_gain = (
                np.mean([s.recursive for s in corrupted])
                - np.mean([s.instantaneous for s in corrupted])
            )
            clean_gap = abs(
                np.mean([s.recursive for s in clean])
                - np.mean([s.instantaneous for s in clean])
            )
            ok &= corrupted_gain >= 0.05
            ok &= clean_gap <= 0.02
    verdict(5, "recursion recovers accuracy on corrupted frames",
            ok, clock.seconds, limit=120.0)


def test_c06_accuracy_peaks_at_small_transition_probability(benchmark_stack):
    with _Clock() as clock:
        sweep = _benchmark_sweep(benchmark_stack)
        ok = True
        half = SWEEP_GRID.index(0.5)
        high = SWEEP_GRID.index(0.7)
        for idx, _name in enumerate(sweep.algorithms):
            row = sweep.recursive_accuracy[idx]
            ok &= SWEEP_GRID[int(np.argmax(row))] < 0.1
            ok &= row[high] <= row[half]
    verdict(6, "accuracy peaks below 0.1 transition probability",
            ok, clock.seconds)


# ============================================================
# criterion 7: regularization contract
# ============================================================


def test_c07_regularization_contract():
    rng = np.random.default_rng(7)
    with _Clock() as clock:
        pmfs = random_pmfs(rng, 100, 4)
        assert_array_equal(regularize(pmfs, 0.0), pmfs)  # bit-exact identity
        entropy_ok = True
        lams = (0.0, 0.2, 0.8, 5.0)
        for pmf in pmfs:
            ent = [oracles.entropy(regularize(pmf, lam)) for lam in lams]
            entropy_ok &= all(b >= a - 1e-12 for a, b in zip(ent, ent[1:]))
        spot = regularize(np.array([1.0, 0.0]), 0.8)
        spot_ok = np.allclose(spot, [0.6923, 0.3077], atol=1e-4)
    verdict(7, "additive regularization contract", entropy_ok and spot_ok,
            clock.seconds)


# ============================================================
# criterion 8: constant per-step cost
# ============================================================


BENCH_SPEC = """\
classes = land, water
width = 128
height = 128
frames = 50
start_date = 2021-01-05
cadence_days = 10
seed = 23
bands = green, swir1
stat = land green 0.12 0.05
stat = land swir1 0.28 0.05
stat = water green 0.30 0.05
stat = water swir1 0.06 0.05
"""


def test_c08_constant_step_cost(tmp_path):
    with _Clock() as clock:
        spec_path = tmp_path / "bench_scene.txt"
        spec_path.write_text(BENCH_SPEC)
        generate_synthetic(parse_synth_spec(spec_path), tmp_path / "data")
        stack = load_stack(parse_manifest(tmp_path / "data" / "manifest.txt"))
        x, y = _training_features(stack, range(2))
        models = {
            "sic": IndexClassifier.from_thresholds(
                WATER_THRESHOLDS, SpectralIndexKind.MNDWI
            ),
            "gmm": fit_mixture_classifier(
                [x[y == 0], x[y == 1]], bands=BANDS, components=3, seed=7
            ),
            "logistic": fit_logistic_classifier(x, y, 2, bands=BANDS),
        }
        records = timing_bench(
            stack, models, build_transition_model(2, 0.05), 0.8, repetitions=11
        )
        ok = True
        for record in records:
            first, last = record.step_seconds[0], record.step_seconds[49]
            ok &= last < 2.0 * first and first < 2.0 * last
        times = [r.recursion_seconds for r in records]
        ok &= max(times) < 3.0 * min(times)
        table = write_bench_table(records, tmp_path / "bench.csv")
        lines = table.read_text().splitlines()
        ok &= lines[0].startswith("metric,")
        ok &= lines[1].startswith("recursion_seconds,")
        ok &= lines[2].startswith("baseline_seconds,")
    verdict(8, "per-step cost stays constant over time", ok, clock.seconds)


# ============================================================
# criterion 9: determinism and lossless round trips
# ============================================================


RERUN_SPEC = """\
classes = land, water
width = 20
height = 20
frames = 5
start_date = 2021-01-05
cadence_days = 10
seed = 31
bands = green, swir1
stat = land green 0.12 0.05
stat = land swir1 0.28 0.05
stat = water green 0.30 0.05
stat = water swir1 0.06 0.05
"""


def _tree_bytes(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_c09_determinism_and_round_trips(tmp_path, benchmark_stack):
    rng = np.random.default_rng(9)
    with _Clock() as clock:
        spec_path = tmp_path / "scene.txt"
        spec_path.write_text(RERUN_SPEC)
        generate_synthetic(parse_synth_spec(spec_path), tmp_path / "data")
        dates = ", ".join(date_of(t).isoformat() for t in range(5))
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "manifest = data/manifest.txt\n"
            "classes = land, water\n"
            "classifier = index\n"
            "index = mndwi\n"
            "thresholds = -1, 0.13, 1\n"
            "epsilon = 0.05\n"
            "seed = 3\n"
            f"test_dates = {dates}\n"
        )
        config = parse_config(config_path)
        run_experiment(config, out_dir=tmp_path / "a")
        run_experiment(config, out_dir=tmp_path / "b")
        first, second = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
        rerun_ok = set(first) == set(second) and all(
            second[rel] == blob for rel, blob in first.items()
        )

        ok = parse_config_text(serialize_config(config)) == config

        labels = LabelRaster(
            rng.integers(0, 2, size=(9, 7)).astype(np.uint8), num_classes=2
        )
        write_label_raster(tmp_path / "r.lbl", labels)
        ok &= np.array_equal(
            read_label_raster(tmp_path / "r.lbl").labels, labels.labels
        )

        plane = rng.normal(size=(9, 7)).astype(np.float32)
        write_band_plane(tmp_path / "p.f32", plane)
        ok &= np.array_equal(read_band_plane(tmp_path / "p.f32", 9, 7), plane)

        cube = random_pmfs(rng, 4 * 9 * 7, 2).reshape(4, 9, 7, 2)
        cube = np.moveaxis(cube, -1, 1).astype(np.float32).astype(np.float64)
        write_posterior_cube(tmp_path / "c.cube", cube)
        back = read_posterior_cube(tmp_path / "c.cube")
        write_posterior_cube(tmp_path / "c2.cube", back)
        ok &= np.array_equal(back, cube)
        ok &= (tmp_path / "c.cube").read_bytes() == \
            (tmp_path / "c2.cube").read_bytes()

        frame = benchmark_stack.frames[0]
        for name, model in _benchmark_models(benchmark_stack).items():
            path = save_model(tmp_path / f"{name}.model", model)
            ok &= np.array_equal(
                load_model(path).frame_posterior(frame),
                model.frame_posterior(frame),
            )
    verdict(9, "deterministic reruns and lossless round trips",
            rerun_ok and ok, clock.seconds)


# ============================================================
# criterion 10: training oracles
# ============================================================


def test_c10_training_oracles(benchmark_stack):
    rng = np.random.default_rng(10)
    with _Clock() as clock:
        true_means = np.array([[0.2, 0.8], [0.7, 0.1]])
        samples = [
            rng.normal(loc=mean, scale=0.05, size=(400, 2))
            for mean in true_means
        ]
        fitted = fit_mixture_classifier(
            samples, bands=BANDS, components=1, seed=3
        )
        mean_err = max(
            float(np.max(np.abs(mix.means[0] - true)))
            for mix, true in zip(fitted.mixtures, true_means)
        )

        n, num_bands, k = 40, 2, 3
        aug = np.hstack([rng.normal(size=(n, num_bands)), np.ones((n, 1))])
        onehot = np.zeros((n, k))
        onehot[np.arange(n), rng.integers(0, k, size=n)] = 1.0
        w0 = 0.1 * rng.normal(size=k * (num_bands + 1))
        _, grad, _ = logistic_loss_grad(w0, aug, onehot, 1e-4)
        numeric = oracles.central_difference_gradient(
            lambda w: logistic_loss_grad(w, aug, onehot, 1e-4)[0], w0
        )
        rel = float(
            np.linalg.norm(grad - numeric) / max(1.0, np.linalg.norm(grad))
        )

        traces = _benchmark_models(benchmark_stack)["gmm"].ll_traces
        monotone = all(
            b - a >= -1e-9
            for trace in traces for a, b in zip(trace, trace[1:])
        )
    verdict(
        10,
        "mixture mean recovery, gradient check, monotone likelihood",
        mean_err < 0.05 and rel < 1e-5 and monotone,
        clock.seconds,
    )
