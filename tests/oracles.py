"""Independent oracles for the test suite.

Most of this is written the slow, obvious way (explicit loops,
textbook formulas, brute-force enumeration) and shares no code with the
package's vectorized implementations. Tests compare the two routes;
when they agree we trust both. The softmax-loss functions over
`max_shift_logsumexp`, `rescanned_frame_scores` and `per_epsilon_sweep`
are instead the straightforward routes the package's faster code must
reproduce exactly. The mixture functions over `max_shift_logsumexp`
evaluate each Gaussian directly; the package's natural-parameter form
rounds differently, so it matches them to stated tolerances, not bit for bit.
`reference_logistic_hessian` builds the softmax loss's Hessian one
class pair at a time, against which the package's blocked one-GEMM
form is checked to a stated tolerance.
`widened_band_values` is the float64 load chain that the
float32 frames' `band` values must reproduce bit for bit.
`whole_frame_bias_shifts` takes `bias_correct`'s region means over
each whole frame's float64 values, which its row-only widening must
reproduce bit for bit.
`gathered_classifier` trains on one concatenation of per-date (H*W, B)
pixel matrices, and `matrix_logistic_posterior` standardizes a frame's
(H*W, B) pixel matrix: the routes that training's one preallocated
matrix and the logistic engine's per-band columns must reproduce bit
for bit.
`predict_prior`, `map_decision` and `update_operation_count` are the
textbook prior step, MAP rule and closed-form operation counts that the
recursion tests and criterion 4 check against, and `floor_normalize` is
the pixel-major (..., K) form of the package's class-major
floor-normalization.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from helpers import collect_stack
from satbayes.classifiers import (
    COV_JITTER,
    EM_MAX_ITER,
    EM_TOL,
    _kmeans_pp_centers,
    fit_logistic_classifier,
    fit_mixture_classifier,
    pseudo_labels,
)
from satbayes.core import (
    PROB_FLOOR,
    TransitionModel,
    build_transition_model,
    normalize_columns,
    uniform_pmf,
    validate_pmf,
)
from satbayes.errors import ConfigError, ShapeError
from satbayes.evaluation import FrameScore, balanced_accuracy


def floor_normalize(values: np.ndarray) -> np.ndarray:
    """Floor at PROB_FLOOR, then normalize the last axis to sum to one."""
    floored = np.maximum(values, PROB_FLOOR)
    return floored / floored.sum(axis=-1, keepdims=True)


def symmetric_transition(num_classes: int, change_prob: float) -> np.ndarray:
    """Transition matrix built entry by entry from the definition."""
    off = change_prob / (num_classes - 1)
    matrix = np.empty((num_classes, num_classes))
    for i in range(num_classes):
        for j in range(num_classes):
            matrix[i, j] = 1.0 - (num_classes - 1) * off if i == j else off
    return matrix


def enumerate_posterior(
    initial: np.ndarray,
    transition: np.ndarray,
    per_step_weights: list[np.ndarray],
) -> np.ndarray:
    """Posterior over the final label by summing every label path.

    ``per_step_weights[t][c]`` is the evidence weight for class c at
    step t (a likelihood for the generative route, a posterior/marginal
    ratio for the discriminative one; any positive rescaling per step
    drops out in the final normalization). A path is one label per step
    plus the initial label; its weight is the initial probability times
    each traversed transition entry times each step weight. Cost is
    K**(T+1) terms, fine for the small instances tests use.
    """
    num_classes = initial.shape[0]
    steps = len(per_step_weights)
    totals = np.zeros(num_classes)
    for path in itertools.product(range(num_classes), repeat=steps + 1):
        weight = initial[path[0]]
        for t in range(steps):
            weight *= transition[path[t], path[t + 1]]
            weight *= per_step_weights[t][path[t + 1]]
        totals[path[-1]] += weight
    return totals / totals.sum()


def gaussian_density(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Multivariate normal density via determinant and inverse."""
    dim = mean.shape[0]
    diff = x - mean
    quad = float(diff @ np.linalg.inv(cov) @ diff)
    norm = (2.0 * math.pi) ** (dim / 2.0) * math.sqrt(np.linalg.det(cov))
    return math.exp(-0.5 * quad) / norm


def mixture_density(
    x: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
) -> float:
    """Weighted sum of component densities, term by term."""
    total = 0.0
    for w, mean, cov in zip(weights, means, covariances):
        total += float(w) * gaussian_density(x, mean, cov)
    return total


def central_difference_gradient(func, point: np.ndarray, step: float = 1e-6):
    """Numerical gradient of a scalar function, one coordinate at a time."""
    grad = np.zeros_like(point)
    for i in range(point.shape[0]):
        shift = np.zeros_like(point)
        shift[i] = step
        grad[i] = (func(point + shift) - func(point - shift)) / (2.0 * step)
    return grad


def balanced_accuracy_by_hand(pred: np.ndarray, truth: np.ndarray) -> float:
    """Per-class recall averaged over the classes present in truth."""
    recalls = []
    for cls in sorted(set(int(v) for v in truth.ravel())):
        mask = truth == cls
        recalls.append(float(np.sum(pred[mask] == cls)) / float(np.sum(mask)))
    return sum(recalls) / len(recalls)


def entropy(pmf: np.ndarray) -> float:
    """Shannon entropy in nats; 0*log(0) taken as 0."""
    total = 0.0
    for p in pmf:
        if p > 0.0:
            total -= float(p) * math.log(float(p))
    return total


def softmax_loss_by_hand(
    weights: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    l2: float,
) -> float:
    """Mean cross-entropy of a softmax model plus L2 on non-bias weights.

    ``features`` already carries the trailing bias column of ones;
    ``weights`` has shape (K, D+1).
    """
    n = features.shape[0]
    total = 0.0
    for i in range(n):
        scores = weights @ features[i]
        scores = scores - scores.max()
        log_norm = math.log(sum(math.exp(s) for s in scores))
        total -= scores[int(labels[i])] - log_norm
    penalty = l2 * float(np.sum(weights[:, :-1] ** 2))
    return total / n + penalty


# ------------------------------------------------------------------
# mixtures and softmax loss over a max-shift log-sum-exp
# ------------------------------------------------------------------
#
# The mixture density, EM and softmax loss, written with numpy alone.
# The mixture density and the EM E-step run pixel-major: (N, M)
# log-term matrices, each row reduced by `max_shift_logsumexp`. Each
# component's Mahalanobis term is the squared norm of the pixels,
# centred at its mean, times the transposed inverse Cholesky factor;
# the EM M-step weighs the pixels, centred at each new mean, by the
# responsibilities. The package instead takes every log term as one
# product of natural parameters with the features [1, d, vech(d dᵀ)]
# and its M-step from their weighted sums, so its mixture results
# match these to the tolerances stated in the tests. The softmax loss
# forms its sums and matmuls on the same class-major and band-major
# operands as the package, because BLAS rounds by operand layout, and
# the package must reproduce it exactly. Only the k-means++ seeding is
# shared with the package.

def max_shift_logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of an (N, M) array: shift each row by its max.

    Rows whose result is not finite take log(sum(exp(row))) instead.
    """
    a_max = a.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.log(np.sum(np.exp(a - a_max[:, np.newaxis]), axis=1)) + a_max
        bad = ~np.isfinite(out)
        out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def pixel_major_log_gaussian_matrix(
    x: np.ndarray, means: np.ndarray, covariances: np.ndarray
) -> np.ndarray:
    """Log N(x | mean_m, cov_m) for every sample/component pair -> (N, M)."""
    n, b = x.shape
    m = means.shape[0]
    out = np.empty((n, m))
    const = b * math.log(2.0 * math.pi)
    for j in range(m):
        chol = np.linalg.cholesky(covariances[j])
        prec = np.linalg.inv(chol)
        y = (x - means[j]) @ prec.T
        maha = np.sum(y * y, axis=1)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, j] = -0.5 * (const + logdet + maha)
    return out


def pixel_major_log_density(mixture, x: np.ndarray) -> np.ndarray:
    """`GaussianMixture._log_density` over an (N, M) log-term matrix."""
    log_terms = pixel_major_log_gaussian_matrix(
        x, mixture.means, mixture.covariances
    )
    return max_shift_logsumexp(log_terms + np.log(mixture.weights))


def pixel_major_likelihood(model, pixels: np.ndarray) -> np.ndarray:
    """`MixtureClassifier.frame_posterior`: per-class densities -> (N, K)."""
    x = np.asarray(pixels, dtype=np.float64)
    return np.stack(
        [np.exp(pixel_major_log_density(mix, x)) for mix in model.mixtures], axis=1
    )


def reference_fit_single_mixture(
    x: np.ndarray, components: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """EM fit of one class's mixture -> (weights, means, covariances, trace).

    The E-step is pixel-major; the M-step weighs band-major pixels by
    class-major (M, N) responsibilities.
    """
    n, b = x.shape
    xt = np.ascontiguousarray(x.T)
    eye = np.eye(b)
    means = _kmeans_pp_centers(x, components, rng)
    base_cov = np.atleast_2d(np.cov(x.T, bias=True)) + COV_JITTER * eye
    covs = np.repeat(base_cov[np.newaxis], components, axis=0)
    weights = np.full(components, 1.0 / components)

    trace: list[float] = []
    for _ in range(EM_MAX_ITER):
        log_terms = pixel_major_log_gaussian_matrix(x, means, covs) + np.log(weights)
        log_norm = max_shift_logsumexp(log_terms)
        trace.append(float(np.mean(log_norm)))
        if len(trace) > 1 and trace[-1] - trace[-2] < EM_TOL:
            break
        resp = np.ascontiguousarray(np.exp(log_terms - log_norm[:, np.newaxis]).T)
        bulk = resp.sum(axis=1) + 10.0 * np.finfo(np.float64).tiny
        weights = bulk / n
        means = (resp @ x) / bulk[:, np.newaxis]
        covs = np.empty_like(covs)
        for j in range(components):
            centred = xt - means[j][:, np.newaxis]
            covs[j] = (centred * resp[j]) @ centred.T / bulk[j] + COV_JITTER * eye
    return weights, means, covs, trace


def reference_fit_mixtures(
    samples_by_class, components: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]]:
    """`fit_mixture_classifier`'s per-class loop over one shared RNG."""
    rng = np.random.default_rng(seed)
    return [
        reference_fit_single_mixture(np.asarray(x, dtype=np.float64), components, rng)
        for x in samples_by_class
    ]


def reference_logistic_loss_grad(
    weights_flat: np.ndarray,
    features_aug: np.ndarray,
    labels_onehot: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray]:
    """`logistic_loss_grad` on (K, N) scores, normalized pixel-major."""
    n, b_aug = features_aug.shape
    k = labels_onehot.shape[1]
    w = weights_flat.reshape(k, b_aug)
    scores = w @ features_aug.T
    log_norm = max_shift_logsumexp(np.ascontiguousarray(scores.T))
    log_probs = scores - log_norm
    nll = -float(np.sum(labels_onehot.T * log_probs)) / n
    loss = nll + l2 * float(np.sum(w[:, :-1] ** 2))
    grad = (np.exp(log_probs) - labels_onehot.T) @ features_aug / n
    grad[:, :-1] += 2.0 * l2 * w[:, :-1]
    return loss, grad.ravel()


def reference_logistic_hessian(
    features_aug: np.ndarray, probs: np.ndarray, l2: float
) -> np.ndarray:
    """Hessian of `logistic_loss_grad`'s loss, one class pair at a time:
    block (a, c) is ``(Xᵀ diag(p_a(δ_ac - p_c)) X) / N`` over the (N, D)
    features X, plus ``2·l2`` on the weight (not bias) diagonal."""
    (n, d), k = features_aug.shape, probs.shape[0]
    hess = np.empty((k, d, k, d))
    for a in range(k):
        for c in range(a, k):
            curvature = probs[a] * (float(a == c) - probs[c])
            block = (features_aug.T * curvature) @ features_aug / n
            hess[a, :, c], hess[c, :, a] = block, block.T
        hess[a, :-1, a, :-1] += 2.0 * l2 * np.eye(d - 1)
    return hess.reshape(k * d, k * d)


# ------------------------------------------------------------------
#
# The index and softmax engines' outputs as they were built pixel-major,
# on (..., K) arrays reduced over the last axis. The class-major engines
# must reproduce them exactly; `pixel_major_likelihood` above plays the
# same part for the mixture engine.

def pixel_major_index_posterior(classifier, values) -> np.ndarray:
    """`IndexClassifier.posterior_from_index` over (..., K) densities."""
    y = np.asarray(values, dtype=np.float64)[..., np.newaxis]
    z = (y - classifier.means) / classifier.sigmas
    dens = np.exp(-0.5 * z * z) / (classifier.sigmas * math.sqrt(2.0 * math.pi))
    return floor_normalize(dens)


def pixel_major_softmax(model, pixels: np.ndarray) -> np.ndarray:
    """`LogisticClassifier.frame_posterior` over (N, K) scores."""
    x = np.asarray(pixels, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(model.bands):
        raise ShapeError(
            f"expected pixels of shape (N, {len(model.bands)}), got {x.shape}"
        )
    std = (x - model.feature_mean) / model.feature_std
    aug = np.hstack([std, np.ones((std.shape[0], 1))])
    scores = aug @ model.weights.T
    scores -= scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    return expd / expd.sum(axis=1, keepdims=True)


def _likelihood_vector(values: np.ndarray) -> np.ndarray:
    """``values`` as a float64 vector: finite, non-negative and not all zero."""
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or not np.any(arr > 0.0):
        raise ValueError("likelihood vector must be finite, >= 0 and not all zero")
    return arr


def _check_classes(arr: np.ndarray, num_classes: int, name: str) -> None:
    if arr.shape[-1] != num_classes:
        raise ShapeError(
            f"{name} has {arr.shape[-1]} classes, transition model has {num_classes}"
        )


def predict_prior(prev_posterior: np.ndarray, transition: TransitionModel) -> np.ndarray:
    """Propagate the previous posterior one step through the transition model.

    ``prev_posterior`` holds probability vectors on the last axis. The
    result is the predictive prior for the next date and is again a
    probability vector within 1e-12.
    """
    prev = np.asarray(prev_posterior, dtype=np.float64)
    _check_classes(prev, transition.num_classes, "prev_posterior")
    return prev @ transition.matrix


def map_decision(posterior: np.ndarray) -> np.ndarray | int:
    """Most probable class index per probability vector; ties -> lowest index."""
    arr = np.asarray(posterior, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise ShapeError(f"posterior needs a class axis, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("posterior has non-finite entries")
    result = np.argmax(arr, axis=-1)
    return int(result) if arr.ndim == 1 else result


def update_operation_count(num_classes: int, evidence: str) -> int:
    """Closed-form per-pixel floating-point operation count of one update.

    ``evidence`` is the paper's input to the step: ``"likelihood"``
    (its generative form) or ``"posterior"`` (its discriminative form,
    which divides by the class marginal). Counts multiply-accumulates,
    multiplies, and divides of the naive scalar step, in which each class
    recomputes the shared denominator (that recomputation is what the
    closed forms describe). The scalar reference loops below count their
    operations the same way and must reproduce these numbers.
    """
    k = int(num_classes)
    if k < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    if evidence == "likelihood":
        return k * (k * k + k + 2)
    if evidence == "posterior":
        return k * (k * (k + 1) + k + 2)
    raise ConfigError(f"unknown evidence kind: {evidence!r}")


def counted_generative_update(
    likelihood: np.ndarray,
    prev_posterior: np.ndarray,
    transition: TransitionModel,
) -> tuple[np.ndarray, int]:
    """Scalar-loop generative update returning (posterior, op count).

    Pure-Python loops over one probability vector; no flooring, no
    vectorization. Serves as the independent numerical reference for
    `generative_update` and as the accounting reference for
    `update_operation_count`: each class recomputes the denominator.
    """
    lik = _likelihood_vector(likelihood)
    prev = validate_pmf(np.atleast_1d(prev_posterior))
    if lik.ndim != 1 or prev.ndim != 1:
        raise ShapeError("counted updates take single probability vectors")
    m = transition.matrix
    k = transition.num_classes
    _check_classes(lik, k, "likelihood")
    ops = 0
    posterior = np.empty(k)
    for i in range(k):
        prior_i = 0.0
        for j in range(k):
            prior_i += prev[j] * m[j, i]  # fused multiply-add: 1 op
            ops += 1
        denom = 0.0
        for c in range(k):
            inner = 0.0
            for j in range(k):
                inner += prev[j] * m[j, c]
                ops += 1
            denom += lik[c] * inner
        posterior[i] = lik[i] * prior_i / denom
        ops += 2  # one multiply, one divide
    return posterior, ops


def counted_discriminative_update(
    inst_posterior: np.ndarray,
    prev_posterior: np.ndarray,
    transition: TransitionModel,
) -> tuple[np.ndarray, int]:
    """Scalar-loop discriminative update returning (posterior, op count).

    Identical accounting to `counted_generative_update` plus one
    division per denominator term for the ratio to the uniform marginal.
    """
    inst = _likelihood_vector(inst_posterior)
    prev = validate_pmf(np.atleast_1d(prev_posterior))
    if inst.ndim != 1 or prev.ndim != 1:
        raise ShapeError("counted updates take single probability vectors")
    m = transition.matrix
    k = transition.num_classes
    _check_classes(inst, k, "inst_posterior")
    marg = uniform_pmf(k)
    ops = 0
    posterior = np.empty(k)
    for i in range(k):
        prior_i = 0.0
        for j in range(k):
            prior_i += prev[j] * m[j, i]
            ops += 1
        denom = 0.0
        ratio_i = 0.0
        for c in range(k):
            inner = 0.0
            for j in range(k):
                inner += prev[j] * m[j, c]
                ops += 1
            ratio = inst[c] / marg[c]
            ops += 1
            if c == i:
                ratio_i = ratio
            denom += ratio * inner
        posterior[i] = ratio_i * prior_i / denom
        ops += 2
    return posterior, ops


def rescanned_frame_scores(classification, stack):
    """`frame_accuracies` by rescanning: `balanced_accuracy` of each truth
    frame's returned label rasters against its truth, not the step's
    counts."""
    return tuple(
        FrameScore(
            date=frame.date,
            recursive=balanced_accuracy(classification.recursive_labels[t], frame.truth),
            instantaneous=balanced_accuracy(
                classification.instantaneous_labels[t], frame.truth
            ),
        )
        for t, frame in enumerate(stack.frames)
        if frame.truth is not None
    )


def per_epsilon_sweep(stack, models, lam, grid):
    """The epsilon sweep as one full `classify_stack` run per grid value.

    Unlike the rest of this module it reuses package code: it is the
    straightforward route (re-evaluate every model on every frame,
    collect both posterior cubes with `helpers.collect_stack`, score the label rasters with
    `rescanned_frame_scores`) that the one-pass `epsilon_sweep` must
    reproduce exactly. Returns the
    (algorithms, grid) recursive accuracy array and the per-algorithm
    instantaneous accuracies.
    """
    eps = tuple(float(e) for e in grid)
    algorithms = tuple(models)
    accuracy = np.zeros((len(algorithms), len(eps)))
    instantaneous = []
    for a, name in enumerate(algorithms):
        inst_score = None
        for e, epsilon in enumerate(eps):
            transition = build_transition_model(
                models[name].num_classes, epsilon
            )
            result = collect_stack(stack, models[name], transition, lam)
            scores = rescanned_frame_scores(result, stack)
            accuracy[a, e] = float(np.mean([s.recursive for s in scores]))
            if inst_score is None:
                inst_score = float(np.mean([s.instantaneous for s in scores]))
        instantaneous.append(inst_score)
    return accuracy, tuple(instantaneous)


def widened_band_values(frames, scale, factors, crop=None, bias_region=None):
    """A stack's float64 band values by the load chain of float64 images.

    ``frames`` holds each date's float32 planes at native resolution,
    ``factors`` each band's upsampling factor, and ``crop`` and
    ``bias_region`` optional (rows, cols) slice pairs, the second in
    cropped coordinates. Each plane is widened and scaled
    (``astype(f64) * scale``), upsampled by repeating each cell, the
    bands are stacked, the crop slice is
    copied out, and every frame after the first gets ``data + bias``,
    its bias being frame 0's region mean minus its own. Returns one
    (bands, H, W) float64 array per frame.
    """
    stacked = []
    for planes in frames:
        widened = []
        for plane, factor in zip(planes, factors):
            values = np.asarray(plane, dtype=np.float32).astype(np.float64) * scale
            widened.append(np.repeat(np.repeat(values, factor, axis=0), factor, axis=1))
        data = np.stack(widened)
        if crop is not None:
            data = np.ascontiguousarray(data[:, crop[0], crop[1]])
        stacked.append(data)
    if bias_region is None:
        return stacked
    rows, cols = bias_region
    reference = stacked[0][:, rows, cols].mean(axis=(1, 2))
    return stacked[:1] + [
        data + (reference - data[:, rows, cols].mean(axis=(1, 2)))[:, np.newaxis, np.newaxis]
        for data in stacked[1:]
    ]


def whole_frame_bias_shifts(images, rows, cols):
    """The per-band shift `bias_correct` gives each image after the first.

    Region means are taken over the float64 values of each whole frame,
    ``values()[:, rows, cols]``; a later image's own shift is added back.
    """
    reference = images[0].values()[:, rows, cols].mean(axis=(1, 2))
    shifts = []
    for image in images[1:]:
        shift = reference - image.values()[:, rows, cols].mean(axis=(1, 2))
        if image.shift is not None:
            shift += image.shift
        shifts.append(shift)
    return shifts


def frame_matrix(image, bands) -> np.ndarray:
    """Pixels of the named bands as an (H*W, len(bands)) float64 matrix."""
    return np.stack([image.band(b).ravel() for b in bands], axis=1)


def gathered_classifier(config, kind, train):
    """`build_classifier` for "gmm" and "logistic" by one concatenation of
    every training date's pixel matrix and pseudo-labels."""
    k = len(config.classes)
    bands = tuple(config.feature_bands or train.bands)
    pixel_blocks, label_blocks = [], []
    for frame in train.frames:
        image = frame.load().image
        labels = pseudo_labels(image, config.index, config.thresholds)
        pixel_blocks.append(frame_matrix(image, bands))
        label_blocks.append(labels.labels.ravel())
    pixels = np.concatenate(pixel_blocks, axis=0)
    labels = np.concatenate(label_blocks, axis=0)
    if kind == "gmm":
        samples = [pixels[labels == c] for c in range(k)]
        return fit_mixture_classifier(
            samples, bands=bands, components=config.gmm_components, seed=config.seed
        )
    return fit_logistic_classifier(pixels, labels, num_classes=k, bands=bands)


def matrix_logistic_posterior(model, frame) -> np.ndarray:
    """`LogisticClassifier.frame_posterior` standardizing the frame's
    (H*W, B) pixel matrix into the (H*W, B+1) features at once."""
    x = frame_matrix(frame.image, model.bands)
    aug = np.ones((len(x), len(model.bands) + 1))
    std = np.subtract(x, model.feature_mean, out=aug[:, :-1])
    np.divide(std, model.feature_std, out=std)
    scores = (aug @ model.weights.T).T.copy()
    scores -= np.max(scores, axis=0)
    np.exp(scores, out=scores)
    return normalize_columns(scores)
