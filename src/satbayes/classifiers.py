"""Instantaneous per-pixel classifiers and their training routines.

Three trained forms plus a pass-through:

* `IndexClassifier` turns a spectral-index threshold vector into a bank
  of Gaussians (one per class, centered on each threshold interval) and
  classifies pixels from their index value alone.
* `MixtureClassifier` holds one full-covariance Gaussian mixture per
  class over raw band values; fitting is plain EM with k-means++
  seeding. Both take a class's (M, N) log terms as one GEMM of natural
  parameters with the pixels' features [1, d, vech(d dᵀ)], reduced by a
  max-shift log-sum-exp.
* `LogisticClassifier` is a multinomial softmax over standardized band
  values, fitted full-batch with an L2 penalty by Newton's method on a
  class-major (K, N) objective.
* `ExternalPosteriorSource` replays per-frame posterior rasters that
  some outside model produced.

Engines are evaluated through one frame method only:
``frame_posterior(frame) -> (K, H*W)``, class major (row k holds class
k for every pixel in row-major pixel order), holding raw evidence:
non-negative class weights proportional, per pixel, to the posterior
under the uniform class prior (floored index densities, mixture
densities, max-shifted softmax exponentials, an external cube as read).
Only the recursion step normalizes or shape-checks them. A frame's
`MultibandImage` is finite and read-only by construction, so the engines
do not check its pixels again; (N, B) pixel rows are the fits' input
only. The index, mixture and logistic engines return a new C-ordered
float64 buffer on every call; their sums over classes use `core`'s
`column_sums`, as the recursion does. Nothing in the package keeps work
arrays between calls, so no engine or fit does: the recursion evaluates
each date in row strips of about 32k pixels, where fresh arrays cost
nothing measurable, and one instance serves all of its worker threads
at once. Model files use a small versioned binary container that
round-trips parameters bit for bit; loading checks them as the
constructors do.
"""

from __future__ import annotations

import enum
import functools
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PROB_FLOOR, Frame, LabelRaster, MultibandImage, column_sums
from .errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    InvalidClassCountError,
    InvalidHyperparameterError,
    InvalidThresholdError,
    LoadError,
    NumericalError,
    ShapeError,
)
from .textio import read_bytes, write_bytes

# ============================================================
# spectral indices
# ============================================================


class SpectralIndexKind(enum.Enum):
    """Normalized-difference indices: (first - second) / (first + second)."""

    MNDWI = "mndwi"
    NDWI = "ndwi"
    NDVI = "ndvi"

    @property
    def band_pair(self) -> tuple[str, str]:
        return _INDEX_BANDS[self]


_INDEX_BANDS = {
    SpectralIndexKind.MNDWI: ("green", "swir1"),
    SpectralIndexKind.NDWI: ("green", "nir"),
    SpectralIndexKind.NDVI: ("nir", "red"),
}


def spectral_index(
    image: MultibandImage, kind: SpectralIndexKind
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel normalized-difference index value and zero-denominator flags.

    Flagged pixels (band sum exactly zero) get index value 0.0 so they
    fall into whichever class owns that point of the index axis.
    """
    first, second = kind.band_pair
    a = image.band(first)
    b = image.band(second)
    safe = np.add(a, b)
    flags = safe == 0.0
    np.copyto(safe, 1.0, where=flags)
    values = np.divide(np.subtract(a, b, out=a), safe, out=safe)  # a is a fresh plane
    np.copyto(values, 0.0, where=flags)
    return values, flags


def pseudo_labels(
    image: MultibandImage, kind: SpectralIndexKind, thresholds: tuple[float, ...]
) -> LabelRaster:
    """Hard labels from threshold intervals over the index value.

    Value y belongs to class i when thresholds[i] < y <= thresholds[i+1];
    y at the lower endpoint joins class 0, and values outside the
    threshold range (possible after bias correction) clamp into the
    nearest end class.
    """
    tau = _checked_thresholds(thresholds)
    values, _ = spectral_index(image, kind)
    idx = np.searchsorted(tau, values, side="left") - 1
    idx = np.clip(idx, 0, len(tau) - 2)
    return LabelRaster(idx.astype(np.uint8), num_classes=len(tau) - 1)


def _checked_thresholds(thresholds: tuple[float, ...]) -> np.ndarray:
    tau = np.asarray(thresholds, dtype=np.float64)
    if tau.ndim != 1 or tau.size < 3:
        raise InvalidThresholdError(
            f"need K+1 >= 3 thresholds, got shape {tau.shape}"
        )
    if tau[0] != -1.0 or tau[-1] != 1.0:
        raise InvalidThresholdError(
            f"thresholds must start at -1 and end at 1, got {tau[0]}..{tau[-1]}"
        )
    if np.any(np.diff(tau) <= 0.0):
        raise InvalidThresholdError(f"thresholds must strictly increase: {tau}")
    return tau


@functools.cache
def _upper(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(size)`` as read-only arrays, built once per size."""
    rows, cols = np.triu_indices(size)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


# Training passes walk their N samples in blocks of this many, so that a
# block's features and work arrays stay in a core's L2 cache.
_FIT_BLOCK = 8192


# ============================================================
# index classifier
# ============================================================


@dataclass(frozen=True)
class IndexClassifier:
    """Gaussian bank derived from index thresholds.

    Class j gets a Gaussian centered in the j-th threshold interval:
    mean at the interval midpoint, standard deviation half the interval
    length. Its evidence is the Gaussian densities of the pixel's index
    value, one class row at a time in place in a (K, n) buffer, floored
    at PROB_FLOOR so that a pixel whose every density underflows runs as
    a uniform column, not an all-zero one. The exponent ``(z²)·(-0.5)``
    gives, after ``exp``, the broadcast (n, K) ``(-0.5·z)·z`` bit for
    bit, even where z² overflows or is subnormal.
    """

    kind: SpectralIndexKind
    thresholds: tuple[float, ...]
    means: np.ndarray
    sigmas: np.ndarray

    @classmethod
    def from_thresholds(
        cls, thresholds: tuple[float, ...] | list[float], kind: SpectralIndexKind
    ) -> IndexClassifier:
        tau = _checked_thresholds(tuple(thresholds))
        widths = np.diff(tau)
        means = tau[:-1] + widths / 2.0
        sigmas = widths / 2.0
        means.flags.writeable = False
        sigmas.flags.writeable = False
        return cls(
            kind=kind,
            thresholds=tuple(float(t) for t in tau),
            means=means,
            sigmas=sigmas,
        )

    @property
    def num_classes(self) -> int:
        return len(self.thresholds) - 1

    def posterior_from_index(self, values: np.ndarray | float) -> np.ndarray:
        """Class densities of index values of any shape -> (K, ...), floored at
        PROB_FLOOR: proportional to the posterior, not normalized."""
        y = np.asarray(values, dtype=np.float64)
        flat = y.reshape(-1)
        dens = np.empty((self.num_classes, flat.size))
        with np.errstate(over="ignore"):  # z² = inf: density 0, as after (-0.5·z)·z
            for row, mean, sigma in zip(dens, self.means, self.sigmas):
                np.divide(np.subtract(flat, mean, out=row), sigma, out=row)
                np.multiply(np.square(row, out=row), -0.5, out=row)
                np.divide(np.exp(row, out=row), sigma * math.sqrt(2.0 * math.pi), out=row)
        np.maximum(dens, PROB_FLOOR, out=dens)  # an underflowed column stays usable
        return dens.reshape(dens.shape[0], *y.shape)

    def frame_posterior(self, frame: Frame) -> np.ndarray:
        values, _ = spectral_index(frame.image, self.kind)
        return self.posterior_from_index(values.ravel())


# ============================================================
# Gaussian mixture classifier
# ============================================================

COV_JITTER = 1e-6
EM_TOL = 1e-6
EM_MAX_ITER = 200


@dataclass(frozen=True)
class GaussianMixture:
    """One class's mixture: weights (M,), means (M, B), covariances (M, B, B)."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        cov = np.asarray(self.covariances, dtype=np.float64)
        if w.ndim != 1 or mu.ndim != 2 or cov.ndim != 3:
            raise ShapeError("mixture arrays have wrong rank")
        m, b = mu.shape
        if w.shape != (m,) or cov.shape != (m, b, b):
            raise ShapeError(
                f"inconsistent mixture shapes: {w.shape}, {mu.shape}, {cov.shape}"
            )
        for arr in (w, mu, cov):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def num_bands(self) -> int:
        return self.means.shape[1]

    def _coefficients(self, center: np.ndarray) -> np.ndarray:
        """Natural parameters a (M, Q), log(w_m N(x | mean_m, cov_m)) = a_m · T(x)
        for the `_features` T at ``center`` (PRML §2.4). With L = cholesky(cov),
        R = L⁻¹, P = Rᵀ R and z = R (mean - center), a_m = [log w_m - (B log 2π
        + log det + zᵀz) / 2, Rᵀ z, -P_ii / 2 and -P_ij for i < j]. A covariance
        that is not positive definite raises LinAlgError."""
        upper = _upper(self.num_bands)
        chol = np.linalg.cholesky(self.covariances)
        root = np.linalg.inv(chol)
        z = (root @ (self.means - center)[:, :, np.newaxis])[:, :, 0]
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        const = self.num_bands * math.log(2.0 * math.pi) + log_det + np.sum(z * z, axis=1)
        quad = (root.transpose(0, 2, 1) @ root)[:, upper[0], upper[1]]
        quad *= np.where(upper[0] == upper[1], -0.5, -1.0)
        linear = (z[:, np.newaxis, :] @ root)[:, 0]
        return np.column_stack([np.log(self.weights) - 0.5 * const, linear, quad])

    def _log_density(self, xt: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Log mixture density of unchecked band-major pixels xt (B, N) -> (N,), the
        features centred at the mixture's mean: at a component mean, terms of
        about zᵀz / 2 cancel, z its whitened offset from that centre."""
        center = self.weights @ self.means
        return _mixture_terms(self._coefficients(center), _features(xt, center))[2]


def _logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=0)) of an (M, N) array -> (N,).

    The plain max-shift: ``log(sum(exp(a - max))) + max`` per column,
    the sum taken by `column_sums`, so each column equals the same steps
    on a row of the (N, M) transpose. Columns whose result is not
    finite (an inf or NaN entry, or all entries -inf) fall back to
    ``log(sum(exp(a)))``, where summation order cannot matter.
    """
    a_max = np.max(a, axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = a - a_max
        out = np.log(column_sums(np.exp(shifted, out=shifted)))
        out += a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[:, bad]), axis=0))
    return out


def _features(xt: np.ndarray | list[np.ndarray], center: np.ndarray) -> np.ndarray:
    """T = [1, d, vech(d dᵀ)] of band-major pixels xt (B rows of N), d = x - center,
    -> (Q, N), Q = 1 + B + B(B+1)/2; overflows are left inf for `_mixture_terms`."""
    b = len(center)
    out = np.empty((1 + b + b * (b + 1) // 2, len(xt[0])))
    out[0] = 1.0
    with np.errstate(over="ignore"):
        for i in range(b):
            np.subtract(xt[i], center[i], out=out[1 + i])
        for row, (i, j) in enumerate(zip(*_upper(b)), start=1 + b):
            np.multiply(out[1 + i], out[1 + j], out=out[row])
    return out


def _mixture_terms(coef: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """One GEMM and one exp over features t (Q, N) -> (terms, sums, log_norm):
    the (M, N) log terms ``coef @ t`` less their column max, exponentiated in
    place, their column sums and the log density ``log(sums) + max``; ``terms /
    sums`` are the responsibilities. A log term that is not finite stands for an
    overflow far below any float: it counts as -inf, without a warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = coef @ t
        top = np.max(terms, axis=0)
        if not np.isfinite(top).all():
            terms[~np.isfinite(terms)] = -np.inf
            top = np.max(terms, axis=0).clip(min=-np.finfo(np.float64).max)
        terms -= top
        sums = column_sums(np.exp(terms, out=terms))
        return terms, sums, np.log(sums) + top


def _kmeans_pp_centers(x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((m, x.shape[1]))
    centers[0] = x[rng.integers(x.shape[0])]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total == 0.0:
            centers[j] = x[rng.integers(x.shape[0])]
        else:
            centers[j] = x[rng.choice(x.shape[0], p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def _em_converged(trace: list[float]) -> bool:
    """EM's stopping rule: the last iteration gained less than EM_TOL."""
    return len(trace) > 1 and trace[-1] - trace[-2] < EM_TOL


def _fit_single_mixture(
    x: np.ndarray, components: int, rng: np.random.Generator
) -> tuple[GaussianMixture, list[float]]:
    """EM fit of one class's mixture -> (model, mean-LL trace), on expected
    sufficient statistics (PRML §9.2-9.4) of features T centred at the class
    mean. Each iteration is one pass over T's columns in blocks of
    `_FIT_BLOCK`, in order: per block, the E-step `_mixture_terms` and the
    block's ``resp @ Tᵀ``, added to the log-likelihood total and the (M, Q)
    statistics. The M-step then gives weights, means m and second moments S₂,
    with covariances S₂ - m mᵀ."""
    n, b = x.shape
    upper = _upper(b)
    center = x.mean(axis=0)
    t = _features(x.T, center)
    blocks = [t[:, i : i + _FIT_BLOCK] for i in range(0, n, _FIT_BLOCK)]
    base_cov = np.atleast_2d(np.cov(x.T, bias=True)) + COV_JITTER * np.eye(b)
    covs = np.repeat(base_cov[np.newaxis], components, axis=0)
    weights = np.full(components, 1.0 / components)
    mix = GaussianMixture(weights, _kmeans_pp_centers(x, components, rng), covs)
    trace: list[float] = []
    for _ in range(EM_MAX_ITER):
        coef = mix._coefficients(center)
        total = 0.0
        # per component: the sums of 1, d and vech(d dᵀ) weighted by responsibility
        stats = np.zeros((components, len(t)))
        for blk in blocks:
            resp, sums, log_norm = _mixture_terms(coef, blk)
            total += np.sum(log_norm)
            stats += np.divide(resp, sums, out=resp) @ blk.T
        trace.append(float(total / n))
        if _em_converged(trace):
            break
        bulk = stats[:, :1] + 10.0 * np.finfo(np.float64).tiny
        moments = stats / bulk
        shift = moments[:, 1 : 1 + b]
        covs = np.empty((components, b, b))
        covs[:, upper[0], upper[1]] = covs[:, upper[1], upper[0]] = moments[:, 1 + b :]
        covs -= shift[:, :, np.newaxis] * shift[:, np.newaxis, :]
        mix = GaussianMixture(bulk[:, 0] / n, center + shift, covs + COV_JITTER * np.eye(b))
    return mix, trace


@dataclass(frozen=True)
class MixtureClassifier:
    """Per-class Gaussian mixtures over raw band values."""

    bands: tuple[str, ...]
    mixtures: tuple[GaussianMixture, ...]
    ll_traces: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        if len(self.mixtures) < 2:
            raise InvalidClassCountError("need mixtures for at least 2 classes")
        b = len(self.bands)
        for mix in self.mixtures:
            if mix.num_bands != b:
                raise ShapeError(
                    f"mixture over {mix.num_bands} bands, classifier has {b}"
                )

    @property
    def num_classes(self) -> int:
        return len(self.mixtures)

    def frame_posterior(self, frame: Frame) -> np.ndarray:
        # The class-conditional densities: proportional, per pixel, to the
        # posterior under a uniform class prior.
        planes = [frame.image.band(b).ravel() for b in self.bands]
        return np.stack([np.exp(mix._log_density(planes)) for mix in self.mixtures])


def fit_mixture_classifier(
    samples_by_class: list[np.ndarray] | tuple[np.ndarray, ...],
    bands: tuple[str, ...],
    components: int = 3,
    seed: int = 0,
) -> MixtureClassifier:
    """Fit one mixture per class with EM.

    ``samples_by_class[k]`` holds class k's training pixels, shape
    (n_k, len(bands)); each is fitted with ``components`` components.
    Seeding is k-means++ driven by ``seed``; EM stops when the mean
    log-likelihood improves by less than 1e-6 or after 200 iterations.
    Each iteration is one pass over the class's samples in blocks of
    8192 (`_FIT_BLOCK`), taken in order; the cut depends only on the
    sample count.
    Each class must supply at least 10 * components * len(bands)
    samples, all finite, whose summed squared distances fit in float64.
    Before any class is fitted, thinner classes raise
    InsufficientDataError, a NaN or inf sample DataError and an overflow
    NumericalError. A covariance that is not positive definite
    (collinear bands, say) raises NumericalError naming the class.

    Policy for a fit that does not converge: warn, never raise. A class
    whose EM stops at the iteration limit emits a RuntimeWarning naming
    the class and its final mean log-likelihood, and its mixture is
    kept as the last iteration left it.
    """
    if len(samples_by_class) < 2:
        raise InvalidClassCountError("need samples for at least 2 classes")
    if components < 1:
        raise InvalidHyperparameterError(f"components must be >= 1, got {components}")
    num_bands = len(bands)
    classes = []
    for k, samples in enumerate(samples_by_class):
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != num_bands:
            raise ShapeError(
                f"class {k}: expected samples of shape (n, {num_bands}), got {x.shape}"
            )
        if not np.isfinite(x).all():
            raise DataError(f"class {k}: training samples contain non-finite values")
        needed = 10 * components * num_bands
        if x.shape[0] < needed:
            raise InsufficientDataError(
                f"class {k}: {x.shape[0]} samples < {needed} "
                f"(10 * {components} components * {num_bands} bands)"
            )
        with np.errstate(over="ignore"):  # bounds the k-means++ and covariance sums
            spread = x.shape[0] * np.sum(np.square(np.ptp(x, axis=0)))
        if not np.isfinite(spread):
            raise NumericalError(f"class {k}: squared sample distances overflow float64")
        classes.append(x)
    rng = np.random.default_rng(seed)
    mixtures, traces = [], []
    for k, x in enumerate(classes):
        try:
            mix, trace = _fit_single_mixture(x, components, rng)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"class {k}: mixture covariance is not positive definite ({exc})"
            ) from exc
        if not _em_converged(trace):
            warnings.warn(
                f"class {k}: EM stopped at the {EM_MAX_ITER}-iteration limit "
                f"before converging; final mean log-likelihood {trace[-1]:.6g}",
                RuntimeWarning,
                stacklevel=2,
            )
        mixtures.append(mix)
        traces.append(tuple(trace))
    return MixtureClassifier(
        bands=tuple(bands), mixtures=tuple(mixtures), ll_traces=tuple(traces)
    )


# ============================================================
# logistic classifier
# ============================================================

LR_L2 = 1e-4
LR_MAX_ITER = 1000
LR_PGTOL = 1e-9


def logistic_loss_grad(
    weights_flat: np.ndarray,
    features_aug: np.ndarray,
    labels_onehot: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy plus L2 penalty (bias column excluded), with
    gradient and the (K, N) class probabilities -> (loss, grad, probs).

    ``features_aug`` is (N, B+1) with a trailing column of ones;
    ``weights_flat`` raveled from (K, B+1). Exposed as a module function
    so the gradient can be checked against finite differences; the fit
    takes its Hessian at ``probs``. Every array is allocated per call,
    so calls share no state.
    """
    n = features_aug.shape[0]
    w = weights_flat.reshape(labels_onehot.shape[1], -1)
    onehot = labels_onehot.T
    log_probs = w @ features_aug.T
    log_probs -= _logsumexp_columns(log_probs)
    loss = -float(np.sum(onehot * log_probs)) / n
    loss += l2 * float(np.sum(w[:, :-1] ** 2))
    probs = np.exp(log_probs, out=log_probs)
    grad = (probs - onehot) @ features_aug / n
    grad[:, :-1] += 2.0 * l2 * w[:, :-1]
    return loss, grad.ravel(), probs


def _logistic_hessian(features_aug: np.ndarray, probs: np.ndarray, l2: float) -> np.ndarray:
    """Exact Hessian of `logistic_loss_grad`'s loss at class probabilities
    ``probs`` (K, N) -> (K·D, K·D), D = B+1. Block (a, c) is the mean over the
    samples x of ``p_a(δ_ac - p_c) x xᵀ``. For each run of `_FIT_BLOCK`
    samples, in order, one GEMM of their vech(x xᵀ) rows (D(D+1)/2 of them)
    and their curvature rows ``p_a(δ_ac - p_c)`` (K(K+1)/2 of them) adds to
    the upper triangles of all blocks; no whole-N temporary is built."""
    (n, d), k = features_aug.shape, probs.shape[0]
    rows, cols = _upper(d)
    first, second = _upper(k)
    acc = np.zeros((len(rows), len(first)))
    for start in range(0, n, _FIT_BLOCK):
        xt = features_aug[start : start + _FIT_BLOCK].T
        p = probs[:, start : start + _FIT_BLOCK]
        outer = np.empty((len(rows), xt.shape[1]))
        for q, (i, j) in enumerate(zip(rows, cols)):
            np.multiply(xt[i], xt[j], out=outer[q])
        curvature = np.empty((len(first), xt.shape[1]))
        for r, (a, c) in enumerate(zip(first, second)):
            np.multiply(p[a], float(a == c) - p[c], out=curvature[r])
        acc += outer @ curvature.T
    acc /= n
    blocks = np.empty((len(first), d, d))
    blocks[:, rows, cols] = blocks[:, cols, rows] = acc.T
    hess = np.empty((k, k, d, d))
    hess[first, second] = hess[second, first] = blocks
    hess = hess.transpose(0, 2, 1, 3).reshape(k * d, k * d)
    penalty = np.arange(k * d) % d != d - 1  # the weights, not the biases
    hess[penalty, penalty] += 2.0 * l2
    return hess


@dataclass(frozen=True)
class LogisticClassifier:
    """Multinomial softmax over standardized band values.

    ``weights`` has shape (K, B+1); the last column is the bias on the
    standardized features. Standardization statistics come from the
    training data and travel with the model; each band is standardized
    straight into its column of the features. Its evidence is the
    exponentials of a class-major copy of the (N, K) scores, shifted so
    that each column's maximum is exactly 1. The matmul keeps its
    operand layout because BLAS rounding depends on it.
    """

    bands: tuple[str, ...]
    weights: np.ndarray
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        mean = np.asarray(self.feature_mean, dtype=np.float64)
        std = np.asarray(self.feature_std, dtype=np.float64)
        b = len(self.bands)
        if w.ndim != 2 or w.shape[1] != b + 1 or w.shape[0] < 2:
            raise ShapeError(f"weights must be (K>=2, {b + 1}), got {w.shape}")
        if mean.shape != (b,) or std.shape != (b,):
            raise ShapeError("standardization stats must match band count")
        if np.any(std <= 0.0):
            raise ValueError("feature_std entries must be > 0")
        for arr in (w, mean, std):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "feature_mean", mean)
        object.__setattr__(self, "feature_std", std)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def frame_posterior(self, frame: Frame) -> np.ndarray:
        image = frame.image
        aug = np.ones((math.prod(image.shape), len(self.bands) + 1))
        for i, name in enumerate(self.bands):
            col = np.subtract(image.band(name).ravel(), self.feature_mean[i], out=aug[:, i])
            np.divide(col, self.feature_std[i], out=col)
        scores = (aug @ self.weights.T).T.copy()
        scores -= np.max(scores, axis=0)
        return np.exp(scores, out=scores)


def fit_logistic_classifier(
    samples: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    bands: tuple[str, ...],
) -> LogisticClassifier:
    """Full-batch multinomial logistic regression on standardized features.

    Weights start at zero and are optimized by Newton's method (exact
    Hessian; least-squares steps, as all biases may shift together) until
    the largest gradient entry falls below 1e-9 or after 1000 iterations,
    so refits on reordered samples agree to high precision. Training is
    deterministic; per sample it holds the B+1 features, K one-hot labels
    and K probabilities (the last step's are dropped once the Hessian has
    used them) besides `logistic_loss_grad`'s temporaries. A label that
    is not a whole class index in [0, num_classes) and a band holding a
    NaN or inf sample are a DataError naming the label or the bands; a
    finite band whose standard deviation overflows float64 (as it does
    when its mean does) is a NumericalError.

    Policy for a fit that does not converge: warn, never raise. At the
    iteration limit a RuntimeWarning gives the largest gradient entry,
    and the last weights are used.
    """
    x = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels)
    if num_classes < 2:
        raise InvalidClassCountError(f"need at least 2 classes, got {num_classes}")
    if x.ndim != 2 or x.shape[1] != len(bands):
        raise ShapeError(
            f"expected samples of shape (n, {len(bands)}), got {x.shape}"
        )
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels shape {y.shape} != ({x.shape[0]},)")
    if x.shape[0] == 0:
        raise InsufficientDataError("no training samples")
    finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        names = ", ".join(np.array(bands)[~finite])
        raise DataError(f"band(s) {names}: training samples contain non-finite values")
    if not np.array_equal(np.trunc(y), y):  # NaN too; no (N,) mask outlives the check
        bad = y[np.trunc(y) != y][0]
        raise DataError(f"labels must be whole class indices, got {bad}")
    if np.any(y < 0) or np.any(y >= num_classes):
        raise DataError(f"labels must lie in [0, {num_classes})")
    if np.unique(y).size < 2:
        raise InsufficientDataError(
            "training labels cover a single class; need at least 2"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = x.mean(axis=0), x.std(axis=0)
    if not np.isfinite(std).all():
        names = ", ".join(np.array(bands)[~np.isfinite(std)])
        raise NumericalError(f"band(s) {names}: standard deviation overflows float64")
    std = np.where(std == 0.0, 1.0, std)  # constant feature: leave centered
    aug = np.empty((x.shape[0], len(bands) + 1))
    np.divide(np.subtract(x, mean, out=aug[:, :-1]), std, out=aug[:, :-1])
    aug[:, -1] = 1.0
    onehot = np.zeros((x.shape[0], num_classes))
    onehot[np.arange(x.shape[0]), y.astype(np.intp)] = 1.0

    w = np.zeros(num_classes * (len(bands) + 1))
    loss, grad, probs = logistic_loss_grad(w, aug, onehot, LR_L2)
    for _ in range(LR_MAX_ITER):
        if np.max(np.abs(grad)) < LR_PGTOL:
            break
        hess = _logistic_hessian(aug, probs, LR_L2)
        del probs  # the line search holds one (K, N) probability array, not two
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        t, slope = 1.0, float(grad @ step)
        while True:  # Armijo backtracking; at t = 0 the trial is w, which passes
            new_loss, new_grad, probs = logistic_loss_grad(w + t * step, aug, onehot, LR_L2)
            # near the optimum float64 cannot resolve the fall of the loss
            if new_loss <= loss + 1e-4 * t * slope or np.max(np.abs(new_grad)) < LR_PGTOL:
                break
            del probs
            t *= 0.5
        w, loss, grad = w + t * step, new_loss, new_grad
    if np.max(np.abs(grad)) >= LR_PGTOL:
        warnings.warn(
            f"logistic fit: Newton did not converge in {LR_MAX_ITER} iterations; "
            f"largest gradient entry {np.max(np.abs(grad)):.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    weights = w.reshape(num_classes, len(bands) + 1)
    return LogisticClassifier(
        bands=tuple(bands), weights=weights, feature_mean=mean, feature_std=std
    )


# ============================================================
# external posterior source
# ============================================================


@dataclass(frozen=True)
class ExternalPosteriorSource:
    """Replays posterior rasters attached to the stack's frames, as read:
    the recursion step checks their class count, as it checks every
    engine's output shape."""

    num_classes: int

    def frame_posterior(self, frame: Frame) -> np.ndarray:
        post = frame.external_posterior
        if post is None:
            raise DataError(f"frame {frame.date} has no external posterior")
        return post.reshape(len(post), -1)


# ============================================================
# model persistence
# ============================================================

MODEL_MAGIC = b"SBMF"
MODEL_VERSION = 1
_KIND_CODES = {IndexClassifier: 1, MixtureClassifier: 2, LogisticClassifier: 3}
_INDEX_CODES = {
    SpectralIndexKind.MNDWI: 1,
    SpectralIndexKind.NDWI: 2,
    SpectralIndexKind.NDVI: 3,
}

AnyClassifier = IndexClassifier | MixtureClassifier | LogisticClassifier


def _pack_floats(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _pack_bands(bands: tuple[str, ...]) -> bytes:
    blob = struct.pack("<B", len(bands))
    for name in bands:
        raw = name.encode("utf-8")
        blob += struct.pack("<B", len(raw)) + raw
    return blob


class _Reader:
    """Cursor over a model file's bytes; raises LoadError on truncation."""

    def __init__(self, blob: bytes, path: Path) -> None:
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise LoadError(f"{self.path}: truncated model file")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def floats(self, count: int) -> np.ndarray:
        values = np.frombuffer(self.take(8 * count), dtype="<f8").copy()
        if not np.isfinite(values).all():
            raise LoadError(f"{self.path}: model file holds a non-finite value")
        return values

    def bands(self) -> tuple[str, ...]:
        count = self.u8()
        return tuple(self.take(self.u8()).decode("utf-8") for _ in range(count))


def save_model(path: str | Path, model: AnyClassifier) -> Path:
    """Write a classifier to the versioned binary model container."""
    kind = _KIND_CODES.get(type(model))
    if kind is None:
        raise ConfigError(f"cannot persist model of type {type(model).__name__}")
    parts = [MODEL_MAGIC, struct.pack("<BB", MODEL_VERSION, kind)]
    if isinstance(model, IndexClassifier):
        parts.append(
            struct.pack("<BB", model.num_classes, _INDEX_CODES[model.kind])
        )
        parts.append(_pack_floats(np.asarray(model.thresholds)))
        parts.append(_pack_floats(model.means))
        parts.append(_pack_floats(model.sigmas))
    else:  # the band-based engines: mixture or logistic
        parts.append(struct.pack("<BB", model.num_classes, len(model.bands)))
        parts.append(_pack_bands(model.bands))
        if isinstance(model, MixtureClassifier):
            for mix in model.mixtures:
                parts.append(struct.pack("<B", mix.weights.shape[0]))
                parts += [_pack_floats(a) for a in (mix.weights, mix.means, mix.covariances)]
        else:
            arrays = (model.weights, model.feature_mean, model.feature_std)
            parts += [_pack_floats(a) for a in arrays]
    return write_bytes(path, b"".join(parts))


def load_model(path: str | Path) -> AnyClassifier:
    """Read a classifier back from the model container, bit for bit. A file
    holding a non-finite value, index means and sigmas that its thresholds do
    not give, a mixture without components, with a weight <= 0 or a covariance
    that is not positive definite, or parameters a constructor rejects raises
    LoadError."""
    src = Path(path)
    rd = _Reader(read_bytes(src), src)
    if rd.take(4) != MODEL_MAGIC:
        raise LoadError(f"{src}: not a model file (bad magic)")
    version = rd.u8()
    if version != MODEL_VERSION:
        raise LoadError(f"{src}: unsupported model version {version}")
    try:
        return _read_model(rd)
    except (ValueError, ShapeError, ConfigError) as exc:
        raise LoadError(f"{src}: {exc}") from exc


def _read_model(rd: _Reader) -> AnyClassifier:
    """The model after the container header, built by its constructor."""
    kind = rd.u8()
    if kind == 1:
        k = rd.u8()
        index_kind = {v: key for key, v in _INDEX_CODES.items()}.get(rd.u8())
        if index_kind is None:
            raise LoadError(f"{rd.path}: unknown spectral index code")
        thresholds = rd.floats(k + 1)
        means, sigmas = rd.floats(k), rd.floats(k)
        model = IndexClassifier.from_thresholds(tuple(thresholds), index_kind)
        if not (np.array_equal(means, model.means) and np.array_equal(sigmas, model.sigmas)):
            raise LoadError(f"{rd.path}: class means and sigmas do not match the thresholds")
        return model
    if kind in (2, 3):
        k, b, bands = rd.u8(), rd.u8(), rd.bands()
        if len(bands) != b:
            raise LoadError(f"{rd.path}: band list does not match band count")
    if kind == 2:
        mixtures = []
        for c in range(k):
            m = rd.u8()
            weights = rd.floats(m)
            means = rd.floats(m * b).reshape(m, b)
            covs = rd.floats(m * b * b).reshape(m, b, b)
            if m == 0:
                raise LoadError(f"{rd.path}: class {c} mixture has no components")
            if np.any(weights <= 0.0):
                raise LoadError(f"{rd.path}: class {c} mixture weights must be > 0")
            try:
                np.linalg.cholesky(covs)
            except np.linalg.LinAlgError:
                raise LoadError(
                    f"{rd.path}: class {c} mixture covariance is not positive definite"
                ) from None
            mixtures.append(GaussianMixture(weights, means, covs))
        return MixtureClassifier(bands=bands, mixtures=tuple(mixtures))
    if kind == 3:
        weights = rd.floats(k * (b + 1)).reshape(k, b + 1)
        return LogisticClassifier(bands, weights, rd.floats(b), rd.floats(b))
    raise LoadError(f"{rd.path}: unknown model kind {kind}")
