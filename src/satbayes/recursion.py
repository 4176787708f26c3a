"""Online Bayesian recursion over image time series.

Turns any instantaneous per-pixel classifier into an online classifier
by propagating a per-pixel class belief through a hidden-Markov chain.
Class-conditional likelihoods (generative mode) and instantaneous
posteriors (discriminative mode) go through one update: dividing a
posterior by the uniform class marginal scales it by K, which the
update's normalization cancels, so that division is not done.

All update arithmetic is one class-major kernel, `_Kernel`, on (K, N)
float64 arrays written in place, normalized by `core` as the engines
are. `FrameStep` owns the filter state and runs the kernel once per
frame, serially over all N pixels, for `classify_stack`,
`timing_bench` and `epsilon_sweep`: it validates the model's (K, N)
output once, floors it into its (K, N) ``inst``, and updates one
(K, N) belief per transition model in place, so a sweep over E
transition probabilities is a bank of E filters sharing one model
evaluation per frame. The filter needs only the previous date's
belief: `classify_stack` hands each date's (K, N) posteriors to a
per-frame sink, and collects them into float64 cubes only when the
caller passes none. The public `generative_update`,
`discriminative_update` and `regularize` take (..., K) arrays and run
the same arithmetic on a transposed (K, M) copy; the updates check
its evidence with the frame step's own check, `_check_evidence`.
"""

from __future__ import annotations

import datetime as dt
import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import (
    Frame,
    ImageStack,
    LabelRaster,
    TransitionModel,
    column_sums,
    floor_normalize_columns,
    normalize_columns,
    validate_pmf,
)
from .errors import (
    ConfigError,
    DegenerateLikelihoodError,
    InvalidClassCountError,
    InvalidHyperparameterError,
    SatBayesError,
    ShapeError,
)


class RecursionMode(enum.Enum):
    """Which instantaneous output feeds the one recursion update (`model_output`)."""

    GENERATIVE = "generative"          # class-conditional likelihoods
    DISCRIMINATIVE = "discriminative"  # instantaneous posteriors


# ============================================================
# single-step updates
# ============================================================


def generative_update(
    likelihood: np.ndarray,
    prev_posterior: np.ndarray,
    transition: TransitionModel,
) -> np.ndarray:
    """One recursion step from class-conditional likelihoods.

    Computes posterior_i proportional to likelihood_i * prior_i where the
    prior is ``prev_posterior`` @ M, normalized over classes. Bad
    likelihoods raise the errors of a bad `FrameStep` model output (an
    all-zero row a DegenerateLikelihoodError); ``prev_posterior`` must
    pass `validate_pmf`. Returns a (..., K) view.
    """
    likelihood = np.asarray(likelihood, dtype=np.float64)
    prev = validate_pmf(prev_posterior)
    k = transition.num_classes
    if likelihood.shape[-1:] != (k,) or prev.shape[-1] != k:
        raise ShapeError(
            f"the transition model has {k} classes, inputs have shapes "
            f"{likelihood.shape} and {prev.shape}"
        )
    shape = np.broadcast_shapes(likelihood.shape, prev.shape)
    weights = _class_major(likelihood, shape)
    belief = _class_major(prev, shape)
    kernel = _Kernel(*weights.shape)
    _check_evidence(weights, kernel.total)
    kernel.update(weights, belief, transition)
    return belief.T.reshape(shape)


def discriminative_update(
    inst_posterior: np.ndarray,
    prev_posterior: np.ndarray,
    transition: TransitionModel,
) -> np.ndarray:
    """One recursion step from instantaneous posterior probabilities.

    The paper divides each posterior by the class marginal p(c) before
    weighing the prior. The marginal is uniform, so that division scales
    a pixel's weights by K and the normalization cancels it: the step is
    `generative_update`, with its checks.
    """
    return generative_update(inst_posterior, prev_posterior, transition)


def regularize(pmf: np.ndarray, lam: float) -> np.ndarray:
    """Additive smoothing toward uniform: (p + lam) / sum(p + lam).

    ``lam`` = 0 returns the input unchanged (bit-exact identity); larger
    values pull the vector toward uniform without reordering classes.
    """
    _check_lam(lam)
    arr = validate_pmf(pmf)
    if lam == 0.0:
        return arr
    pmf_cm = _class_major(arr, arr.shape)
    pmf_cm += lam
    return normalize_columns(pmf_cm).T.reshape(arr.shape)


def _check_lam(lam: float) -> None:
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidHyperparameterError(f"lam must be finite and >= 0, got {lam}")


def _class_major(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Contiguous (K, M) copy of ``arr`` broadcast to ``shape`` (..., K)."""
    return np.array(np.broadcast_to(arr, shape).reshape(-1, shape[-1]).T, order="C")


def _check_evidence(raw: np.ndarray, total: np.ndarray) -> None:
    """Raise unless every column of the (K, n) float64 ``raw`` is usable evidence.

    In order: a non-finite, then a negative entry is a ValueError, an
    all-zero column a DegenerateLikelihoodError and a column sum that
    overflows float64 a ValueError. ``total`` is an (n,) buffer.
    """
    # Whole-array reductions prove every column finite, positive and far
    # from overflowing its sum (K terms below max / 2K); the initial values
    # let an input of zero columns pass. Otherwise the exact checks raise
    # their error, or pass an edge case: zero entries, or huge finite sums.
    lo, hi = raw.min(initial=np.inf), raw.max(initial=-np.inf)
    if lo > 0.0 and hi < np.finfo(np.float64).max / (2 * raw.shape[0]):
        return
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("likelihood vector has non-finite entries")
    if lo < 0.0:
        raise ValueError("likelihood vector has negative entries")
    with np.errstate(over="ignore"):  # an overflowing sum raises below
        total = column_sums(raw, total)  # finite entries >= 0
    if total.min() == 0.0:
        raise DegenerateLikelihoodError("all-zero likelihood vector")
    if total.max() == np.inf:
        raise ValueError("likelihood vector sum overflows float64")


class _Kernel:
    """The update arithmetic, on class-major (K, n) float64 arrays.

    Row c holds class c for n pixels, so each operation is one
    vectorized pass per class, written with ``out=`` into the caller's
    arrays or this kernel's n-pixel scratch. Columns are normalized by
    `core.normalize_columns` into the ``total`` row, so they round
    exactly like a normalization over the last axis of the (n, K) layout.
    """

    def __init__(self, num_classes: int, pixels: int) -> None:
        self.scratch = np.empty((num_classes, pixels))
        self.prior = np.empty((num_classes, pixels))
        self.total = np.empty(pixels)
        self.greater = np.empty(pixels, dtype=np.bool_)
        self.label_step = np.empty(pixels, dtype=np.uint8)

    def smooth(self, pmf: np.ndarray, lam: float) -> np.ndarray:
        """`regularize` (``lam`` > 0) of every column of ``pmf``, into scratch."""
        np.add(pmf, lam, out=self.scratch)
        return normalize_columns(self.scratch, total=self.total)

    def update(
        self, weights: np.ndarray, belief: np.ndarray, transition: TransitionModel
    ) -> None:
        """``belief`` = floor-normalized weights * M^T belief, in place."""
        np.matmul(transition.matrix.T, belief, out=self.prior)
        np.multiply(self.prior, weights, out=belief)
        floor_normalize_columns(belief, total=self.total)

    def decide(self, pmf: np.ndarray, labels: np.ndarray) -> None:
        """MAP class per column into uint8 ``labels``; ties -> lowest index.

        Equals ``argmax(axis=0)`` without its strided per-pixel scan:
        where class c beats the running maximum, add (c - label).
        """
        best, step = self.total, self.label_step
        labels.fill(0)
        np.copyto(best, pmf[0])
        for c in range(1, pmf.shape[0]):
            np.greater(pmf[c], best, out=self.greater)
            np.maximum(best, pmf[c], out=best)
            np.multiply(np.subtract(c, labels, out=step), self.greater, out=step)
            np.add(labels, step, out=labels)


# ============================================================
# whole-stack classification
# ============================================================


class FrameModel(Protocol):
    """Instantaneous classifier usable by `classify_stack`.

    ``frame_posterior`` must return per-pixel posterior probabilities of
    shape (num_classes, H*W), class major: row k holds class k for every
    pixel in row-major pixel order. Generative models additionally
    provide ``frame_likelihood`` with the same shape holding
    class-conditional densities. Any real dtype and memory layout is
    accepted; `FrameStep` reads the values as float64.
    """

    @property
    def num_classes(self) -> int: ...

    def frame_posterior(self, frame: Frame) -> np.ndarray: ...


@dataclass(frozen=True)
class StackClassification:
    """Output of `classify_stack` for one stack.

    Posterior cubes have shape (dates, classes, H, W) in float64, or
    are None when `classify_stack` handed the posteriors to a sink;
    label lists hold one LabelRaster per date.
    """

    dates: tuple[dt.date, ...]
    num_classes: int
    recursive_posteriors: np.ndarray | None
    instantaneous_posteriors: np.ndarray | None
    recursive_labels: tuple[LabelRaster, ...]
    instantaneous_labels: tuple[LabelRaster, ...]


def model_output(
    model: FrameModel, mode: RecursionMode
) -> Callable[[Frame], np.ndarray]:
    """The model method whose (K, N) output feeds a recursion in ``mode``.

    The mode decides nothing else: `FrameStep` updates alike on either output.
    """
    if mode is RecursionMode.DISCRIMINATIVE:
        return model.frame_posterior
    if not hasattr(model, "frame_likelihood"):
        raise ConfigError(
            "generative recursion needs a likelihood-producing classifier"
        )
    return model.frame_likelihood


class FrameStep:
    """The per-frame recursion step, sole owner of the filter state.

    `classify_stack` and `timing_bench` run it with one transition
    model, `epsilon_sweep` with one per grid value; all share the class
    count K, which the uint8 labels cap at 255 (InvalidClassCountError
    above). Its class-major arrays are ``inst`` (K, N), the
    floor-normalized instantaneous posterior; ``post`` (E, K, N), one
    belief per transition model, uniform after construction or `reset`;
    and the MAP ``labels`` (1 + E, N), row 0 from ``inst`` and row 1 + e
    from ``post[e]``. ``step(raw, date)`` floor-normalizes one frame's
    (K, N) evidence, likelihoods or posteriors alike, into ``inst``,
    smooths it and updates each ``post[e]`` in place. Validation and
    smoothing run once per call, whatever E is. An output of another
    shape is a ShapeError; in one of the right shape, a non-finite, then
    a negative entry is a ValueError, an all-zero pixel column a
    DegenerateLikelihoodError and an overflowing column sum a
    ValueError. Given the frame's ``date``, the message starts with its
    ISO form and the error keeps its type, and the state is left as it
    was. The step is serial: one `_Kernel` over all N pixel columns
    holds its scratch.
    """

    def __init__(
        self,
        transitions: Sequence[TransitionModel],
        lam: float,
        pixels: int,
    ) -> None:
        _check_lam(lam)
        self.transitions = tuple(transitions)
        k = self.transitions[0].num_classes
        if k > 255:
            raise InvalidClassCountError(f"at most 255 classes are supported, got {k}")
        self.lam = lam
        self._shape = (k, pixels)
        self._kernel = _Kernel(k, pixels)
        self.inst = np.empty((k, pixels))
        self.post = np.empty((len(self.transitions), k, pixels))
        self.labels = np.empty((1 + len(self.transitions), pixels), dtype=np.uint8)
        self.reset()

    def reset(self) -> None:
        """Start every belief again from the uniform prior."""
        self.post.fill(1.0 / self.post.shape[1])

    def __call__(self, raw: np.ndarray, date: dt.date | None = None) -> None:
        try:
            raw = self._check(raw)
        except (ValueError, SatBayesError) as exc:
            if date is None:
                raise
            raise type(exc)(f"{date.isoformat()}: {exc}") from exc
        self._advance(raw)

    def _check(self, raw: np.ndarray) -> np.ndarray:
        """The model output as float64, once it passes validation."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape != self._shape:
            raise ShapeError(
                f"model returned shape {raw.shape}, expected {self._shape}"
            )
        _check_evidence(raw, self._kernel.total)
        return raw

    def _advance(self, raw: np.ndarray) -> None:
        kernel, inst = self._kernel, self.inst
        floor_normalize_columns(raw, inst, kernel.total)
        kernel.decide(inst, self.labels[0])
        weights = kernel.smooth(inst, self.lam) if self.lam else inst
        for e, transition in enumerate(self.transitions):
            kernel.update(weights, self.post[e], transition)
            kernel.decide(self.post[e], self.labels[1 + e])


def classify_stack(
    stack: ImageStack,
    model: FrameModel,
    transition: TransitionModel,
    lam: float,
    mode: RecursionMode,
    sink: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> StackClassification:
    """Run the recursion over a whole stack, frame by frame.

    For each date the model's instantaneous output is row-normalized,
    smoothed with `regularize`, and folded into the running per-pixel
    belief (initialized uniform) by one `FrameStep`, which updates that
    belief in place. Both the recursive and the raw instantaneous
    decisions are returned so callers can compare them.

    After each date t, ``sink(t, inst, post)`` receives the date's
    instantaneous and recursive posteriors as (K, H*W) float64 views,
    valid only during the call. Without a sink they are collected into
    the returned float64 cubes; with one, the cube fields are None and
    only the uint8 labels are kept. A bad model output raises the error
    of `FrameStep`, prefixed with the frame's ISO date.
    """
    k = model.num_classes
    if k != transition.num_classes:
        raise ConfigError(
            f"model has {k} classes, transition model {transition.num_classes}"
        )
    evaluate = model_output(model, mode)
    height, width = stack.shape
    n = height * width
    t_total = len(stack)

    cubes = None
    if sink is None:
        cubes = np.empty((2, t_total, k, n))  # recursive, instantaneous

        def sink(t: int, inst: np.ndarray, post: np.ndarray) -> None:
            cubes[0, t] = post
            cubes[1, t] = inst

    labels = np.empty((t_total, 2, n), dtype=np.uint8)  # instantaneous, recursive
    step = FrameStep([transition], lam, n)
    for t, frame in enumerate(stack.frames):
        step(evaluate(frame), frame.date)
        labels[t] = step.labels
        sink(t, step.inst, step.post[0])

    def rasters(row: int) -> tuple[LabelRaster, ...]:
        return tuple(LabelRaster(v.reshape(height, width), k) for v in labels[:, row])

    def cube(which: int) -> np.ndarray | None:
        return None if cubes is None else cubes[which].reshape(t_total, k, height, width)

    return StackClassification(
        dates=stack.dates,
        num_classes=k,
        recursive_posteriors=cube(0),
        instantaneous_posteriors=cube(1),
        recursive_labels=rasters(1),
        instantaneous_labels=rasters(0),
    )
