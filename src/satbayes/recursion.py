"""Online Bayesian recursion over image time series.

Turns any instantaneous per-pixel classifier into an online classifier
by propagating a per-pixel class belief through a hidden-Markov chain.
The model feeds the step through one method, ``frame_posterior``: its
(K, n) output is any non-negative per-pixel scale of the posterior under
the uniform class prior. Class-conditional likelihoods and instantaneous
posteriors are both that, and dividing a posterior by the uniform class
marginal scales it by K: the update's normalization cancels each such
scale, so one update serves both and that division is not done.

All update arithmetic is three class-major functions, `_smooth`,
`_update` and `_decide`, on (K, n) float64 arrays, normalized by `core`.
The step alone normalizes and shape-checks a model output: the engines
hand it raw evidence. Nothing in the package keeps work arrays between
calls: they allocate theirs per call, and `FrameStep` holds only the
filter state, one belief per pixel and transition model, and the last
date's per-class counts against its truth. Pixels are independent, so
it visits each date's row tiles of about 32k pixels, which stay in
cache, once, on one worker per CPU of the process's affinity mask: the
calling thread and threads that the call starts and joins. The worker
evaluates the model on the tile's rows (a `Frame.window`), checks the
(K, n) output and normalizes it into the tile's instantaneous
posterior, updates one belief per transition model in place (a sweep
over E transition probabilities is a bank of E filters sharing one
model evaluation), decides the tile's labels, given the date's truth
counts them against the truth's window, so no label raster is scanned
again, and hands the tile to a sink, if any, while it is in cache. No
result depends on the tiling or the worker count; a bad tile fails the
date and leaves the state undefined until `reset`. The filter needs
only the previous date's belief, so `classify_stack`, the one loop over
a stack's dates, asks a sink for each date's tile sink and keeps only
the date's counts; `epsilon_sweep` and `run_experiment` run through it,
and only `timing_bench`, which times the step alone, has a loop of its
own. The public `generative_update`,
`discriminative_update` and `regularize` take (..., K) arrays and run
the same functions on a transposed (K, M) copy; the updates check its
evidence with the frame step's own check, `_evidence_fault`.
"""

from __future__ import annotations

import datetime as dt
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NoReturn, Protocol

import numpy as np

from .core import (
    Frame,
    ImageStack,
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
    fault = _evidence_fault(weights)
    if fault < len(_FAULTS):
        raise _fault_error(fault)
    _update(weights, belief, transition)
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
    ``lam`` must be finite and >= 0 with K * (1 + lam) finite, so that
    no smoothed sum overflows (InvalidHyperparameterError otherwise).
    """
    arr = validate_pmf(pmf)
    _check_lam(lam, arr.shape[-1])
    if lam == 0.0:
        return arr
    return _smooth(_class_major(arr, arr.shape), lam).T.reshape(arr.shape)


def _check_lam(lam: float, k: int) -> None:
    """``lam`` >= 0 with k * (1 + lam) finite, so no smoothed column sum
    of k classes overflows."""
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidHyperparameterError(f"lam must be finite and >= 0, got {lam}")
    if not np.isfinite(k * (1.0 + lam)):
        raise InvalidHyperparameterError(
            f"lam {lam} overflows the smoothed sum of {k} classes"
        )


def _class_major(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Contiguous (K, M) copy of ``arr`` broadcast to ``shape`` (..., K)."""
    return np.array(np.broadcast_to(arr, shape).reshape(-1, shape[-1]).T, order="C")


# A model output's faults, in the order the check reports them
_FAULTS = (
    (ValueError, "likelihood vector has non-finite entries"),
    (ValueError, "likelihood vector has negative entries"),
    (DegenerateLikelihoodError, "all-zero likelihood vector"),
    (ValueError, "likelihood vector sum overflows float64"),
)


def _evidence_fault(raw: np.ndarray) -> int:
    """Index in `_FAULTS` of the first fault of the (K, n) float64 ``raw``,
    len(_FAULTS) if every column is usable evidence."""
    # Whole-array reductions prove every column finite, positive and far
    # from overflowing its sum (K terms below max / 2K); the initial values
    # let an input of zero columns pass. Otherwise the exact checks find
    # the fault, or pass an edge case: zero entries, or huge finite sums.
    lo, hi = raw.min(initial=np.inf), raw.max(initial=-np.inf)
    if lo > 0.0 and hi < np.finfo(np.float64).max / (2 * raw.shape[0]):
        return len(_FAULTS)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return 0
    if lo < 0.0:
        return 1
    with np.errstate(over="ignore"):  # an overflowing sum is the last fault
        total = column_sums(raw)  # finite entries >= 0
    return 2 if total.min() == 0.0 else 3 if total.max() == np.inf else len(_FAULTS)


def _fault_error(fault: int) -> Exception:
    error, message = _FAULTS[fault]
    return error(message)


# The update arithmetic, on class-major (K, n) float64 arrays: row c
# holds class c for n pixels, so each operation is one vectorized pass
# per class. Columns are normalized by `core.normalize_columns`, so they
# round exactly like a normalization over the last axis of the (n, K)
# layout.


def _smooth(pmf: np.ndarray, lam: float) -> np.ndarray:
    """`regularize` (``lam`` > 0) of every column of ``pmf``, into a new array."""
    return normalize_columns(np.add(pmf, lam))


def _update(weights: np.ndarray, belief: np.ndarray, transition: TransitionModel) -> None:
    """``belief`` = floor-normalized weights * M^T belief, in place."""
    np.multiply(np.matmul(transition.matrix.T, belief), weights, out=belief)
    floor_normalize_columns(belief)


def _decide(pmf: np.ndarray, labels: np.ndarray) -> None:
    """MAP class per column into uint8 ``labels``; ties -> lowest index.

    Equals ``argmax(axis=0)`` without its strided per-pixel scan:
    where class c beats the running maximum, add (c - label).
    """
    labels.fill(0)
    best = pmf[0].copy()
    for c in range(1, pmf.shape[0]):
        greater = pmf[c] > best
        np.maximum(best, pmf[c], out=best)
        labels += (c - labels) * greater


def _count(labels: np.ndarray, truth: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Hits (R, C) and totals (C,) of the (R, n) ``labels`` against ``truth``.

    hits[r, c] counts the pixels where row r and the truth are both c,
    totals[c] the truth's pixels of class c. C is k, or more when the
    truth holds a label >= k: that label is a class of its own, with
    no hits.
    """
    masks = [truth == c for c in range(k)]  # shared by every label row
    totals = np.array([np.count_nonzero(mask) for mask in masks])
    if totals.sum() != truth.size:
        totals = np.bincount(truth, minlength=k)
    hits = np.zeros((len(labels), len(totals)), dtype=totals.dtype)
    equal, both = np.empty(truth.shape, dtype=bool), np.empty(truth.shape, dtype=bool)
    for r, row in enumerate(labels):
        np.equal(row, truth, out=equal)
        for c, mask in enumerate(masks):
            hits[r, c] = np.count_nonzero(np.logical_and(equal, mask, out=both))
    return hits, totals


# ============================================================
# row tiles on worker threads
# ============================================================

_TILE_PIXELS = 32768  # about this many pixels per row tile; its passes stay in cache


def _workers() -> int:
    """Tile workers: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A tile's pixel slice, instantaneous posterior (K, n), beliefs (E, K, n)
# and label rows (1 + E, n), handed over by the worker that advanced it
TileSink = Callable[[slice, np.ndarray, np.ndarray, np.ndarray], object]


class FrameModel(Protocol):
    """Instantaneous classifier usable by `classify_stack`.

    ``frame_posterior`` must return non-negative class weights of shape
    (num_classes, H*W), class major: row k holds class k for every pixel
    in row-major pixel order. Each pixel's column need only be
    proportional to its posterior under the uniform class prior, so
    normalized posteriors and class-conditional likelihoods both serve:
    `FrameStep` floor-normalizes every column, which cancels the scale.
    Any real dtype and memory layout is accepted; `FrameStep` reads the
    values as float64. The recursion calls the method on `Frame.window`
    views of a date's rows, from several threads at once.
    """

    @property
    def num_classes(self) -> int: ...

    def frame_posterior(self, frame: Frame) -> np.ndarray: ...


@dataclass(frozen=True)
class StackClassification:
    """Output of `classify_stack`: ``counts`` holds, per date, None if the
    frame carries no truth, else the `FrameStep` ``(hits, totals)`` of its
    labels against that truth: hits (1 + E, C), row 0 instantaneous and
    row 1 + e under transition model e, and totals (C,)."""

    dates: tuple[dt.date, ...]
    num_classes: int
    counts: tuple[tuple[np.ndarray, np.ndarray] | None, ...]


class FrameStep:
    """The per-frame recursion step, sole owner of the filter state.

    `classify_stack` runs it with a bank of transition models (one for
    `run_experiment`, one per grid value for `epsilon_sweep`), and
    `timing_bench` with one; all must share the class count K (a
    ConfigError otherwise, or without any), which the uint8 labels cap
    at 255 (InvalidClassCountError above), and ``lam`` must pass
    `regularize`'s check for K classes. Its state is one class-major
    array, ``post`` (E, K, N): one belief per transition model, uniform
    after construction or `reset`. ``step(raw, date, truth, sink)``
    floor-normalizes one frame's (K, N) class weights (`FrameModel`)
    into the instantaneous posterior, smooths it and updates each
    ``post[e]`` in place; ``raw`` may also be a function from a slice of
    rows to their (K, n) output. Each tile's MAP labels are decided into
    (1 + E, n) uint8 rows, row 0 from the instantaneous posterior and
    row 1 + e from ``post[e]``. The instantaneous posterior and the
    labels are the tile's own scratch: the worker hands them to
    ``sink(pixels, inst, post, labels)``, if given, with the tile's
    slice of the N row-major pixels and its (E, K, n) view of ``post``,
    which the sink may read during that call only. Given the date's
    ``truth``, its (N,) non-negative integer labels, the step also
    scores the date: ``hits`` (1 + E, C) counts, per label row and class
    c, the pixels where that row and the truth are both c, and
    ``totals`` (C,) the truth's pixels per class. C is K, or one more
    than the largest truth label if that is K or more. Without a truth
    both are None. They are per-date reductions: each tile's worker
    counts its own pixels and the tiles' counts are added in tile order.

    The N pixels are rows of ``width``, stepped in the row tiles
    ``rows`` of about `_TILE_PIXELS` pixels by one `map`, on one worker
    per CPU this process may run on and at most one per tile: the
    calling thread and threads that the call starts and joins. A worker
    evaluates, checks, advances, decides, counts and sinks each of its
    tiles, and visits every one even after a fault; a tile that faults
    is not sunk. A model's or a sink's error propagates as it is. A
    truth, then an output, of another shape is a ShapeError; in an
    output of the right shape, a non-finite, then a negative entry
    in any tile is a ValueError, an all-zero pixel column a
    DegenerateLikelihoodError and an overflowing column sum a
    ValueError. Given the frame's ``date``, the message starts with its
    ISO form and the error keeps its type. The state is then undefined
    until `reset`.
    """

    def __init__(
        self, transitions: Sequence[TransitionModel], lam: float, pixels: int, width: int = 1
    ) -> None:
        self.transitions = tuple(transitions)
        counts = [t.num_classes for t in self.transitions]
        if len(set(counts)) != 1:
            raise ConfigError(f"transition models must share one class count, got {counts}")
        k = counts[0]
        if k > 255:
            raise InvalidClassCountError(f"at most 255 classes are supported, got {k}")
        _check_lam(lam, k)
        width = max(width, 1)  # a frame without columns has no pixels
        if pixels % width:
            raise ShapeError(f"{pixels} pixels do not make rows of {width}")
        self.lam = lam
        self._shape = (k, pixels)
        height, rows = pixels // width, max(1, _TILE_PIXELS // width)
        self.rows = [slice(r, min(r + rows, height)) for r in range(0, max(height, 1), rows)]
        self._cols = [slice(r.start * width, r.stop * width) for r in self.rows]
        self.post = np.empty((len(self.transitions), k, pixels))
        self.hits = self.totals = None
        self.reset()
        self._workers = min(_workers(), len(self.rows))

    def reset(self) -> None:
        """Start every belief again from the uniform prior."""
        self.post.fill(1.0 / self.post.shape[1])

    def map(self, task: Callable[[int], object]) -> None:
        """Run ``task(i)`` for every tile i, worker w taking tiles w, w + W, ...
        on the calling thread for w = 0, else on a thread started here; once
        all are joined, the lowest-numbered worker's error, if any, propagates."""
        count, tiles, errors = self._workers, len(self.rows), {}

        def share(w: int) -> None:
            try:
                for i in range(w, tiles, count):
                    task(i)
            except BaseException as exc:  # raised by the calling thread below
                errors[w] = exc

        threads = []
        try:
            for w in range(1, count):
                thread = threading.Thread(target=share, args=(w,))
                thread.start()
                threads.append(thread)
            share(0)
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[min(errors)]

    def __call__(
        self,
        raw: np.ndarray | Callable[[slice], np.ndarray],
        date: dt.date | None = None,
        truth: np.ndarray | None = None,
        sink: TileSink | None = None,
    ) -> None:
        truth = None if truth is None else np.asarray(truth)
        whole = None if callable(raw) else np.asarray(raw)
        for what, arr, shape in (("truth has", truth, self._shape[1:]),
                                 ("model returned", whole, self._shape)):
            if arr is not None and arr.shape != shape:
                _raise_dated(ShapeError(f"{what} shape {arr.shape}, expected {shape}"), date)
        faults, counts = [], [None] * len(self.rows)  # faults: (rank, tile, error)

        def visit(i: int) -> None:
            cols = self._cols[i]
            # a model's own error propagates as it is
            out = raw(self.rows[i]) if whole is None else whole[:, cols]
            shape = (self._shape[0], cols.stop - cols.start)
            try:
                out = np.asarray(out, dtype=np.float64)
                if out.shape != shape:
                    raise ShapeError(f"model returned shape {out.shape}, expected {shape}")
            except (ValueError, SatBayesError) as exc:
                faults.append((-1, i, exc))
                return
            fault = _evidence_fault(out)
            if fault < len(_FAULTS):
                faults.append((fault, i, _fault_error(fault)))
                return
            inst = floor_normalize_columns(out, np.empty(shape))
            labels = np.empty((1 + len(self.transitions), shape[1]), dtype=np.uint8)
            _decide(inst, labels[0])
            weights = _smooth(inst, self.lam) if self.lam else inst
            post = self.post[:, :, cols]
            for e, transition in enumerate(self.transitions):
                _update(weights, post[e], transition)
                _decide(post[e], labels[1 + e])
            if truth is not None:
                counts[i] = _count(labels, truth[cols], self._shape[0])
            if sink is not None:
                sink(cols, inst, post, labels)

        self.map(visit)
        if faults:
            _raise_dated(min(faults)[2], date)
        self.hits = self.totals = None
        if truth is not None:
            width = max(len(totals) for _, totals in counts)
            self.hits = np.zeros((1 + len(self.transitions), width), dtype=np.int64)
            self.totals = np.zeros(width, dtype=np.int64)
            for hits, totals in counts:
                self.hits[:, : len(totals)] += hits
                self.totals[: len(totals)] += totals


def _raise_dated(exc: Exception, date: dt.date | None) -> NoReturn:
    """Raise ``exc``, its message prefixed with ``date`` in ISO form if given."""
    if date is None:
        raise exc
    raise type(exc)(f"{date.isoformat()}: {exc}") from exc


def classify_stack(
    stack: ImageStack,
    model: FrameModel,
    transitions: Sequence[TransitionModel],
    lam: float,
    sink: Callable[[int, Frame], TileSink | None] | None = None,
) -> StackClassification:
    """Run the recursion over a whole stack, frame by frame.

    One `FrameStep` holds a belief per transition model, each starting
    uniform; the models must share the model's class count (a
    ConfigError otherwise). For each date the model's
    ``frame_posterior`` is floor-normalized, smoothed with `regularize`
    and folded into every belief in place, and for each frame that
    carries truth the step counts the instantaneous and each recursive
    label row against it. Those counts, from which `frame_accuracies`
    and `epsilon_sweep` score the dates, are all that is kept.

    Before each date t's step, on the calling thread, ``sink(t, frame)``
    gets the loaded frame and returns a tile sink or None. The step's
    workers hand each of the date's tiles to the tile sink as they
    finish it (`FrameStep`): its slice of the H*W row-major pixels, its
    instantaneous posterior (K, n), its beliefs (E, K, n) and its label
    rows (1 + E, n), from several threads at once and readable during
    that call only. Each frame is loaded (`Frame.load`) just before its
    step, so a deferred date's planes and truth are read once and held
    for that step only, and a reading error propagates as it is. A bad
    model output raises the error of `FrameStep`, prefixed with the
    frame's ISO date. The model sees the step's row tiles, from several
    threads at once (`FrameModel`).
    """
    height, width = stack.shape
    counts = []
    step = FrameStep(transitions, lam, height * width, width)
    k = step.post.shape[1]
    if model.num_classes != k:
        raise ConfigError(f"model has {model.num_classes} classes, transition models {k}")
    for t, frame in enumerate(stack.frames):
        frame = frame.load()
        truth = None if frame.truth is None else frame.truth.labels.ravel()
        tiles = None if sink is None else sink(t, frame)
        step(lambda rows: model.frame_posterior(frame.window(rows)), frame.date, truth, tiles)
        counts.append(None if truth is None else (step.hits, step.totals))
    return StackClassification(stack.dates, k, tuple(counts))
