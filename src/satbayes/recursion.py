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
calls: they allocate theirs per call, and `FrameStep`, the step of one
row strip of about 32k pixels, which stay in cache, holds only the
filter state, one belief per pixel and transition model, and the last
date's per-class counts against its truth. Given the strip's (K, n)
model output, it checks it and normalizes it into the instantaneous
posterior, updates one belief per transition model in place (a sweep
over E transition probabilities is a bank of E filters sharing one
model evaluation), decides the labels, given the date's truth counts
them against it, so no label raster is scanned again, and returns the
posterior and labels; a bad output fails the date and leaves the state
undefined until `reset`.

Each pixel's belief needs only its own belief on the previous date, so
`classify_stack`, the loop over a stack's dates, is strip-major: it
cuts the rows into strips, starts one worker per CPU of the process's
affinity mask once per stack, and each worker runs every date of its
own strips through a `FrameStep` of the strip, reading only the
strip's rows of each date. The beliefs, planes, truth and labels held
at once are a few strips' worth, however large the scene; only the
per-date counts of each strip are kept, and no result depends on the
strip height or the worker count. `epsilon_sweep` and `run_experiment`
run through it; `timing_bench` is the one date-major loop, over one
step per strip on the same workers. The public
`generative_update`, `discriminative_update` and `regularize` take
(..., K) arrays and run the same functions on a transposed (K, M) copy;
the updates check its evidence with the frame step's own check,
`_evidence_fault`.
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
    ModelOutputError,
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
    _check_evidence(weights)
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
    (ModelOutputError, "likelihood vector has non-finite entries"),
    (ModelOutputError, "likelihood vector has negative entries"),
    (DegenerateLikelihoodError, "all-zero likelihood vector"),
    (ModelOutputError, "likelihood vector sum overflows float64"),
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


def _check_evidence(raw: np.ndarray, date: dt.date | None = None) -> None:
    """Raise the first fault of the (K, n) float64 ``raw``, if any, as the
    step does: prefixed with ``date`` in ISO form if given."""
    fault = _evidence_fault(raw)
    if fault < len(_FAULTS):
        _raise_dated(_fault_error(fault), date)


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
# row strips on worker threads
# ============================================================

_TILE_PIXELS = 32768  # about this many pixels per row strip; its passes stay in cache


def _workers() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_tiles(height: int, width: int) -> list[slice]:
    """Consecutive row slices of about `_TILE_PIXELS` pixels over ``height`` rows of ``width``."""
    rows = max(1, _TILE_PIXELS // max(width, 1))  # a grid without columns has no pixels
    return [slice(r, min(r + rows, height)) for r in range(0, max(height, 1), rows)]


def _share(task: Callable[[int], object], count: int) -> None:
    """Run ``task(i)`` for i < ``count`` on W workers, one per CPU this
    process may run on and at most one per task: worker w takes w, w + W,
    ... on the calling thread for w = 0, else on a thread started here;
    once all are joined, the lowest-numbered worker's error, if any,
    propagates."""
    workers = min(_workers(), count)
    errors = {}

    def share(w: int) -> None:
        try:
            for i in range(w, count, workers):
                task(i)
        except BaseException as exc:  # raised by the calling thread below
            errors[w] = exc

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=share, args=(w,))
            thread.start()
            threads.append(thread)
        share(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def _bank_classes(transitions: Sequence[TransitionModel], lam: float) -> int:
    """The class count K that ``transitions`` share (a ConfigError otherwise,
    or without any), at most 255 (InvalidClassCountError above), for which
    ``lam`` passes `regularize`'s check."""
    counts = [t.num_classes for t in transitions]
    if len(set(counts)) != 1:
        raise ConfigError(f"transition models must share one class count, got {counts}")
    k = counts[0]
    if k > 255:
        raise InvalidClassCountError(f"at most 255 classes are supported, got {k}")
    _check_lam(lam, k)
    return k


def _add_counts(counts: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The sum, in order, of (hits (R, C), totals (C,)) counts whose C may
    differ: columns past a part's C count nothing in it."""
    width = max(len(totals) for _, totals in counts)
    hits = np.zeros((len(counts[0][0]), width), dtype=np.int64)
    totals = np.zeros(width, dtype=np.int64)
    for part_hits, part_totals in counts:
        hits[:, : len(part_totals)] += part_hits
        totals[: len(part_totals)] += part_totals
    return hits, totals


# A strip's slice of the grid's row-major pixels, instantaneous posterior
# (K, n), beliefs (E, K, n) and label rows (1 + E, n), handed over by the
# worker that advanced it
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
    """The recursion step of one row strip, sole owner of its filter state.

    `classify_stack` and `timing_bench` run one per row strip, with a
    bank of transition models (one for `run_experiment` and
    `timing_bench`, one per grid value for `epsilon_sweep`); all must
    share the class count K (a ConfigError otherwise, or without any),
    which the uint8 labels cap at 255 (InvalidClassCountError above),
    and ``lam`` must pass `regularize`'s check for K classes. Its state
    is one class-major array, ``post`` (E, K, N): one belief per
    transition model over the strip's N pixels, uniform after
    construction or `reset`. ``step(raw, date, truth)`` floor-normalizes
    the strip's (K, N) class weights (`FrameModel`) into the
    instantaneous posterior, smooths it and updates each ``post[e]`` in
    place, decides the MAP labels into (1 + E, N) uint8 rows, row 0 from
    the instantaneous posterior and row 1 + e from ``post[e]``, and
    returns the instantaneous posterior and the labels: the call's own
    scratch, which the step does not keep. Given the date's ``truth``,
    its (N,) non-negative integer labels, the step also scores the
    date: ``hits`` (1 + E, C) counts, per label row and class c, the
    pixels where that row and the truth are both c, and ``totals`` (C,)
    the truth's pixels per class. C is K, or one more than the largest
    truth label if that is K or more. Without a truth both are None.

    A truth, then an output, of another shape is a ShapeError; in an
    output of the right shape, a non-finite, then a negative entry is a
    ModelOutputError (a DataError and a ValueError), an all-zero pixel
    column a DegenerateLikelihoodError and an overflowing column sum a
    ModelOutputError. Given the frame's ``date``, the message starts
    with its ISO form and the error keeps its type. The state is then
    undefined until `reset`.
    """

    def __init__(self, transitions: Sequence[TransitionModel], lam: float, pixels: int) -> None:
        self.transitions = tuple(transitions)
        k = _bank_classes(self.transitions, lam)
        self.lam = lam
        self.post = np.empty((len(self.transitions), k, pixels))
        self.hits = self.totals = None
        self.reset()

    def reset(self) -> None:
        """Start every belief again from the uniform prior."""
        self.post.fill(1.0 / self.post.shape[1])

    def __call__(
        self, raw: np.ndarray, date: dt.date | None = None, truth: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        fault, out = self._advance(raw, truth)
        if fault is not None:
            _raise_dated(out, date)
        return out

    def _advance(
        self, raw: np.ndarray, truth: np.ndarray | None
    ) -> tuple[None, tuple[np.ndarray, np.ndarray]] | tuple[int, Exception]:
        """The step, undated: (None, (inst, labels)), or its fault as (rank,
        error) instead of raising it, for a caller that ranks the faults of
        several strips; a shape fault ranks -1 and `_evidence_fault`'s from 0."""
        truth, shape = None if truth is None else np.asarray(truth), self.post.shape[1:]
        try:
            if truth is not None and truth.shape != shape[1:]:
                raise ShapeError(f"truth has shape {truth.shape}, expected {shape[1:]}")
            out = np.asarray(raw, dtype=np.float64)
            if out.shape != shape:
                raise ShapeError(f"model returned shape {out.shape}, expected {shape}")
        except (ValueError, SatBayesError) as exc:
            return -1, exc
        fault = _evidence_fault(out)
        if fault < len(_FAULTS):
            return fault, _fault_error(fault)
        inst = floor_normalize_columns(out, np.empty(shape))
        labels = np.empty((1 + len(self.transitions), shape[1]), dtype=np.uint8)
        _decide(inst, labels[0])
        weights = _smooth(inst, self.lam) if self.lam else inst
        for e, transition in enumerate(self.transitions):
            _update(weights, self.post[e], transition)
            _decide(self.post[e], labels[1 + e])
        self.hits, self.totals = (None, None) if truth is None else _count(labels, truth, shape[0])
        return None, (inst, labels)


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
    """Run the recursion over a whole stack, row strip by row strip.

    Every belief, one per transition model, starts uniform; the models
    must share the model's class count (a ConfigError otherwise). The H
    rows are cut into strips of about `_TILE_PIXELS` pixels; workers,
    one per CPU of the process's affinity mask (the calling thread and
    threads started once for the stack), take strips w, w + W, ... and
    run every date of each through a `FrameStep` of the strip: the
    strip's rows of the frame are loaded (``frame.window(rows).load()``,
    so a deferred date reads only those rows), the model's
    ``frame_posterior`` of that strip frame is folded into every belief,
    and the label rows are counted against the frame's truth, if it has
    one.
    Those counts, added per date in strip order, are all that is kept;
    `frame_accuracies` and `epsilon_sweep` score the dates from them.
    No result depends on the strip height or the worker count.

    Before each date t of a strip, on its worker, ``sink(t, frame)``
    gets the strip's loaded frame and returns a tile sink or None, which
    the worker hands the advanced strip: its slice of the H*W row-major
    pixels, which are the frame's, and the step's instantaneous
    posterior (K, n), beliefs (E, K, n) and label rows (1 + E, n),
    readable during that call only. The model and the sinks see several
    strips at once (`FrameModel`).

    The error raised is the one a date-by-date pass would raise first:
    that of the earliest failing date and, on it, a reading error
    (`Frame.load`'s) or else a model's or a sink's error, as they are,
    or else the lowest-ranked bad model output of `FrameStep`, prefixed
    with the frame's ISO date; each of the lowest strip. A strip stops
    at its first fault, or once it is past the earliest failed date.
    """
    height, width = stack.shape
    k = _bank_classes(transitions, lam)
    if model.num_classes != k:
        raise ConfigError(f"model has {model.num_classes} classes, transition models {k}")
    frames, strips = stack.frames, _row_tiles(height, width)
    counts = [[None] * len(strips) for _ in frames]  # per date and strip
    faults = []  # (date, kind, rank, strip, error), kind 0 read, 1 raised, 2 output
    failed, lock = [len(frames)], threading.Lock()  # the earliest failed date

    def visit(s: int, t: int, step: FrameStep) -> tuple[int, int, Exception] | None:
        """Strip s on date t; returns its fault as (kind, rank, error)."""
        rows = strips[s]
        try:
            frame = frames[t].window(rows).load()
        except Exception as exc:
            return 0, 0, exc
        truth = None if frame.truth is None else frame.truth.labels.ravel()
        try:
            tiles = None if sink is None else sink(t, frame)
            fault, out = step._advance(model.frame_posterior(frame), truth)
            if fault is None and tiles is not None:
                tiles(slice(rows.start * width, rows.stop * width), out[0], step.post, out[1])
        except Exception as exc:
            return 1, 0, exc
        if fault is not None:
            return 2, fault, out
        counts[t][s] = None if truth is None else (step.hits, step.totals)
        return None

    def run(s: int) -> None:
        rows = strips[s]
        step = FrameStep(transitions, lam, (rows.stop - rows.start) * width)
        for t in range(len(frames)):
            if t > failed[0]:
                return
            fault = visit(s, t, step)
            if fault is not None:
                with lock:
                    faults.append((t, fault[0], fault[1], s, fault[2]))
                    failed[0] = min(failed[0], t)
                return

    _share(run, len(strips))
    if faults:
        t, kind, _, _, error = min(faults, key=lambda fault: fault[:4])
        if kind == 2:
            _raise_dated(error, frames[t].date)
        raise error
    return StackClassification(
        stack.dates,
        k,
        tuple(None if parts[0] is None else _add_counts(parts) for parts in counts),
    )

