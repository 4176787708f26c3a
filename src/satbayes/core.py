"""Shared value types for probabilistic time-series classification.

`validate_pmf` checks probability vectors along an array's last axis.
Engine outputs and the recursion are class-major, and share this
module's (K, N) column arithmetic: `column_sums`, `normalize_columns`,
`floor_normalize_columns`.
Images and stacks are immutable: their planes are C-contiguous and
read-only, so code can share them without defensive copies. An image
keeps float32 planes as read and hands out float64 values.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    InvalidClassCountError,
    InvalidHyperparameterError,
    ShapeError,
)

# Tolerance for "sums to one" checks on probability vectors.
PMF_ATOL = 1e-9

# Probabilities are floored here before any division, then renormalized,
# so degenerate-but-valid inputs cannot produce 0/0.
PROB_FLOOR = 1e-300


# ============================================================
# probability vectors
# ============================================================


def uniform_pmf(num_classes: int) -> np.ndarray:
    """Uniform probability vector of length ``num_classes``."""
    if num_classes < 2:
        raise InvalidClassCountError(f"need at least 2 classes, got {num_classes}")
    return np.full(num_classes, 1.0 / num_classes)


def validate_pmf(values: np.ndarray) -> np.ndarray:
    """Check that ``values`` holds probability vectors along the last axis.

    Entries must be finite, non-negative, and sum to 1 within PMF_ATOL.
    Returns the input as a float64 array.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise ShapeError(f"probability vector needs a class axis, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probability vector has non-finite entries")
    if np.any(arr < 0.0):
        raise ValueError("probability vector has negative entries")
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=PMF_ATOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ValueError(f"probability vector sums off by {worst:.3e}")
    return arr


def column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum an (R, N) array over its R rows in numpy's pairwise order -> (N,).

    numpy sums a contiguous run of R values left to right when R < 8,
    in eight interleaved partial sums when 8 <= R <= 128, and by halves
    above that. Following the same order here keeps each column's sum
    bit-identical to summing the rows of the C-ordered (N, R) transpose,
    while every step runs over whole rows of N values. The sum goes
    into ``out`` when given; for R >= 8 the partial sums are allocated.
    """
    r = a.shape[0]
    if r < 8:
        return np.sum(a, axis=0, out=out)
    if r > 128:
        half = r // 2 - (r // 2) % 8
        return np.add(column_sums(a[:half]), column_sums(a[half:]), out=out)
    stop = r - r % 8
    part = a[:8].copy()
    for i in range(8, stop, 8):
        part += a[i : i + 8]
    part[0::2] += part[1::2]  # (p0 + p1), (p2 + p3), (p4 + p5), (p6 + p7)
    part[0::4] += part[2::4]  # ((p0 + p1) + (p2 + p3)), ((p4 + p5) + (p6 + p7))
    out = np.add(part[0], part[4], out=out)
    for row in a[stop:]:
        out += row
    return out


def normalize_columns(x: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """Divide each (K, N) column by its `column_sums` in place; returns ``x``.

    ``total`` is an optional (N,) buffer for the sums.
    """
    return np.divide(x, column_sums(x, total), out=x)


def floor_normalize_columns(
    x: np.ndarray, out: np.ndarray | None = None, total: np.ndarray | None = None
) -> np.ndarray:
    """Floor at PROB_FLOOR, then `normalize_columns`; in place unless ``out``."""
    floored = np.maximum(x, PROB_FLOOR, out=x if out is None else out)
    return normalize_columns(floored, total)


# ============================================================
# transition model
# ============================================================


@dataclass(frozen=True)
class TransitionModel:
    """Row-stochastic class transition matrix between consecutive dates.

    ``matrix[i, j]`` is the probability that a pixel in class ``i`` at one
    date is in class ``j`` at the next. Rows sum to one.
    """

    matrix: np.ndarray
    change_prob: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"transition matrix must be square, got {m.shape}")
        if m.shape[0] < 2:
            raise InvalidClassCountError("transition matrix needs at least 2 classes")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("transition matrix entries must be finite and >= 0")
        if not np.allclose(m.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("transition matrix rows must sum to 1 within 1e-12")
        m = np.ascontiguousarray(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]


def build_transition_model(num_classes: int, change_prob: float) -> TransitionModel:
    """Symmetric transition matrix with total change probability ``change_prob``.

    Each off-diagonal entry is ``change_prob / (num_classes - 1)`` and the
    diagonal holds the remaining mass, so every class keeps probability
    ``1 - change_prob`` of persisting regardless of class count.
    """
    if num_classes < 2:
        raise InvalidClassCountError(f"need at least 2 classes, got {num_classes}")
    if not (0.0 < change_prob < 1.0):
        raise InvalidHyperparameterError(
            f"change_prob must lie in (0, 1), got {change_prob}"
        )
    off = change_prob / (num_classes - 1)
    matrix = np.full((num_classes, num_classes), off)
    # Diagonal written as 1 - (K-1)*off so each row sums to exactly 1.0.
    np.fill_diagonal(matrix, 1.0 - (num_classes - 1) * off)
    return TransitionModel(matrix=matrix, change_prob=float(change_prob))


# ============================================================
# rasters, images, stacks
# ============================================================


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


def _view(obj, **fields):
    """A copy of the frozen dataclass ``obj`` with ``fields`` swapped in unchecked."""
    out = object.__new__(type(obj))
    out.__dict__.update(vars(obj), **fields)
    return out


@dataclass(frozen=True)
class LabelRaster:
    """Per-pixel class indices stored as uint8, shape (height, width)."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ShapeError(f"label raster must be 2-D, got shape {arr.shape}")
        if self.num_classes < 2 or self.num_classes > 255:
            raise InvalidClassCountError(
                f"label raster supports 2..255 classes, got {self.num_classes}"
            )
        if arr.dtype != np.uint8:
            if np.any(arr < 0) or np.any(arr > 255):
                raise ValueError("label values do not fit in uint8")
            arr = arr.astype(np.uint8)
        if arr.size and int(arr.max()) >= self.num_classes:
            raise ValueError(
                f"label {int(arr.max())} out of range for {self.num_classes} classes"
            )
        object.__setattr__(self, "labels", _freeze(arr))

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


def _finite_bands(planes, scale: float, shift: np.ndarray | None = None) -> np.ndarray:
    """Per plane, whether every ``x * scale (+ shift[i])`` is finite.

    The rounded affine is monotone in x for scale > 0, and np.min and
    np.max propagate NaN, so each plane's two extremes decide exactly;
    an empty plane counts as holding 0.
    """
    ends = np.array([(p.min(), p.max()) if p.size else (0, 0) for p in planes], np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        ends *= scale
        if shift is not None:
            ends += shift[:, np.newaxis]
    return np.isfinite(ends).all(axis=1)


@dataclass(frozen=True)
class MultibandImage:
    """One acquisition: read-only band-major planes of shape (bands, H, W).

    The constructor copies ``data`` (an array or a list of planes); float32
    stays float32 and other dtypes become float64. `band` and `values`
    return float64 ``data * scale (+ shift)``, which must be finite.
    """

    bands: tuple[str, ...]
    data: np.ndarray
    scale: float = 1.0
    shift: np.ndarray | None = None  # per band, from bias correction

    def __post_init__(self) -> None:
        if len(self.bands) == 0:
            raise ShapeError("image needs at least one band")
        if len(set(self.bands)) != len(self.bands):
            raise ConfigError(f"duplicate band names: {self.bands}")
        arr = np.array(self.data)  # a list of planes is stacked by this one copy
        arr = arr.astype(arr.dtype if arr.dtype == np.float32 else np.float64, copy=False)
        if arr.ndim != 3 or arr.shape[0] != len(self.bands):
            raise ShapeError(
                f"expected data shape ({len(self.bands)}, H, W), got {arr.shape}"
            )
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"image scale must be finite and > 0, got {self.scale}")
        shift = None if self.shift is None else np.array(self.shift, dtype=np.float64)
        if shift is not None and shift.shape != (len(self.bands),):
            raise ShapeError(f"shift needs shape ({len(self.bands)},), got {shift.shape}")
        if not _finite_bands(arr, self.scale, shift).all():
            raise ValueError("image has non-finite pixel values")
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "shift", None if shift is None else _freeze(shift))

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[1:]

    def band(self, name: str) -> np.ndarray:
        if name not in self.bands:
            raise ConfigError(f"image has no band {name!r}")
        return self.values(self.bands.index(name))

    def values(
        self, index: int | slice = slice(None), rows: slice = slice(None)
    ) -> np.ndarray:
        """Fresh float64 values of the planes at ``index`` on ``rows``, all by default."""
        out = np.multiply(self.data[index, rows], self.scale, dtype=np.float64)
        if self.shift is not None:
            out += self.shift[index, np.newaxis, np.newaxis]
        return out

    def _derive(self, **fields: np.ndarray) -> MultibandImage:
        """A copy sharing the frozen planes, with ``fields`` swapped in unchecked."""
        return _view(self, **{k: _freeze(v) for k, v in fields.items()})


@dataclass(frozen=True)
class Frame:
    """One dated entry of an image stack plus optional side data."""

    date: dt.date
    image: MultibandImage
    cloud_fraction: float | None = None
    truth: LabelRaster | None = None
    external_posterior: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.cloud_fraction is not None and not (0.0 <= self.cloud_fraction <= 1.0):
            raise ValueError(f"cloud fraction outside [0, 1]: {self.cloud_fraction}")
        if self.truth is not None and self.truth.shape != self.image.shape:
            raise ShapeError(
                f"truth shape {self.truth.shape} != image shape {self.image.shape}"
            )
        if self.external_posterior is not None:
            post = np.asarray(self.external_posterior, dtype=np.float64)
            if post.ndim != 3 or post.shape[1:] != self.image.shape:
                raise ShapeError(
                    f"external posterior shape {post.shape} does not match "
                    f"image shape {self.image.shape}"
                )
            object.__setattr__(self, "external_posterior", _freeze(post))

    def window(self, rows: slice = slice(None), cols: slice = slice(None)) -> Frame:
        """The frame on ``rows`` by ``cols``, unchecked: the image shares the
        planes, the truth and posterior are C-contiguous and read-only."""
        truth, post = self.truth, self.external_posterior
        if truth is not None:
            truth = _view(truth, labels=_freeze(truth.labels[rows, cols]))
        if post is not None:
            post = _freeze(post[:, rows, cols])
        image = _view(self.image, data=self.image.data[:, rows, cols])
        return _view(self, image=image, truth=truth, external_posterior=post)


@dataclass(frozen=True)
class ImageStack:
    """Date-ordered sequence of co-registered frames.

    A stack may be empty (e.g. after aggressive cloud filtering);
    geometry accessors raise on an empty stack.
    """

    frames: tuple[Frame, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.frames:
            return
        first = self.frames[0].image
        for fr in self.frames[1:]:
            if fr.image.bands != first.bands:
                raise ShapeError(
                    f"frame {fr.date} bands {fr.image.bands} != {first.bands}"
                )
            if fr.image.shape != first.shape:
                raise ShapeError(
                    f"frame {fr.date} shape {fr.image.shape} != {first.shape}"
                )
        dates = [fr.date for fr in self.frames]
        for a, b in zip(dates, dates[1:]):
            if a >= b:
                raise ValueError(f"dates must strictly increase, got {a} before {b}")

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(fr.date for fr in self.frames)

    @property
    def bands(self) -> tuple[str, ...]:
        if not self.frames:
            raise ShapeError("empty image stack")
        return self.frames[0].image.bands

    @property
    def shape(self) -> tuple[int, int]:
        if not self.frames:
            raise ShapeError("empty image stack")
        return self.frames[0].image.shape

    def __len__(self) -> int:
        return len(self.frames)

    def subset(self, dates: tuple[dt.date, ...] | list[dt.date]) -> ImageStack:
        """New stack restricted to the given dates (original order kept)."""
        wanted = set(dates)
        missing = wanted - set(self.dates)
        if missing:
            raise BoundsError(f"dates not in stack: {sorted(missing)}")
        return ImageStack(tuple(fr for fr in self.frames if fr.date in wanted))
