"""Builders shared across test modules."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from satbayes.core import Frame, ImageStack, LabelRaster, MultibandImage
from satbayes.recursion import classify_stack

START = dt.date(2021, 1, 5)


def date_of(index: int, cadence_days: int = 10) -> dt.date:
    return START + dt.timedelta(days=cadence_days * index)


def make_image(bands, planes) -> MultibandImage:
    data = np.stack([np.asarray(p, dtype=np.float64) for p in planes])
    return MultibandImage(bands=tuple(bands), data=data)


def pixel_frame(bands, pixels) -> Frame:
    """A one-row frame whose pixels, in order, are the rows of ``pixels`` (N, B)."""
    x = np.asarray(pixels, dtype=np.float64)
    return Frame(date=START, image=make_image(bands, x.T[:, np.newaxis, :]))


def make_stack(bands, frames_planes, truths=None, clouds=None) -> ImageStack:
    """Stack from per-frame band planes; truths are optional label arrays."""
    frames = []
    for t, planes in enumerate(frames_planes):
        truth = None
        if truths is not None and truths[t] is not None:
            arr = np.asarray(truths[t], dtype=np.uint8)
            truth = LabelRaster(labels=arr, num_classes=int(arr.max()) + 1)
        cloud = None if clouds is None else clouds[t]
        frames.append(
            Frame(
                date=date_of(t),
                image=make_image(bands, planes),
                cloud_fraction=cloud,
                truth=truth,
            )
        )
    return ImageStack(frames=tuple(frames))


@dataclass(frozen=True)
class CollectedStack:
    """Every date of one `classify_stack` run: float64 posterior cubes
    (dates, K, H, W), one label raster per date and track, and the
    per-date counts, so `frame_accuracies` takes it as it takes the
    run's own result."""

    dates: tuple[dt.date, ...]
    num_classes: int
    recursive_posteriors: np.ndarray
    instantaneous_posteriors: np.ndarray
    recursive_labels: tuple[LabelRaster, ...]
    instantaneous_labels: tuple[LabelRaster, ...]
    counts: tuple


class Tiles:
    """A `FrameStep` tile sink that copies each tile into whole-frame
    ``inst`` (K, N), ``post`` (E, K, N) and ``labels`` (1 + E, N) arrays."""

    def __init__(self, step):
        e, k, pixels = step.post.shape
        self.inst = np.empty((k, pixels))
        self.post = np.empty((e, k, pixels))
        self.labels = np.empty((1 + e, pixels), dtype=np.uint8)

    def __call__(self, pixels, inst, post, labels):
        self.inst[:, pixels], self.post[:, :, pixels] = inst, post
        self.labels[:, pixels] = labels


def collect_stack(stack, model, transition, lam) -> CollectedStack:
    """`classify_stack` under one transition model, with a sink that
    copies each date's tiles of posteriors and labels out of the step."""
    height, width = stack.shape
    k, dates = model.num_classes, len(stack)
    cubes = np.empty((2, dates, k, height * width))  # recursive, instantaneous
    labels = np.empty((dates, 2, height * width), dtype=np.uint8)  # instantaneous, recursive

    def sink(t, frame):
        def tile(pixels, inst, post, rows):
            cubes[0, t, :, pixels], cubes[1, t, :, pixels] = post[0], inst
            labels[t, :, pixels] = rows

        return tile

    result = classify_stack(stack, model, [transition], lam, sink)

    def rasters(row):
        return tuple(LabelRaster(v.reshape(height, width), k) for v in labels[:, row])

    recursive, instantaneous = cubes.reshape(2, dates, k, height, width)
    return CollectedStack(
        dates=result.dates,
        num_classes=k,
        recursive_posteriors=recursive,
        instantaneous_posteriors=instantaneous,
        recursive_labels=rasters(1),
        instantaneous_labels=rasters(0),
        counts=result.counts,
    )


def random_pmfs(rng: np.random.Generator, count: int, num_classes: int) -> np.ndarray:
    raw = rng.uniform(0.05, 1.0, size=(count, num_classes))
    return raw / raw.sum(axis=1, keepdims=True)


BENCHMARK_SPEC = """\
# two-class water/land scene, three corrupted frames
classes = land, water
width = 64
height = 64
frames = 20
start_date = 2021-01-05
cadence_days = 10
seed = 7
bands = green, swir1
stat = land green 0.12 0.05
stat = land swir1 0.28 0.05
stat = water green 0.30 0.05
stat = water swir1 0.06 0.05
corrupt = 6 0.3
corrupt = 11 0.3
corrupt = 16 0.3
"""

CORRUPTED_FRAMES = (6, 11, 16)

# land stays below the 0.13 water threshold, water well above it
WATER_THRESHOLDS = (-1.0, 0.13, 1.0)
