"""Synthetic multiband stacks with known truth.

Scenes start as vertical class stripes; scripted change events flip
rectangles to a new class from a given frame onward, and scripted
corruption events redraw a fraction of a frame's observations from a
wrong class's band model while the truth raster keeps the real class.
Every frame gets a ground-truth raster, so recursive and instantaneous
classifiers can be scored on any date.

The scene description is a ``key = value`` text file::

    classes = land, water
    width = 64
    height = 64
    frames = 20
    start_date = 2021-01-05
    cadence_days = 5
    seed = 7
    bands = green, swir1
    stat = land green 0.15 0.04      # class band mean std
    stat = water green 0.32 0.05
    ...
    change = 10 8 8 16 16 water      # frame x y w h new_class
    corrupt = 5 0.3                  # frame fraction
    cloud = 3 0.05                   # frame cloud_fraction (metadata only)
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import LabelRaster
from .errors import BoundsError, ConfigError
from .pipeline import (
    ManifestFrame,
    ReferenceRegion,
    StackManifest,
    write_band_plane,
    write_label_raster,
    write_manifest,
)
from .textio import (
    Key,
    parse_date,
    parse_float,
    parse_int,
    parse_keys,
    parse_list,
    read_text,
    staged,
)

SYNTH_BAND_RESOLUTION = 10.0  # synthetic bands share one nominal grid


@dataclass(frozen=True)
class ChangeEvent:
    """From ``frame`` onward, ``region`` belongs to class ``new_class``."""

    frame: int
    region: ReferenceRegion
    new_class: int


@dataclass(frozen=True)
class CorruptionEvent:
    """At ``frame``, this fraction of pixels is observed as a wrong class."""

    frame: int
    fraction: float


@dataclass(frozen=True)
class SynthSpec:
    classes: tuple[str, ...]
    width: int
    height: int
    num_frames: int
    start_date: dt.date
    cadence_days: int
    bands: tuple[str, ...]
    class_stats: tuple[tuple[str, str, float, float], ...]  # class, band, mean, std
    seed: int
    changes: tuple[ChangeEvent, ...] = ()
    corruptions: tuple[CorruptionEvent, ...] = ()
    clouds: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if len(self.classes) < 2:
            raise ConfigError("synthetic scene needs at least 2 classes")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError(f"duplicate class names: {self.classes}")
        if self.width < 1 or self.height < 1:
            raise ConfigError("width/height must be >= 1")
        if self.num_frames < 1:
            raise ConfigError("frames must be >= 1")
        if self.cadence_days < 1:
            raise ConfigError("cadence_days must be >= 1")
        if not self.bands or len(set(self.bands)) != len(self.bands):
            raise ConfigError(f"bad band list: {self.bands}")
        covered = {(c, b) for c, b, _, _ in self.class_stats}
        needed = {(c, b) for c in self.classes for b in self.bands}
        if covered != needed:
            raise ConfigError(
                f"stats must cover every class/band pair; missing "
                f"{sorted(needed - covered)}, extra {sorted(covered - needed)}"
            )
        for c, b, mean, std in self.class_stats:
            if not np.isfinite(mean) or not np.isfinite(std) or std <= 0.0:
                raise ConfigError(f"bad stat for {c}/{b}: mean={mean} std={std}")
        for ev in self.changes:
            if not (0 <= ev.frame < self.num_frames):
                raise ConfigError(f"change frame {ev.frame} out of range")
            if not (0 <= ev.new_class < len(self.classes)):
                raise ConfigError(f"change class {ev.new_class} out of range")
            if (
                ev.region.x + ev.region.width > self.width
                or ev.region.y + ev.region.height > self.height
            ):
                raise BoundsError(f"change region {ev.region} out of bounds")
        for ev in self.corruptions:
            if not (0 <= ev.frame < self.num_frames):
                raise ConfigError(f"corrupt frame {ev.frame} out of range")
            if not (0.0 <= ev.fraction <= 1.0):
                raise ConfigError(f"corrupt fraction {ev.fraction} outside [0, 1]")
        for frame, fraction in self.clouds:
            if not (0 <= frame < self.num_frames):
                raise ConfigError(f"cloud frame {frame} out of range")
            if not (0.0 <= fraction <= 1.0):
                raise ConfigError(f"cloud fraction {fraction} outside [0, 1]")


def _parts(value: str, count: int, usage: str, where: str) -> list[str]:
    parts = value.split()
    if len(parts) != count:
        raise ConfigError(f"{where}: {usage}")
    return parts


def _parse_stat(value: str, key: str, where: str) -> tuple[str, str, float, float]:
    name, band, mean, std = _parts(value, 4, "stat needs 'class band mean std'", where)
    return name, band, parse_float(mean, key, where), parse_float(std, key, where)


def _parse_change(
    value: str, key: str, where: str
) -> tuple[str, int, ReferenceRegion, str]:
    """Where, frame, region and class name; the name is resolved later."""
    *numbers, name = _parts(value, 6, "change needs 'frame x y w h class'", where)
    frame, x, y, w, h = (parse_int(n, key, where) for n in numbers)
    return where, frame, ReferenceRegion(x=x, y=y, width=w, height=h), name


def _frame_fraction(value: str, key: str, where: str) -> tuple[int, float]:
    frame, fraction = _parts(value, 2, f"{key} needs 'frame fraction'", where)
    return parse_int(frame, key, where), parse_float(fraction, key, where)


SYNTH_KEYS = {
    "classes": Key("classes", parse_list, required=True),
    "width": Key("width", parse_int, required=True),
    "height": Key("height", parse_int, required=True),
    "frames": Key("num_frames", parse_int, required=True),
    "start_date": Key("start_date", parse_date, required=True),
    "cadence_days": Key("cadence_days", parse_int, required=True),
    "seed": Key("seed", parse_int, required=True),
    "bands": Key("bands", parse_list, required=True),
    "stat": Key("class_stats", _parse_stat, repeats=True, once_per=("class", "band")),
    "change": Key("changes", _parse_change, repeats=True),
    "corrupt": Key("corruptions", _frame_fraction, repeats=True, once_per=("frame",)),
    "cloud": Key("clouds", _frame_fraction, repeats=True, once_per=("frame",)),
}


def parse_synth_spec(path: str | Path) -> SynthSpec:
    src = Path(path)
    values = parse_keys(
        read_text(src), SYNTH_KEYS, "synthetic-scene", "missing keys: {}", str(src)
    )
    classes = values["classes"]
    changes = []
    for where, frame, region, name in values["changes"]:
        if name not in classes:
            raise ConfigError(f"{where}: unknown class {name!r}")
        changes.append(ChangeEvent(frame, region, classes.index(name)))
    values["changes"] = tuple(changes)
    values["corruptions"] = tuple(
        CorruptionEvent(frame, fraction) for frame, fraction in values["corruptions"]
    )
    return SynthSpec(**values)


def _truth_sequence(spec: SynthSpec) -> list[np.ndarray]:
    """Per-frame truth rasters: base stripes plus accumulated changes."""
    k = len(spec.classes)
    stripes = np.minimum((np.arange(spec.width) * k) // spec.width, k - 1)
    base = np.broadcast_to(stripes, (spec.height, spec.width)).astype(np.uint8)
    truths = []
    current = base.copy()
    for t in range(spec.num_frames):
        for ev in spec.changes:
            if ev.frame == t:
                rows, cols = ev.region.slices()
                current[rows, cols] = ev.new_class
        truths.append(current.copy())
    return truths


def generate_synthetic(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write a full synthetic stack under ``out_dir``; returns the manifest path.

    Layout: ``bands/f<idx>_<band>.f32`` planes, ``truth/f<idx>.lbl``
    rasters, and ``manifest.txt`` tying them together (scale 1.0, all
    bands on one grid). Fully deterministic given ``spec.seed``. A stat
    whose draws overflow float32 raises ConfigError naming its class
    and band. The scene is written through `textio.staged`, so one that
    fails leaves ``out_dir`` as it was.
    """
    out = Path(out_dir)
    rng = np.random.default_rng(spec.seed)
    k = len(spec.classes)
    stats = {(c, b): (m, s) for c, b, m, s in spec.class_stats}
    # per band, a (K, 2) table of each class's mean and std
    tables = {b: np.array([stats[(c, b)] for c in spec.classes]) for b in spec.bands}
    truths = _truth_sequence(spec)
    corruption_at = {ev.frame: ev.fraction for ev in spec.corruptions}
    cloud_at = dict(spec.clouds)
    n = spec.height * spec.width

    frames = []
    with staged(out) as stage:
        for t in range(spec.num_frames):
            truth = truths[t]
            observed_class = truth.ravel().copy()
            fraction = corruption_at.get(t)
            if fraction:
                count = int(round(fraction * n))
                count = min(count, n)
                hit = rng.choice(n, size=count, replace=False)
                shift = rng.integers(1, k, size=count)
                observed_class[hit] = (observed_class[hit] + shift) % k
            band_paths = []
            for band in spec.bands:
                loc, scale = tables[band][observed_class].T
                with np.errstate(over="ignore"):
                    values = rng.normal(loc, scale).astype(np.float32)
                bad = ~np.isfinite(values)
                if bad.any():
                    name = spec.classes[observed_class[np.argmax(bad)]]
                    raise ConfigError(f"stat for {name}/{band}: draws overflow float32")
                rel = f"bands/f{t:03d}_{band}.f32"
                write_band_plane(stage / rel, values.reshape(spec.height, spec.width))
                band_paths.append((band, rel))
            truth_rel = f"truth/f{t:03d}.lbl"
            write_label_raster(stage / truth_rel, LabelRaster(truth, num_classes=k))
            frames.append(
                ManifestFrame(
                    date=spec.start_date + dt.timedelta(days=t * spec.cadence_days),
                    band_paths=tuple(band_paths),
                    cloud_fraction=cloud_at.get(t),
                    truth_path=truth_rel,
                )
            )
        manifest = StackManifest(
            width=spec.width,
            height=spec.height,
            scale=1.0,
            bands=tuple((b, SYNTH_BAND_RESOLUTION) for b in spec.bands),
            frames=tuple(frames),
            base_dir=out,
        )
        write_manifest(manifest, stage / "manifest.txt")
    return out / "manifest.txt"
