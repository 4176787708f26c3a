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
from dataclasses import dataclass, field
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
from .textio import iter_kv_lines, parse_float, parse_int, read_text, split_list

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


def parse_synth_spec(path: str | Path) -> SynthSpec:
    src = Path(path)
    text = read_text(src)
    name = str(src)
    fields: dict = {
        "changes": [],
        "corruptions": [],
        "clouds": [],
        "class_stats": [],
    }
    classes: list[str] = []
    for lineno, key, value in iter_kv_lines(text, name):
        where = f"{name}:{lineno}"
        if key == "classes":
            classes = split_list(value)
        elif key == "width":
            fields["width"] = parse_int(value, key, where)
        elif key == "height":
            fields["height"] = parse_int(value, key, where)
        elif key == "frames":
            fields["num_frames"] = parse_int(value, key, where)
        elif key == "start_date":
            try:
                fields["start_date"] = dt.date.fromisoformat(value)
            except ValueError:
                raise ConfigError(f"{where}: bad date {value!r}") from None
        elif key == "cadence_days":
            fields["cadence_days"] = parse_int(value, key, where)
        elif key == "seed":
            fields["seed"] = parse_int(value, key, where)
        elif key == "bands":
            fields["bands"] = tuple(split_list(value))
        elif key == "stat":
            parts = value.split()
            if len(parts) != 4:
                raise ConfigError(f"{where}: stat needs 'class band mean std'")
            fields["class_stats"].append(
                (
                    parts[0],
                    parts[1],
                    parse_float(parts[2], key, where),
                    parse_float(parts[3], key, where),
                )
            )
        elif key == "change":
            parts = value.split()
            if len(parts) != 6:
                raise ConfigError(f"{where}: change needs 'frame x y w h class'")
            if parts[5] not in classes:
                raise ConfigError(f"{where}: unknown class {parts[5]!r}")
            fields["changes"].append(
                ChangeEvent(
                    frame=parse_int(parts[0], key, where),
                    region=ReferenceRegion(
                        x=parse_int(parts[1], key, where),
                        y=parse_int(parts[2], key, where),
                        width=parse_int(parts[3], key, where),
                        height=parse_int(parts[4], key, where),
                    ),
                    new_class=classes.index(parts[5]),
                )
            )
        elif key == "corrupt":
            parts = value.split()
            if len(parts) != 2:
                raise ConfigError(f"{where}: corrupt needs 'frame fraction'")
            fields["corruptions"].append(
                CorruptionEvent(
                    frame=parse_int(parts[0], key, where),
                    fraction=parse_float(parts[1], key, where),
                )
            )
        elif key == "cloud":
            parts = value.split()
            if len(parts) != 2:
                raise ConfigError(f"{where}: cloud needs 'frame fraction'")
            fields["clouds"].append(
                (parse_int(parts[0], key, where), parse_float(parts[1], key, where))
            )
        else:
            raise ConfigError(f"{where}: unknown synthetic-scene key {key!r}")
    required = ("width", "height", "num_frames", "start_date", "cadence_days",
                "seed", "bands")
    missing = [k for k in required if k not in fields]
    if not classes:
        missing.insert(0, "classes")
    if missing:
        raise ConfigError(f"{name}: missing keys: {missing}")
    return SynthSpec(
        classes=tuple(classes),
        width=fields["width"],
        height=fields["height"],
        num_frames=fields["num_frames"],
        start_date=fields["start_date"],
        cadence_days=fields["cadence_days"],
        bands=fields["bands"],
        class_stats=tuple(fields["class_stats"]),
        seed=fields["seed"],
        changes=tuple(fields["changes"]),
        corruptions=tuple(fields["corruptions"]),
        clouds=tuple(fields["clouds"]),
    )


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
    bands on one grid). Fully deterministic given ``spec.seed``.
    """
    out = Path(out_dir)
    rng = np.random.default_rng(spec.seed)
    k = len(spec.classes)
    stats = {(c, b): (m, s) for c, b, m, s in spec.class_stats}
    mean_maps = {
        band: np.array([stats[(c, band)][0] for c in spec.classes])
        for band in spec.bands
    }
    std_maps = {
        band: np.array([stats[(c, band)][1] for c in spec.classes])
        for band in spec.bands
    }
    truths = _truth_sequence(spec)
    corruption_at = {ev.frame: ev.fraction for ev in spec.corruptions}
    cloud_at = dict(spec.clouds)
    n = spec.height * spec.width

    frames = []
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
            loc = mean_maps[band][observed_class]
            scale = std_maps[band][observed_class]
            values = rng.normal(loc, scale).reshape(spec.height, spec.width)
            rel = f"bands/f{t:03d}_{band}.f32"
            write_band_plane(out / rel, values.astype(np.float32))
            band_paths.append((band, rel))
        truth_rel = f"truth/f{t:03d}.lbl"
        write_label_raster(out / truth_rel, LabelRaster(truth, num_classes=k))
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
    return write_manifest(manifest, out / "manifest.txt")
