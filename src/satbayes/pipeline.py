"""Stack ingestion, binary raster containers, and preprocessing.

A stack on disk is a plain-text manifest plus one headerless raw
float32 file per band per date. The manifest pins the target grid, the
per-band native resolutions (coarser bands are stored at their native
grid and upsampled on load), a reflectance scale factor, and optional
per-frame side files: ground-truth label rasters and externally
produced posterior cubes.

Container formats (all little-endian):

* band plane: raw row-major float32 values, no header; dimensions come
  from the manifest.
* label raster: magic ``RBCL``, version u8, u32 width, u32 height,
  u8 class count, then width*height class-index bytes row-major.
* posterior cube: magic ``RBCP``, version u8, u32 width, u32 height,
  u8 class count, u32 date count, then one float32 plane per
  (date, class), date-major, each row-major.

Posterior cubes are written by one writer, `posterior_cube_writer`,
which takes one date's (classes, height, width) plane at a time, so a
caller never needs the whole cube in memory; a cube it could not finish
is deleted.
"""

from __future__ import annotations

import datetime as dt
import struct
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import Frame, ImageStack, LabelRaster, MultibandImage, _finite_bands
from .errors import (
    BoundsError,
    ConfigError,
    DataError,
    LoadError,
    ShapeError,
    SplitError,
)
from .textio import (
    Key,
    format_float,
    open_output,
    parse_float,
    parse_int,
    parse_keys,
    parse_text,
    read_bytes,
    read_text,
    write_bytes,
    write_lines,
)

LABEL_MAGIC = b"RBCL"
CUBE_MAGIC = b"RBCP"
CONTAINER_VERSION = 1


# ============================================================
# binary containers
# ============================================================


def write_band_plane(path: str | Path, values: np.ndarray) -> Path:
    """Raw row-major little-endian float32 plane, no header."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ShapeError(f"band plane must be 2-D, got shape {arr.shape}")
    return write_bytes(path, np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_band_plane(path: str | Path, height: int, width: int) -> np.ndarray:
    """The (height, width) float32 plane in ``path``, a read-only view of its bytes."""
    src = Path(path)
    blob = read_bytes(src)
    expected = 4 * height * width
    if len(blob) != expected:
        raise LoadError(
            f"{src}: expected {expected} bytes for {height}x{width} float32, "
            f"got {len(blob)}"
        )
    return np.frombuffer(blob, dtype="<f4").reshape(height, width)


def write_label_raster(path: str | Path, raster: LabelRaster) -> Path:
    height, width = raster.shape
    header = LABEL_MAGIC + struct.pack(
        "<BIIB", CONTAINER_VERSION, width, height, raster.num_classes
    )
    return write_bytes(path, header + raster.labels.tobytes())


def _read_container(
    src: Path, layout: str, magic: bytes, what: str
) -> tuple[bytes, int, list[int]]:
    """Blob, header size and header fields after magic and version."""
    blob = read_bytes(src)
    head = struct.calcsize(layout)
    if len(blob) < head:
        raise LoadError(f"{src}: truncated {what} header")
    found, version, *fields = struct.unpack(layout, blob[:head])
    if found != magic:
        raise LoadError(f"{src}: not a {what} (bad magic)")
    if version != CONTAINER_VERSION:
        raise LoadError(f"{src}: unsupported {what} version {version}")
    return blob, head, fields


def read_label_raster(path: str | Path) -> LabelRaster:
    src = Path(path)
    blob, head, (width, height, k) = _read_container(
        src, "<4sBIIB", LABEL_MAGIC, "label raster"
    )
    if len(blob) != head + width * height:
        raise LoadError(f"{src}: expected {width * height} label bytes")
    labels = np.frombuffer(blob, dtype=np.uint8, offset=head).reshape(height, width)
    try:
        return LabelRaster(labels, num_classes=k)
    except (ValueError, ShapeError, ConfigError) as exc:
        raise LoadError(f"{src}: {exc}") from exc


@contextmanager
def posterior_cube_writer(
    path: str | Path, shape: tuple[int, int, int, int]
) -> Iterator[Callable[[np.ndarray], None]]:
    """Write a (dates, classes, height, width) cube one date at a time.

    Writes the header on entry and yields ``write(plane)``, which
    appends one (classes, height, width) plane as float32; a plane of
    another shape, or one past the last date, raises ShapeError. On
    exit a short plane count raises ShapeError. When the block raises,
    the partial file is deleted and the error propagates; I/O failures
    are DataErrors naming ``path``.
    """
    path = Path(path)
    dates, k, height, width = shape
    plane_shape = (k, height, width)
    written = 0

    def write(plane: np.ndarray) -> None:
        nonlocal written
        arr = np.asarray(plane)
        if arr.shape != plane_shape or written == dates:
            raise ShapeError(
                f"{path}: plane {written} of shape {arr.shape} does not "
                f"fit a cube of shape {tuple(shape)}"
            )
        fh.write(np.ascontiguousarray(arr, dtype="<f4"))
        written += 1

    header = CUBE_MAGIC + struct.pack(
        "<BIIBI", CONTAINER_VERSION, width, height, k, dates
    )
    with open_output(path) as fh:
        try:
            fh.write(header)
            yield write
            if written != dates:
                raise ShapeError(f"{path}: wrote {written} of {dates} dates")
        except BaseException:
            fh.close()
            with suppress(OSError):
                path.unlink()
            raise


def write_posterior_cube(path: str | Path, cube: np.ndarray) -> Path:
    """Cube of shape (dates, classes, height, width), stored as float32."""
    arr = np.asarray(cube)
    if arr.ndim != 4:
        raise ShapeError(f"posterior cube must be 4-D, got shape {arr.shape}")
    with posterior_cube_writer(path, arr.shape) as write:
        for plane in arr:
            write(plane)
    return Path(path)


def read_posterior_cube(path: str | Path) -> np.ndarray:
    src = Path(path)
    blob, head, (width, height, k, t) = _read_container(
        src, "<4sBIIBI", CUBE_MAGIC, "posterior cube"
    )
    expected = head + 4 * t * k * height * width
    if len(blob) != expected:
        raise LoadError(f"{src}: expected {expected} bytes, got {len(blob)}")
    data = np.frombuffer(blob[head:], dtype="<f4")
    return data.reshape(t, k, height, width).astype(np.float64)


# ============================================================
# manifest
# ============================================================


@dataclass(frozen=True)
class ManifestFrame:
    """One dated entry: per-band file paths plus optional side files."""

    date: dt.date
    band_paths: tuple[tuple[str, str], ...]
    cloud_fraction: float | None = None
    truth_path: str | None = None
    posterior_path: str | None = None


@dataclass(frozen=True)
class StackManifest:
    """Parsed stack manifest; paths are relative to ``base_dir``."""

    width: int
    height: int
    scale: float
    bands: tuple[tuple[str, float], ...]  # (name, resolution in meters)
    frames: tuple[ManifestFrame, ...]
    base_dir: Path

    @property
    def band_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.bands)

    def resample_factors(self) -> dict[str, int]:
        """Integer upsampling factor per band relative to the finest band."""
        finest = min(res for _, res in self.bands)
        factors = {}
        for name, res in self.bands:
            ratio = res / finest
            factor = int(round(ratio))
            if factor < 1 or abs(ratio - factor) > 1e-9:
                raise ConfigError(
                    f"band {name!r}: resolution {res} is not an integer "
                    f"multiple of the finest resolution {finest}"
                )
            factors[name] = factor
        return factors


def parse_manifest(path: str | Path) -> StackManifest:
    src = Path(path)
    name = str(src)
    missing = "manifest needs width and height"
    values = parse_keys(read_text(src), MANIFEST_KEYS, "manifest", missing, name)
    width, height = values["width"], values["height"]
    scale = values.get("scale", 1.0)
    bands = [band for line in values["bands"] for band in line]
    frames = list(values["frames"])
    if width < 1 or height < 1:
        raise ConfigError(f"{name}: width/height must be >= 1")
    if not np.isfinite(scale) or scale <= 0.0:
        raise ConfigError(f"{name}: scale must be finite and > 0")
    if not bands:
        raise ConfigError(f"{name}: manifest needs at least one band")
    names = [b for b, _ in bands]
    if len(set(names)) != len(names):
        raise ConfigError(f"{name}: duplicate band names: {names}")
    # model files store the band count and each name's UTF-8 length in one byte
    if len(names) > 255:
        raise ConfigError(f"{name}: at most 255 bands are supported, got {len(names)}")
    for band in names:
        if len(band.encode("utf-8")) > 255:
            raise ConfigError(f"{name}: band name {band!r} is longer than 255 UTF-8 bytes")
    if any(res <= 0 for _, res in bands):
        raise ConfigError(f"{name}: band resolutions must be > 0")
    if not frames:
        raise ConfigError(f"{name}: manifest needs at least one frame")
    dates = [fr.date for fr in frames]
    if len(set(dates)) != len(dates):
        raise DataError(f"{name}: duplicate frame dates")
    frames.sort(key=lambda fr: fr.date)
    for fr in frames:
        have = {b for b, _ in fr.band_paths}
        missing = set(names) - have
        if missing:
            raise DataError(f"{name}: frame {fr.date} missing bands {sorted(missing)}")
        extra = have - set(names)
        if extra:
            raise ConfigError(f"{name}: frame {fr.date} has unknown bands {sorted(extra)}")
    manifest = StackManifest(
        width=width,
        height=height,
        scale=scale,
        bands=tuple(bands),
        frames=tuple(frames),
        base_dir=src.parent,
    )
    manifest.resample_factors()  # validates resolutions early
    return manifest


def _parse_frame_line(value: str, _key: str, where: str) -> ManifestFrame:
    tokens = value.split()
    if not tokens:
        raise ConfigError(f"{where}: empty frame entry")
    try:
        date = dt.date.fromisoformat(tokens[0])
    except ValueError:
        raise ConfigError(f"{where}: bad frame date {tokens[0]!r}") from None
    side = {}
    band_paths: list[tuple[str, str]] = []
    for token in tokens[1:]:
        if "=" not in token:
            raise ConfigError(f"{where}: frame token needs key=value, got {token!r}")
        key, val = token.split("=", 1)
        side_key = _SIDE_TOKENS.get(key)
        if side_key is None:
            band_paths.append((key, val))
        else:
            side[side_key.field] = side_key.parse(val, key, where)
    return ManifestFrame(date=date, band_paths=tuple(band_paths), **side)


def _parse_fraction(value: str, key: str, where: str) -> float:
    fraction = parse_float(value, key, where)
    if not 0.0 <= fraction <= 1.0:  # NaN fails too
        raise ConfigError(f"{where}: key {key!r}: fraction outside [0, 1]: {value}")
    return fraction


def _parse_bands(value: str, key: str, where: str) -> list[tuple[str, float]]:
    bands = []
    for item in value.split(","):
        if ":" not in item:
            raise ConfigError(f"{where}: band entry needs name:resolution")
        name, res = item.split(":", 1)
        bands.append((name.strip(), parse_float(res.strip(), key, where)))
    return bands


# Frame-line tokens other than band=path ones.
_SIDE_TOKENS = {
    "cloud": Key("cloud_fraction", _parse_fraction),
    "truth": Key("truth_path", parse_text),
    "posterior": Key("posterior_path", parse_text),
}

MANIFEST_KEYS = {
    "width": Key("width", parse_int, required=True),
    "height": Key("height", parse_int, required=True),
    "scale": Key("scale", parse_float),
    "bands": Key("bands", _parse_bands, repeats=True),
    "frame": Key("frames", _parse_frame_line, repeats=True),
}


def write_manifest(manifest: StackManifest, path: str | Path) -> Path:
    lines = [
        "# stack manifest",
        f"width = {manifest.width}",
        f"height = {manifest.height}",
        f"scale = {format_float(manifest.scale)}",
        "bands = "
        + ", ".join(f"{name}:{format_float(res)}" for name, res in manifest.bands),
    ]
    for fr in manifest.frames:
        tokens = [fr.date.isoformat()]
        if fr.cloud_fraction is not None:
            tokens.append(f"cloud={format_float(fr.cloud_fraction)}")
        if fr.truth_path is not None:
            tokens.append(f"truth={fr.truth_path}")
        if fr.posterior_path is not None:
            tokens.append(f"posterior={fr.posterior_path}")
        tokens.extend(f"{band}={p}" for band, p in fr.band_paths)
        lines.append("frame = " + " ".join(tokens))
    return write_lines(path, lines)


def load_stack(manifest: StackManifest) -> ImageStack:
    """Read every frame of a manifest into memory.

    Band planes are read at native resolution and nearest-neighbor
    upsampled to the manifest grid; each image keeps them as float32
    and applies the reflectance scale when its values are read. Missing
    or mis-sized files, planes holding NaN or infinite values (in the
    file, or once scaled), and posterior cubes holding NaN, infinite or
    negative values raise LoadError naming the path (and the date).
    """
    factors = manifest.resample_factors()
    names = manifest.band_names
    height, width = manifest.height, manifest.width
    frames = []
    for mf in manifest.frames:
        paths = dict(mf.band_paths)
        planes = []
        for band in names:
            factor = factors[band]
            if height % factor or width % factor:
                raise DataError(
                    f"band {band!r}: grid {width}x{height} not divisible by "
                    f"resample factor {factor}"
                )
            path = manifest.base_dir / paths[band]
            plane = read_band_plane(path, height // factor, width // factor)
            planes.append(resample_nearest(plane, factor))
        try:
            image = MultibandImage(bands=names, data=planes, scale=manifest.scale)
        except ValueError:
            band = names[int(np.argmin(_finite_bands(planes, manifest.scale)))]
            raise LoadError(
                f"{manifest.base_dir / paths[band]}: band {band!r} on "
                f"{mf.date.isoformat()} has non-finite values at scale {manifest.scale:g}"
            ) from None
        truth = None
        if mf.truth_path is not None:
            truth = read_label_raster(manifest.base_dir / mf.truth_path)
        posterior = None
        if mf.posterior_path is not None:
            path = manifest.base_dir / mf.posterior_path
            cube = read_posterior_cube(path)
            if cube.shape[0] != 1:
                raise LoadError(
                    f"{path}: per-frame posterior "
                    f"must hold exactly one date, got {cube.shape[0]}"
                )
            if not (np.isfinite(cube) & (cube >= 0.0)).all():
                raise LoadError(
                    f"{path}: posterior on {mf.date.isoformat()} "
                    "has non-finite or negative values"
                )
            posterior = cube[0]
        frames.append(
            Frame(
                date=mf.date,
                image=image,
                cloud_fraction=mf.cloud_fraction,
                truth=truth,
                external_posterior=posterior,
            )
        )
    return ImageStack(tuple(frames))


# ============================================================
# preprocessing
# ============================================================


@dataclass(frozen=True)
class ReferenceRegion:
    """Pixel-aligned rectangle: origin (x, y), size (width, height)."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0 or self.width < 1 or self.height < 1:
            raise BoundsError(
                f"bad region: origin ({self.x}, {self.y}), "
                f"size {self.width}x{self.height}"
            )

    def slices(self) -> tuple[slice, slice]:
        return (
            slice(self.y, self.y + self.height),
            slice(self.x, self.x + self.width),
        )


def _check_region(region: ReferenceRegion, shape: tuple[int, int]) -> None:
    height, width = shape
    if region.y + region.height > height or region.x + region.width > width:
        raise BoundsError(
            f"region {region} exceeds raster bounds {width}x{height}"
        )


def resample_nearest(grid: np.ndarray, factor: int) -> np.ndarray:
    """Integer-factor nearest-neighbor upsampling (each cell repeated)."""
    if factor < 1 or int(factor) != factor:
        raise ConfigError(f"resample factor must be a positive integer, got {factor}")
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise ShapeError(f"grid must be 2-D, got shape {arr.shape}")
    if factor == 1:
        return arr.copy()
    return np.repeat(np.repeat(arr, factor, axis=0), factor, axis=1)


def crop(image: MultibandImage, region: ReferenceRegion) -> MultibandImage:
    """Cut a rectangle out of every band, sharing the planes if contiguous."""
    _check_region(region, image.shape)
    rows, cols = region.slices()
    return image._derive(data=image.data[:, rows, cols])


def crop_stack(stack: ImageStack, region: ReferenceRegion) -> ImageStack:
    """Each frame's `Frame.window` on ``region``: images, truth and posterior alike."""
    if stack.frames:
        _check_region(region, stack.shape)
    return ImageStack(tuple(fr.window(*region.slices()) for fr in stack.frames))


def bias_correct(stack: ImageStack, region: ReferenceRegion) -> ImageStack:
    """Additive per-band radiometric alignment against the first frame.

    For every later frame, each band is shifted by (reference region
    mean of frame 0) - (reference region mean of that frame), so all
    frames agree on the region's mean value. The first frame is
    returned unchanged, and reapplying the correction is a no-op up to
    float64 rounding. A non-finite region mean in frame 0, or a later
    frame whose shifted values are not finite, as when its region mean
    overflows, raises DataError naming that frame's date. Corrected
    images share their planes and carry the shift.
    """
    if not stack.frames:
        raise DataError("cannot bias-correct an empty stack")
    _check_region(region, stack.shape)
    rows, cols = region.slices()
    # only the region's rows are widened to float64; the mean then reads a
    # view with the whole frame's strides, so it sums in the same order
    first = stack.frames[0]
    with np.errstate(over="ignore"):  # reported below
        reference = first.image.values(rows=rows)[:, :, cols].mean(axis=(1, 2))
    if not np.isfinite(reference).all():
        raise DataError(
            f"{first.date.isoformat()}: bias reference region mean is non-finite"
        )
    frames = [first]
    for fr in stack.frames[1:]:
        with np.errstate(over="ignore", invalid="ignore"):
            shift = reference - fr.image.values(rows=rows)[:, :, cols].mean(axis=(1, 2))
            if fr.image.shift is not None:
                shift += fr.image.shift
        if not _finite_bands(fr.image.data, fr.image.scale, shift).all():
            raise DataError(
                f"{fr.date.isoformat()}: bias-corrected frame has non-finite values"
            )
        frames.append(replace(fr, image=fr.image._derive(shift=shift)))
    return ImageStack(tuple(frames))


def filter_frames(
    stack: ImageStack,
    max_cloud_fraction: float | None = None,
    exclude_dates: tuple[dt.date, ...] | list[dt.date] = (),
) -> ImageStack:
    """Drop frames by cloud fraction threshold and/or explicit date list.

    Frames without cloud metadata pass the cloud filter. Emits a
    warning (and returns an empty stack) when nothing survives.
    """
    if max_cloud_fraction is not None and not (0.0 <= max_cloud_fraction <= 1.0):
        raise ConfigError(
            f"max_cloud_fraction must lie in [0, 1], got {max_cloud_fraction}"
        )
    excluded = set(exclude_dates)
    unknown = excluded - set(stack.dates)
    if unknown:
        raise DataError(f"excluded dates not in stack: {sorted(unknown)}")
    kept = []
    for fr in stack.frames:
        if fr.date in excluded:
            continue
        if (
            max_cloud_fraction is not None
            and fr.cloud_fraction is not None
            and fr.cloud_fraction > max_cloud_fraction
        ):
            continue
        kept.append(fr)
    if not kept:
        warnings.warn("all frames filtered out", stacklevel=2)
    return ImageStack(tuple(kept))


def split_dates(
    stack: ImageStack,
    train_dates: tuple[dt.date, ...] | list[dt.date],
    test_dates: tuple[dt.date, ...] | list[dt.date],
) -> tuple[ImageStack, ImageStack]:
    """Partition a stack into train and test sub-stacks by date.

    The two date lists must be disjoint and both subsets of the stack's
    dates; order within the stack is preserved.
    """
    train = set(train_dates)
    test = set(test_dates)
    if not train or not test:
        raise SplitError("train and test date lists must be nonempty")
    overlap = train & test
    if overlap:
        raise SplitError(f"train/test dates overlap: {sorted(overlap)}")
    have = set(stack.dates)
    missing = (train | test) - have
    if missing:
        raise SplitError(f"split dates not in stack: {sorted(missing)}")
    train_stack = ImageStack(tuple(fr for fr in stack.frames if fr.date in train))
    test_stack = ImageStack(tuple(fr for fr in stack.frames if fr.date in test))
    return train_stack, test_stack
