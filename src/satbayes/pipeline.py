"""Stack ingestion, binary raster containers, and preprocessing.

A stack on disk is a plain-text manifest plus one headerless raw
float32 file per band per date. The manifest pins the target grid, the
per-band native resolutions (coarser bands are stored at their native
grid and upsampled on load), a reflectance scale factor, and optional
per-frame side files: ground-truth label rasters and externally
produced posterior cubes.

One reader turns rows of a manifest frame into their validated image,
posterior and truth, reading only those rows of each file (the windowed
reads of GDAL and rasterio, in numpy). `open_stack` checks every plane
file's size and that each side file exists, and defers that reader to
`Frame.load`, so a date's planes and truth are read when a caller
reaches it, only in the rows of the frame's window, and never for a
date that no caller loads; `load_stack` applies it to every frame at
once. Crops and bias corrections of a deferred stack read no plane of a
later frame: they narrow its window and add a correction step that
`Frame.load` applies.

Container formats (all little-endian):

* band plane: raw row-major float32 values, no header; dimensions come
  from the manifest.
* label raster: magic ``RBCL``, version u8, u32 width, u32 height,
  u8 class count, then width*height class-index bytes row-major.
* posterior cube: magic ``RBCP``, version u8, u32 width, u32 height,
  u8 class count, u32 date count, then one float32 plane per
  (date, class), date-major, each row-major.

Both containers are a header and a fixed layout, so one writer,
`container_writer`, writes either in blocks of (plane, pixel range) at
their offsets, and one reader reads any rows of their planes: a run's
strip workers write the rows they decided, a frame reads the truth and
posterior rows of its window, and no caller needs a whole cube or
raster in memory.
"""

from __future__ import annotations

import datetime as dt
import struct
import threading
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    DeferredImage, Frame, ImageStack, LabelRaster, MultibandImage, _finite_bands, _without_truth
)
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
    file_size,
    format_float,
    open_positional,
    parse_float,
    parse_int,
    parse_keys,
    parse_text,
    read_into,
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


def read_band_plane(
    path: str | Path,
    height: int,
    width: int,
    out: np.ndarray | None = None,
    rows: slice = slice(None),
) -> np.ndarray:
    """The ``rows`` (all by default) of the (height, width) float32 plane in
    ``path``, read from their offset into ``out`` (a C-contiguous float32
    array of their shape) if given, else a new array."""
    rows = range(height)[rows]
    plane = np.empty((len(rows), width), dtype=np.float32) if out is None else out
    _check_plane_size(path, height, width, read_into(path, plane, 4 * rows.start * width))
    return plane


def _check_plane_size(path: str | Path, height: int, width: int, size: int) -> None:
    if size != 4 * height * width:
        raise LoadError(
            f"{Path(path)}: expected {4 * height * width} bytes for {height}x{width} "
            f"float32, got {size}"
        )


def write_label_raster(path: str | Path, raster: LabelRaster) -> Path:
    with container_writer(path, raster.shape, raster.num_classes) as write:
        write(0, 0, raster.labels.reshape(-1))
    return Path(path)


@contextmanager
def container_writer(
    path: str | Path, shape: tuple[int, ...], num_classes: int = 0, create: bool = True
) -> Iterator[Callable[[int, int, np.ndarray], None]]:
    """Write a label raster or a posterior cube in blocks, each at its offset.

    ``shape`` (height, width) makes a label raster of ``num_classes``
    classes, (dates, classes, height, width) a posterior cube, whose
    plane t * classes + c holds class c on date t. Creates ``path`` (and
    its parents) holding the header, or with ``create`` False opens the
    file that an earlier call created, and yields ``write(plane, start,
    values)``, which stores the (p, n) or (n,) ``values`` as uint8 or
    float32 at pixels ``start`` to ``start + n`` (row-major) of planes
    ``plane`` to ``plane + p - 1``; a block outside the container is a
    ShapeError. Blocks that do not overlap may be written from several
    threads at once, and the file is whole once every pixel of every
    plane is. I/O failures are DataErrors naming ``path``.
    """
    if len(shape) == 2:
        (height, width), count, dtype = shape, 1, np.dtype("u1")
        header = LABEL_MAGIC + struct.pack(
            "<BIIB", CONTAINER_VERSION, width, height, num_classes
        )
    else:
        dates, k, height, width = shape
        count, dtype = dates * k, np.dtype("<f4")
        header = CUBE_MAGIC + struct.pack(
            "<BIIBI", CONTAINER_VERSION, width, height, k, dates
        )
    size = height * width

    def write(plane: int, start: int, values: np.ndarray) -> None:
        block = np.asarray(values)
        rows = np.atleast_2d(block)
        if block.ndim not in (1, 2) or not (0 <= plane <= count - len(rows)
                                            and 0 <= start <= size - rows.shape[1]):
            raise ShapeError(
                f"{path}: a block of shape {block.shape} at plane {plane}, pixel "
                f"{start} does not fit a container of shape {tuple(shape)}"
            )
        for p, row in enumerate(rows, start=plane):  # one plane's row at a time
            put(np.ascontiguousarray(row, dtype=dtype),
                len(header) + dtype.itemsize * (p * size + start))

    with open_positional(path, create) as put:
        if create:
            put(header, 0)
        yield write


def _read_header(src: Path, layout: str, magic: bytes, what: str) -> tuple[int, list[int], int]:
    """Header size, header fields after magic and version, and file size."""
    head = bytearray(struct.calcsize(layout))
    size = read_into(src, head)
    if size < len(head):
        raise LoadError(f"{src}: truncated {what} header")
    found, version, *fields = struct.unpack(layout, head)
    if found != magic:
        raise LoadError(f"{src}: not a {what} (bad magic)")
    if version != CONTAINER_VERSION:
        raise LoadError(f"{src}: unsupported {what} version {version}")
    return len(head), fields, size


def _read_rows(
    src: Path, offset: int, dtype: str, planes: int, shape: tuple[int, int], rows: range
) -> np.ndarray:
    """The ``rows`` of ``planes`` consecutive (height, width) planes of
    ``dtype`` stored from byte ``offset`` of ``src``, as (planes, rows, width)."""
    height, width = shape
    out = np.empty((planes, len(rows), width), dtype=dtype)
    for p, plane in enumerate(out):
        read_into(src, plane, offset + out.itemsize * (p * height + rows.start) * width)
    return out


def _label_header(src: Path) -> tuple[int, tuple[int, int], int]:
    """Header size, (height, width) and class count of a label raster."""
    head, (width, height, k), size = _read_header(src, "<4sBIIB", LABEL_MAGIC, "label raster")
    if size != head + width * height:
        raise LoadError(f"{src}: expected {width * height} label bytes")
    return head, (height, width), k


def _label_rows(src: Path, rows: range, head: int, shape: tuple[int, int], k: int) -> LabelRaster:
    labels = _read_rows(src, head, "u1", 1, shape, rows)[0]
    try:
        return LabelRaster(labels, num_classes=k)
    except (ValueError, ShapeError, ConfigError) as exc:
        raise LoadError(f"{src}: {exc}") from exc


def read_label_raster(path: str | Path) -> LabelRaster:
    src = Path(path)
    head, shape, k = _label_header(src)
    return _label_rows(src, range(shape[0]), head, shape, k)


def write_posterior_cube(path: str | Path, cube: np.ndarray) -> Path:
    """Cube of shape (dates, classes, height, width), stored as float32."""
    arr = np.asarray(cube)
    if arr.ndim != 4:
        raise ShapeError(f"posterior cube must be 4-D, got shape {arr.shape}")
    dates, k, height, width = arr.shape
    with container_writer(path, arr.shape) as write:
        for t, plane in enumerate(arr):
            write(t * k, 0, plane.reshape(k, height * width))
    return Path(path)


def _cube_header(src: Path) -> tuple[int, tuple[int, int, int, int]]:
    """Header size and (dates, classes, height, width) of a posterior cube."""
    head, (width, height, k, t), size = _read_header(
        src, "<4sBIIBI", CUBE_MAGIC, "posterior cube"
    )
    expected = head + 4 * t * k * height * width
    if size != expected:
        raise LoadError(f"{src}: expected {expected} bytes, got {size}")
    return head, (t, k, height, width)


def read_posterior_cube(path: str | Path) -> np.ndarray:
    src = Path(path)
    head, shape = _cube_header(src)
    t, k, height, width = shape
    planes = _read_rows(src, head, "<f4", t * k, (height, width), range(height))
    return planes.reshape(shape).astype(np.float64)


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
            if not np.isfinite(ratio):
                raise ConfigError(
                    f"band {name!r}: resolution {res} over the finest resolution "
                    f"{finest} is not finite"
                )
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
    for band, res in bands:
        if not (np.isfinite(res) and res > 0):
            raise ConfigError(
                f"{name}: band {band!r}: resolution must be finite and > 0, got {res}"
            )
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
    try:
        manifest.resample_factors()  # validates resolutions early
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
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


def open_stack(manifest: StackManifest) -> ImageStack:
    """Every frame of a manifest, with its files not yet read.

    Each frame's image is a `DeferredImage`, whose planes, posterior
    cube and truth raster `Frame.load` reads and validates (the errors
    `load_stack` lists), and nothing is read for a frame that is never
    loaded. A grid that a band's resample factor does not divide is a
    DataError, and a missing band plane, truth or posterior file, or a
    plane file that does not fit its grid, a LoadError naming the path,
    all raised here, before any file is read.
    """
    factors = manifest.resample_factors()
    height, width = manifest.height, manifest.width
    frames = []
    for mf in manifest.frames:
        paths = dict(mf.band_paths)
        for band in manifest.band_names:
            factor = factors[band]
            if height % factor or width % factor:
                raise DataError(
                    f"band {band!r}: grid {width}x{height} not divisible by "
                    f"resample factor {factor}"
                )
            path = manifest.base_dir / paths[band]
            _check_plane_size(path, height // factor, width // factor, file_size(path))
        for side in (mf.posterior_path, mf.truth_path):
            if side is not None:
                file_size(manifest.base_dir / side)
        read = partial(_read_frame, manifest, mf, factors)
        image = DeferredImage(
            manifest.band_names, range(height), range(width), read,
            has_truth=mf.truth_path is not None,
        )
        frames.append(Frame(mf.date, image, mf.cloud_fraction))
    return ImageStack(tuple(frames))


def _read_frame(
    manifest: StackManifest,
    mf: ManifestFrame,
    factors: dict[str, int],
    rows: range,
    truth: bool,
) -> tuple[MultibandImage, np.ndarray | None, LabelRaster | None]:
    """The validated image of the grid's ``rows`` at full width, their
    external posterior and, if ``truth``, their truth, of one frame that
    `open_stack` checked: the one reader behind `Frame.load`, which asks
    for the truth of a frame that has one. Only those rows are read: a
    band plane's from their offset (a resampled band's native rows that
    cover them, upsampled, then cut), the truth raster's after its header
    and each class plane's of the posterior cube."""
    names = manifest.band_names
    paths = dict(mf.band_paths)
    height, width = grid = manifest.height, manifest.width
    raster = None
    if truth:
        raster = _read_truth(manifest.base_dir / mf.truth_path, rows, grid, mf.date)
    data = np.empty((len(names), len(rows), width), dtype=np.float32)
    for plane, band in zip(data, names):
        f, path = factors[band], manifest.base_dir / paths[band]
        if f == 1:
            read_band_plane(path, height, width, out=plane, rows=slice(rows.start, rows.stop))
            continue
        lo, hi = rows.start // f, -(-rows.stop // f)  # the native rows that cover ``rows``
        native = read_band_plane(path, height // f, width // f, rows=slice(lo, hi))
        aligned = len(rows) == (hi - lo) * f
        block = plane if aligned else np.empty(((hi - lo) * f, width), dtype=np.float32)
        block.reshape(hi - lo, f, width // f, f)[:] = native[:, None, :, None]
        if not aligned:
            plane[:] = block[rows.start % f :][: len(rows)]
    try:
        image = MultibandImage._adopt(names, data, manifest.scale)
    except ValueError:
        band = names[int(np.argmin(_finite_bands(data, manifest.scale)))]
        raise LoadError(
            f"{manifest.base_dir / paths[band]}: band {band!r} on "
            f"{mf.date.isoformat()} has non-finite values at scale {manifest.scale:g}"
        ) from None
    if mf.posterior_path is None:
        return image, None, raster
    path = manifest.base_dir / mf.posterior_path
    head, shape = _cube_header(path)
    dates, k, *plane_shape = shape
    if (dates, *plane_shape) != (1, height, width):
        raise LoadError(
            f"{path}: posterior on {mf.date.isoformat()} has shape {shape}, "
            f"not one date of the {width}x{height} grid"
        )
    return image, _read_rows(path, head, "<f4", k, grid, rows).astype(np.float64), raster


def _read_truth(path: Path, rows: range, grid: tuple[int, int], date: dt.date) -> LabelRaster:
    """The ``rows`` of the truth raster in ``path``, which must cover the
    (height, width) ``grid``."""
    head, shape, k = _label_header(path)
    if shape != grid:
        raise LoadError(
            f"{path}: truth raster on {date.isoformat()} is {shape[1]}x{shape[0]}, "
            f"not the {grid[1]}x{grid[0]} grid"
        )
    return _label_rows(path, rows, head, shape, k)


def load_stack(manifest: StackManifest) -> ImageStack:
    """Read every frame of a manifest into memory: `Frame.load` of each
    frame that `open_stack` returns.

    Band planes are read at native resolution and nearest-neighbor
    upsampled to the manifest grid; each image keeps them as float32
    and applies the reflectance scale when its values are read. Missing
    or mis-sized files, planes holding NaN or infinite values (in the
    file, or once scaled), bad truth rasters or ones of another grid,
    and posterior cubes of another grid raise LoadError naming the path
    (and the date). A posterior's values are the model output that
    `FrameStep` checks (and `ingest`, with the step's check), so a NaN,
    infinite or negative one fails there.
    """
    return ImageStack(tuple(frame.load() for frame in open_stack(manifest).frames))


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
    images share their planes and carry the shift. Only the rows of
    frame 0 that the region spans are read here: a later
    `DeferredImage` gets the correction as an ``align`` step, which
    reads that date's region rows for its shift once, when a load
    first applies it, and checks the values of each load.
    """
    if not stack.frames:
        raise DataError("cannot bias-correct an empty stack")
    _check_region(region, stack.shape)
    rows, cols = region.slices()
    first = stack.frames[0]
    with np.errstate(over="ignore"):  # reported below
        reference, _ = _region_means(first, rows, cols)
    if not np.isfinite(reference).all():
        raise DataError(
            f"{first.date.isoformat()}: bias reference region mean is non-finite"
        )
    frames = [first]
    for fr in stack.frames[1:]:
        if isinstance(fr.image, DeferredImage):
            align = _date_align(fr, rows, cols, reference)
            fr = replace(fr, image=replace(fr.image, align=fr.image.align + (align,)))
        else:
            fr = _shifted(fr, _shift(fr, rows, cols, reference))
        frames.append(fr)
    return ImageStack(tuple(frames))


def _region_means(frame: Frame, rows: slice, cols: slice) -> tuple[np.ndarray, np.ndarray | None]:
    """Per band, the mean value of ``frame`` on ``rows`` by ``cols``, read from
    those rows alone, and the frame's shift. The rows' values are widened to
    float64 whole and the mean reads their columns as a view, so it sums in
    one order however the frame is held."""
    image = _without_truth(frame).window(rows).load().image
    return image.values()[:, :, cols].mean(axis=(1, 2)), image.shift


def _shift(frame: Frame, rows: slice, cols: slice, reference: np.ndarray) -> np.ndarray:
    """The shift that makes ``frame``'s means on ``rows`` by ``cols`` equal ``reference``."""
    with np.errstate(over="ignore", invalid="ignore"):
        means, shift = _region_means(frame, rows, cols)
        return reference - means if shift is None else reference - means + shift


def _shifted(frame: Frame, shift: np.ndarray) -> Frame:
    """``frame`` carrying ``shift``, whose values must all be finite."""
    image = frame.image
    if not _finite_bands(image.data, image.scale, shift).all():
        raise DataError(
            f"{frame.date.isoformat()}: bias-corrected frame has non-finite values"
        )
    return replace(frame, image=image._derive(shift=shift))


def _date_align(
    frame: Frame, rows: slice, cols: slice, reference: np.ndarray
) -> Callable[[Frame], Frame]:
    """The correction of the deferred ``frame`` as an ``align`` step of its
    loads: the shift is computed once, when a load first applies it, from
    the date's own region rows, and each load's values are checked."""
    lock, shifts = threading.Lock(), []

    def align(part: Frame) -> Frame:
        with lock:  # strips of one date load it from several threads
            if not shifts:
                shifts.append(_shift(frame, rows, cols, reference))
        return _shifted(part, shifts[0])

    return align


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
