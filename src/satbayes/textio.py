"""The package's file boundary, and ``key = value`` text parsing.

Every satbayes file is read and written through the helpers here, so
one rule maps file-system failures onto the exit-code contract: a file
that cannot be read or decoded as UTF-8 raises `LoadError`, and an
output that cannot be created or written raises `DataError`; both exit
2 and name the path. A command writes its outputs through `staged`, so
it either adds all of them to its output directory or, failing, leaves
that directory as it was.

Configs, synthetic-scene specs and manifests are ``key = value`` text:
one pair per line, ``#`` starts a comment, blank lines are skipped.
Each format declares its keys once, as a table of `Key`s; `parse_keys`
rejects an unknown key, a repeat of a key that does not repeat, and a
missing required key with a `ConfigError` (exit 1) naming the file or
line; a retired key is skipped with one warning that it has no effect.
Floats are written with ``repr`` so values round-trip exactly.
"""

from __future__ import annotations

import datetime as dt
import os
import shutil
import warnings
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from .errors import ConfigError, DataError, LoadError


@contextmanager
def _failing_as(error: type[DataError], path: str | Path) -> Iterator[None]:
    """Re-raise OS and decoding failures on ``path`` as ``error``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{Path(path)}: {exc}") from exc


def read_bytes(path: str | Path) -> bytes:
    with _failing_as(LoadError, path):
        return Path(path).read_bytes()


def file_size(path: str | Path) -> int:
    with _failing_as(LoadError, path):
        return Path(path).stat().st_size


def read_into(path: str | Path, buffer) -> int:
    """Fill the C-contiguous ``buffer`` from ``path`` if their sizes match;
    returns the bytes read, or the file's size if they do not match."""
    with _failing_as(LoadError, path), Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        view = memoryview(buffer).cast("B")
        return fh.readinto(view) if size == view.nbytes else size


def read_text(path: str | Path) -> str:
    with _failing_as(LoadError, path):
        return Path(path).read_text(encoding="utf-8")


@contextmanager
def staged(out: str | Path) -> Iterator[Path]:
    """A staging directory whose entries move into ``out`` when the block succeeds.

    Creates and yields ``out/.partial`` (and ``out``) under an exclusive
    flock held for the whole block, so a command that finds it locked is
    a DataError naming ``out`` and leaves it alone; an unlocked one is a
    killed command's, and is emptied. When the block returns, each entry
    moves into ``out`` with `os.replace`: whole if ``out`` has no entry
    of that name, file by file into a directory that ``out`` already
    has. When the block raises, the staging directory is removed, so
    ``out`` keeps what it held before. A file-system failure here is a
    DataError naming ``out``.
    """
    import fcntl  # not at CLI import time

    out = Path(out)
    stage = out / ".partial"
    with _failing_as(DataError, out):
        if stage.is_symlink() or stage.exists() and not stage.is_dir():
            stage.unlink()
        stage.mkdir(parents=True, exist_ok=True)
        fd = os.open(stage, os.O_RDONLY | os.O_DIRECTORY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(fd)
            if isinstance(exc, BlockingIOError):
                raise DataError(f"{out}: another command is writing into it") from None
            raise
    try:
        with _failing_as(DataError, out):
            for entry in stage.iterdir():  # a stale stage's
                if entry.is_dir() and not entry.is_symlink():
                    shutil.rmtree(entry)
                else:
                    entry.unlink()
        yield stage
        with _failing_as(DataError, out):
            _merge(stage, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        os.close(fd)


def _merge(src: Path, dst: Path) -> None:
    """Move each entry of ``src`` into ``dst``, merging into the directories ``dst`` has."""
    for entry in sorted(src.iterdir()):
        target = dst / entry.name
        if entry.is_dir() and target.is_dir():
            _merge(entry, target)
        else:
            os.replace(entry, target)


@contextmanager
def open_output(path: str | Path) -> Iterator[BinaryIO]:
    """Binary file handle for writing ``path``; parents are created."""
    with _failing_as(DataError, path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with Path(path).open("wb") as fh:
            yield fh


@contextmanager
def open_positional(path: str | Path) -> Iterator[Callable[[Any, int], None]]:
    """Create ``path`` (and its parents) empty and yield ``write(data, offset)``,
    which puts the bytes of the C-contiguous ``data`` at ``offset`` with
    `os.pwrite`, so threads may write disjoint ranges at once. The file is
    closed on exit, also when the block raises."""
    with _failing_as(DataError, path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)

    def write(data: Any, offset: int) -> None:
        view = memoryview(data).cast("B")
        with _failing_as(DataError, path):
            while view:
                done = os.pwrite(fd, view, offset)
                view, offset = view[done:], offset + done

    try:
        yield write
    finally:
        os.close(fd)


def write_bytes(path: str | Path, data: bytes) -> Path:
    with open_output(path) as fh:
        fh.write(data)
    return Path(path)


def write_lines(path: str | Path, lines: Sequence[str]) -> Path:
    """Newline-terminated UTF-8 lines."""
    return write_bytes(path, ("\n".join(lines) + "\n").encode())


@dataclass(frozen=True)
class Key:
    """How a format reads one key into ``field`` and writes it back.

    ``parse(value, key, where)`` converts the text after ``=``. A key
    that ``repeats`` collects a tuple of values, one per line; ``once_per``
    names the leading fields of a value that no two lines may share.
    """

    field: str
    parse: Callable[[str, str, str], Any]
    format: Callable[[Any], str] = str
    required: bool = False
    repeats: bool = False
    once_per: tuple[str, ...] = ()


def parse_keys(
    text: str, keys: Mapping[str, Key], kind: str, missing: str, source: str,
    retired: Sequence[str] = (),
) -> dict[str, Any]:
    """Field values of a ``kind`` document; absent optional keys are left out.

    ``missing`` is the message for absent required keys, formatted with
    the list of those keys as the document writes them. A ``retired``
    key is accepted with any value and ignored, with a warning.
    """
    values: dict[str, Any] = {k.field: () for k in keys.values() if k.repeats}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        if not name:
            raise ConfigError(f"{where}: empty key")
        if name in retired:
            warnings.warn(f"{kind} key {name!r} has no effect", stacklevel=2)
            continue
        key = keys.get(name)
        if key is None:
            raise ConfigError(f"{where}: unknown {kind} key {name!r}")
        if key.repeats:
            item = key.parse(value, name, where)
            width = len(key.once_per)
            if width and any(v[:width] == item[:width] for v in values[key.field]):
                raise ConfigError(
                    f"{where}: {name} for {'/'.join(key.once_per)} "
                    f"{'/'.join(map(str, item[:width]))} already given"
                )
            values[key.field] += (item,)
        elif key.field in values:
            raise ConfigError(f"{where}: duplicate key {name!r}")
        else:
            values[key.field] = key.parse(value, name, where)
    absent = [name for name, k in keys.items() if k.required and k.field not in values]
    if absent:
        raise ConfigError(f"{source}: " + missing.format(absent))
    return values


def parse_float(value: str, key: str, source: str = "<str>") -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{source}: key {key!r}: not a number: {value!r}") from None


def parse_int(value: str, key: str, source: str = "<str>") -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{source}: key {key!r}: not an integer: {value!r}") from None


def format_float(value: float) -> str:
    """Shortest decimal form that parses back to the same float."""
    return repr(float(value))


def parse_date(value: str, key: str, source: str = "<str>") -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except ValueError:
        raise ConfigError(f"{source}: bad date {value!r}") from None


def parse_text(value: str, key: str, source: str = "<str>") -> str:
    return value


def parse_list(value: str, key: str, source: str = "<str>") -> tuple[str, ...]:
    """Comma-separated items, stripped; empty string -> empty tuple."""
    if not value.strip():
        return ()
    return tuple(item.strip() for item in value.split(","))
