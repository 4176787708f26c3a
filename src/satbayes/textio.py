"""The package's file boundary, and ``key = value`` text parsing.

Every satbayes file is read and written through the helpers here, so
one rule maps file-system failures onto the exit-code contract: a file
that cannot be read or decoded as UTF-8 raises `LoadError`, and an
output that cannot be created or written raises `DataError`; both exit
2 and name the path.

Config-like files are line-oriented ``key = value`` text: one pair per
line, ``#`` starts a comment, blank lines are skipped, keys may repeat.
Floats are written with ``repr`` so values round-trip exactly.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

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


def read_text(path: str | Path) -> str:
    with _failing_as(LoadError, path):
        return Path(path).read_text(encoding="utf-8")


def make_dirs(path: str | Path) -> Path:
    """Create a directory and its missing parents."""
    with _failing_as(DataError, path):
        Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


@contextmanager
def open_output(path: str | Path) -> Iterator[BinaryIO]:
    """Binary file handle for writing ``path``; parents are created."""
    with _failing_as(DataError, path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with Path(path).open("wb") as fh:
            yield fh


def write_bytes(path: str | Path, data: bytes) -> Path:
    with open_output(path) as fh:
        fh.write(data)
    return Path(path)


def write_lines(path: str | Path, lines: Sequence[str]) -> Path:
    """Newline-terminated UTF-8 lines."""
    return write_bytes(path, ("\n".join(lines) + "\n").encode())


def iter_kv_lines(text: str, source: str = "<str>") -> list[tuple[int, str, str]]:
    """All (line number, key, value) triples of a key = value document."""
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        triples.append((lineno, key, value.strip()))
    return triples


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


def split_list(value: str) -> list[str]:
    """Comma-separated items, stripped; empty string -> empty list."""
    if not value.strip():
        return []
    return [item.strip() for item in value.split(",")]
