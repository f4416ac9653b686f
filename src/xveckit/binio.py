"""Little-endian binary framing shared by checkpoint-style files.

Every tensor is stored as u32 rank, u32 dims, then float32 payload.
Strings are a u32 byte length followed by utf-8 bytes. The metadata blob
of checkpoints and backends is one such string holding key=value lines;
write_meta and Reader.meta are its only writer and parser, and
Reader.text is the only place that decodes utf-8, raising ParseError on
bytes that are not.

Artifacts are written through atomic_write, so a reader sees either the
previous file or the complete new one, never a partial write.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError, TruncatedFileError

__all__ = ["Reader", "atomic_write", "write_u32", "write_blob", "write_meta", "write_array",
           "read_array"]


class Reader:
    """Cursor over raw bytes that fails loudly on short reads."""

    def __init__(self, raw: bytes, path: str):
        self.raw = raw
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.raw):
            raise TruncatedFileError(f"{self.path}: unexpected end of file")
        chunk = self.raw[self.off: self.off + n]
        self.off += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        """A length-prefixed utf-8 string."""
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"{self.path}: string at byte {self.off - len(raw)} "
                             f"is not utf-8 ({err.reason})") from None

    def meta(self) -> dict[str, str]:
        """A metadata blob: one key=value per line; blank lines are skipped."""
        fields: dict[str, str] = {}
        for line in self.text().splitlines():
            if not line.strip():
                continue
            if "=" not in line:
                raise ParseError(f"{self.path}: bad metadata line {line!r}")
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
        return fields

    def expect_exhausted(self) -> None:
        if self.off != len(self.raw):
            raise TruncatedFileError(f"{self.path}: {len(self.raw) - self.off} trailing bytes")


@contextlib.contextmanager
def atomic_write(path: Path | str, mode: str = "wb"):
    """Open a new file beside `path` for writing ("wb" or "w"); it replaces
    `path` when the block completes and is removed if the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with tmp.open(mode.replace("w", "x")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def write_blob(fh, blob: bytes) -> None:
    write_u32(fh, len(blob))
    fh.write(blob)


def write_meta(fh, fields: dict[str, object]) -> None:
    write_blob(fh, "\n".join(f"{key}={value}" for key, value in fields.items()).encode("utf-8"))


def write_array(fh, arr: np.ndarray) -> None:
    write_u32(fh, arr.ndim)
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_array(reader: Reader) -> np.ndarray:
    rank = reader.u32()
    dims = tuple(struct.unpack(f"<{rank}I", reader.take(4 * rank))) if rank else ()
    n_vals = 1
    for d in dims:
        n_vals *= d
    return np.frombuffer(reader.take(4 * n_vals), dtype="<f4").reshape(dims)
