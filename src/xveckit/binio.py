"""Little-endian binary framing shared by checkpoint-style files.

Every tensor is stored as u32 rank, u32 dims, then float32 payload.
Strings are a u32 byte length followed by utf-8 bytes. Model checkpoints
(XVCK) and backends (XVBK) are tensor containers: 4 magic bytes, u32
format version, a metadata blob, u32 tensor count, the tensors, and
nothing after them. write_container and read_container are the only
writer and reader of that framing; the metadata blob is one string
holding key=value lines, and Reader.meta is its only parser. Every
versioned artifact checks its magic and version through Reader.header.
Reader.text (strings in binary files) and open_text (text files, which
text_blocks reads through) are the only utf-8 decoders, and atomic_write
writes text as utf-8. Non-utf-8 bytes and non-finite tensor values raise
ParseError.

The field codec, format_field and parse_field, turns one dataclass field
into text and back, chosen by the field's annotation (int, float, str,
bool, tuple[int, ...], float | None). config.txt and the config part of
checkpoint metadata are both written and read through it.

Artifacts are written through atomic_write, so a reader sees either the
previous file or the complete new one, never a partial write.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagicError, ParseError, TruncatedFileError

__all__ = ["Reader", "atomic_write", "format_field", "parse_field", "non_finite_fields",
           "open_text", "text_blocks", "write_u32", "write_blob", "write_array", "read_array",
           "write_container", "read_container"]


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw == "true"


# annotation -> (formatter, parser); parsers raise ValueError on bad text
_FIELD_CODECS = {
    "int": (str, int),
    "float": (lambda v: repr(float(v)), float),
    "str": (str, str),
    "bool": (lambda v: "true" if v else "false", _parse_bool),
    "tuple[int, ...]": (lambda v: ",".join(str(x) for x in v),
                        lambda raw: tuple(int(x) for x in raw.split(","))),
    "float | None": (lambda v: "none" if v is None else repr(float(v)),
                     lambda raw: None if raw == "none" else float(raw)),
}


def format_field(annotation: str, value) -> str:
    """Text form of a dataclass field value; parse_field inverts it."""
    return _FIELD_CODECS[annotation][0](value)


def parse_field(annotation: str, raw: str):
    """Value of a dataclass field from its text form; ValueError if malformed."""
    return _FIELD_CODECS[annotation][1](raw)


def non_finite_fields(record) -> list[str]:
    """One validation problem per float field of dataclass `record` that
    holds nan or inf."""
    return [f"{f.name} must be finite, got {getattr(record, f.name)}"
            for f in dataclasses.fields(record)
            if f.type == "float" and not math.isfinite(getattr(record, f.name))]


@contextlib.contextmanager
def open_text(path: Path | str, newline: str | None = None):
    """Open a utf-8 text file for reading; bytes that are not raise ParseError."""
    try:
        with Path(path).open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: text is not utf-8 ({err.reason})") from None


def text_blocks(path: Path | str, size: int):
    """The text of a file, read through open_text, in blocks of whole
    lines: each read takes `size` characters and is cut back to its last
    \\n (a longer line makes its block longer; the last block may lack a
    line end). Line ends \\r\\n and \\r read as \\n."""
    with open_text(path) as fh:
        rest = ""
        while chunk := fh.read(size):
            block = rest + chunk
            end = block.rfind("\n") + 1
            rest = block[end:]
            if end:
                yield block[:end]
        if rest:
            yield rest


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

    def header(self, magic: bytes, version: int, what: str) -> None:
        """Check the magic bytes and u32 format version of `what` (a noun
        with its article, e.g. "a backend file")."""
        if self.take(len(magic)) != magic:
            raise BadMagicError(f"{self.path}: not {what} (bad magic)")
        found = self.u32()
        if found != version:
            raise ParseError(f"{self.path}: unsupported version {found} of {what}")

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
def atomic_write(path: Path | str, mode: str = "wb", newline: str | None = None):
    """Open a new file beside `path` for writing ("wb", or "w" for utf-8
    text with `newline` as in open()); it replaces `path` when the block
    completes and is removed if the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with tmp.open(mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8",
                      newline=newline) as fh:
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


def write_array(fh, arr: np.ndarray) -> None:
    write_u32(fh, arr.ndim)
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_array(reader: Reader) -> np.ndarray:
    rank = reader.u32()
    dims = tuple(struct.unpack(f"<{rank}I", reader.take(4 * rank))) if rank else ()
    arr = np.frombuffer(reader.take(4 * math.prod(dims)), dtype="<f4").reshape(dims)
    if not np.isfinite(arr).all():
        raise ParseError(f"{reader.path}: non-finite value in the tensor before byte {reader.off}")
    return arr


def write_container(path: Path | str, magic: bytes, version: int,
                    meta: dict[str, object], arrays: list[np.ndarray]) -> None:
    """Atomically write a tensor container: magic, version, the metadata
    blob of `meta` (key=value lines), tensor count, then the tensors."""
    with atomic_write(path) as fh:
        fh.write(magic)
        write_u32(fh, version)
        write_blob(fh, "\n".join(f"{key}={value}" for key, value in meta.items()).encode("utf-8"))
        write_u32(fh, len(arrays))
        for arr in arrays:
            write_array(fh, arr)


def read_container(path: Path | str, magic: bytes, version: int,
                   what: str) -> tuple[dict[str, str], list[np.ndarray]]:
    """The metadata and tensors of a container written by write_container;
    a file that ends early or runs on past its last tensor raises
    TruncatedFileError. Callers check the count and shapes they expect."""
    path = Path(path)
    reader = Reader(path.read_bytes(), str(path))
    reader.header(magic, version, what)
    meta = reader.meta()
    arrays = [read_array(reader) for _ in range(reader.u32())]
    reader.expect_exhausted()
    return meta, arrays
