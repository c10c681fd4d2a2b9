"""Compression codecs and the on-disk container framing.

The pattern store and the WAL compress *whole files* (occurrence
columns, sealed segments), so the codec layer is deliberately small: a
registry of byte->byte codecs plus a self-describing container header
that names the codec used, letting readers decode without out-of-band
negotiation.

The registry holds one codec, the standard library's ``zlib``, which is
also what ``"auto"`` resolves to.  A container naming any other codec
(for example ``zstd``) fails to decode with a :class:`CompressionError`
that names it.

Container format (``encode_container`` / ``decode_container``)::

    b"RPZ1"                     4-byte magic
    codec name length           1 byte
    codec name                  ascii
    raw (uncompressed) length   8 bytes, big-endian
    compressed payload          rest of file

The magic cannot collide with any store file (JSON or the text
database format) or with a raw WAL segment, whose first frame
starts with a 4-byte big-endian length far below ``0x52505A31``, so
readers can sniff compressed vs. legacy files with ``is_container``.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable

from repro.exceptions import CompressionError

__all__ = [
    "available_codecs",
    "best_codec",
    "container_raw_length",
    "decode_container",
    "encode_container",
    "get_codec",
    "is_container",
    "normalize_codec",
]

MAGIC = b"RPZ1"
_RAW_LEN = struct.Struct(">Q")

# name -> (compress, decompress)
_CODECS: dict[str, tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]]
_CODECS = {
    "zlib": (
        lambda data: zlib.compress(data, level=6),
        zlib.decompress,
    ),
}


def available_codecs() -> tuple[str, ...]:
    """Codec names usable in this installation."""
    return tuple(_CODECS)


def best_codec() -> str:
    """The codec ``"auto"`` resolves to (``zlib``)."""
    return available_codecs()[0]


def get_codec(
    name: str,
) -> tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]:
    """The ``(compress, decompress)`` pair for ``name``.

    Raises :class:`CompressionError` naming the codec, so a container
    written with a codec this build lacks fails with an actionable
    message rather than a KeyError.
    """
    try:
        return _CODECS[name]
    except KeyError:
        raise CompressionError(
            f"unknown compression codec {name!r} "
            "(available: " + ", ".join(available_codecs()) + ")"
        ) from None


def normalize_codec(name: str | None) -> str | None:
    """Resolve a user-facing codec choice to a registry name.

    ``None`` and ``"none"`` mean no compression; ``"auto"`` picks
    :func:`best_codec`; anything else must name an available codec.
    """
    if name is None or name == "none":
        return None
    if name == "auto":
        return best_codec()
    get_codec(name)
    return name


def encode_container(data: bytes, codec_name: str) -> bytes:
    """Compress ``data`` into a self-describing container."""
    compress, _ = get_codec(codec_name)
    name = codec_name.encode("ascii")
    return b"".join(
        (
            MAGIC,
            bytes((len(name),)),
            name,
            _RAW_LEN.pack(len(data)),
            compress(data),
        )
    )


def is_container(data: bytes) -> bool:
    """Whether ``data`` starts with the compressed-container magic."""
    return data[:4] == MAGIC


def _parse_header(data: bytes) -> tuple[str, int, int]:
    """(codec name, raw length, payload offset) of a container."""
    if not is_container(data):
        raise CompressionError("not a compressed container (bad magic)")
    if len(data) < 5:
        raise CompressionError("truncated compressed container header")
    name_len = data[4]
    end = 5 + name_len
    if len(data) < end + _RAW_LEN.size:
        raise CompressionError("truncated compressed container header")
    try:
        name = data[5:end].decode("ascii")
    except UnicodeDecodeError:
        raise CompressionError("corrupt codec name in container") from None
    (raw_len,) = _RAW_LEN.unpack_from(data, end)
    return name, raw_len, end + _RAW_LEN.size


def container_raw_length(data: bytes) -> int:
    """The uncompressed length recorded in a container header.

    Reads only the header, so sealed WAL segments can report their
    logical size without decompressing.
    """
    _, raw_len, _ = _parse_header(data)
    return raw_len


def decode_container(data: bytes) -> tuple[bytes, str]:
    """Decompress a container; returns ``(raw bytes, codec name)``."""
    name, raw_len, offset = _parse_header(data)
    _, decompress = get_codec(name)
    try:
        raw = decompress(data[offset:])
    except CompressionError:
        raise
    except Exception as exc:
        raise CompressionError(
            f"failed to decompress {name} container: {exc}"
        ) from exc
    if len(raw) != raw_len:
        raise CompressionError(
            "compressed container length mismatch: header says "
            f"{raw_len} bytes, payload decompressed to {len(raw)}"
        )
    return raw, name
