"""Binary file plumbing shared by the index and encoder-params formats.

All multi-byte integers are little-endian. Files end with a CRC32C of every
preceding byte, so corruption anywhere in the payload is detected on load.
"""

from __future__ import annotations

import struct


class StorageError(Exception):
    """Base class for persistent-format failures."""


class BadMagicError(StorageError):
    pass


class VersionError(StorageError):
    pass


class TruncatedError(StorageError):
    pass


class ChecksumError(StorageError):
    pass


def _make_crc32c_table() -> list[int]:
    # Castagnoli polynomial, reflected form.
    poly = 0x82F63B78
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ poly if c & 1 else c >> 1
        table.append(c)
    return table


_CRC_TABLE = _make_crc32c_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    c = crc ^ 0xFFFFFFFF
    for b in data:
        c = _CRC_TABLE[(c ^ b) & 0xFF] ^ (c >> 8)
    return c ^ 0xFFFFFFFF


class ByteReader:
    """Cursor over a byte buffer that fails loudly on short reads. Sections
    are views into the buffer, not copies."""

    def __init__(self, buf: bytes):
        self._buf = memoryview(buf)
        self._pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self._pos + n > len(self._buf):
            raise TruncatedError("file ends before a declared field")
        out = self._buf[self._pos : self._pos + n]
        self._pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def remaining(self) -> int:
        return len(self._buf) - self._pos


def pack_u16(v: int) -> bytes:
    return struct.pack("<H", v)


def pack_u32(v: int) -> bytes:
    return struct.pack("<I", v)


def pack_u64(v: int) -> bytes:
    return struct.pack("<Q", v)


def write_checksummed(path: str, body: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(pack_u32(crc32c(body)))


def read_checksummed(path: str, magic: bytes) -> ByteReader:
    """Read a file, verify its magic and trailing CRC32C, return a cursor past the magic."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(magic) + 4:
        raise TruncatedError(f"{path}: shorter than magic plus checksum")
    if raw[: len(magic)] != magic:
        raise BadMagicError(f"{path}: bad magic {raw[:len(magic)]!r}, expected {magic!r}")
    body, tail = raw[:-4], raw[-4:]
    if crc32c(body) != struct.unpack("<I", tail)[0]:
        raise ChecksumError(f"{path}: CRC32C mismatch")
    reader = ByteReader(body)
    reader.take(len(magic))
    return reader
