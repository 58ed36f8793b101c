"""Binary file plumbing shared by the index and encoder-params formats.

All multi-byte integers are little-endian. Files end with a CRC32C of every
preceding byte, so corruption anywhere in the payload is detected on load.
"""

from __future__ import annotations

import struct

import numpy as np


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


_CRC_TABLE = np.array(_make_crc32c_table(), dtype=np.uint32)

# The CRC register is linear over GF(2): feeding L zero bytes to a register
# multiplies it by a 32x32 bit matrix. Such an operator is kept as four
# 256-entry tables, one per register byte, whose XOR gives the product.


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """(4, 256) tables of the operator whose image of bit i is columns[i]."""
    per_byte = columns.reshape(4, 8)
    tables = np.zeros((4, 1), dtype=np.uint32)
    for bit in range(8):
        tables = np.concatenate([tables, tables ^ per_byte[:, bit : bit + 1]], axis=1)
    return tables


def _apply(tables: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """The operator's image of every register in a uint32 array."""
    return (
        tables[0][regs & 0xFF]
        ^ tables[1][(regs >> 8) & 0xFF]
        ^ tables[2][(regs >> 16) & 0xFF]
        ^ tables[3][regs >> 24]
    )


def _zero_operators() -> list[np.ndarray]:
    """Entry k feeds 2**k zero bytes, for every k a 64-bit length needs.
    Entry 0 is one step of the byte table; each next one is its square."""
    bits = np.uint32(1) << np.arange(32, dtype=np.uint32)
    ops = [_byte_tables(_CRC_TABLE[bits & 0xFF] ^ (bits >> 8))]
    for _ in range(63):
        ops.append(_byte_tables(_apply(ops[-1], _apply(ops[-1], bits))))
    for op in ops:
        op.flags.writeable = False
    return ops


_ZEROS = _zero_operators()
# Feeding a word w to register c gives _ZEROS[2] applied to c ^ w: entry 2
# holds the slicing-by-4 tables.
_SLICE4 = _ZEROS[2]
# Bytes per lane; a power of two, so lanes fold with entries of _ZEROS.
_LANE = 64


def crc32c(data: bytes | bytearray | memoryview) -> int:
    """CRC-32C (Castagnoli) of data, computed over whole arrays.

    The bytes after the first n mod _LANE (the head) are read in place as
    lanes of _LANE bytes, and every lane's register advances one u32 word
    per step. The head is a lane of its own, padded with zeros in front,
    which a register starting at zero does not notice. Lanes then fold
    pairwise: the left register is moved past the right lane's bytes and
    XORed into it. The initial all-ones register is moved past all n bytes
    the same way.
    """
    buf = memoryview(data).cast("B")
    n = len(buf)
    head = n % _LANE
    lanes = np.frombuffer(buf, dtype="<u4", offset=head).reshape(-1, _LANE // 4)
    padded_head = np.zeros(_LANE, dtype=np.uint8)
    padded_head[_LANE - head :] = np.frombuffer(buf[:head], dtype=np.uint8)
    head_words = padded_head.view("<u4")
    regs = np.zeros(1 + len(lanes), dtype=np.uint32)
    for j in range(_LANE // 4):
        regs[0] ^= head_words[j]
        regs[1:] ^= lanes[:, j]
        regs = _apply(_SLICE4, regs)
    level = _LANE.bit_length() - 1
    while len(regs) > 1:
        if len(regs) % 2:
            # A zero register in front stands for zero bytes fed to a zero register.
            regs = np.concatenate([np.zeros(1, dtype=np.uint32), regs])
        regs = _apply(_ZEROS[level], regs[0::2]) ^ regs[1::2]
        level += 1
    init = np.full(1, 0xFFFFFFFF, dtype=np.uint32)
    for k in range(n.bit_length()):
        if n >> k & 1:
            init = _apply(_ZEROS[k], init)
    return int(regs[0] ^ init[0]) ^ 0xFFFFFFFF


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
    body = memoryview(raw)[:-4]
    if crc32c(body) != struct.unpack("<I", raw[-4:])[0]:
        raise ChecksumError(f"{path}: CRC32C mismatch")
    reader = ByteReader(body)
    reader.take(len(magic))
    return reader
