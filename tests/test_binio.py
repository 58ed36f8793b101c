"""CRC-32C against the byte-at-a-time reference, and the claim that a
flipped bit anywhere in a saved file is rejected with a checksum error."""

import random

import pytest

from sfns import encoder, index
from sfns._binio import _LANE, ChecksumError, crc32c
from sfns.encoder import init_params, load_params, save_params
from sfns.index import InvertedIndex, build
from sfns.sparse import SparseVector

from _oracles import crc32c_bytewise


def _random_bytes(rng: random.Random, n: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(n))


def test_crc32c_known_answers():
    assert crc32c(b"123456789") == 0xE3069283  # the published CRC-32C check value
    assert crc32c(b"") == 0
    assert crc32c_bytewise(b"123456789") == 0xE3069283


def test_crc32c_matches_bytewise_on_every_short_length():
    rng = random.Random(0)
    data = _random_bytes(rng, 2 * _LANE + 5)
    for n in range(len(data) + 1):
        assert crc32c(data[:n]) == crc32c_bytewise(data[:n]), n
    # Runs of equal bytes reach table entries random data may skip.
    for fill in (b"\x00", b"\xff"):
        assert crc32c(fill * (2 * _LANE + 5)) == crc32c_bytewise(fill * (2 * _LANE + 5))


def test_crc32c_matches_bytewise_on_long_inputs():
    rng = random.Random(1)
    data = _random_bytes(rng, 70_000)
    lengths = [rng.randrange(len(data) + 1) for _ in range(6)]
    lengths += [4 * _LANE * 37 + r for r in range(4)]  # every residue mod 4
    lengths += [4096, 65_536, 70_000]
    for n in lengths:
        assert crc32c(data[:n]) == crc32c_bytewise(data[:n]), n


def test_crc32c_accepts_bytes_bytearray_and_memoryview():
    data = _random_bytes(random.Random(2), 3 * _LANE + 7)
    want = crc32c_bytewise(data)
    assert crc32c(data) == crc32c(bytearray(data)) == crc32c(memoryview(data)) == want
    # A view that starts off word alignment, as a file body inside a read buffer.
    framed = memoryview(b"x" + data + b"tail")[1:-4]
    assert crc32c(framed) == want


def _flip_positions(body_len: int, magic_len: int) -> list[int]:
    """The first byte after the magic, both sides of every lane boundary, the
    last byte of the body and a byte of the CRC trailer."""
    assert body_len >= 3 * _LANE, "the body must span at least three lanes"
    positions = {magic_len, body_len - 1, body_len + 2}
    for boundary in range(body_len % _LANE, body_len, _LANE):
        positions.update(p for p in (boundary - 1, boundary) if p >= magic_len)
    return sorted(positions)


def _assert_every_flip_rejected(path, magic: bytes, load) -> None:
    raw = path.read_bytes()
    positions = _flip_positions(len(raw) - 4, len(magic))
    assert len(positions) >= 8
    for pos in positions:
        flipped = bytearray(raw)
        flipped[pos] ^= 1 << (pos % 8)
        path.write_bytes(bytes(flipped))
        with pytest.raises(ChecksumError):
            load(str(path))
    path.write_bytes(raw)
    load(str(path))


def test_index_file_rejects_a_flipped_bit_anywhere(tmp_path):
    rng = random.Random(3)
    docs = []
    for i in range(12):
        vec = SparseVector((t, rng.uniform(0.1, 4.0)) for t in rng.sample(range(30), 4))
        docs.append((f"d{i}", f"name {i}", vec, None))
    path = tmp_path / "flip.idx"
    build(docs).save(str(path))
    _assert_every_flip_rejected(path, index._MAGIC, InvertedIndex.load)


def test_params_file_rejects_a_flipped_bit_anywhere(tmp_path):
    path = tmp_path / "flip.sfne"
    save_params(init_params(8, 4, seed=0), str(path))
    _assert_every_flip_rejected(path, encoder._MAGIC, load_params)
