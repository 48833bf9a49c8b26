import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from hybrid2pc.drbg import Drbg, ReseedRequired, personalization

SEED_A = bytes(range(32))
SEED_B = bytes(range(1, 33))


def test_same_seed_same_stream():
    a = Drbg(SEED_A).fill_bytes(1 << 20)
    b = Drbg(SEED_A).fill_bytes(1 << 20)
    assert a == b


def test_distinct_seeds_decorrelated():
    a = np.frombuffer(Drbg(SEED_A).fill_bytes(1 << 20), dtype=np.uint8)
    b = np.frombuffer(Drbg(SEED_B).fill_bytes(1 << 20), dtype=np.uint8)
    differing = np.unpackbits(a ^ b).sum()
    assert differing >= 0.49 * 8 * (1 << 20)


def test_fill_zero_bits_empty():
    assert Drbg(SEED_A).fill(0) == b""


def test_fill_partial_byte_masks_top_bits():
    out = Drbg(SEED_A).fill(13)
    assert len(out) == 2
    assert out[1] >> 5 == 0


def test_read_boundaries_do_not_shift_stream():
    whole = Drbg(SEED_A).fill_bytes(100_000)
    d = Drbg(SEED_A)
    parts = b"".join(d.fill_bytes(n) for n in (1, 7, 60_000, 39_992))
    assert parts == whole


def test_personalization_separates_streams():
    base = Drbg(SEED_A).fill_bytes(64)
    tagged = Drbg(SEED_A, personalization(0x01, 0)).fill_bytes(64)
    other = Drbg(SEED_A, personalization(0x01, 1)).fill_bytes(64)
    assert base != tagged and tagged != other


def test_budget_exhaustion_raises():
    d = Drbg(SEED_A, max_bits=1024)
    d.fill_bytes(128)
    with pytest.raises(ReseedRequired):
        d.fill_bytes(1)


def test_typed_draws_consume_canonical_stream():
    raw = Drbg(SEED_A).fill_bytes(16)
    elems = Drbg(SEED_A).ring_elems(2, np.dtype("<u8"))
    assert elems.tolist() == list(np.frombuffer(raw, dtype="<u8"))
    bits = Drbg(SEED_A).bits(8)
    assert bits.tolist() == [(raw[0] >> i) & 1 for i in range(8)]
    blocks = Drbg(SEED_A).blocks(1)
    assert blocks.tobytes() == raw


@pytest.mark.parametrize("l", [8, 16, 32, 64])
def test_ring_elems_read_l_over_8_stream_bytes(l):
    # an element of l bits is the next l/8 canonical stream bytes, and the
    # draw after it starts at the very next byte
    dt = np.dtype(f"<u{l // 8}")
    raw = bytes(Drbg(SEED_A).fill_bytes(7 * dt.itemsize + 1))
    d = Drbg(SEED_A)
    elems = d.ring_elems(7, dt)
    assert elems.dtype == dt and elems.tobytes() == raw[:-1]
    assert bytes(d.fill_bytes(1)) == raw[-1:]
    parts = Drbg(SEED_A)
    assert np.array_equal(np.concatenate([parts.ring_elems(3, dt), parts.ring_elems(4, dt)]),
                          elems)
    elems[0] ^= 1  # a view of the caller's own buffer, writable
    assert elems.flags.writeable and elems.tobytes() != raw[:-1]


def test_seed_length_enforced():
    with pytest.raises(ValueError):
        Drbg(b"short")


# ----- known-answer test against an SP 800-90A reference -----

_M128 = (1 << 128) - 1
_REQ = 1 << 16  # bytes per internal generate request


def _ecb_blocks(key: bytes, counters) -> bytes:
    """AES_key(c) for each counter value c, one ECB block per value."""
    blocks = b"".join(c.to_bytes(16, "big") for c in counters)
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(blocks)


def _ref_update(key: bytes, v: int, provided: bytes):
    temp = _ecb_blocks(key, ((v + i) & _M128 for i in (1, 2)))
    temp = bytes(a ^ b for a, b in zip(temp, provided))
    return temp[:16], int.from_bytes(temp[16:], "big")


def _ref_stream(seed: bytes, pers: bytes, nbytes: int) -> bytes:
    """CTR_DRBG, AES-128, no derivation function, 64 KB generate requests."""
    material = bytes(a ^ b for a, b in zip(seed, pers.ljust(32, b"\x00")))
    key, v = _ref_update(bytes(16), 0, material)
    out = []
    for _ in range(-(-nbytes // _REQ)):
        n = _REQ // 16
        out.append(_ecb_blocks(key, ((v + i) & _M128 for i in range(1, n + 1))))
        v = (v + n) & _M128
        key, v = _ref_update(key, v, bytes(32))
    return b"".join(out)[:nbytes]


def _seed_for_v(v: int, pers: bytes) -> bytes:
    """A seed whose instantiation leaves the counter V at v."""
    first = _ecb_blocks(bytes(16), (1, 2))
    material = bytes(16) + bytes(a ^ b for a, b in zip(first[16:], v.to_bytes(16, "big")))
    return bytes(a ^ b for a, b in zip(material, pers.ljust(32, b"\x00")))


_KAT_READS = (1, 65_535, 3, 70_001, 16, 65_536, 4_097, 131_079)


@pytest.mark.parametrize("seed, pers", [
    (SEED_A, b""),
    (SEED_B, personalization(0x03, 0)),
    (bytes(32), personalization(0x05, 7)),
    (bytes([0xFF] * 32), bytes(range(32))),
    (_seed_for_v((1 << 128) - 5, b""), b""),  # wraps inside the first request
    (_seed_for_v((1 << 128) - 4097, personalization(0x01, 2)),
     personalization(0x01, 2)),  # wraps in the first key/V update
    (_seed_for_v((1 << 64) - 3, b""), b""),  # carry out of the low 64 bits
    (_seed_for_v((1 << 32) - 2, b""), b""),  # carry out of the low 32 bits
])
def test_known_answer_against_reference(seed, pers):
    d = Drbg(seed, pers)
    got = b"".join(bytes(d.fill_bytes(n)) for n in _KAT_READS)
    assert got == _ref_stream(seed, pers, sum(_KAT_READS))
