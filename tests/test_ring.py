import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_bits

from hybrid2pc import ring
from hybrid2pc.ring import RingParams, canon

L8 = RingParams(8)
FX16 = RingParams(16, alpha=7, beta=4)


# The engines add and multiply canon() values with numpy: the ring's dtype
# of l bits wraps every sum and product mod 2^l, and no step masks.


def test_add_wraps():
    total = canon(250, L8) + canon(9, L8)
    assert total == 3 and total.dtype == L8.dtype


def test_mul_small():
    assert canon(3, L8) * canon(5, L8) == 15


def test_mul_l16_reduces():
    # oracle: direct 64-bit product reduced mod 2^16
    assert (24 * 65500) % 65536 == 64672
    product = canon(24, FX16) * canon(65500, FX16)
    assert product == 64672 and product.dtype == FX16.dtype


def test_encode_zero():
    assert ring.encode(0.0, FX16) == 0


def test_encode_examples():
    assert ring.encode(1.5, FX16) == 24  # 1.5 * 16
    assert ring.encode(-2.25, FX16) == 65500  # 65536 - 36


def test_decode_example():
    # signed(65482) = -54; -54/16 = -3.375
    assert ring.to_signed(65482, FX16) / 2**FX16.beta == -3.375


def test_encode_overflow():
    with pytest.raises(OverflowError):
        ring.encode(128.0, FX16)
    with pytest.raises(OverflowError):
        ring.encode(-129.5, FX16)


def test_encode_rejects_non_finite():
    # NaN compares False with everything: it must not slip past the range
    # check and encode as 0
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OverflowError):
            ring.encode([bad, 1.0], FX16)
        with pytest.raises(OverflowError):
            ring.encode(bad, FX16)


def test_truncate_examples():
    assert ring.truncate(0, FX16) == 0
    # signed(64672) = -864; -864 >> 4 = -54 -> 65482
    assert ring.truncate(64672, FX16) == 65482
    # 1.5 * 1.5: 24*24 = 576; 576 >> 4 = 36 = enc(2.25)
    assert canon(24, FX16) * canon(24, FX16) == 576
    assert ring.truncate(576, FX16) == 36
    assert ring.to_signed(36, FX16) / 2**FX16.beta == 2.25


def test_ops_match_bignum_oracle():
    # arbitrary-precision oracle over 10^6 random pairs per op
    rng = np.random.default_rng(7)
    for p in (RingParams(8), RingParams(32), RingParams(64)):
        n = 10**6
        a = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) << np.uint64(1)
        a |= rng.integers(0, 2, size=n, dtype=np.uint64)
        b = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) << np.uint64(1)
        b |= rng.integers(0, 2, size=n, dtype=np.uint64)
        a &= np.uint64(p.mask)
        b &= np.uint64(p.mask)
        ao = a.astype(object)  # Python ints: exact
        bo = b.astype(object)
        mod = p.modulus
        a, b = canon(a, p), canon(b, p)
        assert np.array_equal((a + b).astype(object), (ao + bo) % mod)
        assert np.array_equal((a - b).astype(object), (ao - bo) % mod)
        assert np.array_equal((a * b).astype(object), (ao * bo) % mod)


def test_signed_unsigned_agree_bit_for_bit():
    # signed ADD/SUB via two's complement == unsigned result, same bits
    rng = np.random.default_rng(8)
    p = RingParams(16)
    a = rng.integers(0, p.modulus, size=10**5, dtype=np.uint64)
    b = rng.integers(0, p.modulus, size=10**5, dtype=np.uint64)
    sa, sb = ring.to_signed(a, p).astype(object), ring.to_signed(b, p).astype(object)
    a, b = canon(a, p), canon(b, p)
    assert np.array_equal((a + b).astype(object), (sa + sb) % p.modulus)
    assert np.array_equal((a - b).astype(object), (sa - sb) % p.modulus)


@settings(max_examples=300)
@given(
    st.integers(min_value=-(1 << 7) + 1, max_value=(1 << 7) - 1),
    st.integers(min_value=-(1 << 7) + 1, max_value=(1 << 7) - 1),
)
def test_fixed_point_multiply_rounds_down(ra, rb):
    # raw operands are arbitrary gamma-bit values; product must decode to
    # the real product rounded toward -inf at 2^-beta granularity
    p = FX16
    a = ra / 16.0
    b = rb / 16.0
    if abs(a * b) >= 1 << p.alpha:
        return
    raw = ring.truncate(canon(ring.encode(a, p), p) * canon(ring.encode(b, p), p), p)
    import math

    expect = math.floor(a * b * 16.0) / 16.0
    assert ring.to_signed(raw, p) / 2**p.beta == expect


def test_fixed_point_multiply_random_widths():
    rng = np.random.default_rng(9)
    for p in (RingParams.fixed(16), RingParams.fixed(32), RingParams.fixed(64)):
        halfrange = 2 ** (p.alpha / 2 - 0.1)
        vals = rng.uniform(-halfrange, halfrange, size=(2, 2000))
        raw = (np.sign(vals) * np.floor(np.abs(vals) * (1 << p.beta) + 0.5)).astype(
            np.int64
        )
        a, b = raw[0], raw[1]
        enc_a, enc_b = ring.from_signed(a, p), ring.from_signed(b, p)
        got = ring.truncate(canon(enc_a, p) * canon(enc_b, p), p)
        expect = [(int(x) * int(y)) >> p.beta for x, y in zip(a, b)]
        assert np.array_equal(ring.to_signed(got, p).astype(object), np.array(expect, dtype=object))


def test_bits_roundtrip():
    rng = np.random.default_rng(10)
    p = RingParams(32)
    v = rng.integers(0, p.modulus, size=1000, dtype=np.uint64)
    assert np.array_equal(from_bits(ring.bits_of(v, p), p), v)


def test_params_validation():
    with pytest.raises(ValueError):
        RingParams(16, alpha=3, beta=3)  # 3 + 6 + 1 != 16
    with pytest.raises(ValueError):
        RingParams(65)
    with pytest.raises(ValueError):
        RingParams(12)  # not a machine-word width
    assert RingParams.fixed(32) == RingParams(32, 7, 12)
