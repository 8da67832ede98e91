"""Tests for the factor filter and its params."""

import random
import tracemalloc

import pytest

from wfr import (
    ConfigurationError,
    FactorFilter,
    FilterParams,
    InvalidPatternError,
    hash_factor,
    preprocess,
    search,
)
from wfr import engine
from wfr.baselines import naive_search, prepare


def test_default_params():
    params = FilterParams()
    assert params.alpha == 16
    assert params.shift_s == 2
    assert params.table_bits == 65536
    assert params.hash_mask == 0xFFFF


@pytest.mark.parametrize("alpha", [7, 31, 0, -1, 100])
def test_alpha_out_of_range_rejected(alpha):
    with pytest.raises(ConfigurationError):
        FilterParams(alpha=alpha)


@pytest.mark.parametrize("shift_s", [0, 3, -1])
def test_bad_shift_rejected(shift_s):
    with pytest.raises(ConfigurationError):
        FilterParams(shift_s=shift_s)


def _set_values(flt):
    return {v for v in range(flt.params.table_bits) if flt.test_bit(v)}


def _factor_hashes(pattern, params):
    m = len(pattern)
    return {hash_factor(pattern[i:j], params) for i in range(m) for j in range(i + 1, m + 1)}


def test_fresh_filter_all_zero():
    # A new filter holds its pattern's factor bits and nothing else.
    flt = preprocess(b"a", FilterParams(alpha=8))
    assert flt.popcount() == 1
    assert all(not flt.test_bit(v) for v in range(256) if v != 97)


def test_set_then_test():
    # The factor b"\x00" hashes to 0.
    assert preprocess(b"\x00").test_bit(0)


def test_neighbor_untouched():
    flt = preprocess(b"a")
    assert flt.test_bit(97)
    assert not flt.test_bit(96)
    assert not flt.test_bit(98)


def test_set_idempotent():
    # "a", "b" and "ab" occur twice in "abab" but set one bit each.
    flt = preprocess(b"abab")
    assert flt.popcount() == len(_factor_hashes(b"abab", flt.params)) == 7


def test_selected_members_only():
    flt = preprocess(b"ab")
    assert flt.test_bit(98)
    assert not flt.test_bit(99)


def test_exhaustive_alpha8():
    # Every single-byte factor hashes to its own value: 256 bytes saturate alpha=8.
    flt = preprocess(bytes(range(256)), FilterParams(alpha=8))
    assert flt.popcount() == 256
    assert all(flt.test_bit(v) for v in range(256))


def test_membership_matches_reference_set():
    # Exact contents: every factor hash is set and no other bit is.
    rng = random.Random(7)
    cases = [(rng.randbytes(40), FilterParams(alpha=12))]
    for _ in range(60):
        sigma = rng.choice([2, 4, 20, 256])
        pattern = bytes(rng.choices(range(sigma), k=rng.randint(1, 32)))
        params = FilterParams(alpha=rng.choice([8, 12, 16]), shift_s=rng.choice([1, 2]))
        cases.append((pattern, params))
    for pattern, params in cases:
        flt = preprocess(pattern, params)
        reference = _factor_hashes(pattern, params)
        assert _set_values(flt) == reference
        assert flt.popcount() == len(reference)


def test_out_of_range_bit_rejected():
    flt = preprocess(b"a", FilterParams(alpha=8))
    with pytest.raises(ValueError):
        flt.test_bit(256)
    with pytest.raises(ValueError):
        flt.test_bit(-1)


def test_preprocess_ab_popcount():
    # Factors of "ab" are "a", "b", "ab": three distinct hashes.
    assert preprocess(b"ab").popcount() == 3


def test_filter_built_from_its_pattern():
    flt = FactorFilter(b"aab")
    assert flt.pattern == b"aab"
    assert _set_values(flt) == _set_values(preprocess(b"aab"))
    with pytest.raises(TypeError):
        FactorFilter()
    with pytest.raises(InvalidPatternError):
        FactorFilter(b"")


def test_filter_is_immutable():
    # Reassigning the pattern would make search miss [2, 4] with the bits of b"zzzz".
    flt = preprocess(b"zzzz")
    assert isinstance(flt.bits, bytes) and len(flt.bits) == flt.params.table_bits >> 3
    for name, value in (
        ("pattern", b"abab"),
        ("bits", preprocess(b"abab").bits),
        ("params", FilterParams(alpha=8)),
    ):
        with pytest.raises(AttributeError):
            setattr(flt, name, value)
    with pytest.raises(AttributeError):
        del flt.pattern
    assert flt.pattern == b"zzzz"
    # Every registry id returns an immutable matcher.
    for algo in ("naive", "horspool"):
        matcher = prepare(algo, b"zzzz")
        for name in ("pattern", "_scan"):
            with pytest.raises(AttributeError):
                setattr(matcher, name, getattr(preprocess(b"abab"), name))
        assert matcher.search(b"xxababab").positions == []
    with pytest.raises(ConfigurationError):
        search(b"abab", b"xxababab", factors=flt)


def test_table_size_checked_before_scan():
    # The scan never reads past a table that does not match its params.
    flt = preprocess(b"ab")
    object.__setattr__(flt, "bits", b"\xff")
    with pytest.raises(ConfigurationError):
        search(b"ab", b"xxab", factors=flt)


def _home(v, slots):
    """The slot where a probe of ``v`` starts in a hashed set of ``slots`` slots."""
    return (v * engine._HASH_MUL & 0xFFFFFFFF) >> (33 - slots.bit_length())


def _wrapped_chain(flt):
    """Whether some value in the hashed set sits before its home slot: its
    probe chain wrapped past the last slot."""
    cells = memoryview(flt.hashed).cast("I")
    return any(v != engine._EMPTY and _home(v, len(cells)) > h for h, v in enumerate(cells))


def _wrapping_pattern(params, rng):
    """``z1 + z2``, two ``L``-byte factors whose hashes are at least 2**16 and
    have the set's last slot as home, so the second one inserted wraps."""
    longest = -(-params.alpha // params.shift_s)
    _, slots = engine._layout(params, 2 * longest)
    found = []
    while len(found) < 2:
        z = rng.randbytes(longest)
        v = hash_factor(z, params)
        if v >= 1 << 16 and _home(v, slots) == slots - 1:
            found.append(z)
    return found[0] + found[1]


@pytest.mark.parametrize("shift_s", [1, 2])
@pytest.mark.parametrize("alpha", [17, 20, 24, 30])
def test_membership_exact_above_direct_part(alpha, shift_s, backend):
    # Every factor hash is in the filter, and popcount counts exactly those,
    # so the filter holds the reference set, without iterating 2**alpha values.
    params = FilterParams(alpha=alpha, shift_s=shift_s)
    rng = random.Random(alpha * 10 + shift_s)
    # Hashes 0 and 2**16, 2**17, ... (mod 2**alpha): equal modulo 2**16.
    colliding = b"\x00" * (24 // shift_s) + b"\x01"
    assert hash_factor(colliding[-(16 // shift_s) - 1 :], params) == 1 << 16
    patterns = [colliding, rng.randbytes(30 // shift_s)]
    patterns += [bytes(rng.choices(range(sigma), k=rng.randint(1, 30))) for sigma in (2, 4, 64, 256)]
    if (alpha, shift_s) != (17, 1):  # there the set of a 2*L-byte pattern would outgrow the bitset
        patterns.append(_wrapping_pattern(params, rng))
        assert _wrapped_chain(preprocess(patterns[-1], params))
    for pattern in patterns:
        flt = preprocess(pattern, params)
        reference = _factor_hashes(pattern, params)
        assert flt.hashed and len(flt.bits) == 1 << 13, pattern
        assert all(flt.test_bit(v) for v in reference)
        assert flt.popcount() == len(reference)
        for v in reference:  # a neighbour of a member is in the filter iff it is in the reference
            for other in (v ^ 1, v ^ (1 << 16), v ^ (1 << (alpha - 1))):
                assert flt.test_bit(other) == (other in reference)
        text = rng.randbytes(300) + pattern + bytes(pattern[:1]) * 40 + pattern
        assert search(pattern, text, params).positions == naive_search(pattern, text)


def test_hashed_part_size_checked_before_scan():
    # A probe of the set stops only at its value or an empty slot, and indexes
    # the set without a bounds check.
    flt = preprocess(b"ab", FilterParams(alpha=24))
    assert flt.hashed
    object.__setattr__(flt, "hashed", flt.hashed[:-4])
    with pytest.raises(ConfigurationError):
        flt.search(b"xxab")
    plain = preprocess(b"ab")
    object.__setattr__(plain, "hashed", b"\xff" * 128)
    with pytest.raises(ConfigurationError):
        plain.search(b"xxab")


def test_filter_memory_bounded_by_pattern(backend):
    # alpha=30 hashes into 2**30 values, but a 64-byte pattern has at most
    # 64 * 15 of them: the filter is 8 KiB of bitset plus an 8 KiB set.
    pattern = random.Random(3).randbytes(64)
    tracemalloc.start()
    try:
        flt = preprocess(pattern, FilterParams(alpha=30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (len(flt.bits), len(flt.hashed)) == (8 << 10, 8 << 10)


def test_plain_bitset_where_set_is_no_smaller(backend):
    # alpha=20, shift_s=2: a 2**17-byte bitset, L=10. Up to m=819 the set has
    # 2**14 slots (8 KiB + 64 KiB); from m=820 it would have 2**15, and
    # 8 KiB + 128 KiB is not smaller than the bitset.
    params = FilterParams(alpha=20, shift_s=2)
    rng = random.Random(5)
    for m, plain in ((819, False), (820, True), (1000, True)):
        pattern = bytes(rng.choices(range(64), k=m))
        flt = preprocess(pattern, params)
        assert (len(flt.bits), len(flt.hashed)) == ((1 << 17, 0) if plain else (1 << 13, 1 << 16))
        # Factors up to L=10 bytes long have every factor hash.
        reference = {hash_factor(pattern[i:j], params) for i in range(m) for j in range(i + 1, min(i + 10, m) + 1)}
        assert all(flt.test_bit(v) for v in reference)
        assert flt.popcount() == len(reference)
        text = bytes(rng.choices(range(64), k=2000)) + pattern + pattern[: m // 2] + pattern
        assert search(pattern, text, params).positions == naive_search(pattern, text)
