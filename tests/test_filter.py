"""Tests for the factor filter and its params."""

import random

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
from wfr.baselines import prepare


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
