"""Tests for the membership bit vector."""

import random

import pytest

from wfr import ConfigurationError, FactorFilter, FilterParams, preprocess


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


def test_fresh_filter_all_zero():
    flt = FactorFilter(FilterParams(alpha=8))
    assert flt.popcount() == 0
    assert all(not flt.test_bit(v) for v in range(256))
    assert FactorFilter(FilterParams(alpha=16)).popcount() == 0


def test_set_then_test():
    flt = FactorFilter()
    flt.set_bit(0)
    assert flt.test_bit(0)


def test_neighbor_untouched():
    flt = FactorFilter()
    flt.set_bit(97)
    assert not flt.test_bit(96)
    assert not flt.test_bit(98)


def test_set_idempotent():
    flt = FactorFilter()
    flt.set_bit(489)
    flt.set_bit(489)
    assert flt.popcount() == 1


def test_selected_members_only():
    flt = FactorFilter()
    for v in (1, 5, 9):
        flt.set_bit(v)
    assert flt.test_bit(5)
    assert not flt.test_bit(6)


def test_exhaustive_alpha8():
    # Exhaustive loop oracle: setting every value saturates the table.
    flt = FactorFilter(FilterParams(alpha=8))
    for v in range(256):
        flt.set_bit(v)
    assert flt.popcount() == 256
    assert all(flt.test_bit(v) for v in range(256))


def test_membership_matches_reference_set():
    rng = random.Random(42)
    flt = FactorFilter(FilterParams(alpha=12))
    reference = set()
    for _ in range(500):
        v = rng.randrange(1 << 12)
        flt.set_bit(v)
        reference.add(v)
    assert flt.popcount() == len(reference)
    for v in range(1 << 12):
        assert flt.test_bit(v) == (v in reference)


def test_out_of_range_bit_rejected():
    flt = FactorFilter(FilterParams(alpha=8))
    with pytest.raises(ValueError):
        flt.set_bit(256)
    with pytest.raises(ValueError):
        flt.test_bit(-1)


def test_preprocess_ab_popcount():
    # Factors of "ab" are "a", "b", "ab": three distinct hashes.
    assert preprocess(b"ab").popcount() == 3
