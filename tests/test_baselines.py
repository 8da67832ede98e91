"""Tests for the algorithm registry, the brute-force oracle and the Horspool baseline."""

import io
import random

import pytest

from wfr import ConfigurationError, InvalidPatternError, horspool_search, naive_search
from wfr.baselines import prepare


def test_naive_overlapping():
    assert naive_search(b"aab", b"aabaab") == [0, 3]


def test_naive_empty_text():
    assert naive_search(b"x", b"") == []


def test_naive_periodic():
    assert naive_search(b"aaa", b"aaaaa") == [0, 1, 2]


def test_naive_empty_pattern_rejected():
    with pytest.raises(InvalidPatternError):
        naive_search(b"", b"abc")


def test_horspool_overlapping():
    assert horspool_search(b"aab", b"aabaab").positions == [0, 3]


def test_horspool_no_match():
    assert horspool_search(b"abc", b"ababab").positions == []


def test_horspool_periodic():
    outcome = horspool_search(b"a" * 10, b"a" * 100)
    assert len(outcome.positions) == 91


def test_horspool_pattern_longer_than_text():
    outcome = horspool_search(b"abcd", b"ab")
    assert outcome.positions == []
    assert outcome.attempt_count == 0


def test_horspool_and_naive_counters():
    # Horspool verifies each alignment it opens: here 0 and 3, each a match
    # of 3 bytes that shifts by 3, the table's shift for b. Naive makes no
    # attempt and counts nothing, from a text or a file.
    outcome = prepare("horspool", b"aab").search(b"aabaab")
    counters = (outcome.attempt_count, outcome.verification_count, outcome.total_shift, outcome.check_comparisons)
    assert counters == (2, 2, 6, 6)
    for source in (b"aabaab", io.BytesIO(b"aabaab")):
        outcome = prepare("naive", b"aab").search(source)
        assert outcome.positions == [0, 3]
        counters = (outcome.attempt_count, outcome.verification_count, outcome.total_shift, outcome.check_comparisons)
        assert counters == (0, 0, 0, 0)


def test_horspool_empty_pattern_rejected():
    with pytest.raises(InvalidPatternError):
        horspool_search(b"", b"abc")


def test_horspool_matches_oracle_randomized():
    rng = random.Random(5)
    for _ in range(300):
        sigma = rng.choice([2, 4, 20, 64, 256])
        m = rng.randint(1, 32)
        n = rng.randint(0, 1500)
        text = bytes(rng.choices(range(sigma), k=n))
        if n >= m and rng.random() < 0.5:
            off = rng.randint(0, n - m)
            pattern = text[off : off + m]
        else:
            pattern = bytes(rng.choices(range(sigma), k=m))
        outcome = horspool_search(pattern, text)
        assert outcome.positions == naive_search(pattern, text)
        assert outcome.verification_count >= outcome.occurrence_count
        assert outcome.false_positive_count >= 0


def test_prepare_rejects_unknown_algorithm():
    with pytest.raises(ConfigurationError):
        prepare("bndm", b"ab")
