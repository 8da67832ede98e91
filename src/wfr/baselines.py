"""Reference algorithms: the brute-force oracle and a Horspool baseline."""

from __future__ import annotations

from .engine import SearchOutcome, _match_len
from .errors import InvalidPatternError


def naive_search(pattern: bytes, text: bytes) -> list[int]:
    """All start positions of ``pattern`` in ``text``, by direct comparison
    at every alignment. O(n*m) worst case; this is the correctness oracle."""
    m = len(pattern)
    if m == 0:
        raise InvalidPatternError("pattern must be at least one byte")
    return [p for p in range(len(text) - m + 1) if text[p : p + m] == pattern]


def horspool_search(pattern: bytes, text: bytes) -> SearchOutcome:
    """Boyer-Moore-Horspool search with a 256-entry bad-character shift table.

    Every alignment is verified directly, so verification_count equals
    attempt_count; shifts come from the last character of the window.
    """
    m = len(pattern)
    n = len(text)
    if m == 0:
        raise InvalidPatternError("pattern must be at least one byte")
    outcome = SearchOutcome()

    shift = [m] * 256
    for t in range(m - 1):
        shift[pattern[t]] = m - 1 - t

    positions = outcome.positions
    attempts = 0
    comparisons = 0
    total_shift = 0
    last = n - m
    p = 0
    while p <= last:
        attempts += 1
        t = _match_len(pattern, text, p)
        comparisons += t if t == m else t + 1
        if t == m:
            positions.append(p)
        adv = shift[text[p + m - 1]]
        total_shift += adv
        p += adv

    outcome.verification_count = attempts
    outcome.attempt_count = attempts
    outcome.total_shift = total_shift
    outcome.check_comparisons = comparisons
    return outcome
