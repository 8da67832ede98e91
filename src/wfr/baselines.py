"""Reference algorithms: the brute-force oracle and a Horspool baseline."""

from __future__ import annotations

from .engine import PositionStream, SearchOutcome, _match_len, scan_chunks
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
    return search_chunks("horspool", pattern, (text,))


def search_chunks(algo: str, pattern: bytes, chunks, k: int = 1) -> SearchOutcome:
    """:func:`stream_chunks` collected into one :class:`SearchOutcome`."""
    return stream_chunks(algo, pattern, chunks, k)._collect()


def stream_chunks(algo: str, pattern: bytes, chunks, k: int = 1) -> PositionStream:
    """Baseline ``algo``, ``"naive"`` or ``"horspool"``, over the text that
    ``chunks`` yields, as a :class:`PositionStream` on the engine's one scan
    driver (which validates ``k``, though neither uses it). The naive scan
    leaves the counters at 0."""
    if algo == "naive":
        return scan_chunks(_scan_naive, pattern, len(pattern), chunks, k)
    m = len(pattern)
    shift = [m] * 256
    for t in range(m - 1):
        shift[pattern[t]] = m - 1 - t
    return scan_chunks(_scan_horspool, (pattern, shift), m, chunks, k)


def _scan_naive(x: bytes, y: bytes, k: int, state, base: int):
    """:func:`naive_search` over window ``y``: the driver hands over every
    window with its first unchecked alignment at 0."""
    state[0] = max(state[0], len(y))
    yield [p + base for p in naive_search(x, y)]


def _scan_horspool(matcher, y: bytes, k: int, state, base: int):
    """Horspool over window ``y`` from window end ``state[0]``, which is
    ``p + m - 1`` for the alignment ``p``; the final advance counts too.
    Yields the window's positions as one list."""
    x, shift = matcher
    m, n = len(x), len(y)
    j, _, attempts, shifts, comparisons = state
    positions = []
    while j < n:
        attempts += 1
        p = j - m + 1
        t = _match_len(x, y, p)
        comparisons += t if t == m else t + 1
        if t == m:
            positions.append(p + base)
        adv = shift[y[j]]
        shifts += adv
        j += adv
    state[:] = (j, attempts, attempts, shifts, comparisons)
    yield positions
