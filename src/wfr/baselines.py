"""The algorithm registry, the brute-force oracle and a Horspool baseline.

:func:`prepare` runs the paper's first phase for every id in :data:`ALGORITHMS`:
it preprocesses a pattern into a :class:`Matcher`, which runs the second."""

from __future__ import annotations

from functools import partial

from .engine import DEFAULT_PARAMS, FilterParams, Matcher, SearchOutcome, _as_bytes, _as_pattern, _match_len, preprocess
from .errors import ConfigurationError

ALGORITHMS = ("wfr", "naive", "horspool")


def prepare(algo: str, pattern: bytes, params: FilterParams = DEFAULT_PARAMS) -> Matcher:
    """Preprocess ``pattern`` for ``algo`` (:class:`ConfigurationError` unless
    it is in :data:`ALGORITHMS`) into its :class:`Matcher`, which checks the
    pattern. The baselines ignore wfr's ``params`` and, apart from its check,
    ``k``; naive's counters stay 0, and their scans are Python."""
    if algo == "wfr":
        return preprocess(pattern, params)
    if algo == "naive":
        return Matcher(pattern, _scan_naive, "python")
    if algo != "horspool":
        raise ConfigurationError(f"unknown algorithm {algo!r} (known: {', '.join(ALGORITHMS)})")
    shift: list[int] = []  # filled from the pattern that the matcher checked
    matcher = Matcher(pattern, partial(_scan_horspool, shift), "python")
    m = len(matcher.pattern)
    shift += [m] * 256
    for t, c in enumerate(matcher.pattern[:-1]):
        shift[c] = m - 1 - t
    return matcher


def naive_search(pattern: bytes, text: bytes) -> list[int]:
    """All start positions of ``pattern`` in ``text``, by direct comparison
    at every alignment. O(n*m) worst case; this is the correctness oracle.
    Both are taken as :class:`Matcher` takes them."""
    pattern, text = _as_pattern(pattern), _as_bytes(text, "text")
    m = len(pattern)
    return [p for p in range(len(text) - m + 1) if text[p : p + m] == pattern]


def horspool_search(pattern: bytes, text: bytes) -> SearchOutcome:
    """Boyer-Moore-Horspool search with a 256-entry bad-character shift table.

    Every alignment is verified directly, so verification_count equals
    attempt_count; shifts come from the last character of the window.
    """
    return prepare("horspool", pattern).search(text)


def _scan_naive(matcher: Matcher, y: bytes, k: int, state, pos) -> int:
    """:func:`naive_search` over window ``y`` from window end ``state[0]``
    (``p + m - 1`` for the alignment ``p``); the counters stay 0."""
    x = matcher.pattern
    m, j, base = len(x), state[0], state[4]
    stop = min(j + len(pos), len(y))  # at most one position per window end
    first = j - m + 1  # the alignment that ends at j
    # Slices of a bytes copy of the call's bytes compare faster than slices
    # of a file's window, a view.
    seg = bytes(y[first:stop])
    found = [p + first + base for p in range(stop - j) if seg[p : p + m] == x]
    pos[: len(found)] = found
    state[0] = stop
    return len(found)


def _scan_horspool(shift: list[int], matcher: Matcher, y: bytes, k: int, state, pos) -> int:
    """Horspool with bad-character table ``shift`` over window ``y`` from
    window end ``state[0]``, which is ``p + m - 1`` for the alignment ``p``."""
    x = matcher.pattern
    m = len(x)
    j, _, attempts, comparisons, base = state
    found, end = 0, len(y)
    while j < end:
        attempts += 1
        p = j - m + 1
        t = _match_len(x, y, p)
        comparisons += t if t == m else t + 1
        if t == m:
            pos[found] = p + base
            found += 1
            if found == len(pos):
                end = 0
        j += shift[y[j]]
    state[:4] = (j, attempts, attempts, comparisons)
    return found
