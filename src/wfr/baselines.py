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


def _scan_naive(matcher: Matcher, y: bytes, k: int, state, base: int, pos) -> int:
    """:func:`naive_search` over window ``y`` from window end ``state[0]``
    (``p + m - 1`` for the alignment ``p``); the counters stay 0."""
    x = matcher.pattern
    m, j = len(x), state[0]
    stop = min(j + len(pos), len(y))  # at most one position per window end
    found = [i - m + 1 + base for i in range(j, stop) if y[i - m + 1 : i + 1] == x]
    pos[: len(found)] = found
    state[0] = stop
    return len(found)


def _scan_horspool(shift: list[int], matcher: Matcher, y: bytes, k: int, state, base: int, pos) -> int:
    """Horspool with bad-character table ``shift`` over window ``y`` from
    window end ``state[0]``, which is ``p + m - 1`` for the alignment ``p``;
    the final advance counts too."""
    x = matcher.pattern
    m = len(x)
    j, _, attempts, shifts, comparisons = state
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
        adv = shift[y[j]]
        shifts += adv
        j += adv
    state[:] = (j, attempts, attempts, shifts, comparisons)
    return found
